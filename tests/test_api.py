import importlib
import inspect

import zndisc

LAYERS = ("number_theory", "ap_system", "engine", "constructions", "analysis", "exact", "cli")


def test_public_api_surface():
    # every exported name resolves; bench/tracing.py looks each one up by name
    missing = [name for name in zndisc.__all__ if not hasattr(zndisc, name)]
    for layer in LAYERS:
        module = importlib.import_module(f"zndisc.{layer}")
        missing += [f"{layer}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []

    # the entry points bench/workloads.py calls
    from zndisc import analysis, cli, exact, number_theory

    for fn in (cli.main, analysis.upper_bound_main, analysis.max_progression_sum,
               zndisc.make_context, number_theory.make_context, exact.exact_disc,
               exact.exact_herdisc):
        assert callable(fn)
    params = inspect.signature(exact.exact_disc).parameters
    assert list(params)[:1] == ["ctx"] and "method" in params and "limit" in params
