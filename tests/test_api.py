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
    from zndisc import analysis, cli, engine, exact, number_theory

    for fn in (cli.main, analysis.upper_bound_main, analysis.max_progression_sum,
               zndisc.make_context, number_theory.make_context, exact.exact_disc,
               exact.exact_herdisc):
        assert callable(fn)
    params = inspect.signature(exact.exact_disc).parameters
    assert list(params)[:1] == ["ctx"] and "method" in params and "limit" in params

    # the scans take the coloring alone: its least period picks the route
    from zndisc import ap_system

    for fn in (ap_system.max_ap_discrepancy, exact.measure,
               ap_system.max_congruence_discrepancy):
        assert list(inspect.signature(fn).parameters) == ["chi"], fn.__name__

    # what bench/tracing.py reads off results: constraint pairs from a
    # request's .blocks and .deltas, signed points from its .x, and nodes
    # from an ExactResult
    req = engine.build_c2_request(1061, range(1, 531), engine.DeltaSchedule.main(1061))
    assert req.blocks and req.x.size == 530
    for size, group in req.blocks.items():
        assert isinstance(size, int) and isinstance(len(group), int)
    assert all(isinstance(size, int) and isinstance(delta, float)
               for size, delta in req.deltas.items())
    assert isinstance(exact.exact_disc(zndisc.make_context(6)).nodes_explored, int)
