import ast
import importlib
import inspect
from pathlib import Path

import zndisc

LAYERS = ("number_theory", "ap_system", "engine", "constructions", "analysis", "exact", "cli")


def test_public_api_surface(monkeypatch):
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

    # bench/tracing.py counts constructions.cells as calls of the exported
    # crt_box_coloring, which the library makes through the module attribute:
    # one per _balanced_cells entry
    from zndisc import constructions

    assert "crt_box_coloring" in constructions.__all__
    boxes = []

    def spy(box, *args, real=constructions.crt_box_coloring, **kwargs):
        boxes.append(box)
        return real(box, *args, **kwargs)

    monkeypatch.setattr(constructions, "crt_box_coloring", spy)
    ctx = zndisc.make_context(360)
    constructions.congruence_balanced_coloring(ctx)
    assert boxes == [box for _, box, _ in constructions._balanced_cells(ctx)]
    assert len(boxes) == 6  # 360 = 2^3 3^2 5: 2^3 whole, 3 exponents of 3, 2 of 5


def test_every_unexported_name_has_a_reader_in_src():
    # a module-level function, class or constant outside its module's __all__
    # must be read somewhere in src/, not only by the tests
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(zndisc.__file__).parent.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        exported = set(getattr(importlib.import_module(f"zndisc.{module}"), "__all__", ()))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{module}.{name}" for name in names
                       if name not in exported and name not in read
                       and not (name.startswith("__") and name.endswith("__"))]
    assert unread == []
