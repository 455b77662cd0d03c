"""Command-line surface: construct colorings, tabulate bounds, run exact
solvers, and batch-verify the Fourier identities.

Every artifact embeds the full run configuration (version, command, seed,
c-hat, kappa, budget), so identical invocations produce byte-identical
output.  A JSON artifact is exactly ``json.dumps(payload, sort_keys=True,
indent=2)`` plus LF, written by ``_json_text``; a coloring's entries, in JSON
and csv alike, come from its int8 bytes through a table.  Exit codes: 0 ok,
1 usage or I/O, 2 invariant breach, 3 search failure, 4 solver or
engine-table size limit exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .analysis import (
    check_subgroup_plancherel,
    fourier_checks,
    hereditary_upper_bound,
    lower_bound_main,
    lower_bound_prime_power,
    lower_bound_prop,
    max_progression_sum,
    upper_bound_main,
)
from .ap_system import Coloring
from .constructions import construct_best_coloring
from .engine import SearchFailed
from .exact import LimitExceeded, exact_disc, exact_herdisc, measure
from .number_theory import make_context

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_SEARCH = 3
EXIT_LIMIT = 4

SEED_ENV = "ZNDISC_SEED"

# the text format's sign line: int8 byte 1 -> "+", 0 and -1 (0xff) -> "-"
_SIGN_CHARS = b"-+" + b"-" * 254


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}") from exc


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"invalid {SEED_ENV}={env!r}")
    return 0


def _meta(args, command: str, seed: int) -> dict:
    cfg = {
        "seed": seed,
        "c_hat": getattr(args, "c_hat", None),
        "kappa": getattr(args, "kappa", None),
        "budget": getattr(args, "budget", None),
        "method": getattr(args, "method", None),
        "format": args.format,
    }
    return {"version": __version__, "command": command,
            "config": {k: v for k, v in cfg.items() if v is not None}}


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.lru_cache(maxsize=8)
def _int8_table(sep: str) -> np.ndarray:
    """Row b: the decimal text of the int8 value with byte b, then ``sep``,
    NUL-padded to a common width."""
    rows = [f"{b - 256 * (b > 127)}{sep}".encode() for b in range(256)]
    width = max(map(len, rows))
    return np.array([list(row.ljust(width, b"\0")) for row in rows], dtype=np.uint8)


def _int8_text(values: np.ndarray, sep: str) -> str:
    """``sep.join(map(str, values.tolist()))`` for an int8 array, one table
    row per entry: no Python object per entry."""
    text = np.take(_int8_table(sep), values.view(np.uint8), axis=0).tobytes()
    text = text.translate(None, b"\0")
    return text[: len(text) - len(sep)].decode("ascii")


def _json_text(obj, pad: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, where a 1-d
    integer ndarray stands for the list of its ints.

    The stdlib drops to its pure-Python encoder whenever ``indent`` is set; here
    every leaf is one ``json.dumps`` call, an int8 array (a coloring) goes
    through ``_int8_text`` and any other integer array is one join.  Other
    arrays and non-str keys raise TypeError.
    """
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("JSON object keys must be str")
        body = sep.join(f"{json.dumps(key)}: {_json_text(value, inner)}"
                        for key, value in sorted(obj.items()))
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(obj, np.ndarray):
        if obj.ndim != 1 or obj.dtype.kind not in "iu":
            raise TypeError(f"cannot write a {obj.ndim}-d {obj.dtype} array as JSON")
        if obj.dtype == np.int8:
            body = _int8_text(obj, sep)
        else:
            body = sep.join(map(str, obj.tolist()))
    elif isinstance(obj, (list, tuple)):
        body = sep.join(_json_text(value, inner) for value in obj)
    else:
        return json.dumps(obj)
    return f"[\n{inner}{body}\n{pad}]" if body else "[]"


def _emit_json(args, payload: dict) -> None:
    _emit(args, _json_text(payload) + "\n")


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _ns_range(args) -> list[int]:
    if args.range is not None:
        lo, hi = args.range
        return list(range(lo, hi + 1))
    if args.n is not None:
        return [args.n]
    raise ValueError("one of --n or --range is required")


def _is_prime(n: int) -> bool:
    ctx = make_context(n)
    return ctx.omega == 1 and ctx.factors[0][1] == 1


def cmd_bounds(args) -> int:
    seed = _resolve_seed(args)
    ns = _ns_range(args)
    rows = []
    for n in ns:
        if n < 1:
            print(f"n must be positive, got n={n}", file=sys.stderr)
            return EXIT_USAGE
        ctx = make_context(n)
        upper = upper_bound_main(ctx, args.c_hat)
        lower = lower_bound_main(ctx)
        # best truncation point over the divisor grid
        best_prop = max(
            (lower_bound_prop(ctx, l) for l in ctx.divisors),
            key=lambda rep: rep.value,
        )
        pp = None
        if ctx.omega == 1:
            p, k = ctx.factors[0]
            pp = lower_bound_prime_power(p, k)
        hered = hereditary_upper_bound(ctx, args.c_hat)
        rows.append({
            "n": n,
            "upper_main": upper.value,
            "upper_r": upper.witness["r"],
            "lower_main": lower.value,
            "lower_main_r": lower.witness["r"],
            "lower_prop": best_prop.value,
            "lower_prop_l": best_prop.witness["l"],
            "lower_prime_power": None if pp is None else pp.value,
            "hereditary_upper": hered.value,
        })
    if args.format == "csv":
        header = list(rows[0].keys()) if rows else [
            "n", "upper_main", "upper_r", "lower_main", "lower_main_r",
            "lower_prop", "lower_prop_l", "lower_prime_power", "hereditary_upper",
        ]
        _emit(args, _csv_text(header, [[r[h] for h in header] for r in rows]))
    elif args.format == "text":
        lines = [
            f"n={r['n']} upper={r['upper_main']:.4f}(r={r['upper_r']}) "
            f"lower={r['lower_main']:.4f} prop={r['lower_prop']:.4f}"
            for r in rows
        ]
        _emit(args, "\n".join(lines) + ("\n" if lines else ""))
    else:
        _emit_json(args, {"meta": _meta(args, "bounds", seed),
                          "inputs": {"ns": ns}, "results": rows})
    return EXIT_OK


def cmd_construct(args) -> int:
    seed = _resolve_seed(args)
    if args.n is None or args.n < 1:
        print("--n is required and must be positive", file=sys.stderr)
        return EXIT_USAGE
    ctx = make_context(args.n)
    try:
        chi, report = construct_best_coloring(
            ctx, c_hat=args.c_hat, seed=seed, kappa=args.kappa,
            retries=args.budget, measure=False,
        )
    except SearchFailed as exc:
        print(f"search failed (cell r={exc.cell}): {exc}", file=sys.stderr)
        return EXIT_SEARCH
    except LimitExceeded as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_LIMIT
    measured = measure(chi, ctx, period=report.r_star)
    report = dataclasses.replace(report, measured_t=measured["T"])
    report_dict = {**report.as_dict(), "measure": measured}
    if args.format == "csv":
        _emit(args, _int8_text(chi.values, "\n") + "\n")
        print(json.dumps(report_dict, sort_keys=True), file=sys.stderr)
    elif args.format == "text":
        _emit(args, f"n={args.n} r*={report.r_star} predicted={report.predicted:.4f} "
                    f"T={report.measured_t} base_congruence_max="
                    f"{report.base_congruence_max}\n"
                    + chi.values.tobytes().translate(_SIGN_CHARS).decode("ascii") + "\n")
    else:
        payload = {
            "meta": _meta(args, "construct", seed),
            "inputs": {"n": args.n},
            "results": [{
                "coloring": chi.values,
                **report_dict,
            }],
        }
        _emit_json(args, payload)
    if report.base_congruence_max > 1:
        print("invariant breach: base congruence max exceeds 1", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _run_exact_oracle(args, command: str, solve) -> int:
    """Shared body of `exact` and `herdisc`: solve(ctx) returns the result row.

    The JSON artifact goes to --out, or to stdout with --format json; the bare
    value is printed beside --out and in the other formats.
    """
    seed = _resolve_seed(args)
    if args.n is None or args.n < 1:
        print("--n is required and must be positive", file=sys.stderr)
        return EXIT_USAGE
    try:
        row = solve(make_context(args.n))
    except LimitExceeded as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_LIMIT
    if args.out or args.format == "json":
        _emit_json(args, {"meta": _meta(args, command, seed),
                          "inputs": {"n": args.n}, "results": [row]})
    if args.out or args.format != "json":
        print(row["value"])
    return EXIT_OK


def cmd_exact(args) -> int:
    def solve(ctx):
        res = exact_disc(ctx, method=args.method)
        return {
            "value": res.value,
            "method": res.method,
            "nodes_explored": res.nodes_explored,
            "coloring": res.optimal_coloring.values,
        }

    return _run_exact_oracle(args, "exact", solve)


def cmd_herdisc(args) -> int:
    def solve(ctx):
        value, witness = exact_herdisc(ctx)
        return {"value": value, "witness_subset": list(witness)}

    return _run_exact_oracle(args, "herdisc", solve)


def _fourier_suite(n: int, trials: int, seed: int) -> list[dict]:
    ctx = make_context(n)
    rng = np.random.default_rng(seed)
    functions = []
    for _ in range(trials):
        functions.append(rng.integers(0, 2, size=n) * 2 - 1)
    for _ in range(trials):
        functions.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    stats: dict[str, dict] = {}

    def record(name: str, passed: np.ndarray, err: np.ndarray) -> None:
        s = stats.setdefault(name, {"checks": 0, "passes": 0, "worst_error": 0.0})
        s["checks"] += int(passed.size)
        s["passes"] += int(passed.sum())
        s["worst_error"] = max(s["worst_error"], float(err.max()))

    for f in functions:
        fhat = np.fft.fft(np.asarray(f, dtype=np.complex128))
        t_f = max_progression_sum(
            Coloring(n, f) if np.isrealobj(f) else f
        )
        plancherel = [check_subgroup_plancherel(f, r, fhat=fhat) for r in ctx.divisors]
        record("subgroup_plancherel", np.array([res.passed for res in plancherel]),
               np.array([res.error for res in plancherel]))
        for name, grid in fourier_checks(f, ctx, fhat=fhat, t_f=t_f).items():
            record(name, grid.passed, grid.error)
    return [{"identity": k, **v} for k, v in sorted(stats.items())]


def cmd_fourier_check(args) -> int:
    seed = _resolve_seed(args)
    if args.n is None or args.n < 1:
        print("--n is required and must be positive", file=sys.stderr)
        return EXIT_USAGE
    if args.trials < 1:
        print("--trials must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    rows = _fourier_suite(args.n, args.trials, seed)
    payload = {
        "meta": _meta(args, "fourier-check", seed),
        "inputs": {"n": args.n, "trials": args.trials},
        "results": rows,
    }
    if args.format == "csv":
        header = ["identity", "checks", "passes", "worst_error"]
        _emit(args, _csv_text(header, [[r[h] for h in header] for r in rows]))
    elif args.format == "text":
        _emit(args, "\n".join(
            f"{r['identity']}: {r['passes']}/{r['checks']} worst_error={r['worst_error']:.3g}"
            for r in rows
        ) + "\n")
    else:
        _emit_json(args, payload)
    if any(r["passes"] != r["checks"] for r in rows):
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_sweep(args) -> int:
    seed = _resolve_seed(args)
    ns = _ns_range(args)
    if args.primes_only:
        ns = [n for n in ns if n >= 2 and _is_prime(n)]
    rows = []
    for n in ns:
        ctx = make_context(n)
        try:
            chi, report = construct_best_coloring(
                ctx, c_hat=args.c_hat, seed=seed, kappa=args.kappa,
                retries=args.budget,
            )
        except SearchFailed as exc:
            print(f"search failed at n={n} (cell r={exc.cell})", file=sys.stderr)
            return EXIT_SEARCH
        except LimitExceeded as exc:
            print(f"limit exceeded at n={n}: {exc}", file=sys.stderr)
            return EXIT_LIMIT
        rows.append({
            "n": n,
            "r_star": report.r_star,
            "predicted": report.predicted,
            "measured_t": report.measured_t,
            "base_congruence_max": report.base_congruence_max,
        })
    fit = None
    usable = [r for r in rows if r["measured_t"] and r["measured_t"] > 0 and r["n"] > 1]
    if len(usable) >= 2:
        xs = np.log([r["n"] for r in usable])
        ys = np.log([r["measured_t"] for r in usable])
        slope, intercept = np.polyfit(xs, ys, 1)
        fit = {"slope": float(slope), "intercept": float(intercept),
               "points": len(usable)}
    if args.format == "csv":
        header = ["n", "r_star", "predicted", "measured_t", "base_congruence_max"]
        text = _csv_text(header, [[r[h] for h in header] for r in rows])
        if fit is not None:
            text += f"# fit_slope={fit['slope']!r} points={fit['points']}\n"
        _emit(args, text)
    elif args.format == "text":
        lines = [f"n={r['n']} r*={r['r_star']} T={r['measured_t']}" for r in rows]
        if fit is not None:
            lines.append(f"fit slope={fit['slope']:.4f} over {fit['points']} points")
        _emit(args, "\n".join(lines) + ("\n" if lines else ""))
    else:
        _emit_json(args, {"meta": _meta(args, "sweep", seed),
                          "inputs": {"ns": ns}, "results": rows, "fit": fit})
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, ranged: bool = False) -> None:
    """The flags every subcommand takes; with ``ranged``, --range too, and
    --n together with --range is a usage error."""
    if ranged:
        which = p.add_mutually_exclusive_group()
        which.add_argument("--n", type=int, default=None)
        which.add_argument("--range", type=_parse_range, default=None, metavar="A..B")
    else:
        p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (falls back to ${SEED_ENV}, then 0)")
    p.add_argument("--c-hat", type=float, default=1.0, dest="c_hat")
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--budget", type=int, default=64, help="engine restart budget")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--method", choices=("exhaustive", "branch_and_bound"),
                   default="branch_and_bound")


@functools.cache  # built once per process: parsing never changes the parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zndisc",
        description="Low-discrepancy colorings of Z_n over modular progressions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="tabulate upper/lower bound formulas")
    _add_common(p, ranged=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("construct", help="build and measure a coloring of Z_n")
    _add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("exact", help="exact discrepancy by full search")
    _add_common(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("herdisc", help="exact hereditary discrepancy")
    _add_common(p)
    p.set_defaults(func=cmd_herdisc)

    p = sub.add_parser("fourier-check", help="verify the spectral identities")
    _add_common(p)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_fourier_check)

    p = sub.add_parser("sweep", help="construct over a range and fit the growth")
    _add_common(p, ranged=True)
    p.add_argument("--primes-only", action="store_true")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
