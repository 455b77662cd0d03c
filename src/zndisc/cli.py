"""Command-line surface: construct colorings, tabulate bounds, run exact
solvers, and batch-verify the Fourier identities.

Every artifact embeds the version, the command and the flags the subcommand
reads, so identical invocations produce byte-identical output.  A JSON
artifact is exactly ``json.dumps(payload, sort_keys=True, indent=2)`` plus LF,
written by ``_json_text``; a coloring's entries, in JSON and csv alike, come
from its int8 bytes through a table.  Exit codes: 0 ok, 1 usage or I/O, 2
invariant breach, 3 search failure, 4 solver or engine-table size limit
exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .analysis import (
    _PASS_ROWS,
    fourier_checks,
    hereditary_upper_bound,
    lower_bound_main,
    lower_bound_prime_power,
    lower_bound_prop,
    upper_bound_main,
)
from .constructions import construct_best_coloring
from .engine import SearchFailed
from .exact import LimitExceeded, exact_disc, exact_herdisc
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
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}") from exc
    if lo > hi:
        raise argparse.ArgumentTypeError(f"expected A <= B, got {text!r}")
    return lo, hi


def _resolve_seed(args) -> int:
    """--seed, else $ZNDISC_SEED, else 0; ValueError, naming the source, on a
    value that is not a nonnegative integer."""
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        env = os.environ.get(SEED_ENV)
        if env is None:
            return 0
        try:
            seed, source = int(env), SEED_ENV
        except ValueError:
            raise ValueError(f"invalid {SEED_ENV}={env!r}")
    if seed < 0:
        raise ValueError(f"{source} must be nonnegative, got {seed}")
    return seed


def _meta(args, command: str, seed: int | None = None) -> dict:
    """Version, command and the flags the subcommand reads; ``seed`` is the
    resolved seed, None where the subcommand reads no seed."""
    cfg = {"seed": seed, **{key: getattr(args, key, None)
                            for key in ("c_hat", "kappa", "budget", "method", "format")}}
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


def _emit_rows(args, payload: dict, columns: tuple[str, ...], lines: list[str],
               csv_notes: tuple[str, ...] = ()) -> None:
    """Write a table artifact in ``args.format``: ``payload`` as JSON; its
    ``results`` rows as csv under a ``columns`` header (None is empty), then
    ``csv_notes``; or the text ``lines``."""
    if args.format == "csv":
        lines = [",".join(columns), *(
            ",".join("" if row[c] is None else str(row[c]) for c in columns)
            for row in payload["results"]), *csv_notes]
    if args.format == "json":
        _emit_json(args, payload)
    else:
        _emit(args, "".join(line + "\n" for line in lines))


def _invariant_exit(rows: list[dict]) -> int:
    """EXIT_INVARIANT, after naming each n whose base class sums exceed 1."""
    breached = [row["n"] for row in rows if row["base_congruence_max"] > 1]
    for n in breached:
        print(f"invariant breach at n={n}: base congruence max exceeds 1", file=sys.stderr)
    return EXIT_INVARIANT if breached else EXIT_OK


def _ns_range(args) -> list[int]:
    if args.range is not None:
        lo, hi = args.range
        return list(range(lo, hi + 1))
    if args.n is not None:
        return [args.n]
    raise ValueError("one of --n or --range is required")


_BOUNDS_COLUMNS = ("n", "upper_main", "upper_r", "lower_main", "lower_main_r", "lower_prop",
                   "lower_prop_l", "lower_prime_power", "hereditary_upper")


def cmd_bounds(args) -> int:
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
        rows.append(dict(zip(_BOUNDS_COLUMNS, (
            n, upper.value, upper.witness["r"], lower.value, lower.witness["r"],
            best_prop.value, best_prop.witness["l"], None if pp is None else pp.value,
            hered.value,
        ))))
    _emit_rows(args, {"meta": _meta(args, "bounds"), "inputs": {"ns": ns}, "results": rows},
               _BOUNDS_COLUMNS,
               [f"n={r['n']} upper={r['upper_main']:.4f}(r={r['upper_r']}) "
                f"lower={r['lower_main']:.4f} prop={r['lower_prop']:.4f}" for r in rows])
    return EXIT_OK


def cmd_construct(args) -> int:
    seed = _resolve_seed(args)
    ctx = make_context(args.n)
    try:
        chi, report = construct_best_coloring(
            ctx, c_hat=args.c_hat, seed=seed, kappa=args.kappa,
            retries=args.budget,
        )
    except SearchFailed as exc:
        print(f"search failed (cell r={exc.cell}): {exc}", file=sys.stderr)
        return EXIT_SEARCH
    except LimitExceeded as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_LIMIT
    report_dict = vars(report)  # the fields as they are: asdict would deep-copy `measure`
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
    return _invariant_exit([report_dict])


def _run_exact_oracle(args, command: str, solve) -> int:
    """Shared body of `exact` and `herdisc`: solve(ctx) returns the result row.

    The JSON artifact goes to --out, or to stdout with --format json; the bare
    value is printed beside --out and in the other formats.
    """
    try:
        row = solve(make_context(args.n))
    except LimitExceeded as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_LIMIT
    if args.out or args.format == "json":
        _emit_json(args, {"meta": _meta(args, command),
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
    rng = np.random.default_rng(seed)
    # one stack per route: +-1 on the exact int64 route, complex on float64
    signs = np.array([rng.integers(0, 2, size=n) * 2 - 1 for _ in range(trials)])
    waves = np.array([rng.standard_normal(n) + 1j * rng.standard_normal(n)
                      for _ in range(trials)])
    stats: dict[str, dict] = {}
    # _PASS_ROWS rows a call, each row its one-function call's, so the check grids
    # stay bounded in trials (the input stacks are trials x n) and the sums and
    # maxima are the whole stack's
    for rows in (stack[lo : lo + _PASS_ROWS] for stack in (signs, waves)
                 for lo in range(0, trials, _PASS_ROWS)):
        for name, grid in fourier_checks(rows).items():
            s = stats.setdefault(name, {"checks": 0, "passes": 0, "worst_error": 0.0})
            s["checks"] += int(grid.passed.size)
            s["passes"] += int(grid.passed.sum())
            s["worst_error"] = max(s["worst_error"], float(grid.error.max()))
    return [{"identity": k, **v} for k, v in sorted(stats.items())]


def cmd_fourier_check(args) -> int:
    seed = _resolve_seed(args)
    if args.trials < 1:
        print("--trials must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        rows = _fourier_suite(args.n, args.trials, seed)
    except LimitExceeded as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_LIMIT
    _emit_rows(args, {"meta": _meta(args, "fourier-check", seed),
                      "inputs": {"n": args.n, "trials": args.trials}, "results": rows},
               ("identity", "checks", "passes", "worst_error"),
               [f"{r['identity']}: {r['passes']}/{r['checks']} worst_error={r['worst_error']:.3g}"
                for r in rows])
    if any(r["passes"] != r["checks"] for r in rows):
        return EXIT_INVARIANT
    return EXIT_OK


_SWEEP_COLUMNS = ("n", "r_star", "predicted", "measured_t", "base_congruence_max")


def cmd_sweep(args) -> int:
    seed = _resolve_seed(args)
    ns = _ns_range(args)
    if args.primes_only:
        ns = [n for n in ns if n >= 2 and make_context(n).is_prime]
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
        rows.append({c: getattr(report, c) for c in _SWEEP_COLUMNS})
    fit = None
    usable = [r for r in rows if r["measured_t"] > 0 and r["n"] > 1]
    if len(usable) >= 2:
        xs = np.log([r["n"] for r in usable])
        ys = np.log([r["measured_t"] for r in usable])
        slope, intercept = np.polyfit(xs, ys, 1)
        fit = {"slope": float(slope), "intercept": float(intercept),
               "points": len(usable)}
    lines = [f"n={r['n']} r*={r['r_star']} T={r['measured_t']}" for r in rows]
    notes = ()
    if fit is not None:
        lines.append(f"fit slope={fit['slope']:.4f} over {fit['points']} points")
        notes = (f"# fit_slope={fit['slope']!r} points={fit['points']}",)
    _emit_rows(args, {"meta": _meta(args, "sweep", seed), "inputs": {"ns": ns},
                      "results": rows, "fit": fit}, _SWEEP_COLUMNS, lines, notes)
    return _invariant_exit(rows)


# every flag past --n, --format and --out, with its parse settings
_FLAGS = {
    "--range": dict(type=_parse_range, default=None, metavar="A..B"),
    "--seed": dict(type=int, default=None, help=f"RNG seed (falls back to ${SEED_ENV}, then 0)"),
    "--c-hat": dict(type=float, default=1.0),
    "--kappa": dict(type=float, default=1.0),
    "--budget": dict(type=int, default=64, help="engine restart budget"),
    "--method": dict(choices=("exhaustive", "branch_and_bound"), default="branch_and_bound"),
    "--trials": dict(type=int, default=20),
    "--primes-only": dict(action="store_true"),
}

# (name, function, help, the _FLAGS it reads); a flag it does not read is a usage error
_SUBCOMMANDS = (
    ("bounds", cmd_bounds, "tabulate upper/lower bound formulas", ("--range", "--c-hat")),
    ("construct", cmd_construct, "build and measure a coloring of Z_n",
     ("--seed", "--c-hat", "--kappa", "--budget")),
    ("exact", cmd_exact, "exact discrepancy by full search", ("--method",)),
    ("herdisc", cmd_herdisc, "exact hereditary discrepancy", ()),
    ("fourier-check", cmd_fourier_check, "verify the spectral identities", ("--seed", "--trials")),
    ("sweep", cmd_sweep, "construct over a range and fit the growth",
     ("--range", "--seed", "--c-hat", "--kappa", "--budget", "--primes-only")),
)


@functools.cache  # built once per process: parsing never changes the parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zndisc",
        description="Low-discrepancy colorings of Z_n over modular progressions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        # --n together with --range is a usage error
        which = p.add_mutually_exclusive_group() if "--range" in flags else p
        which.add_argument("--n", type=int, default=None)
        for flag in flags:
            (which if flag == "--range" else p).add_argument(flag, **_FLAGS[flag])
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", type=str, default=None)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # a subcommand without --range reads one n, which it needs
    if "range" not in args and (args.n is None or args.n < 1):
        print("--n is required and must be positive", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
