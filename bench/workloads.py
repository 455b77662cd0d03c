"""The benchmark's workloads: inputs from the seed, units of work, and checks.

A workload's ``prepare`` builds the contexts and inputs from the seed (the
part of a run that ``setup_s`` times) and returns its units: each unit is a
list of operations, one program call each.  A run repeats the whole list of
units; ``parse`` turns the outputs of one round into records, ``check``
verifies them with the independent checker, and ``faults`` plants one fault
per check into copies of the records so that the run can show every check
trips.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import zndisc
import zndisc.analysis
import zndisc.cli
import zndisc.exact
import zndisc.number_theory

import check

# Every prime in [1025, 1100), in a seed-shuffled order: the whole of Z_p
# is one engine cell, about 0.7 s and a 126 MB peak each.  With X of m = (p-1)/2 >=
# 512 points every cell binds the same dyadic scales (128, 256 and 512), so
# the cells cost about the same; twelve colorings per round keep the median
# T ratio steady across seeds.
PRIME_RANGE = (1025, 1100)
# 7-smooth n within 2.5 % of 4096, each built twice with different engine
# seeds: r* is small and the window scan dominates.
SMOOTH_NS = (4000, 4032, 4050, 4096, 4116, 4200) * 2
# Branch and bound just past its default cap of 22, exhaustive search at its
# cap, hereditary discrepancy where full enumeration still checks it.
BB_N, EXHAUSTIVE_N, HERDISC_N = 24, 16, 10
EXACT_SMALL_NS = range(1, 11)
# fourier-check draws its test functions from --seed; a fixed seed keeps
# t_ratio, the median discrepancy of those functions, the same on every run.
FOURIER_RUNS = ((24, 2), (48, 2))
FOURIER_SEED = 1


@dataclass
class Op:
    """One program call: ``run`` is timed, ``collect`` is not."""

    label: str
    run: Callable[[], object]
    collect: Callable[[object], object]
    ok: Callable[[object], bool] = lambda result: True


@dataclass
class Plan:
    units: list[list[Op]]
    contexts: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)


def _cli_op(label: str, argv: list[str], out: Path) -> Op:
    def collect(code):
        data = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        return code, data

    return Op(label, lambda: zndisc.cli.main(argv), collect, lambda code: code == 0)


def _upper(ctx) -> float:
    return zndisc.analysis.upper_bound_main(ctx).value


def _is_prime(n: int) -> bool:
    ctx = zndisc.number_theory.make_context(n)
    return ctx.factors == ((n, 1),)


class Construct:
    """`zndisc construct --out FILE` over a list of n, one unit per n."""

    def __init__(self, name: str, pick: Callable[[random.Random], list[int]]):
        self.name, self._pick = name, pick

    def prepare(self, seed: int, out_dir: Path) -> Plan:
        rng = random.Random(seed)
        ns = self._pick(rng)
        plan = Plan(units=[], contexts={n: zndisc.make_context(n) for n in ns})
        for i, n in enumerate(ns):
            s = rng.randrange(1 << 31)
            out = out_dir / f"construct-{i}.json"
            argv = ["construct", "--n", str(n), "--seed", str(s), "--out", str(out)]
            plan.units.append([_cli_op(f"construct n={n} seed={s}", argv, out)])
        return plan

    def parse(self, plan: Plan, outputs: dict) -> list[dict]:
        return [json.loads(outputs[op.label][1])["results"][0]
                for unit in plan.units for op in unit if op.label in outputs]

    def t_ratios(self, plan: Plan, records: list[dict]) -> list[float]:
        return [r["measured_t"] / _upper(plan.contexts[r["n"]]) for r in records]

    def check(self, plan: Plan, records: list[dict], rep: check.Report, seed: int) -> None:
        for rec in records:
            check.check_construct(rep, rec, seed)

    def faults(self, plan: Plan, records: list[dict], seed: int):
        rec = records[0]
        n, t = rec["n"], rec["measured_t"]
        v = np.asarray(rec["coloring"], dtype=np.int64)

        def planted(change):
            bad = copy.deepcopy(rec)
            change(bad)
            return [bad]

        def set_t(value):
            def change(r):
                r["measured_t"] = r["measure"]["T"] = value
            return change

        def zero_entry(r):
            r["coloring"][0] = 0

        def flip_in_witness(r):
            w = r["measure"]["witness"]
            x = int(check.progression(n, w["a"], w["d"], w["length"])[0])
            r["coloring"][x] = -r["coloring"][x]

        def unbalance_base(r):
            period = r["r_star"]
            plus = [x for x in range(period) if r["coloring"][x] == 1][:2]
            for x in plus:
                for y in range(x, n, period):
                    r["coloring"][y] = -1

        def wrong_r_star(r):
            r["r_star"] = 1 if r["r_star"] != 1 else n

        def wrong_total(r):
            r["measure"]["total_sum"] += 2

        sampled = check.random_progression_max(v, np.random.default_rng([seed, n]))
        floor = max(int(np.abs(check.class_sums(v, r)).max()) for r in check.divisors(n))
        return [
            ("full_pm1", "one point left uncolored", planted(zero_entry)),
            ("witness_sum", "one flipped sign on the witness", planted(flip_in_witness)),
            ("witness_sum", "T-1 reported", planted(set_t(t - 1))),
            ("random_progressions", "T below a sampled progression", planted(set_t(sampled - 1))),
            ("congruence_floor", "T below a class sum", planted(set_t(floor - 1))),
            ("base_balanced", "two base signs flipped in every period", planted(unbalance_base)),
            ("r_star", "another divisor reported as r*", planted(wrong_r_star)),
            ("measure_tables", "total sum off by two", planted(wrong_total)),
        ]


def _exact_op(label: str, call) -> Op:
    return Op(label, call, lambda r: (r.value, r.nodes_explored, r.optimal_coloring.values.tolist()))


class ExactOracles:
    """Branch and bound past its cap, exhaustive search, exact herdisc: one unit.

    These take only n, so the seed changes no input: their answers and their
    cost are fixed by the method.
    """

    name = "exact-oracles"

    def prepare(self, seed: int, out_dir: Path) -> Plan:
        nt, ex = zndisc.number_theory, zndisc.exact
        unit = [
            _exact_op(f"branch_and_bound n={BB_N}",
                      lambda: ex.exact_disc(nt.make_context(BB_N), limit=BB_N)),
            _exact_op(f"exhaustive n={EXHAUSTIVE_N}",
                      lambda: ex.exact_disc(nt.make_context(EXHAUSTIVE_N), method="exhaustive")),
            Op(f"herdisc n={HERDISC_N}", lambda: ex.exact_herdisc(nt.make_context(HERDISC_N)),
               lambda r: (r[0], list(r[1]))),
        ]
        return Plan(units=[unit],
                    contexts={n: nt.make_context(n) for n in (BB_N, EXHAUSTIVE_N, HERDISC_N)})

    def parse(self, plan: Plan, outputs: dict) -> dict:
        """Round outputs plus program optima at small n, for full enumeration."""
        small = {}
        for method in ("branch_and_bound", "exhaustive"):
            for n in EXACT_SMALL_NS:
                ctx = zndisc.number_theory.make_context(n)
                small[(method, n)] = zndisc.exact.exact_disc(ctx, method=method).value
        return {
            "bb": outputs.get(f"branch_and_bound n={BB_N}"),
            "exhaustive": outputs.get(f"exhaustive n={EXHAUSTIVE_N}"),
            "herdisc": outputs.get(f"herdisc n={HERDISC_N}"),
            "small": small,
        }

    def t_ratios(self, plan: Plan, records: dict) -> list[float]:
        return [records[key][0] / _upper(plan.contexts[n])
                for key, n in (("bb", BB_N), ("exhaustive", EXHAUSTIVE_N))
                if records[key] is not None]

    def check(self, plan: Plan, records: dict, rep: check.Report, seed: int) -> None:
        for key, n in (("bb", BB_N), ("exhaustive", EXHAUSTIVE_N)):
            if records[key] is not None:
                value, _, coloring = records[key]
                check.check_exact(rep, n, value, coloring, f"exact_disc[{key}] n={n}")
        check.check_exact_small(rep, records["small"])
        if records["herdisc"] is not None:
            value, subset = records["herdisc"]
            check.check_herdisc(rep, HERDISC_N, value, subset, check.naive_herdisc(HERDISC_N))

    def faults(self, plan: Plan, records: dict, seed: int):
        def planted(change):
            bad = copy.deepcopy(records)
            change(bad)
            return bad

        def lower_value(r):
            value, nodes, coloring = r["bb"]
            r["bb"] = (value - 1, nodes, coloring)

        def zero_entry(r):
            r["bb"][2][0] = 0

        def small_off(r):
            r["small"][("branch_and_bound", max(EXACT_SMALL_NS))] += 1

        def herdisc_off(r):
            r["herdisc"] = (r["herdisc"][0] + 1, r["herdisc"][1])

        def herdisc_point(r):
            r["herdisc"] = (r["herdisc"][0], [0])

        return [
            ("exact_witness", "branch-and-bound value-1", planted(lower_value)),
            ("full_pm1", "one point of the optimum uncolored", planted(zero_entry)),
            ("exact_vs_naive", "small-n optimum off by one", planted(small_off)),
            ("herdisc", "herdisc value+1", planted(herdisc_off)),
            ("herdisc_witness", "a one-point witness subset", planted(herdisc_point)),
        ]


class AnalysisSuite:
    """`zndisc fourier-check --out FILE` at each (n, trials): one unit."""

    name = "analysis-suite"

    def prepare(self, seed: int, out_dir: Path) -> Plan:
        unit, functions = [], {}
        for n, trials in FOURIER_RUNS:
            out = out_dir / f"fourier-{n}.json"
            argv = ["fourier-check", "--n", str(n), "--trials", str(trials),
                    "--seed", str(FOURIER_SEED), "--out", str(out)]
            unit.append(_cli_op(f"fourier-check n={n}", argv, out))
            # The +-1 functions fourier-check draws first from its seed.
            rng = np.random.default_rng(FOURIER_SEED)
            functions[n] = [rng.integers(0, 2, size=n) * 2 - 1 for _ in range(trials)]
        return Plan(units=[unit],
                    contexts={n: zndisc.make_context(n) for n, _ in FOURIER_RUNS},
                    inputs={"functions": functions})

    def parse(self, plan: Plan, outputs: dict) -> dict:
        runs = {}
        for n, trials in FOURIER_RUNS:
            got = outputs.get(f"fourier-check n={n}")
            if got is not None:
                code, data = got
                runs[n] = {"trials": trials, "code": code,
                           "payload": json.loads(data) if data else None}
        functions = plan.inputs["functions"]
        ts = {n: [int(zndisc.analysis.max_progression_sum(f)) for f in fs]
              for n, fs in functions.items()}
        return {"runs": runs, "ts": ts}

    def t_ratios(self, plan: Plan, records: dict) -> list[float]:
        return [t / _upper(plan.contexts[n]) for n, ts in records["ts"].items() for t in ts]

    def check(self, plan: Plan, records: dict, rep: check.Report, seed: int) -> None:
        for n, run in records["runs"].items():
            check.check_fourier(rep, n, run["trials"], run["code"], run["payload"])
        for n, ts in records["ts"].items():
            check.check_t_values(rep, plan.inputs["functions"][n], ts)

    def faults(self, plan: Plan, records: dict, seed: int):
        n = FOURIER_RUNS[0][0]

        def planted(change):
            bad = copy.deepcopy(records)
            change(bad)
            return bad

        def row(r):
            return r["runs"][n]["payload"]["results"][0]

        def miscount(r):
            row(r)["checks"] -= 1
            row(r)["passes"] -= 1

        def one_failed(r):
            row(r)["passes"] -= 1

        def bad_exit(r):
            r["runs"][n]["code"] = 2

        def lower_t(r):
            r["ts"][n][0] -= 1

        return [
            ("fourier_counts", "one check miscounted", planted(miscount)),
            ("fourier_passes", "one check failed", planted(one_failed)),
            ("fourier_exit", "exit code 2", planted(bad_exit)),
            ("fourier_t", "T-1 for one function", planted(lower_t)),
        ]


def _primes(rng: random.Random) -> list[int]:
    primes = [p for p in range(*PRIME_RANGE) if _is_prime(p)]
    rng.shuffle(primes)
    return primes


def _smooth(rng: random.Random) -> list[int]:
    ns = list(SMOOTH_NS)
    rng.shuffle(ns)
    return ns


WORKLOADS = {
    w.name: w for w in (
        Construct("prime-construct", _primes),
        Construct("smooth-construct", _smooth),
        ExactOracles(),
        AnalysisSuite(),
    )
}
