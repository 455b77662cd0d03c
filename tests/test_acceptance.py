"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines as they
complete.  Calibrated constants recorded here: ENGINE_KAPPA (the engine's
fixed allowance multiplier: its requests take the schedule's b(s) as is),
POWER_RATIO_CAP (measured-to-predicted ratio cap for n = 2^k),
HEREDITARY_CONST (subset-coloring constant C_h).
"""

import math
import time

import numpy as np
import pytest

from zndisc.analysis import (
    class_power,
    fourier_checks,
    lower_bound_main,
    lower_bound_prime_power,
    lower_bound_prop,
)
from zndisc.ap_system import (
    Coloring,
    congruence_class_sums,
    max_ap_discrepancy,
    max_ap_discrepancy_batch,
    max_congruence_discrepancy,
)
from zndisc.constructions import (
    CrtBox,
    congruence_balanced_coloring,
    construct_best_coloring,
    crt_box_coloring,
    hereditary_coloring,
    lift_coloring,
)
from zndisc.engine import DeltaSchedule, SearchFailed, partial_color
from zndisc.exact import exact_disc, exact_herdisc
from zndisc.number_theory import make_context

from .oracles import max_progression_sum_per_step, scaled_request, weighted_lhs_all_m

ENGINE_KAPPA = 1.0  # the engine's fixed allowance multiplier (cap 4)
POWER_RATIO_CAP = 16.0  # spec cap for measured T / predicted at n = 2^k
SLOPE_BAND = (0.38, 0.62)  # 0.5 +- 0.12
HEREDITARY_CONST = 6.0  # recorded C_h (worst observed ~2.4)

PRIMES_50_2000 = [
    53, 61, 79, 89, 107, 131, 149, 181, 197, 241, 263, 311, 347, 401,
    443, 577, 739, 919, 1129, 1361, 1597, 1823, 1999,
]


def report(num, ok, detail):
    print(f"[ACCEPTANCE] criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def exact_values():
    values = {}
    for n in range(1, 15):
        ctx = make_context(n)
        ex = exact_disc(ctx, "exhaustive")
        bb = exact_disc(ctx, "branch_and_bound")
        values[n] = (ex.value, bb.value)
    return values


def test_criterion_1_oracle_self_consistency(exact_values):
    mismatches = [n for n, (a, b) in exact_values.items() if a != b]
    # re-run both methods to time them end to end on one core
    t0 = time.perf_counter()
    for n in range(1, 15):
        ctx = make_context(n)
        assert exact_disc(ctx, "exhaustive").value == exact_values[n][0]
        assert exact_disc(ctx, "branch_and_bound").value == exact_values[n][0]
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed <= 60.0
    report(1, ok, f"exhaustive == branch-and-bound for n<=14, both methods in "
                  f"{elapsed:.1f}s (limit 60s)")
    assert ok


def test_criterion_2_lower_bound_soundness(exact_values):
    violations = []
    for n in range(1, 15):
        ctx = make_context(n)
        disc = exact_values[n][0]
        if disc < lower_bound_main(ctx).value:
            violations.append((n, "main"))
        for l in range(1, n + 1):
            if disc < lower_bound_prop(ctx, l).value:
                violations.append((n, f"prop l={l}"))
        if ctx.omega == 1:
            p, k = ctx.factors[0]
            if disc < lower_bound_prime_power(p, k).value:
                violations.append((n, "prime_power"))
    ok = not violations
    report(2, ok, f"exact disc dominates every lower bound for n<=14 "
                  f"({len(violations)} violations)")
    assert ok


def _random_box(ctx, rng):
    return CrtBox(ctx=ctx, extents=tuple(int(rng.integers(1, p**e + 1))
                                         for p, e in ctx.factors))


def test_criterion_3_exact_structural_invariants():
    rng = np.random.default_rng(30_001)
    bad_cong = 0
    bad_cancel = 0
    for trial in range(200):
        n = int(rng.integers(1, 2001))
        seed = int(rng.integers(0, 1 << 30))
        ctx = make_context(n)
        chi = congruence_balanced_coloring(ctx, seed=seed)
        if max_congruence_discrepancy(chi) > 1:
            bad_cong += 1
        box = _random_box(ctx, rng)
        cb = crt_box_coloring(box, seed=seed + 1)
        v = cb.values.astype(np.int64)
        for r in box.cancellation_moduli():
            if np.any(congruence_class_sums(v, r) != 0):
                bad_cancel += 1
    ok = bad_cong == 0 and bad_cancel == 0
    report(3, ok, f"200 random (n<=2000, seed): class sums <= 1 "
                  f"({bad_cong} breaches), box cancellation exact "
                  f"({bad_cancel} breaches)")
    assert ok


def test_criterion_4_lifting_inequality():
    rng = np.random.default_rng(40_001)
    violations = 0
    checked = 0
    for n in range(1, 201):
        ctx = make_context(n)
        for r in ctx.divisors:
            base = rng.integers(0, 2, size=(20, r)) * 2 - 1
            t_r = max_ap_discrepancy_batch(r, base)
            cong_r = np.array([
                max_congruence_discrepancy(Coloring(r, row)) for row in base
            ])
            lifted = np.tile(base, (1, n // r))
            t_n = max_ap_discrepancy_batch(n, lifted)
            checked += 20
            violations += int(np.sum(t_n > t_r + (n // r) * cong_r))
    ok = violations == 0
    report(4, ok, f"lift bound holds exactly for all n<=200, all r|n, 20 random "
                  f"colorings each ({checked} checks, {violations} violations)")
    assert ok


def _fourier_one(f, ctx, stats):
    """Vectorized full-(m, l) verification for one function; updates stats."""
    n = ctx.n
    arr = np.asarray(f, dtype=np.complex128)
    fhat = np.fft.fft(arr)
    F = np.abs(fhat) ** 2
    w = np.gcd(np.arange(n, dtype=np.int64), n).astype(np.float64)
    if np.isrealobj(f) and np.issubdtype(np.asarray(f).dtype, np.integer):
        t_f, _ = max_ap_discrepancy(Coloring(n, f))
        t_f = float(t_f)
    else:
        t_f = max_progression_sum_per_step(arr)
    Gr = {r: float(class_power(arr, r)) for r in ctx.divisors}
    m = np.arange(1, n + 1, dtype=np.float64)
    tol = 1e-6 * (n * m) ** 2
    lhs_all = weighted_lhs_all_m(arr)

    def upd(name, err):
        stats[name] = max(stats.get(name, -np.inf), err)

    # spectral mass on each subgroup vs class power (equality, rel 1e-8)
    for r in ctx.divisors:
        lhs = float((np.abs(fhat[:: n // r][:r]) ** 2).sum())
        rhs = r * Gr[r]
        upd("subgroup_plancherel", abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))

    # gcd-weighted spectral lower bound on the double sum (all m)
    weight_max = np.maximum(np.outer(m * m, w) / n, m[:, None])
    rhs2 = weight_max @ F
    upd("rhs_lower", float(((rhs2 - lhs_all) / tol).max()))

    # discrepancy + class-power upper bound on the double sum (all m)
    step = np.zeros(n + 1)
    for k in ctx.divisors:
        if k < n:
            step[k + 1] += totient_ratio(k) * Gr[n // k]
    a_strict = np.cumsum(step)[1:]
    rhs3 = n * n * t_f * t_f + m * m * a_strict
    upd("lhs_upper", float(((lhs_all - rhs3) / tol).max()))

    # divisor identity (equality, m-independent after scaling)
    lhs4 = sum(totient_ratio(k) * Gr[n // k] for k in ctx.divisors)
    rhs4 = float((F * w).sum()) / n
    upd("mobius_identity", abs(lhs4 - rhs4) / max(1.0, abs(lhs4), abs(rhs4)))

    # truncated divisor inequality over the full (m, l) grid
    weight_min = np.minimum(np.outer(m * m, w) / n, m[:, None])
    lhs5 = weight_min @ F
    a_full = np.zeros(n + 1)
    b_tail = np.zeros(n + 1)
    for k in ctx.divisors:
        a_full[k:] += totient_ratio(k) * Gr[n // k]
        b_tail[:k] += (n / k) * Gr[n // k]
    a_full = a_full[1:]
    b_tail = b_tail[1:]
    rhs5 = np.outer(m * m, a_full) + np.outer(m, b_tail)
    gap5 = (lhs5[:, None] - rhs5) / tol[:, None]
    upd("mobius_inequality", float(gap5.max()))

    # combined lower-bound inequality (all m)
    upd("composite_lower", float(((rhs2 - rhs3) / tol).max()))


def totient_ratio(k):
    from zndisc.number_theory import totient

    return totient(k) / k


def test_criterion_5_fourier_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(50_001)
    eq_names = {"subgroup_plancherel", "mobius_identity"}
    worst = {}
    for n in (8, 12, 30, 48, 64):
        ctx = make_context(n)
        stats = {}
        for _ in range(100):
            _fourier_one(rng.integers(0, 2, n) * 2 - 1, ctx, stats)
        for _ in range(100):
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            _fourier_one(f, ctx, stats)
        # tie the vectorized run to the library's checks on a spot sample
        chi = rng.integers(0, 2, n) * 2 - 1
        grid = fourier_checks(chi)
        for name, checked in grid.items():
            assert checked.passed.all(), name
        for name, err in stats.items():
            worst[name] = max(worst.get(name, -np.inf), err)
    elapsed = time.perf_counter() - t0
    eq_fail = [k for k in eq_names if worst[k] > 1e-8]
    ineq_fail = [k for k in worst if k not in eq_names and worst[k] > 1.0]
    ok = not eq_fail and not ineq_fail and elapsed <= 600
    detail = (
        "equalities rel<=1e-8, inequalities within 1e-6*n^2*m^2; worst: "
        + ", ".join(f"{k}={worst[k]:.2e}" for k in sorted(worst))
        + f"; {elapsed:.0f}s (limit 600s)"
    )
    report(5, ok, detail)
    assert ok


def test_criterion_6_upper_bound_scaling():
    t0 = time.perf_counter()
    failures = []
    points = []
    for p in PRIMES_50_2000:
        ctx = make_context(p)
        try:
            _, rep = construct_best_coloring(ctx, c_hat=1.0, seed=60_000 + p)
        except SearchFailed:
            failures.append(p)
            continue
        points.append((p, rep.measured_t))
    slope = np.polyfit(np.log([p for p, _ in points]),
                       np.log([t for _, t in points]), 1)[0]
    ratios = []
    for k in range(1, 15):
        n = 1 << k
        ctx = make_context(n)
        _, rep = construct_best_coloring(ctx, c_hat=1.0, seed=61_000 + k)
        r = rep.r_star
        denom = n / r + math.sqrt(r) * 2 ** ctx.omega_of_divisor(r)
        ratios.append(rep.measured_t / denom)
    elapsed = time.perf_counter() - t0
    ok = (
        not failures
        and len(points) >= 20
        and SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]
        and max(ratios) <= POWER_RATIO_CAP
    )
    report(6, ok, f"{len(points)} primes: slope={slope:.3f} in "
                  f"[{SLOPE_BAND[0]}, {SLOPE_BAND[1]}]; powers of two: "
                  f"C={max(ratios):.2f} <= {POWER_RATIO_CAP}; kappa="
                  f"{ENGINE_KAPPA} <= 4; {elapsed:.0f}s")
    assert ok


def _certify_blocks(n, xs, values, schedule, kappa):
    """Full-family block check, written against the orbit definition."""
    xs = np.asarray(xs)
    m = xs.size
    limits = [kappa * schedule.b(1 << scale) + 1e-9 for scale in range(m.bit_length())]
    for d in range(1, n):
        g = math.gcd(d, n)
        L = n // g
        a = xs % g
        k = (xs - a) // g * pow(d // g, -1, L) % L
        order = np.lexsort((k, a))
        sa = a[order]
        cuts = np.flatnonzero(np.diff(sa)) + 1
        for grp in np.split(order, cuts):
            vals = values[xs[grp]].astype(np.int64)
            P = np.concatenate([[0], np.cumsum(vals)])
            l = vals.size
            scale = 0
            while (1 << scale) <= l:
                size = 1 << scale
                nb = l >> scale
                sums = P[size : size * nb + 1 : size] - P[0 : size * nb : size]
                if np.any(np.abs(sums) > limits[scale]):
                    return False
                scale += 1
    return True


def test_criterion_7_engine_contract():
    rng = np.random.default_rng(70_001)
    cases = []
    for _ in range(500):
        n = int(rng.integers(1, 513))
        xs = np.flatnonzero(rng.integers(0, 2, n))
        if xs.size == 0:
            xs = np.array([int(rng.integers(0, n))])
        cases.append((n, xs, int(rng.integers(0, 1 << 30))))

    def run_at(kappa, full_check_every):
        failed = 0
        uncertified = 0
        for idx, (n, xs, seed) in enumerate(cases):
            sched = DeltaSchedule.main(n)
            try:
                chi = partial_color(scaled_request(n, xs, sched, kappa, seed=seed))
            except SearchFailed:
                failed += 1
                continue
            m = xs.size
            if np.count_nonzero(chi.values) < -(-m // 10):
                uncertified += 1
                continue
            if idx % full_check_every == 0:
                if not _certify_blocks(n, xs, chi.values, sched, kappa):
                    uncertified += 1
        return failed, uncertified

    failed1, uncert1 = run_at(1.0, 5)
    failed4, uncert4 = run_at(4.0, 5)
    ok = uncert1 == 0 and uncert4 == 0 and failed4 < 5  # < 1% of 500
    report(7, ok, f"500 invocations: kappa=1 certified ({failed1} search "
                  f"failures, {uncert1} certification breaches); kappa=4 "
                  f"failure rate {failed4}/500 < 1% ({uncert4} breaches)")
    assert ok


def test_criterion_8_hereditary_path():
    violations = []
    for n in range(1, 13):
        ctx = make_context(n)
        her, _ = exact_herdisc(ctx)
        if her < exact_disc(ctx, "exhaustive").value:
            violations.append(n)
    rng = np.random.default_rng(80_001)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 1025))
        ctx = make_context(n)
        xs = np.flatnonzero(rng.integers(0, 2, n))
        if xs.size == 0:
            xs = np.array([int(rng.integers(0, n))])
        chi = hereditary_coloring(ctx, xs, seed=int(rng.integers(1 << 30)))
        t, _ = max_ap_discrepancy(chi)
        bound = math.sqrt(ctx.phi) * math.log(math.e * n / ctx.phi) ** 1.5
        worst = max(worst, t / bound)
    ok = not violations and worst <= HEREDITARY_CONST
    report(8, ok, f"herdisc >= disc for n<=12 ({len(violations)} violations); "
                  f"50 subsets n<=1024: worst ratio {worst:.2f} <= C_h="
                  f"{HEREDITARY_CONST}")
    assert ok


def test_criterion_9_cli_determinism(tmp_path):
    from zndisc.cli import EXIT_OK, main

    commands = [
        ["construct", "--n", "48", "--seed", "9"],
        ["bounds", "--range", "2..24", "--format", "csv"],
        ["exact", "--n", "10", "--method", "branch_and_bound"],
        ["fourier-check", "--n", "12", "--trials", "3", "--seed", "4"],
        ["sweep", "--range", "2..16", "--seed", "2"],
        ["herdisc", "--n", "7"],
    ]
    mismatched = []
    for i, args in enumerate(commands):
        p1 = tmp_path / f"run{i}a.out"
        p2 = tmp_path / f"run{i}b.out"
        assert main(args + ["--out", str(p1)]) == EXIT_OK
        assert main(args + ["--out", str(p2)]) == EXIT_OK
        if p1.read_bytes() != p2.read_bytes():
            mismatched.append(args[0])
    ok = not mismatched
    report(9, ok, f"{len(commands)} CLI commands repeated byte-identically "
                  f"(mismatches: {mismatched or 'none'})")
    assert ok
