import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zndisc import engine
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
    _balanced_cells,
)
from zndisc.engine import BudgetExceeded, SearchFailed, _derived_seed
from zndisc.exact import measure
from zndisc.number_theory import make_context

from .test_ap_system import full_route


def class_sum_naive(values, r, w):
    return sum(int(values[x]) for x in range(len(values)) if x % r == w)


# ----------------------------------------------------------------- lifting

def test_lift_examples():
    chi = Coloring(3, [1, 1, -1])
    assert np.array_equal(lift_coloring(chi, 3).values, chi.values)
    assert np.array_equal(
        lift_coloring(chi, 6).values, np.array([1, 1, -1, 1, 1, -1], dtype=np.int8)
    )
    ones = lift_coloring(Coloring(1, [1]), 5)
    assert np.all(ones.values == 1)
    # n = 0 returned an empty coloring, as 0 % r == 0
    for n in (7, 0, -3):
        with pytest.raises(ValueError):
            lift_coloring(chi, n)


def test_lift_inequality_random():
    rng = np.random.default_rng(101)
    for _ in range(150):
        n = int(rng.integers(2, 120))
        ctx = make_context(n)
        r = int(rng.choice(ctx.divisors))
        base = Coloring(r, rng.integers(0, 2, r) * 2 - 1)
        t_r, _ = max_ap_discrepancy(base)
        c_r = max_congruence_discrepancy(base)
        lifted = lift_coloring(base, n)
        t_n, _ = max_ap_discrepancy(lifted)
        assert t_n <= t_r + (n // r) * c_r


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.data())
def test_lift_inequality_property(n, data):
    # T_n <= T_r + (n/r) cong_r, both T on the full (batch) scan, not the periodic one
    r = data.draw(st.sampled_from(make_context(n).divisors))
    base = np.array(data.draw(st.lists(st.sampled_from((-1, 1)), min_size=r, max_size=r)))
    t_r = int(max_ap_discrepancy_batch(r, base[None, :])[0])
    t_n = int(max_ap_discrepancy_batch(n, np.tile(base, n // r)[None, :])[0])
    assert t_n <= t_r + (n // r) * max_congruence_discrepancy(Coloring(r, base))


# ------------------------------------------------------- interval doubling
# a one-factor box starting at 0 doubles the interval [0, extent)

def test_interval_doubling_tiny():
    box = CrtBox(ctx=make_context(8), extents=(2,))
    chi = crt_box_coloring(box, seed=0)
    assert int(chi.values[:2].sum()) == 0
    assert np.count_nonzero(chi.values) == 2


def test_interval_doubling_class_cancellation():
    # p = 3, m = 6: classes mod 1 and mod 3 vanish on the interval
    box = CrtBox(ctx=make_context(9), extents=(6,))
    assert box.cancellation_moduli() == (3,)
    chi = crt_box_coloring(box, seed=2)
    sup = chi.support()
    assert list(sup) == [0, 1, 2, 3, 4, 5]
    for r in (1, 3):
        for w in range(r):
            assert class_sum_naive(chi.values, r, w) == 0
    assert int(chi.values.sum()) == 0


# ------------------------------------------------------------ prime powers

def test_prime_power_p2():
    chi = congruence_balanced_coloring(make_context(2), seed=0)
    assert sorted(chi.values.tolist()) == [-1, 1]
    assert max_congruence_discrepancy(chi) == 1

    ctx = make_context(8)
    chi = congruence_balanced_coloring(ctx, seed=1)
    for gamma in range(3):
        for w in range(2**gamma):
            assert class_sum_naive(chi.values, 2**gamma, w) == 0
    assert max_congruence_discrepancy(chi) == 1


def test_prime_power_odd():
    chi = congruence_balanced_coloring(make_context(3), seed=0)
    assert abs(class_sum_naive(chi.values, 1, 0)) == 1
    assert max_congruence_discrepancy(chi) == 1
    for p, a in [(3, 3), (5, 2), (7, 1), (11, 1)]:
        chi = congruence_balanced_coloring(make_context(p**a), seed=p + a)
        assert chi.is_full()
        assert max_congruence_discrepancy(chi) <= 1


# --------------------------------------------------------------- CRT boxes

def test_crt_box_example_n12():
    ctx = make_context(12)
    box = CrtBox(ctx=ctx, extents=(4, 3))
    chi = crt_box_coloring(box, seed=3)
    assert np.count_nonzero(chi.values) == 12
    # 4 / 2^1 is even, 4 / 2^2 is not: b = 1, r_1 = 12 / 2^(2 - 1) = 6
    assert box.cancellation_moduli() == (6,)
    for r in (3, 6):  # the classes mod 3 are unions of those mod 6
        for w in range(r):
            assert class_sum_naive(chi.values, r, w) == 0


def test_crt_box_no_doubling_is_plain_engine():
    ctx = make_context(15)
    box = CrtBox(ctx=ctx, extents=(3, 5))
    chi = crt_box_coloring(box, seed=1)
    assert np.count_nonzero(chi.values) == 15


def test_crt_box_validation():
    ctx = make_context(12)
    with pytest.raises(ValueError):
        CrtBox(ctx=ctx, extents=(5, 3))  # extent too big
    with pytest.raises(ValueError):
        CrtBox(ctx=ctx, extents=(0, 3))  # empty coordinate
    with pytest.raises(ValueError):
        CrtBox(ctx=ctx, extents=(4,))  # one extent per factor


def test_crt_box_random_cancellation_exact():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 800))
        ctx = make_context(n)
        extents = tuple(int(rng.integers(1, p**e + 1)) for p, e in ctx.factors)
        box = CrtBox(ctx=ctx, extents=extents)
        chi = crt_box_coloring(box, seed=int(rng.integers(1 << 20)))
        assert np.count_nonzero(chi.values) == math.prod(extents)
        moduli = box.cancellation_moduli()
        assert len(moduli) == sum(t % 2 == 0 for t in extents)
        for r in moduli:
            sums = congruence_class_sums(chi.values.astype(np.int64), r)
            assert np.all(sums == 0)


# ------------------------------------------------- balanced full colorings

def test_balanced_cells_partition():
    for n in (2, 12, 36, 90, 128, 210):
        ctx = make_context(n)
        seen = np.zeros(n, dtype=int)
        for r, box, shift in _balanced_cells(ctx):
            assert math.prod(box.extents) <= r
            from zndisc.constructions import _box_elements

            elems = (_box_elements(ctx, box.extents) + shift) % n
            seen[elems] += 1
        assert np.all(seen == 1)


def test_balanced_coloring_examples():
    chi = congruence_balanced_coloring(make_context(1), seed=0)
    assert chi.values.tolist() == [1]
    assert max_congruence_discrepancy(chi) == 1

    chi = congruence_balanced_coloring(make_context(7), seed=1)
    assert max_congruence_discrepancy(chi) <= 1

    ctx = make_context(12)
    chi = congruence_balanced_coloring(ctx, seed=2)
    assert chi.is_full()
    assert max_congruence_discrepancy(chi) <= 1
    assert chi.values[0] == 1  # sign normalization


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 1061])
def test_balanced_coloring_at_an_odd_prime_is_the_quadratic_character(monkeypatch, p):
    # (x/p) by Euler's criterion, 0 -> +1, whatever the seed, and no engine request
    def no_engine(*args, **kwargs):
        raise AssertionError("engine request at a prime")

    monkeypatch.setattr("zndisc.constructions.full_color_iterate", no_engine)
    want = [1] + [1 if pow(x, (p - 1) // 2, p) == 1 else -1 for x in range(1, p)]
    for seed in (0, 1, 9):
        chi = congruence_balanced_coloring(make_context(p), seed=seed)
        assert chi.values.tolist() == want
    assert max_congruence_discrepancy(chi) == 1 and int(chi.values[1:].sum()) == 0


def test_balanced_coloring_at_2_takes_the_engine(monkeypatch):
    calls = []
    real = engine.full_color_iterate
    monkeypatch.setattr("zndisc.constructions.full_color_iterate",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    chi = congruence_balanced_coloring(make_context(2), seed=0)
    assert chi.is_full() and max_congruence_discrepancy(chi) <= 1
    assert len(calls) == 1  # Z_2 is one cell, r = 2, doubled from one point


# sha256 of the engine's seed-1 coloring of the unit cell of Z_p, the half box
# [0, (p-1)/2) doubled; no construct reaches the engine at a prime, so these
# pin its path there: at 1061 the request binds 1 628 160 (point, block)
# pairs, and at 4001 the walk table has 64 000 finest-scale ids, so the walk's
# runs are sized by the ids, not by _RUN_CELLS
@pytest.mark.parametrize("p, digest", [
    (1061, "b3a95ff894c9acb2b7a7dc9876ba2696c18fe536b41c7300c2448f398b7328b0"),
    (4001, "128210aab88ad0621b8c3b24d9ab00098f40c748349bf1b0fe99b71f46593a03"),
])
def test_engine_prime_cell_digest(p, digest):
    cell = crt_box_coloring(CrtBox(make_context(p), (p - 1,)), seed=_derived_seed(1, 1))
    assert hashlib.sha256(cell.values.tobytes()).hexdigest() == digest


def test_balanced_coloring_random_moduli():
    rng = np.random.default_rng(404)
    for _ in range(40):
        n = int(rng.integers(1, 600))
        ctx = make_context(n)
        chi = congruence_balanced_coloring(ctx, seed=int(rng.integers(1 << 20)))
        assert chi.is_full()
        assert max_congruence_discrepancy(chi) <= 1


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 500), st.integers(0, 1 << 20))
def test_balanced_coloring_class_sums_property(n, seed):
    chi = congruence_balanced_coloring(make_context(n), seed=seed)
    assert chi.is_full()
    classes = np.arange(n)
    for r in range(1, n + 1):
        if n % r == 0:
            sums = np.bincount(classes % r, weights=chi.values, minlength=r)
            assert np.abs(sums).max() <= 1


# ------------------------------------------------------------ best + lift

def test_balanced_coloring_failure_names_cell_and_iteration(monkeypatch):
    # the first request leaves one point unsigned and the second fails: the
    # error names the cell (Z_1024 is one cell, r = 1024) and the iteration,
    # which the cell's re-raise used to drop
    real, calls = engine.partial_color, []

    def flaky(req):
        calls.append(req)
        if len(calls) > 1:
            raise SearchFailed("planted failure")
        values = real(req).values.copy()
        values[req.x[0]] = 0
        return Coloring(req.n, values)

    monkeypatch.setattr(engine, "partial_color", flaky)
    with pytest.raises(SearchFailed) as info:
        congruence_balanced_coloring(make_context(1024), seed=0)
    assert (info.value.cell, info.value.iteration) == (1024, 1)
    assert info.value.__cause__.iteration == 1
    assert len(calls) == 2


def test_construct_best_examples():
    ctx = make_context(12)
    chi, rep = construct_best_coloring(ctx, c_hat=1.0, seed=4)
    assert rep.r_star == 4
    assert rep.predicted == pytest.approx(7.0)
    assert rep.base_congruence_max <= 1
    assert chi.is_full()

    chi, rep = construct_best_coloring(make_context(1), seed=0)
    assert rep.r_star == 1
    assert rep.measured_t == 1
    assert chi.values.tolist() == [1]


@pytest.mark.parametrize("n", [2, 64])
def test_construct_best_refuses_negative_seed(n):
    # r* = 1 at n = 2 needs no engine request, so the seed was never read
    with pytest.raises(ValueError, match="seed"):
        construct_best_coloring(make_context(n), seed=-1)


def test_construct_best_prime_choice():
    # for primes the candidates are r = 1 and r = n
    ctx = make_context(101)
    chi, rep = construct_best_coloring(ctx, c_hat=1.0, seed=3)
    assert rep.r_star == 101
    assert rep.predicted == pytest.approx(1 + 2 * math.sqrt(101))


def test_construct_best_ties_take_smallest_r():
    ctx = make_context(4)
    _, rep = construct_best_coloring(ctx, c_hat=1.0, seed=0)
    vals = {r: 4 / r + math.sqrt(r) * 2 ** ctx.omega_of_divisor(r) for r in ctx.divisors}
    best = min(vals.values())
    assert vals[rep.r_star] == best
    assert rep.r_star == min(r for r, v in vals.items() if v == best)


@pytest.mark.parametrize("n, seed", [(1, 0), (360, 7), (1061, 1), (4096, 2)])
def test_construct_best_report_is_one_measure(n, seed):
    # the report carries the summary of one measure of the lifted coloring,
    # which the full scan agrees with
    ctx = make_context(n)
    chi, rep = construct_best_coloring(ctx, seed=seed)
    assert rep.measure == measure(chi) == full_route(measure, chi)
    assert type(rep.measured_t) is int and rep.measured_t == rep.measure["T"]
    assert hash(rep) == hash(construct_best_coloring(ctx, seed=seed)[1])


# -------------------------------------------------------------- hereditary

def test_hereditary_small_subset_is_single_stage():
    ctx = make_context(97)
    xs = np.array([3, 10, 20, 50])
    chi = hereditary_coloring(ctx, xs, seed=0)
    assert np.all(chi.values[xs] != 0)
    assert np.count_nonzero(chi.values) == 4


def test_hereditary_random_subsets():
    rng = np.random.default_rng(55)
    for _ in range(10):
        n = int(rng.integers(8, 400))
        ctx = make_context(n)
        xs = np.flatnonzero(rng.integers(0, 2, n))
        if xs.size == 0:
            continue
        chi = hereditary_coloring(ctx, xs, seed=int(rng.integers(1 << 20)))
        assert np.all(chi.values[xs] != 0)
        assert np.all(chi.values[np.setdiff1d(np.arange(n), xs)] == 0)


@pytest.mark.parametrize("seed", [0, 1])
def test_hereditary_schedule_budget_fails_on_z270(seed):
    # the first, hereditary-schedule request breaches its entropy budget,
    # which reads only n, X and the schedule, so no seed colors Z_270
    ctx = make_context(270)
    with pytest.raises(BudgetExceeded, match="hereditary"):
        hereditary_coloring(ctx, np.arange(270), seed=seed)


def test_determinism_of_constructions():
    ctx = make_context(60)
    a = congruence_balanced_coloring(ctx, seed=9)
    b = congruence_balanced_coloring(ctx, seed=9)
    assert np.array_equal(a.values, b.values)
    c1, r1 = construct_best_coloring(ctx, seed=9)
    c2, r2 = construct_best_coloring(ctx, seed=9)
    assert np.array_equal(c1.values, c2.values)
    assert r1 == r2
