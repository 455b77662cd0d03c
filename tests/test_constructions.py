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
from zndisc.engine import SearchFailed
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
    box = CrtBox(ctx=make_context(8), extents=(2,), doubled=(0,), beta=(0,))
    chi = crt_box_coloring(box, seed=0)
    assert int(chi.values[:2].sum()) == 0
    assert np.count_nonzero(chi.values) == 2


def test_interval_doubling_class_cancellation():
    # p = 3, m = 6: classes mod 1 and mod 3 vanish on the interval
    box = CrtBox(ctx=make_context(9), extents=(6,), doubled=(0,), beta=(1,))
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
    box = CrtBox(ctx=ctx, extents=(4, 3), doubled=(0,), beta=(0,))
    chi = crt_box_coloring(box, seed=3)
    assert np.count_nonzero(chi.values) == 12
    # cancellation modulus r_1 = 12 / 2^2 = 3
    assert box.cancellation_moduli() == (3,)
    for w in range(3):
        assert class_sum_naive(chi.values, 3, w) == 0


def test_crt_box_no_doubling_is_plain_engine():
    ctx = make_context(15)
    box = CrtBox(ctx=ctx, extents=(3, 5), doubled=(), beta=())
    chi = crt_box_coloring(box, seed=1)
    assert np.count_nonzero(chi.values) == 15


def test_crt_box_validation():
    ctx = make_context(12)
    with pytest.raises(ValueError):
        CrtBox(ctx=ctx, extents=(5, 3), doubled=(), beta=())  # extent too big
    with pytest.raises(ValueError):
        CrtBox(ctx=ctx, extents=(3, 3), doubled=(0,), beta=(0,))  # odd extent
    with pytest.raises(ValueError):
        CrtBox(ctx=ctx, extents=(4, 3), doubled=(0,), beta=(2,))  # 4/4 odd


def test_crt_box_random_cancellation_exact():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 800))
        ctx = make_context(n)
        extents = []
        doubled = []
        beta = []
        for i, (p, e) in enumerate(ctx.factors):
            t = int(rng.integers(1, p**e + 1))
            if t % 2 == 0 and rng.integers(0, 2):
                v = 0
                tt = t
                while tt % p == 0:
                    tt //= p
                    v += 1
                # any b with p^b | t and t / p^b even
                choices = [b for b in range(v + 1) if (t // p**b) % 2 == 0]
                doubled.append(i)
                beta.append(int(rng.choice(choices)))
            extents.append(t)
        box = CrtBox(ctx=ctx, extents=tuple(extents),
                     doubled=tuple(doubled), beta=tuple(beta))
        chi = crt_box_coloring(box, seed=int(rng.integers(1 << 20)))
        assert np.count_nonzero(chi.values) == box.size
        for r in box.cancellation_moduli():
            sums = congruence_class_sums(chi.values.astype(np.int64), r)
            assert np.all(sums == 0)


# ------------------------------------------------- balanced full colorings

def test_balanced_cells_partition():
    for n in (2, 12, 36, 90, 128, 210):
        ctx = make_context(n)
        cells = _balanced_cells(ctx)
        seen = np.zeros(n, dtype=int)
        for r, extents, starts, doubled, beta in cells:
            size = math.prod(extents)
            assert size <= r
            shift = sum(s * b for s, b in zip(starts, ctx.crt_basis)) % n
            from zndisc.constructions import _box_elements

            elems = (_box_elements(ctx, extents) + shift) % n
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
            raise SearchFailed("planted failure", restarts=req.retries)
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


def test_determinism_of_constructions():
    ctx = make_context(60)
    a = congruence_balanced_coloring(ctx, seed=9)
    b = congruence_balanced_coloring(ctx, seed=9)
    assert np.array_equal(a.values, b.values)
    c1, r1 = construct_best_coloring(ctx, seed=9)
    c2, r2 = construct_best_coloring(ctx, seed=9)
    assert np.array_equal(c1.values, c2.values)
    assert r1 == r2
