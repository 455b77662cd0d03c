import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zndisc.ap_system import (
    Coloring,
    ModAP,
    _step_maxima,
    _step_ranges,
    _witness,
    congruence_class_sums,
    dyadic_block_counts,
    full_ap,
    max_ap_discrepancy,
    max_ap_discrepancy_batch,
    max_ap_sum_complex,
    max_congruence_discrepancy,
    progression_incidence,
)
from zndisc.number_theory import make_context, totient

from .oracles import enumerate_aps, orbit_intersection, step_maxima_naive


# ---------------------------------------------------------------- oracles

def naive_ap_sets(n):
    """Brute-force generate-and-dedupe over all (a, d, l)."""
    seen = set()
    for d in range(n):
        orbit = n // math.gcd(d, n)
        for a in range(n):
            for l in range(1, orbit + 1):
                seen.add(frozenset((a + k * d) % n for k in range(l)))
    return seen


def naive_ap_masks(n):
    """Same dedupe as naive_ap_sets but via uint64 bitmasks (n <= 64)."""
    assert n <= 64
    masks = []
    one = np.uint64(1)
    for d in range(n):
        orbit = n // math.gcd(d, n)
        starts = np.arange(n, dtype=np.uint64)
        for l in range(1, orbit + 1):
            rows = (starts[:, None] + np.uint64(d) * np.arange(l, dtype=np.uint64)) % np.uint64(n)
            masks.append(np.bitwise_or.reduce(one << rows, axis=1))
    return np.unique(np.concatenate(masks))


def naive_max_ap(values, sets):
    best = 0
    for s in sets:
        best = max(best, abs(sum(values[x] for x in s)))
    return best


def orbit_order_naive(n, d, a, xs):
    """X in the step-d orbit of a, ascending k, by scanning k directly."""
    sx = set(int(v) for v in xs)
    g = math.gcd(d, n) if n > 1 else 1
    out = []
    for k in range(n // g if n > 1 else 1):
        x = (a + k * d) % n
        if x in sx:
            out.append(x)
    return out


# ----------------------------------------------------------- enumeration

def test_enumerate_counts_match_oracle():
    for n, expected in [(1, 1), (3, 7), (4, 15)]:
        got = list(enumerate_aps(make_context(n)))
        assert len(got) == expected
        assert len(set(got)) == expected
        assert {frozenset(t) for t in got} == naive_ap_sets(n)


def test_enumerate_matches_oracle_range():
    for n in range(1, 21):
        got = {frozenset(t) for t in enumerate_aps(make_context(n))}
        assert got == naive_ap_sets(n)


def test_progression_incidence_matches_enumeration():
    # n = 65 needs more than 64 bits per set
    for n in list(range(1, 41)) + [65]:
        ctx = make_context(n)
        sets = list(enumerate_aps(ctx))
        rows = np.zeros((len(sets), n), dtype=bool)
        owner = np.repeat(np.arange(len(sets)), [len(t) for t in sets])
        rows[owner, np.concatenate(sets)] = True
        for min_len in (1, 2):
            inc = progression_incidence(ctx, min_len=min_len)
            assert inc.shape[0] == n and inc.dtype == bool
            got = [col.tobytes() for col in np.packbits(inc.T, axis=1)]
            kept = rows[rows.sum(axis=1) >= min_len]
            want = {row.tobytes() for row in np.packbits(kept, axis=1)}
            assert len(got) == len(set(got)) and set(got) == want, (n, min_len)


# ------------------------------------------------------------ discrepancy

def test_max_ap_examples():
    for n in (2, 5, 9):
        chi = Coloring.full([1] * n)
        t, wit = max_ap_discrepancy(chi)
        assert t == n
        assert set(wit.elements().tolist()) == set(range(n))
    t, wit = max_ap_discrepancy(Coloring(4, [1, -1, 1, -1]))
    assert t == 2
    assert set(wit.elements().tolist()) == {0, 2}
    t, _ = max_ap_discrepancy(Coloring(2, [1, -1]))
    assert t == 1


def test_max_ap_witness_attains_value():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        chi = Coloring(n, rng.integers(0, 2, n) * 2 - 1)
        t, wit = max_ap_discrepancy(chi)
        assert abs(int(chi.values[wit.elements()].sum())) == t


def test_max_ap_matches_naive_all_n():
    rng = np.random.default_rng(123)
    for n in range(1, 65):
        masks = naive_ap_masks(n)
        inc = ((masks[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & np.uint64(1))
        inc = inc.astype(np.float32).T  # (n, num_sets)
        cols = rng.integers(0, 2, size=(100, n)) * 2 - 1
        naive = np.abs(cols.astype(np.float32) @ inc).max(axis=1).astype(np.int64)
        got = max_ap_discrepancy_batch(n, cols)
        assert np.array_equal(got, naive)


def test_naive_mask_oracle_matches_set_oracle():
    for n in range(1, 16):
        masks = set(int(m) for m in naive_ap_masks(n))
        sets = {sum(1 << x for x in s) for s in naive_ap_sets(n)}
        assert masks == sets


def test_max_ap_partial_colorings():
    rng = np.random.default_rng(5)
    for n in (6, 12, 17):
        sets = naive_ap_sets(n)
        for _ in range(20):
            vals = rng.integers(-1, 2, n)
            t, wit = max_ap_discrepancy(Coloring(n, vals))
            assert t == naive_max_ap(vals, sets)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from((-1, 0, 1)), min_size=1, max_size=40))
def test_max_ap_property_against_naive(vals):
    n = len(vals)
    chi = Coloring(n, vals)
    t, wit = max_ap_discrepancy(chi)
    assert t == naive_max_ap(vals, naive_ap_sets(n))
    assert abs(int(chi.values[wit.elements()].sum())) == t


@st.composite
def periodic_colorings(draw):
    """(coloring, period): a full, partial or all-zero base of a divisor r of n, tiled."""
    n = draw(st.integers(1, 160))
    r = draw(st.sampled_from([r for r in range(1, n + 1) if n % r == 0]))
    kind = draw(st.sampled_from(("full", "partial", "zero")))
    signs = {"full": (-1, 1), "partial": (-1, 0, 1), "zero": (0,)}[kind]
    base = draw(st.lists(st.sampled_from(signs), min_size=r, max_size=r))
    return Coloring(n, np.tile(base, n // r)), r


@settings(max_examples=150, deadline=None)
@given(periodic_colorings())
def test_periodic_scan_matches_full_scan(case):
    chi, r = case
    assert max_ap_discrepancy(chi, period=r) == max_ap_discrepancy(chi)


def test_periodic_scan_edge_cases():
    zero = Coloring(12, np.zeros(12))
    for r in (1, 3, 12):
        assert max_ap_discrepancy(zero, period=r) == (0, ModAP(12, 0, 1, 0, -1))
    assert max_ap_discrepancy(Coloring(1, [-1]), period=1) == (1, ModAP(1, 0, 0, 0, 0))
    assert max_ap_discrepancy(Coloring(1, [0]), period=1) == (0, ModAP(1, 0, 1, 0, -1))


@settings(max_examples=60, deadline=None)
@given(periodic_colorings())
def test_step_maxima_match_naive_windows(case):
    # every cyclic window summed directly, for the period's kernel, the plain
    # scan (r = n) and the batch rows
    chi, r = case
    n = chi.n
    want = step_maxima_naive(chi.values, n)
    assert np.array_equal(_step_maxima(chi.values[:r], n, r), want)
    assert np.array_equal(_step_maxima(chi.values, n, n), want)
    rows = np.stack([chi.values, -chi.values, np.roll(chi.values, 1)])
    naive = step_maxima_naive(rows, n).max(axis=-1) if n > 1 else np.abs(rows[:, 0])
    assert np.array_equal(max_ap_discrepancy_batch(n, rows), naive)


def test_periodic_scan_small_chunks(monkeypatch):
    # one step e per numpy call exercises the chunk boundaries, for a period,
    # the plain scan and the batch
    rng = np.random.default_rng(17)
    cases = [(96, 12), (100, 20), (81, 27), (64, 32), (90, 45), (97, 97), (64, 64)]
    colorings = [Coloring(n, np.tile(rng.integers(-1, 2, r), n // r)) for n, r in cases]
    want = [max_ap_discrepancy(chi) for chi in colorings]
    rows = [rng.integers(-1, 2, (3, n)) for n, _ in cases]
    batch = [max_ap_discrepancy_batch(n, b) for (n, _), b in zip(cases, rows)]
    monkeypatch.setattr("zndisc.ap_system._SCAN_CELLS", 1)
    for (n, r), chi, t, b, t_b in zip(cases, colorings, want, rows, batch):
        assert max_ap_discrepancy(chi, period=r) == max_ap_discrepancy(chi) == t
        assert t[0] == step_maxima_naive(chi.values, n).max()
        assert np.array_equal(max_ap_discrepancy_batch(n, b), t_b)
        assert np.array_equal(t_b, step_maxima_naive(b, n).max(axis=-1))


@st.composite
def signed_rows(draw):
    """(n, rows): rows of shape (*batch, n), balanced, partial or skewed so
    that row sums S reach well past 1."""
    n = draw(st.integers(1, 60))
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    signs = draw(st.sampled_from(((-1, 1), (-1, 0, 1), (0, 0, 1), (-1, 1, 1, 1))))
    size = n * math.prod(batch)
    flat = draw(st.lists(st.sampled_from(signs), min_size=size, max_size=size))
    return n, np.array(flat, dtype=np.int8).reshape(batch + (n,))


@settings(max_examples=100, deadline=None)
@given(signed_rows())
def test_step_ranges_bracket_step_maxima(case):
    # per step, max P - min P <= largest |window| <= max P - min P + |S|
    n, rows = case
    lower, upper = _step_ranges(rows, n)
    exact = step_maxima_naive(rows, n)
    assert lower.shape == upper.shape == exact.shape
    assert (lower <= exact).all() and (exact <= upper).all()
    flat = rows.reshape(-1, n)
    naive = exact.reshape(flat.shape[0], -1).max(axis=-1) if n > 1 else np.abs(flat[:, 0])
    assert np.array_equal(max_ap_discrepancy_batch(n, flat), naive)


def test_full_scan_keeps_a_step_reaching_t_by_a_wrapped_window():
    # step 1 has the widest prefix range (4) but no window past 4; step 3
    # reaches T = 5 only by a window that wraps, its range 3 plus |S| = 2
    a = [1, 1, -1, 1, 1, 1, -1, 1, -1, -1]
    lower, upper = _step_ranges(np.array(a, dtype=np.int8), 10)
    assert lower.tolist() == [4, 4, 3, 3, 2] and upper.tolist() == [6, 7, 5, 6, 4]
    assert step_maxima_naive(a, 10).tolist() == [4, 4, 5, 4, 2]
    chi = Coloring(10, a)
    t, wit = max_ap_discrepancy(chi)
    assert (t, wit.d) == (5, 3) and abs(int(chi.values[wit.elements()].sum())) == 5
    # row b's largest lower bound (6, step 1) tops both rows' step-3 upper
    # bound, so a bound shared across rows would drop the step row a needs
    b = [-1, -1, 1, 1, 1, 1, 1, 1, -1, -1]
    assert max_ap_discrepancy_batch(10, np.array([a, b])).tolist() == [5, 6]
    assert max_ap_discrepancy_batch(10, np.array([b, a])).tolist() == [6, 5]


def test_witness_rejects_a_missed_maximum():
    chi = Coloring(12, np.tile([1, 1, -1], 4))
    t, wit = max_ap_discrepancy(chi)
    assert _witness(chi.values, 12, wit.d, t) == wit
    with pytest.raises(RuntimeError, match="no window"):
        _witness(chi.values, 12, wit.d, t + 1)


def test_batch_of_no_rows():
    got = max_ap_discrepancy_batch(5, np.zeros((0, 5), dtype=np.int8))
    assert got.shape == (0,) and got.dtype == np.int64


def test_batch_rejects_non_colorings():
    for bad in ([[1, 2, -1]], [[1, 0.5, -1]], [[257, 1, 1]], np.array([[1, -1, 1j]])):
        with pytest.raises(ValueError, match="must lie in"):
            max_ap_discrepancy_batch(3, bad)


@pytest.mark.parametrize("values,period,message", [
    ([1, -1, 1, -1, 1, -1], 4, "positive divisor"),
    ([1, -1, 1, -1, 1, -1], 0, "positive divisor"),
    ([1, -1, 1, -1, 1, -1], -2, "positive divisor"),
    ([1, -1, 1, -1, 1, -1], 12, "positive divisor"),
    ([1, -1, 1, -1, 1, 1], 2, "does not repeat"),  # the last period differs
    ([1, 1, -1, 1, 1, 1], 3, "does not repeat"),
])
def test_periodic_scan_rejects_bad_period(values, period, message):
    with pytest.raises(ValueError, match=message):
        max_ap_discrepancy(Coloring(len(values), values), period=period)


def test_parity_full_coloring():
    rng = np.random.default_rng(11)
    for n in range(1, 30):
        chi = Coloring(n, rng.integers(0, 2, n) * 2 - 1)
        assert int(chi.values.sum()) % 2 == n % 2
        t, _ = max_ap_discrepancy(chi)
        if n % 2 == 1:
            assert t >= 1


def test_complex_ap_sum_matches_real_case():
    rng = np.random.default_rng(3)
    for n in (5, 8, 12):
        vals = rng.integers(0, 2, n) * 2 - 1
        t, _ = max_ap_discrepancy(Coloring(n, vals))
        assert max_ap_sum_complex(vals.astype(np.complex128)) == pytest.approx(t)


def test_complex_ap_sum_against_naive():
    rng = np.random.default_rng(9)
    for n in (4, 7, 10):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        naive = max(abs(sum(f[x] for x in s)) for s in naive_ap_sets(n))
        assert max_ap_sum_complex(f) == pytest.approx(naive)


@pytest.mark.parametrize("n,values", [
    (3, [0.7, 1, -1]),  # non-integral: the int8 cast made it [0, 1, -1]
    (1, np.array([257])),  # out of range: the int8 cast wrapped it to [1]
    (3, np.array([1, -1, 1], dtype=np.complex128)),  # complex: imaginary part dropped
    (2, [2, 1]),
])
def test_coloring_rejects_bad_input(n, values):
    with pytest.raises(ValueError):
        Coloring(n, values)


def test_coloring_accepts_integral_input():
    assert Coloring(3, [1.0, 0.0, -1.0]).values.tolist() == [1, 0, -1]
    assert Coloring(2, [True, False]).values.tolist() == [1, 0]
    assert Coloring(2, np.array([1, 0], dtype=np.uint8)).values.tolist() == [1, 0]


# ---------------------------------------------------------- class sums

def test_congruence_sum_examples():
    chi = Coloring.full([1] * 6)
    for r in (1, 2, 3, 6):
        for w in range(r):
            assert congruence_class_sums(chi.values, r)[w] == 6 // r
    chi = Coloring(6, [1, 1, 1, -1, -1, -1])
    assert congruence_class_sums(chi.values, 2)[0] == 1
    assert congruence_class_sums(chi.values, 6)[3] == -1
    with pytest.raises(ValueError):
        congruence_class_sums(chi.values, 4)


def test_max_congruence_examples():
    assert max_congruence_discrepancy(Coloring.full([1] * 7)) == 7
    assert max_congruence_discrepancy(Coloring(2, [1, -1])) == 1


def test_max_congruence_rejects_foreign_context():
    with pytest.raises(ValueError):
        max_congruence_discrepancy(Coloring.full([1, 1, -1, -1]), make_context(2))


def test_max_congruence_matches_naive():
    rng = np.random.default_rng(17)
    for n in (6, 12, 18, 25):
        ctx = make_context(n)
        for _ in range(10):
            vals = rng.integers(0, 2, n) * 2 - 1
            chi = Coloring(n, vals)
            naive = max(
                abs(sum(int(vals[x]) for x in range(n) if x % r == w))
                for r in ctx.divisors
                for w in range(r)
            )
            assert max_congruence_discrepancy(chi, ctx) == naive


# ------------------------------------------ orbit order and dyadic block counts

def test_dyadic_block_count_bounds():
    rng = np.random.default_rng(41)
    c0 = 2.1  # empirical constant for the truncated totient-reciprocal sum
    for _ in range(60):
        n = int(rng.integers(2, 201))
        xs = np.flatnonzero(rng.integers(0, 2, n))
        m = xs.size
        if m == 0:
            continue
        ctx = make_context(n)
        counts = dyadic_block_counts(n, xs)
        for scale, f_i in counts.items():
            s = 1 << scale
            assert f_i <= (n - 1) * m / s
            assert f_i <= c0 * (m / s) * ctx.phi * math.log(math.e * n / s)


def test_dyadic_block_counts_match_step_loop():
    # reference: one bincount of the orbit rows per step d
    rng = np.random.default_rng(43)
    for _ in range(60):
        n = int(rng.integers(1, 300))
        xs = np.flatnonzero(rng.integers(0, 2, n))
        if xs.size == 0:
            continue
        expect = {s: 0 for s in range(xs.size.bit_length())}
        for d in range(1, n):
            cnt = np.bincount(xs % math.gcd(d, n))
            for s in expect:
                expect[s] += int((cnt >> s).sum())
        assert dyadic_block_counts(n, xs) == (expect if n > 1 else {})
    # a repeated scale is counted once
    once = dyadic_block_counts(12, range(12), [1, 0])
    assert dyadic_block_counts(12, range(12), [1, 1, 0]) == once == {1: 62, 0: 132}


def test_orbit_ordering_is_by_k():
    # the test oracle the engine tests build explicit blocks from
    rng = np.random.default_rng(53)
    for _ in range(100):
        n = int(rng.integers(2, 150))
        xs = np.flatnonzero(rng.integers(0, 2, n))
        d = int(rng.integers(1, n))
        g = math.gcd(d, n)
        a = int(rng.integers(0, g))
        got = list(orbit_intersection(n, d, a, xs))
        assert got == orbit_order_naive(n, d, a, xs)


def _as_subset_by_unique(n, xs):
    """The general normalisation: np.unique, then the range check."""
    xs = np.unique(np.asarray(xs, dtype=np.int64))
    if xs.size and (xs[0] < 0 or xs[-1] >= n):
        raise ValueError("subset elements must lie in [0, n)")
    return xs


@pytest.mark.parametrize("xs", [
    [],
    [3],
    [0, 2, 5, 9],
    np.array([0, 2, 5, 9], dtype=np.int64),
    np.array([1, 4, 7], dtype=np.int32),
    [9, 0, 5, 2],
    [2, 2, 5, 5, 9],
    np.array([0, 2, 2, 9], dtype=np.int64),
    np.array([[4, 1], [1, 0]]),
    np.int64(6),
    [0, 5, 10],
    [-1, 3],
    np.array([-1, 3], dtype=np.int64),
    np.array([11, 3, 3]),
])
def test_as_subset_fast_path_matches_unique(xs):
    from zndisc.ap_system import _as_subset

    n = 10
    try:
        want = _as_subset_by_unique(n, xs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            _as_subset(n, xs)
        return
    got = _as_subset(n, xs)
    assert got.dtype == np.int64 and got.ndim == 1
    assert np.array_equal(got, want)


def test_as_subset_normal_input_is_not_copied():
    from zndisc.ap_system import _as_subset

    xs = np.arange(0, 1000, 3, dtype=np.int64)
    assert _as_subset(1000, xs) is xs
