import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zndisc.ap_system import (
    Coloring,
    ModAP,
    block_elements,
    congruence_sum,
    decompose_to_C1,
    dyadic_block_counts,
    dyadic_decompose,
    enumerate_aps,
    full_ap,
    is_c1_form,
    max_ap_discrepancy,
    max_ap_discrepancy_batch,
    max_ap_sum_complex,
    max_congruence_discrepancy,
)
from zndisc.number_theory import make_context, totient


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


# ------------------------------------------------------------ discrepancy

def test_max_ap_examples():
    for n in (2, 5, 9):
        chi = Coloring.full([1] * n)
        t, wit = max_ap_discrepancy(chi)
        assert t == n
        assert wit.element_set() == frozenset(range(n))
    t, wit = max_ap_discrepancy(Coloring(4, [1, -1, 1, -1]))
    assert t == 2
    assert wit.element_set() == {0, 2}
    t, _ = max_ap_discrepancy(Coloring(2, [1, -1]))
    assert t == 1


def test_max_ap_witness_attains_value():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        chi = Coloring(n, rng.integers(0, 2, n) * 2 - 1)
        t, wit = max_ap_discrepancy(chi)
        assert abs(chi.sum_over(wit.elements())) == t


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
    assert abs(chi.sum_over(wit.elements())) == t


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
            assert congruence_sum(chi, r, w) == 6 // r
    chi = Coloring(6, [1, 1, 1, -1, -1, -1])
    assert congruence_sum(chi, 2, 0) == 1
    assert congruence_sum(chi, 6, 3) == -1
    with pytest.raises(ValueError):
        congruence_sum(chi, 4, 0)


def test_max_congruence_examples():
    assert max_congruence_discrepancy(Coloring.full([1] * 7)) == 7
    assert max_congruence_discrepancy(Coloring(2, [1, -1])) == 1


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


# ------------------------------------------------------- decompositions

def test_decompose_examples():
    assert decompose_to_C1(full_ap(6, 0, 2, 0)) == []
    segs = decompose_to_C1(full_ap(7, 3, 0, 1))
    assert [(s.a, s.d, s.i, s.j) for s in segs] == [(0, 1, 3, 3)]
    segs = decompose_to_C1(full_ap(6, 4, 1, 4))
    assert len(segs) == 2
    union = set()
    for s in segs:
        assert is_c1_form(s)
        elems = s.element_set()
        assert not (union & elems)
        union |= elems
    assert union == {4, 5, 0, 1}


def test_decompose_partitions_random():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(1, 201))
        d = int(rng.integers(0, n))
        orbit = n // math.gcd(d, n)
        l = int(rng.integers(0, orbit + 1))
        a = int(rng.integers(0, n))
        A = full_ap(n, a, d, l)
        segs = decompose_to_C1(A)
        assert len(segs) <= 2
        union = set()
        for s in segs:
            assert is_c1_form(s)
            elems = s.element_set()
            assert not (union & elems)
            union |= elems
        assert union == A.element_set()


def test_dyadic_example_power_of_two_prefix():
    X = np.arange(8)
    A = ModAP(8, 0, 1, 0, 3)  # exactly the first 4 positions
    U, V = dyadic_decompose(X, A)
    assert V == []
    assert len(U) == 1 and U[0].size == 4


def test_dyadic_empty_intersection():
    U, V = dyadic_decompose([0, 1], ModAP(8, 0, 1, 4, 6))
    assert U == [] and V == []


def test_dyadic_reassembly_random():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 201))
        xs = np.flatnonzero(rng.integers(0, 2, n))
        if xs.size == 0:
            continue
        d = int(rng.integers(1, n))
        g = math.gcd(d, n)
        a = int(rng.integers(0, g))
        L = n // g
        i = int(rng.integers(0, L))
        j = int(rng.integers(i, L))
        A = ModAP(n, a, d, i, j)
        U, V = dyadic_decompose(xs, A)
        u_elems = [frozenset(int(v) for v in block_elements(n, xs, b)) for b in U]
        v_elems = [frozenset(int(v) for v in block_elements(n, xs, b)) for b in V]
        # sizes within each list are distinct powers of two
        for blocks in (U, V):
            sizes = [b.size for b in blocks]
            assert len(set(sizes)) == len(sizes)
            assert all(s & (s - 1) == 0 for s in sizes)
        u_union = set().union(*u_elems) if u_elems else set()
        v_union = set().union(*v_elems) if v_elems else set()
        assert v_union <= u_union
        expect = A.element_set() & set(int(v) for v in xs)
        assert u_union - v_union == expect
        # blocks are ordered-prefix slices: verify against a naive orbit walk
        ordered = orbit_order_naive(n, d, a, xs)
        for b, elems in zip(U + V, u_elems + v_elems):
            lo = (b.t - 1) * b.size
            assert elems == frozenset(ordered[lo : lo + b.size])


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


def test_orbit_ordering_is_by_k():
    rng = np.random.default_rng(53)
    from zndisc.ap_system import orbit_intersection

    for _ in range(100):
        n = int(rng.integers(2, 150))
        xs = np.flatnonzero(rng.integers(0, 2, n))
        d = int(rng.integers(1, n))
        g = math.gcd(d, n)
        a = int(rng.integers(0, g))
        got = list(orbit_intersection(n, d, a, xs))
        assert got == orbit_order_naive(n, d, a, xs)
