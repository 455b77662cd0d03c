import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zndisc import ap_system
from zndisc.analysis import max_progression_sum
from zndisc.ap_system import (
    Coloring,
    ModAP,
    _end_best,
    _orbit_prefix,
    _period,
    _stabilizer,
    _step_maxima,
    _step_ranges,
    _witness,
    congruence_class_sums,
    full_ap,
    max_ap_discrepancy,
    max_ap_discrepancy_batch,
    max_congruence_discrepancy,
    progression_incidence,
)
from zndisc.constructions import (
    CrtBox,
    congruence_balanced_coloring,
    construct_best_coloring,
    crt_box_coloring,
    lift_coloring,
)
from zndisc.engine import PartialColorRequest, _derived_seed
from zndisc.number_theory import factorize, make_context, totient

from .oracles import (
    enumerate_aps,
    max_progression_sum_per_step,
    orbit_intersection,
    progression_incidence_reference,
    step_maxima_naive,
)


# ---------------------------------------------------------------- oracles

def full_route(fn, *args):
    """fn(*args) with ``ap_system._period`` pinned to n and no stabilizer, so
    that ``max_ap_discrepancy`` runs the full scan on every coloring."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ap_system, "_period", lambda v: v.size)
        mp.setattr(ap_system, "_stabilizer", lambda v: None)
        return fn(*args)


def coset_coloring(p, k, classes, zero):
    """The coloring of Z_p with 0 -> zero and g^j -> classes[j % k], g the
    least primitive root: fixed by the units g^(k*i)."""
    qs = [q for q, _ in factorize(p - 1)]
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))
    v = np.empty(p, dtype=np.int8)
    v[0] = zero
    x = 1
    for j in range(p - 1):
        v[x] = classes[j % k]
        x = x * g % p
    return v


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


def test_progression_incidence_matches_reference():
    # same columns in the same order as the packed-byte reference; n = 65 and
    # n = 72 key each set by two uint64 words
    for n in list(range(1, 41)) + [64, 65, 72]:
        ctx = make_context(n)
        for min_len in (1, 2):
            inc = progression_incidence(ctx, min_len=min_len)
            assert np.array_equal(inc, progression_incidence_reference(ctx, min_len)), (n, min_len)


# ------------------------------------------------------------ discrepancy

def test_max_ap_examples():
    for n in (2, 5, 9):
        chi = Coloring(n, [1] * n)
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
def test_period_is_least(case):
    chi, r = case
    n, v = chi.n, chi.values
    p = _period(v)
    assert r % p == 0 and np.array_equal(v, np.tile(v[:p], n // p))
    for q, _ in factorize(p):
        assert not np.array_equal(v, np.tile(v[: p // q], n // (p // q)))


def test_period_edge_cases():
    assert _period(np.zeros(12, dtype=np.int8)) == 1
    for sign in (1, -1):
        assert _period(np.full(360, sign, dtype=np.int8)) == 1
        assert _period(np.array([sign], dtype=np.int8)) == 1
    # a prime n has no period but n and 1
    v = np.ones(97, dtype=np.int8)
    v[40] = -1
    assert _period(v) == 97
    assert _period(np.tile(v, 4)) == 97
    assert _period(np.tile(v[36:44], 12)) == 8


def _engine_cell_1061():
    """Z_1061 with {0} -> +1 and the units colored as the engine's seed-1 cell."""
    cell = crt_box_coloring(CrtBox(make_context(1061), (1060,)), seed=_derived_seed(1, 1))
    return Coloring(1061, np.concatenate(([1], cell.values[:1060])))


@pytest.mark.parametrize("make, period, cosets", [
    (lambda: construct_best_coloring(make_context(4096), seed=1)[0], 256, None),
    (lambda: construct_best_coloring(make_context(1061), seed=1)[0], 1061, 2),
    (lambda: Coloring(24, np.tile([1, -1], 12)), 2, None),
    (lambda: lift_coloring(congruence_balanced_coloring(make_context(2048), seed=1), 1 << 16),
     2048, None),
    (_engine_cell_1061, 1061, None),
], ids=["construct-4096", "construct-1061", "alternating-24", "lift-65536", "engine-1061"])
def test_scan_route_follows_least_period(monkeypatch, make, period, cosets):
    # the full scan runs exactly when the least period is n and only the unit
    # 1 fixes the coloring; otherwise the kernel runs once, on Z_period, with
    # the labels of ``cosets`` cosets of the units that fix it, one step each
    # (the quadratic residues fix a Legendre coloring; an engine cell has no
    # such unit)
    chi = make()
    assert _period(chi.values) == period
    full, kernel = [], []
    real_full, real_kernel = ap_system._full_scan, ap_system._step_maxima

    def spy(v, n, r, steps=None, cosets=None):
        kernel.append((r, None if cosets is None else np.unique(cosets[1:]).size))
        return real_kernel(v, n, r, steps, cosets)

    monkeypatch.setattr(ap_system, "_full_scan",
                        lambda v, n: full.append(n) or real_full(v, n))
    monkeypatch.setattr(ap_system, "_step_maxima", spy)
    max_ap_discrepancy(chi)
    assert full == ([chi.n] if period == chi.n and cosets is None else [])
    assert kernel == [(period, cosets)]


def test_stabilizer_is_the_units_that_fix_the_coloring():
    # brute force over every unit u: u fixes v exactly when its label is 0,
    # and units share a label exactly when their ratio fixes v
    rng = np.random.default_rng(5)
    for p in (5, 7, 11, 13, 31, 37, 61):
        for k in sorted({k for k in (1, 2, 3, 4, 6, p - 1) if (p - 1) % k == 0}):
            v = coset_coloring(p, k, rng.integers(-1, 2, k), rng.integers(-1, 2))
            x = np.arange(p)
            fixes = [np.array_equal(v[u * x % p], v) for u in range(1, p)]
            label = _stabilizer(v)
            if not any(fixes[1:]):
                assert label is None
                continue
            assert [lab == 0 for lab in label[1:]] == fixes
            for u in range(1, p):
                assert (label[u] == label[1:]).tolist() == \
                    [fixes[u * pow(w, -1, p) % p - 1] for w in range(1, p)]
    assert _stabilizer(np.array([1, -1, -1], dtype=np.int8)) is None  # p < 5
    assert _stabilizer(np.tile([1, -1, -1], 4)) is None  # not a prime


@st.composite
def coset_colorings(draw):
    """(coloring of Z_p, m): constant on the cosets of the index-k units, k in
    {2, 3, 4, 6}, or random (k = p - 1, mostly fixed by 1 alone); the test
    also tiles it m times."""
    k = draw(st.sampled_from((2, 3, 4, 6, None)))
    primes = [p for p in range(5, 400) if make_context(p).is_prime
              and (k is None or (p - 1) % k == 0)]
    p = draw(st.sampled_from(primes))
    k = p - 1 if k is None else k
    signs = st.sampled_from((-1, 0, 1))
    v = coset_coloring(p, k, draw(st.lists(signs, min_size=k, max_size=k)), draw(signs))
    return Coloring(p, v), draw(st.sampled_from((1, 2, 3, 4, 6, 9)))


@settings(max_examples=120, deadline=None)
@given(coset_colorings())
def test_coset_route_matches_full_scan(case):
    # T and witness of the coset route, on Z_p and on a lift to Z_(m*p), equal
    # the full scan's
    base, m = case
    for chi in (base, Coloring(m * base.n, np.tile(base.values, m))):
        assert max_ap_discrepancy(chi) == full_route(max_ap_discrepancy, chi)


@settings(max_examples=150, deadline=None)
@given(periodic_colorings())
def test_periodic_scan_matches_full_scan(case):
    chi, _ = case
    assert max_ap_discrepancy(chi) == full_route(max_ap_discrepancy, chi)


def test_periodic_scan_edge_cases():
    zero = Coloring(12, np.zeros(12))
    assert max_ap_discrepancy(zero) == full_route(max_ap_discrepancy, zero) \
        == (0, ModAP(12, 0, 1, 0))
    assert max_ap_discrepancy(Coloring(1, [-1])) == (1, ModAP(1, 0, 0, 1))
    assert max_ap_discrepancy(Coloring(1, [0])) == (0, ModAP(1, 0, 1, 0))


@settings(max_examples=60, deadline=None)
@given(periodic_colorings())
def test_step_maxima_match_naive_windows(case):
    # every cyclic window summed directly, for the period's kernel, the plain
    # scan (r = n) and the batch rows; then a (2, 3) stack of them, each of
    # period r, on the period's kernel and, at r = n, on the odd steps alone
    # (the full scan's ``steps`` route, spanning several gcds)
    chi, r = case
    n = chi.n
    want = step_maxima_naive(chi.values, n)
    assert np.array_equal(_step_maxima(chi.values[:r], n, r), want)
    assert np.array_equal(_step_maxima(chi.values, n, n), want)
    rows = np.stack([chi.values, -chi.values, np.roll(chi.values, 1)])
    naive = step_maxima_naive(rows, n).max(axis=-1) if n > 1 else np.abs(rows[:, 0])
    assert np.array_equal(max_ap_discrepancy_batch(n, rows), naive)
    stack = np.stack([rows, rows[::-1]])
    want = step_maxima_naive(stack, n)
    assert np.array_equal(_step_maxima(stack[..., :r], n, r), want)
    odd = np.arange(1, n // 2 + 1, 2)
    assert np.array_equal(_step_maxima(stack, n, n, odd), want[..., odd - 1])


def test_periodic_scan_small_chunks(monkeypatch):
    # one step e per numpy call exercises the chunk boundaries, for a period,
    # the plain scan and the batch
    rng = np.random.default_rng(17)
    cases = [(96, 12), (100, 20), (81, 27), (64, 32), (90, 45), (97, 97), (64, 64)]
    colorings = [Coloring(n, np.tile(rng.integers(-1, 2, r), n // r)) for n, r in cases]
    want = [full_route(max_ap_discrepancy, chi) for chi in colorings]
    rows = [rng.integers(-1, 2, (3, n)) for n, _ in cases]
    batch = [max_ap_discrepancy_batch(n, b) for (n, _), b in zip(cases, rows)]
    monkeypatch.setattr("zndisc.ap_system._SCAN_CELLS", 1)
    for (n, r), chi, t, b, t_b in zip(cases, colorings, want, rows, batch):
        assert max_ap_discrepancy(chi) == full_route(max_ap_discrepancy, chi) == t
        assert t[0] == step_maxima_naive(chi.values, n).max()
        assert np.array_equal(max_ap_discrepancy_batch(n, b), t_b)
        assert np.array_equal(t_b, step_maxima_naive(b, n).max(axis=-1))


@pytest.mark.parametrize("per_chunk", [2, 3, 4, 7])
def test_step_maxima_chunks_mix_and_split_gcd_classes(monkeypatch, per_chunk):
    # per_chunk distinct steps e of Z_30 (e = 0..15) per chunk: a chunk holds
    # several gcds (0..3 gives 30, 1, 2, 3), and the steps of gcd 1 (e = 1, 7,
    # 11, 13) fall in more than one chunk; the same for a batch of 3 rows
    r = 30
    e = np.arange(r // 2 + 1)
    chunks = [np.gcd(e[i : i + per_chunk], r) for i in range(0, e.size, per_chunk)]
    assert max(np.unique(c).size for c in chunks) > 1
    assert sum(1 in c for c in chunks) > 1
    rng = np.random.default_rng(per_chunk)
    tiles = rng.integers(-1, 2, (3, r)).astype(np.int8)
    for rows in (tiles[0], tiles):
        monkeypatch.setattr("zndisc.ap_system._SCAN_CELLS", per_chunk * rows.size)
        for n in (30, 60, 90, 120, 240):
            want = step_maxima_naive(np.tile(rows, n // r), n)
            assert np.array_equal(_step_maxima(rows, n, r), want), (n, rows.shape)


def test_step_maxima_fan_shared_steps_out_by_laps():
    # Z_6 lifted to Z_72: steps d sharing e = d mod 6 (up to sign) add
    # different whole laps Q - 1 (e = 2: Q = 12, 6, 3 at d = 2, 4, 8), so one
    # e carries several (e, Q) keys; every tile of {-1, 0, +1}^6 at once
    n, r = 72, 6
    tiles = np.array(np.meshgrid(*[[-1, 0, 1]] * r, indexing="ij"), dtype=np.int8)
    tiles = tiles.reshape(r, -1).T
    got = _step_maxima(tiles, n, r)
    assert np.array_equal(got, step_maxima_naive(np.tile(tiles, n // r), n))
    # the laps matter: steps 2, 4 and 8 differ on some tile
    assert (got[:, 1] != got[:, 3]).any() and (got[:, 3] != got[:, 7]).any()


def test_step_maxima_past_int32_prefixes():
    # from r = 46341 on r*(r + 2) passes 2^31 and the kernel works in int64;
    # at the prime 65537 the index j*e of step n // 2 reaches 2^31 itself.
    # A few steps against the witness route's per-end extremes
    n = 65537
    rows = np.random.default_rng(41).integers(-1, 2, (2, n)).astype(np.int8)
    steps = np.array([1, 2, 3, 5000, n // 2])
    want = [[_end_best(_orbit_prefix(v, n, d)).max() for d in steps] for v in rows]
    assert np.array_equal(_step_maxima(rows, n, n, steps), want)


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


@pytest.mark.parametrize("n, steps", [
    (46337, (1, 46337 // 2, 46336)),  # n^2 < 2^31: int32 indices
    (46349, (1, 46349 // 2, 46348)),  # n^2 > 2^31: int64; (n - 1)^2 would wrap int32
    (2 * 46337, (1, 46337, 2 * 46337 - 1, 2)),  # int32 at g = 46337 only
])
def test_orbit_prefix_index_dtype_switch(n, steps):
    # the gather index is int32 while n*L < 2^31; each point of each row,
    # one lap, against the orbit walked in Python ints.  No scan at this size
    values = np.arange(n, dtype=np.int64)
    for d in steps:
        g = math.gcd(d, n)
        L = n // g
        P = _orbit_prefix(values, n, d, laps=1)
        assert P.shape == (g, L + 1)
        assert np.diff(P, axis=-1).tolist() == [[(a + k * d) % n for k in range(L)]
                                                for a in range(g)]


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
    # n = 0: no column for the one-point branch's values[:, 0]
    with pytest.raises(ValueError, match="modulus must be positive"):
        max_ap_discrepancy_batch(0, np.zeros((2, 0)))


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
        assert max_progression_sum(vals.astype(np.complex128)) == pytest.approx(t)


def test_complex_ap_sum_against_naive():
    rng = np.random.default_rng(9)
    for n in (4, 7, 10):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        naive = max(abs(sum(f[x] for x in s)) for s in naive_ap_sets(n))
        assert max_progression_sum(f) == pytest.approx(naive)


@pytest.mark.parametrize("cells,ns", [(None, [*range(1, 100), 150, 210]),
                                      (1, [*range(1, 41), 48, 60])])
def test_complex_ap_sum_matches_per_step_scan(monkeypatch, cells, ns):
    # the window pass's gcd-class chunks take the same window sums as one
    # step at a time, so the maximum is bit for bit the same; one start per
    # numpy call with cells = 1; n = 1 is |f(0)|
    rng = np.random.default_rng(21)
    fs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in ns]
    want = [max_progression_sum_per_step(f) for f in fs]
    if cells is not None:
        monkeypatch.setattr("zndisc.ap_system._SCAN_CELLS", cells)
    for n, f, t in zip(ns, fs, want):
        assert max_progression_sum(f) == t, n
    assert max_progression_sum([3 - 4j]) == 5.0


@pytest.mark.parametrize("n,values", [
    (3, [0.7, 1, -1]),  # non-integral: the int8 cast made it [0, 1, -1]
    (1, np.array([257])),  # out of range: the int8 cast wrapped it to [1]
    (3, np.array([1, -1, 1], dtype=np.complex128)),  # complex: imaginary part dropped
    (2, [2, 1]),
    (0, []),  # Z_0 has no points to color
])
def test_coloring_rejects_bad_input(n, values):
    with pytest.raises(ValueError):
        Coloring(n, values)


def test_progressions_refuse_bad_moduli_and_lengths():
    # full_ap(0, ...) raised ZeroDivisionError at its reduction mod n
    for bad in (lambda: full_ap(0, 1, 1, 1), lambda: full_ap(-3, 0, 1, 1),
                lambda: full_ap(5, 0, 1, -1), lambda: full_ap(6, 0, 2, 4),
                lambda: ModAP(0, 0, 1, 0), lambda: ModAP(5, 0, 1, -1)):
        with pytest.raises(ValueError):
            bad()
    ap = full_ap(6, 7, -2, 3)
    assert ap == ModAP(6, 1, 4, 3) and ap.elements().tolist() == [1, 5, 3]
    assert full_ap(6, 0, 1, 0).elements().size == 0


def test_coloring_accepts_integral_input():
    assert Coloring(3, [1.0, 0.0, -1.0]).values.tolist() == [1, 0, -1]
    assert Coloring(2, [True, False]).values.tolist() == [1, 0]
    assert Coloring(2, np.array([1, 0], dtype=np.uint8)).values.tolist() == [1, 0]


# ---------------------------------------------------------- class sums

def test_congruence_sum_examples():
    chi = Coloring(6, [1] * 6)
    for r in (1, 2, 3, 6):
        for w in range(r):
            assert congruence_class_sums(chi.values, r)[w] == 6 // r
    chi = Coloring(6, [1, 1, 1, -1, -1, -1])
    assert congruence_class_sums(chi.values, 2)[0] == 1
    assert congruence_class_sums(chi.values, 6)[3] == -1
    with pytest.raises(ValueError):
        congruence_class_sums(chi.values, 4)
    # n = 0: every r divides 0, so the divisor check alone lets Z_0 through
    with pytest.raises(ValueError, match="n >= 1"):
        congruence_class_sums(np.zeros(0), 3)


def test_max_congruence_examples():
    assert max_congruence_discrepancy(Coloring(7, [1] * 7)) == 7
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
            assert max_congruence_discrepancy(chi) == naive


# ------------------------------------------ orbit order and dyadic block counts

def tight_request(n, xs):
    # an allowance of 0.5 binds the blocks of every dyadic size up to |X|
    deltas = {1 << s: 0.5 for s in range(xs.size.bit_length())}
    return PartialColorRequest(n=n, x=xs, deltas=deltas)


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
        for s, group in tight_request(n, xs).blocks.items():
            f_i = len(group)
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
        blocks = tight_request(n, xs).blocks
        assert {size: len(group) for size, group in blocks.items()} == {
            1 << s: count for s, count in expect.items()}


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
