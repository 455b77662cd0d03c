import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zndisc import engine
from zndisc.ap_system import Coloring, max_ap_discrepancy_batch
from zndisc.engine import (
    TABLE_BYTES_LIMIT,
    BudgetExceeded,
    DeltaSchedule,
    PartialColorRequest,
    SearchFailed,
    build_c2_request,
    certify_partial_coloring,
    entropy_weight,
    full_color_iterate,
    partial_color,
    schedule_entropy_budget,
)
from zndisc.number_theory import LimitExceeded, make_context

from .oracles import (
    explicit_walk_table,
    orbit_intersection,
    scaled_request,
    sign_walk_sequential,
    walk_table_all_steps,
)
from .test_acceptance import _certify_blocks


# ---------------------------------------------------------------- oracles

def all_dyadic_block_sums(n, xs, values):
    """Every (scale, block sum) over all orbits of X, by a direct orbit walk."""
    xs_set = set(int(v) for v in xs)
    out = []
    for d in range(1, n):
        g = math.gcd(d, n)
        for a in range(g):
            ordered = []
            for k in range(n // g):
                x = (a + k * d) % n
                if x in xs_set:
                    ordered.append(values[x])
            l = len(ordered)
            scale = 0
            while (1 << scale) <= l:
                size = 1 << scale
                for t in range(l // size):
                    out.append((size, sum(ordered[t * size : (t + 1) * size])))
                scale += 1
    return out


# --------------------------------------------------------------- schedule

def test_main_schedule_values():
    sched = DeltaSchedule.main(100)
    assert sched.b(0) == 0.0
    for s in (1, 2, 17, 100):
        expect = 5 * math.sqrt(s) * math.sqrt(math.log(math.e * 100 / s))
        assert sched.b(s) == pytest.approx(expect)
        assert sched.b(s) >= 2 * math.sqrt(s)


def test_main_schedule_monotone_profile():
    # x^(1/2) * log(e n / x)^(1/2) increases on (0, n]
    for n in (10, 100, 1000, 10_000):
        x = np.linspace(1e-6, n, 2000)
        prof = np.sqrt(x) * np.sqrt(np.log(math.e * n / x))
        assert np.all(np.diff(prof) > -1e-12)


def test_main_schedule_geometric_sum_bound():
    # sum over scales of b(2^i), i <= log2(m), stays below 40 sqrt(m) log(en/m)^(1/2)
    for n in range(1, 10_001, 7):
        sched = DeltaSchedule.main(n)
        scales = np.arange(n.bit_length())
        sizes = (1 << scales).astype(np.float64)
        sizes = sizes[sizes <= n]
        partial = np.cumsum(sched.b(sizes))
        for j, m in enumerate(sizes):
            bound = 40 * math.sqrt(m) * math.sqrt(math.log(math.e * n / m))
            assert partial[j] <= bound


def test_hereditary_schedule_shape():
    ctx = make_context(360)
    sched = DeltaSchedule.hereditary(ctx)
    # M = phi(n) log(e n / phi(n)) comes from n: the schedule holds nothing else
    assert [f.name for f in dataclasses.fields(sched)] == ["kind", "n"]
    assert sched == DeltaSchedule("hereditary", 360)
    M = ctx.phi * math.log(math.e * 360 / ctx.phi)
    s_hi = 2 * M
    assert sched.b(s_hi) == pytest.approx(5.0 * math.sqrt(s_hi) * (s_hi / M) ** -1)
    s_lo = M / 2
    assert sched.b(s_lo) == pytest.approx(5.0 * math.sqrt(s_lo) * (s_lo / M) ** -0.1)


def test_entropy_weight_seam():
    # the lam >= 2 branch wins at the seam: value 10/e, not 10 log 2
    assert entropy_weight("hereditary", 2.0, 1.0) == pytest.approx(10 * math.exp(-1))
    assert entropy_weight("hereditary", 1.0, 1.0) == pytest.approx(10 * math.log(3))


def test_budget_examples():
    assert schedule_entropy_budget({}, {}, "main") == 0.0
    n, s = 64, 8
    sched = DeltaSchedule.main(n)
    lhs = schedule_entropy_budget({s: 1}, {s: sched.b(s)}, "main")
    assert lhs == pytest.approx(math.exp(-25 / 4) * (s / n) ** (25 / 4))
    lhs = schedule_entropy_budget({4: 3}, {4: 2 * 2.0}, "hereditary")
    assert lhs == pytest.approx(3 * 10 * math.exp(-1))


# ----------------------------------------------------------- partial_color

def test_singleton_no_blocks():
    req = PartialColorRequest(n=9, x=np.array([4]), deltas={}, seed=1)
    chi = partial_color(req)
    assert abs(int(chi.values[4])) == 1
    assert np.count_nonzero(chi.values) == 1
    # one point is the least X a request takes
    with pytest.raises(ValueError, match="X must be nonempty"):
        PartialColorRequest(n=9, x=[], deltas={})
    with pytest.raises(ValueError, match="X must be nonempty"):
        build_c2_request(9, [], DeltaSchedule.main(9))


def test_vacuous_deltas_accepted():
    # deltas equal to block sizes cannot be violated, so any signing works
    xs = np.arange(10)
    tight = PartialColorRequest(n=10, x=xs, deltas={2: 1.0, 4: 1.0})
    assert [size for size, group in tight.blocks.items() if len(group)] == [2, 4]
    req = PartialColorRequest(n=10, x=xs, deltas={2: 2.0, 4: 4.0}, seed=3)
    assert req.blocks == {}
    chi = partial_color(req)
    assert np.count_nonzero(chi.values) >= 1


def test_budget_exceeded_raised():
    # every orbit block of size 32 tight, a hopeless entropy budget
    xs = np.arange(50)
    req = PartialColorRequest(n=50, x=xs, deltas={32: 0.5}, kind="main", seed=0)
    assert len(req.blocks[32]) == 20  # one block per step d coprime to 50
    with pytest.raises(BudgetExceeded):
        partial_color(req)


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan])
def test_request_rejects_nonpositive_delta(delta):
    with pytest.raises(ValueError, match="deltas"):
        PartialColorRequest(n=8, x=np.arange(8), deltas={2: delta})
    with pytest.raises(ValueError, match="deltas"):
        schedule_entropy_budget({2: 1}, {2: delta}, "main")


def test_request_rejects_block_size_not_power_of_two():
    # the walk read size 3 as shift 1 (size-2 blocks), the certificate as size 3
    with pytest.raises(ValueError, match="powers of two"):
        PartialColorRequest(n=30, x=np.arange(30), deltas={3: 0.5})


def test_build_request_rejects_foreign_schedule():
    # Z_50's schedule on Z_100 gave delta(64) = 34.7, not Z_100's 48.1
    with pytest.raises(ValueError, match="schedule is for n=50"):
        build_c2_request(100, range(64), DeltaSchedule.main(50))
    assert build_c2_request(100, range(64), DeltaSchedule.main(100)).deltas[64] == \
        pytest.approx(DeltaSchedule.main(100).b(64))


def test_build_request_takes_every_scale_in_one_call():
    # the request evaluates b once on all its scales; each allowance is bit for
    # bit the scalar b(2^i), a Python float, and so is each scaled allowance
    # kappa * b(2^i) the tests build, for either schedule kind
    kappa = 1.5
    for n in [*range(2, 3000), 1 << 16, 1 << 20, 3**13, 1 << 21]:
        scheds = [DeltaSchedule.main(n)]
        if n < 300:
            scheds.append(DeltaSchedule.hereditary(make_context(n)))
        sizes = 1 << np.arange(n.bit_length())
        for sched in scheds:
            want = [kappa * sched.b(int(s)) for s in sizes]
            assert (kappa * sched.b(sizes)).tolist() == want, (n, sched.kind)
    n = 1061
    req = build_c2_request(n, range(1, 531), DeltaSchedule.main(n))
    assert req.deltas == {1 << i: DeltaSchedule.main(n).b(1 << i) for i in range(10)}
    assert all(type(s) is int and type(v) is float for s, v in req.deltas.items())
    scaled = scaled_request(n, range(1, 531), DeltaSchedule.main(n), kappa)
    assert scaled.deltas == {1 << i: kappa * DeltaSchedule.main(n).b(1 << i) for i in range(10)}
    assert scaled_request(n, range(1, 531), DeltaSchedule.main(n), 1.0).deltas == req.deltas


@pytest.mark.parametrize("xs", [
    [0.7, 2.5, 3.9],  # the int64 cast made it [0, 2, 3]
    [0.5, 1.5, 2.5],  # full_color_iterate colored points 0, 1 and 2
    np.array([1, 2], dtype=np.complex128),
    [1, 2 + 1j],
    [np.nan, 3],
    [np.inf],
])
def test_non_integral_subsets_rejected(xs):
    n = 10
    with pytest.raises(ValueError, match="integers"):
        build_c2_request(n, xs, DeltaSchedule.main(n))
    with pytest.raises(ValueError, match="integers"):
        PartialColorRequest(n=n, x=xs, deltas={})
    with pytest.raises(ValueError, match="integers"):
        full_color_iterate(make_context(n), xs)


def test_integral_subsets_of_any_dtype_accepted():
    n = 10
    want = build_c2_request(n, [0, 2, 3], DeltaSchedule.main(n)).x
    for xs in ([0.0, 2.0, 3.0], np.array([3, 0, 2], dtype=np.uint8),
               np.array([0, 2, 3], dtype=object)):
        assert np.array_equal(build_c2_request(n, xs, DeltaSchedule.main(n)).x, want)


def test_partial_color_full_z16():
    n = 16
    xs = np.arange(n)
    sched = DeltaSchedule.main(n)
    chi = partial_color(build_c2_request(n, xs, sched, seed=16))
    for size, total in all_dyadic_block_sums(n, xs, chi.values.astype(int)):
        assert abs(total) <= sched.b(size) + 1e-9


def test_partial_color_certified_blocks():
    rng = np.random.default_rng(77)
    sched_cases = 0
    for _ in range(40):
        n = int(rng.integers(8, 65))
        xs = np.flatnonzero(rng.integers(0, 2, n))
        if xs.size == 0:
            continue
        sched = DeltaSchedule.main(n)
        req = build_c2_request(n, xs, sched, seed=int(rng.integers(0, 1 << 30)))
        chi = partial_color(req)
        m = xs.size
        assert np.count_nonzero(chi.values) >= -(-m // 10)
        assert np.all(chi.values[np.setdiff1d(np.arange(n), xs)] == 0)
        # independent full-family re-check, including the exempt scales
        for size, total in all_dyadic_block_sums(n, xs, chi.values.astype(int)):
            assert abs(total) <= sched.b(size) + 1e-9
            sched_cases += 1
    assert sched_cases > 0


def test_determinism():
    xs = np.arange(64)
    sched = DeltaSchedule.main(64)
    a = partial_color(build_c2_request(64, xs, sched, seed=99))
    b = partial_color(build_c2_request(64, xs, sched, seed=99))
    assert np.array_equal(a.values, b.values)
    c, _ = full_color_iterate(make_context(60), np.arange(60), seed=5)
    d, _ = full_color_iterate(make_context(60), np.arange(60), seed=5)
    assert np.array_equal(c.values, d.values)


# ------------------------------------------------------ full_color_iterate

def test_full_color_single_point():
    ctx = make_context(7)
    chi, _ = full_color_iterate(ctx, np.array([3]), seed=0)
    assert abs(int(chi.values[3])) == 1
    assert np.count_nonzero(chi.values) == 1


def test_full_color_covers_and_decays():
    rng = np.random.default_rng(13)
    for _ in range(15):
        n = int(rng.integers(4, 200))
        xs = np.flatnonzero(rng.integers(0, 2, n))
        if xs.size == 0:
            continue
        ctx = make_context(n)
        chi, sizes = full_color_iterate(ctx, xs, seed=int(rng.integers(1 << 20)))
        assert np.all(chi.values[xs] != 0)
        m = sizes[0]
        for i, s in enumerate(sizes):
            assert s <= (0.9**i) * m + 1e-9


def test_full_color_prime_quality():
    # measured discrepancy on full Z_p stays within a recorded constant of sqrt(p)
    from zndisc.ap_system import max_ap_discrepancy

    worst = 0.0
    for p, seed in [(127, 1), (251, 2), (509, 3)]:
        ctx = make_context(p)
        chi, _ = full_color_iterate(ctx, np.arange(p), seed=seed)
        t, _ = max_ap_discrepancy(chi)
        worst = max(worst, t / math.sqrt(p))
    assert worst <= 6.0  # calibrated engine constant, generous margin


def test_hereditary_switches_to_main():
    ctx = make_context(1021)  # prime: phi = n - 1, one loose round then main
    xs = np.arange(1021)
    chi, sizes = full_color_iterate(ctx, xs, kind="hereditary", seed=4)
    assert np.all(chi.values != 0)
    assert sizes[0] == 1021


@pytest.mark.parametrize("kind", ["heredetary", "Main", ""])
def test_full_color_rejects_unknown_kind(kind):
    # an unknown kind used to run the main schedule and return a full coloring;
    # entropy_weight gave it the hereditary weight, and a request was built
    with pytest.raises(ValueError, match="schedule kind"):
        full_color_iterate(make_context(64), np.arange(64), kind=kind)
    with pytest.raises(ValueError, match="schedule kind"):
        entropy_weight(kind, 2.0, 1.0)
    with pytest.raises(ValueError, match="schedule kind"):
        PartialColorRequest(n=10, x=[1, 2, 3], deltas={1: 5.0}, kind=kind)


def test_search_failure_reports_iteration(monkeypatch):
    # the first request leaves point 0 unsigned; every later walk signs nothing,
    # so iteration 1 (X = {0}) exhausts its restarts in the search itself
    real_walk, walks = engine._sign_walk, []

    def walk(table, rng):
        walks.append(table)
        chi = real_walk(table, rng)
        if table is walks[0]:
            chi[0] = 0
            return chi
        return np.zeros_like(chi)

    monkeypatch.setattr(engine, "_sign_walk", walk)
    with pytest.raises(SearchFailed) as info:
        full_color_iterate(make_context(127), np.arange(127), seed=5)
    assert info.value.iteration == 1
    assert "iteration 1" in str(info.value)
    assert sum(table is not walks[0] for table in walks) == engine._RESTARTS


# ------------------------------------------------- orbit table and certificate

def orbit_blocks_by_definition(n, xs, size):
    """Every size-`size` block of X along each step-d orbit, in (d, a, t) order."""
    out = []
    for d in range(1, n):
        for a in range(math.gcd(d, n)):
            row = orbit_intersection(n, d, a, xs)
            out.extend(row[t * size : (t + 1) * size] for t in range(row.size // size))
    return out


def table_blocks(table, x):
    """The binding blocks a walk table encodes: Counter of (cap, element set)."""
    m, width = table.positions.shape
    point = np.repeat(np.arange(m), width)
    found = Counter()
    for shift, offset in zip(table.shifts[:, 0], table.offsets[:, 0]):
        ids = ((table.positions >> shift) + offset).ravel()
        keep = table.caps[ids] < m
        order = np.argsort(ids[keep], kind="stable")
        ids, members = ids[keep][order], point[keep][order]
        if ids.size == 0:
            continue
        cuts = np.flatnonzero(np.diff(ids)) + 1
        for block_ids, pts in zip(np.split(ids, cuts), np.split(members, cuts)):
            block = frozenset(int(v) for v in x[pts])
            assert len(block) == pts.size  # a point sits in a block once
            found[(int(table.caps[block_ids[0]]), block)] += 1
    return found


def test_orbit_table_matches_explicit_blocks():
    # the rank-built table must hold exactly the blocks of the definition, with
    # their caps, and the walk must give the same coloring over either table
    rng = np.random.default_rng(91)
    cases = [(257, np.arange(257)), (256, np.arange(256)), (240, np.arange(0, 240, 2))]
    for _ in range(6):
        n = int(rng.integers(130, 260))
        cases.append((n, np.flatnonzero(rng.random(n) < 0.8)))
    binding_seen = 0
    for i, (n, xs) in enumerate(cases):
        for sched in (DeltaSchedule.main(n), DeltaSchedule.hereditary(make_context(n))):
            req = build_c2_request(n, xs, sched, seed=i)
            explicit = {
                size: orbit_blocks_by_definition(n, xs, size) for size in req.blocks
            }
            assert {s: len(g) for s, g in req.blocks.items()} == {
                s: len(g) for s, g in explicit.items()
            }
            expect = Counter(
                (math.floor(req.deltas[size]), frozenset(int(x) for x in b))
                for size, group in explicit.items() for b in group
            )
            table = engine._walk_table(req)
            assert table_blocks(table, req.x) == expect
            binding_seen += sum(expect.values())
            twin = explicit_walk_table(req.x, explicit, req.deltas)
            assert table_blocks(twin, req.x) == expect
            for restart in range(3):
                chis = [
                    engine._sign_walk(t, np.random.default_rng(np.random.SeedSequence(
                        entropy=req.seed, spawn_key=(restart,))))
                    for t in (table, twin)
                ]
                assert np.array_equal(*chis)
    assert binding_seen > 0


def with_caps_scaled(table, factor, coarse_only=False):
    """The table with its binding caps (cap < m) scaled down by ``factor``;
    with ``coarse_only``, only the caps above the finest scale."""
    caps = table.caps.copy()
    binding = caps < table.positions.shape[0]
    if coarse_only:
        binding[: (table.exempt >> int(table.shifts[0, 0])) + 1] = False
    caps[binding] = np.floor(caps[binding] * factor)
    return dataclasses.replace(table, caps=caps)


def assert_walks_agree(table, seed, restarts=2):
    for restart in range(restarts):
        draws = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(restart,)))
                 for _ in range(2)]
        batched = engine._sign_walk(table, draws[0])
        assert np.array_equal(batched, sign_walk_sequential(table, draws[1]))


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.sampled_from((127, 131, 251, 257)), st.integers(2, 300)),
    density=st.floats(0.1, 1.0),
    hereditary=st.booleans(),
    factor=st.sampled_from((1.0, 0.5, 0.2, 0.05)),
    coarse_only=st.booleans(),
    run_cells=st.sampled_from((None, 1 << 8)),
    seed=st.integers(0, 2**30),
)
def test_batched_walk_matches_sequential(n, density, hereditary, factor, coarse_only,
                                         run_cells, seed):
    # runs signed at once must give the point-by-point walk's coloring, over
    # orbit tables and their explicit twins, with caps loose or tight enough
    # that points take the other sign or none (tight coarse caps alone check
    # the counts summed up from the finest scale); small runs force many run tests
    rng = np.random.default_rng(seed)
    xs = np.flatnonzero(rng.random(n) < density)
    if xs.size == 0:
        xs = np.array([seed % n])
    sched = DeltaSchedule.hereditary(make_context(n)) if hereditary else DeltaSchedule.main(n)
    req = build_c2_request(n, xs, sched, seed=seed)
    tables = [engine._walk_table(req)]
    if n <= 100:
        explicit = {size: orbit_blocks_by_definition(n, xs, size) for size in req.blocks}
        tables.append(explicit_walk_table(req.x, explicit, req.deltas))
    with pytest.MonkeyPatch.context() as mp:
        if run_cells is not None:  # with no floor of _RUN_IDS cells per id
            mp.setattr(engine, "_RUN_CELLS", run_cells)
            mp.setattr(engine, "_RUN_IDS", 0)
        for table in tables:
            assert_walks_agree(with_caps_scaled(table, factor, coarse_only), seed)


@pytest.mark.parametrize("run_cells", [None, 1 << 9])
@pytest.mark.parametrize("n", [254, 526])
def test_batched_walk_repeated_exempt_ids(n, run_cells, monkeypatch):
    # n = 2p with X a random half of Z_n: many rows are too short for a block,
    # so a point carries the exempt id in many of its columns; one-point runs
    # would sign while a count of those repeats still fits under cap m.  Tight
    # coarse caps alone catch coarse counts not summed from the finest scale.
    xs = np.flatnonzero(np.random.default_rng(n).random(n) < 0.5)
    req = build_c2_request(n, xs, DeltaSchedule.main(n), seed=n)
    table = engine._walk_table(req)
    repeats = (table.positions == table.exempt).sum(axis=1)
    assert repeats.max() > table.positions.shape[1] // 4
    if run_cells is not None:  # with no floor of _RUN_IDS cells per id
        monkeypatch.setattr(engine, "_RUN_CELLS", run_cells)
        monkeypatch.setattr(engine, "_RUN_IDS", 0)
    for factor in (1.0, 0.5, 0.2):
        for coarse_only in (False, True):
            assert_walks_agree(with_caps_scaled(table, factor, coarse_only), n, restarts=4)


def test_walk_runs_sized_by_finest_ids():
    # n = 4001 with X = [1, 2000]: 64 000 finest-scale ids, past the 32 K at
    # which _RUN_IDS cells per id reach _RUN_CELLS, so a run spans _RUN_IDS
    # cells per id (64 points of 4000 columns, not 32), and the coloring is
    # still the point-by-point walk's
    n = 4001
    req = build_c2_request(n, np.arange(1, 2001), DeltaSchedule.main(n), seed=n)
    table = engine._walk_table(req)
    m, width = table.positions.shape
    ids = table.exempt >> int(table.shifts[0, 0])
    assert engine._RUN_IDS * ids > engine._RUN_CELLS
    reads = []

    class Spy(np.ndarray):  # records the points of each run's np.take
        def take(self, indices, axis=None, **kwargs):
            reads.append(len(indices))
            return np.asarray(self).take(indices, axis=axis, **kwargs)

    spied = dataclasses.replace(table, positions=table.positions.view(Spy))
    for restart in range(2):
        draws = [np.random.default_rng(np.random.SeedSequence(entropy=n, spawn_key=(restart,)))
                 for _ in range(2)]
        reads.clear()
        chi = engine._sign_walk(spied, draws[0])
        assert np.array_equal(chi, sign_walk_sequential(table, draws[1]))
        # a run test takes its +1 and its -1 points apart; the first is a full run
        assert reads[0] + reads[1] == min(m, engine._RUN_IDS * ids // width)
        assert reads[0] + reads[1] > engine._RUN_CELLS // width


def mirrored_order(order, xs, g):
    """Step L - u's orbit order from step u's: each row reversed, except that
    its k = 0 point (x = a < g) stays first."""
    cnt = np.bincount(xs % g, minlength=g)
    out = order.copy()
    for a, start in zip(range(g), np.cumsum(cnt) - cnt):
        row = order[start : start + cnt[a]]
        keep = int(row.size > 0 and xs[row[0]] < g)
        out[start + keep : start + cnt[a]] = row[keep:][::-1]
    return out


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.sampled_from((210, 240, 256, 288, 300)), st.integers(2, 300)),
    density=st.floats(0.05, 1.0),
    low=st.integers(0, 6),
    chunk=st.sampled_from((1, 3, 1 << 15)),
    seed=st.integers(0, 2**30),
)
def test_orbit_orders_match_orbit_intersection(n, density, low, chunk, seed):
    # the sorted half (units u <= L/2) lists X row by row (a = x mod g), each
    # row in the oracle's ascending k, and the mirror map gives step L - u's
    # rows, so every unit is covered; the points 0 .. low - 1 have k = 0 in
    # every row of a step with g > x
    rng = np.random.default_rng(seed)
    xs = np.union1d(np.flatnonzero(rng.random(n) < density), np.arange(min(low, n)))
    if xs.size == 0:
        xs = np.array([seed % n])
    for g in make_context(n).divisors[:-1]:
        L = n // g
        units = [u for u in range(1, L) if math.gcd(u, L) == 1]
        half = [u for u in units if 2 * u <= L]
        covered = []
        for lo, order in engine._orbit_orders(n, xs, g, chunk):
            assert lo == len(covered) and order.shape == (min(chunk, len(half) - lo), xs.size)
            for u, row in zip(half[lo:], order):
                covered.append(u)
                for step, got in ((u, row), (L - u, mirrored_order(row, xs, g))):
                    want = [orbit_intersection(n, g * step, a, xs) for a in range(g)]
                    assert np.array_equal(xs[got], np.concatenate(want))
        assert covered == half
        assert sorted(set(half) | {L - u for u in half}) == units


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.sampled_from((30, 60, 210, 240, 256, 288, 300)), st.integers(2, 300)),
    density=st.floats(0.05, 1.0),
    low=st.integers(0, 6),
    scales=st.sets(st.integers(0, 6), min_size=1, max_size=3),
    slack=st.floats(0.3, 0.99),
    chunk=st.sampled_from((1, 3, 1 << 15)),
    seed=st.integers(0, 2**30),
)
def test_walk_table_matches_all_steps_reference(n, density, low, scales, slack, chunk, seed):
    # the mirrored columns must equal a table that sorts every step; every
    # chosen size binds, so size 1 or 2 gives the g = n/2 rows (L = 2, one
    # self-paired step) slots, larger sizes leave short rows without slots,
    # and X holds the k = 0 points 0 .. low - 1
    rng = np.random.default_rng(seed)
    xs = np.union1d(np.flatnonzero(rng.random(n) < density), np.arange(min(low, n)))
    if xs.size == 0:
        xs = np.array([seed % n])
    scales = [s for s in scales if 1 << s <= xs.size] or [0]
    req = PartialColorRequest(
        n=n, x=xs, deltas={1 << s: slack * (1 << s) for s in scales}, seed=seed,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_CHUNK_CELLS", chunk * xs.size)
        table = engine._walk_table(req)
    ref = walk_table_all_steps(req)
    for field in ("positions", "shifts", "offsets", "caps"):
        got, want = getattr(table, field), getattr(ref, field)
        assert got.dtype == want.dtype and np.array_equal(got, want), field
    assert table.exempt == ref.exempt


def test_orbit_orders_past_int32_products():
    # n = 65537 with |X| = 40: the keys fit int32 (n << 6 < 2^31), but the
    # products q * u^-1 reach (n - 1)^2 ~ 4.3e9, so the order must use int64
    n, size, delta = 65537, 4, 3.5
    rng = np.random.default_rng(65537)
    xs = np.union1d(rng.choice(n, 38, replace=False), [0, n - 1])
    m = xs.size
    req = PartialColorRequest(n=n, x=xs, deltas={size: delta}, seed=5)
    assert len(req.blocks[size]) == (n - 1) * (m // size)
    table = engine._walk_table(req)
    assert table.positions.shape == (m, n - 1) and table.exempt == (n - 1) * m
    # one row (g = 1) per column d = col + 1: slot col * m + rank, block rank // 4
    for col in list(range(0, n - 1, 257)) + [n - 2]:
        orb = orbit_intersection(n, col + 1, 0, xs)
        slots = table.positions[np.searchsorted(xs, orb), col]
        assert np.array_equal(slots, col * m + np.arange(m))
        ids = (slots >> 2) + table.offsets[0, 0]
        assert np.array_equal(ids, col * m // size + np.arange(m) // size)
        assert np.all(table.caps[ids] == math.floor(delta))
    chi = engine._sign_walk(table, np.random.default_rng(5))
    values = np.zeros(n, dtype=np.int8)
    values[xs] = chi
    assert np.count_nonzero(values) >= size
    assert certify_partial_coloring(req, values)
    # the first block of the step-(n - 1) orbit, all +1
    planted = values.copy()
    planted[orbit_intersection(n, n - 1, 0, xs)[:size]] = 1
    assert not certify_partial_coloring(req, planted)


def table_bytes(n, xs, scales):
    """The walk table's closed-form size, as a request at these binding
    scales reckons it before it allocates anything."""
    xs, scales = np.asarray(xs, dtype=np.int64), sorted(scales)
    return engine._table_bytes(xs.size, scales, engine._orbit_layout(n, xs, scales))


def test_orbit_table_bytes_closed_form():
    cases = [(1061, np.arange(1, 531)), (360, np.arange(0, 360, 2)), (240, np.arange(240))]
    for n, xs in cases:
        req = build_c2_request(n, xs, DeltaSchedule.main(n))
        scales = [size.bit_length() - 1 for size in req.blocks]
        table = engine._walk_table(req)
        assert table_bytes(n, xs, scales) == (
            table.positions.nbytes + 8 * table.caps.size
        )


def test_table_limit_refused_before_allocation():
    # a prime near 10^6: one column of |X| int32 slots per step is ~2 TB
    p = 999_983
    xs = np.arange(1, (p - 1) // 2 + 1)
    sched = DeltaSchedule.main(p)
    scales = [i for i in range(20) if sched.b(1 << i) < (1 << i)]
    estimate = table_bytes(p, xs, scales)
    assert estimate >= 4 * xs.size * (p - 1) > TABLE_BYTES_LIMIT
    with pytest.raises(LimitExceeded):
        build_c2_request(p, xs, sched)


def test_request_refuses_table_past_limit(monkeypatch):
    # a hand-built request past the limit is refused as build_c2_request's
    # are, before its blocks are counted: at p = 30011 the table needs 1.8 GB
    p = 30011
    xs = np.arange(1, (p - 1) // 2 + 1)
    sched = DeltaSchedule.main(p)
    deltas = {1 << i: sched.b(1 << i) for i in range(14) if sched.b(1 << i) < 1 << i}
    assert list(deltas) == [1 << i for i in range(8, 14)]
    assert table_bytes(p, xs, range(8, 14)) > TABLE_BYTES_LIMIT
    monkeypatch.setattr(engine, "OrbitBlocks", None)  # calling it would raise
    with pytest.raises(LimitExceeded, match="constraint table"):
        PartialColorRequest(n=p, x=xs, deltas=deltas)


def _drop_first_block(monkeypatch):
    """Make the table builder leave out the first block of the smallest binding
    scale (its members point at the exempt slot); returns those members."""
    dropped = {}
    build = engine._walk_table

    def without_one_block(req):
        table = build(req)
        # smallest scale first: the first id with a binding cap is one of its blocks
        block = int(np.flatnonzero(table.caps < req.x.size)[0])
        ids = (table.positions >> table.shifts[0, 0]) + table.offsets[0, 0]
        t, col = np.nonzero(ids == block)
        table.positions[t, col] = table.exempt
        dropped["points"] = t
        return table

    monkeypatch.setattr(engine, "_walk_table", without_one_block)
    return dropped


def test_certificate_independent_of_walk_table(monkeypatch):
    n = 257
    xs = np.arange(n)
    sched = DeltaSchedule.main(n)
    dropped = _drop_first_block(monkeypatch)
    for seed in range(4):
        req = build_c2_request(n, xs, sched, seed=seed)
        try:
            chi = partial_color(req)
        except SearchFailed:
            continue
        assert _certify_blocks(n, xs, chi.values, sched, 1.0)

    # plant a violation of the dropped block in the first restart's walk
    walk = engine._sign_walk
    verdicts = []
    certify = engine.certify_partial_coloring

    def planted_walk(table, rng):
        chi = walk(table, rng)
        if not verdicts:
            chi[dropped["points"]] = 1
        return chi

    def recorded(req, values):
        verdicts.append(certify(req, values))
        return verdicts[-1]

    monkeypatch.setattr(engine, "_sign_walk", planted_walk)
    monkeypatch.setattr(engine, "certify_partial_coloring", recorded)
    req = build_c2_request(n, xs, sched, seed=11)
    assert dropped["points"].size == min(req.blocks)
    try:
        chi = partial_color(req)
    except SearchFailed:
        chi = None
    assert verdicts[0] is False
    if chi is not None:
        assert _certify_blocks(n, xs, chi.values, sched, 1.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 200),
    density=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**30),
    kappa=st.sampled_from((1.0, 4.0)),
)
def test_certificate_agrees_with_orbit_definition(n, density, seed, kappa):
    rng = np.random.default_rng(seed)
    xs = np.flatnonzero(rng.random(n) < density)
    if xs.size == 0:
        xs = np.array([seed % n])
    sched = DeltaSchedule.main(n)
    req = scaled_request(n, xs, sched, kappa, seed=seed)
    try:
        chi = partial_color(req).values
    except SearchFailed:
        return
    flipped = chi.copy()
    x = xs[seed % xs.size]
    flipped[x] = -flipped[x]
    # the first block of the step-1 orbit, all +1: violates every binding scale
    stacked = chi.copy()
    stacked[xs[: 1 << (xs.size.bit_length() - 1)]] = 1
    for values in (chi, flipped, stacked):
        assert certify_partial_coloring(req, values) == _certify_blocks(
            n, xs, values, sched, kappa
        )
    assert certify_partial_coloring(req, chi)


def test_certificate_refuses_wrapped_mirror_block():
    # n = 45, X = Z_45: under step 42 = 3*14 (g = 3, L = 15, the partner of
    # step 3) row a = 1 runs 1, 43, 40, 37, ...  Its first block holds the
    # k = 0 point 1 and the step-3 row's last three points, so it wraps past
    # the forward row's end; no block of a sorted step (u <= L/2) is that set
    n, size = 45, 4
    xs = np.arange(n)
    planted = orbit_intersection(n, 42, 1, xs)[:size]
    assert list(planted) == [1, 43, 40, 37]
    for d in range(1, n):
        g = math.gcd(d, n)
        for a in range(g):
            row = orbit_intersection(n, d, a, xs)
            blocks = [set(row[t : t + size]) for t in range(0, row.size - size + 1, size)]
            if set(planted) in blocks:
                assert 2 * (d // g) > n // g and a == planted[0] and row[0] == a
    req = PartialColorRequest(n=n, x=xs, deltas={size: size - 0.5})
    values = np.zeros(n, dtype=np.int8)
    assert certify_partial_coloring(req, values)
    values[planted] = 1
    assert not certify_partial_coloring(req, values)
    # one point short of the block stays within delta = size - 1/2
    values[planted[-1]] = 0
    assert certify_partial_coloring(req, values)


@pytest.mark.parametrize("values", [
    np.full(12, 2, dtype=np.int64),  # prefix sums are int32: a coloring's, bounded by |X|
    np.full(12, 0.5),
    np.zeros(11, dtype=np.int8),
    np.zeros((12, 1), dtype=np.int8),
])
def test_certificate_rejects_non_colorings(values):
    req = PartialColorRequest(n=12, x=range(12), deltas={1: 0.5})
    with pytest.raises(ValueError, match="coloring"):
        certify_partial_coloring(req, values)
    assert certify_partial_coloring(req, np.zeros(12, dtype=np.int8))


_SIGNS_12 = np.array([1, -1, 0] * 4)


def _certify_12(values):
    req = PartialColorRequest(n=12, x=range(12), deltas={1: 1.5})
    return certify_partial_coloring(req, values)


# every call site that takes a coloring runs the same sign check
@pytest.mark.parametrize("call", [
    lambda v: Coloring(12, v),
    lambda v: max_ap_discrepancy_batch(12, v[None, :]),
    _certify_12,
], ids=["Coloring", "batch", "certificate"])
@pytest.mark.parametrize("values,ok", [
    (_SIGNS_12.astype(np.int8), True),
    (_SIGNS_12.astype(np.int64), True),
    (_SIGNS_12 != 0, True),  # bool
    (_SIGNS_12.astype(np.float64), True),
    (np.zeros(12), True),
    (np.where(_SIGNS_12 == 0, 0.7, _SIGNS_12), False),  # the int8 cast would truncate it
    (np.where(_SIGNS_12 == 0, 257, _SIGNS_12), False),  # the int8 cast would wrap it to 1
    (np.where(_SIGNS_12 == 0, np.nan, _SIGNS_12), False),
    (np.where(_SIGNS_12 == 0, np.inf, _SIGNS_12), False),
    (_SIGNS_12 + 0j, False),  # imaginary part 0: the certificate used to accept it
    (_SIGNS_12.astype(str), False),  # '1', '-1', '0'
], ids=["int8", "int64", "bool", "float", "zeros", "0.7", "257", "nan", "inf",
        "complex", "str"])
def test_sign_check_at_every_call_site(call, values, ok):
    if ok:
        call(values)
    else:
        with pytest.raises(ValueError, match="coloring"):
            call(values)


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.sampled_from((30, 45, 60, 90, 120, 144, 180, 200)), st.integers(1, 200)),
    density=st.floats(0.05, 1.0),
    low=st.integers(0, 6),
    bias=st.floats(0.5, 1.0),
    seed=st.integers(0, 2**30),
)
def test_certificate_agrees_with_orbit_definition_scaled(n, density, low, bias, seed):
    # deltas kappa * b(size) for kappa 1.0, 0.8 and 0.5, on skewed random signs
    # and on plants in the first block of a mirrored row (step L - u with
    # u < L/2), which wraps when the row's k = 0 point is in X: all +1 over the
    # random signs, and alone floor(delta) + 1 points of +1 from the row's
    # start, over delta only if that first point counts
    rng = np.random.default_rng(seed)
    xs = np.union1d(np.flatnonzero(rng.random(n) < density), np.arange(min(low, n)))
    if xs.size == 0:
        xs = np.array([seed % n])
    m = xs.size
    sched = DeltaSchedule.main(n)
    values = np.zeros(n, dtype=np.int8)
    values[xs] = np.where(rng.random(m) < bias, 1, -1)
    ctx = make_context(n)
    g = int(ctx.divisors[seed % max(1, len(ctx.divisors) - 1)])
    L = n // g
    row = np.empty(0, dtype=np.int64)
    if L > 2:
        mirrored = [u for u in range(L // 2 + 1, L) if math.gcd(u, L) == 1]
        # with low >= 1, xs[0] = 0 is the k = 0 point of row 0
        a = int(xs[0 if seed % 2 else seed % m]) % g
        row = orbit_intersection(n, g * mirrored[seed % len(mirrored)], a, xs)
    planted = values.copy()
    planted[row[: 1 << max(row.size.bit_length() - 1, 0)]] = 1
    for kappa in (1.0, 0.8, 0.5):
        req = scaled_request(n, xs, sched, kappa)
        deltas = req.deltas
        scales = [i for i in range(m.bit_length()) if deltas[1 << i] < 1 << i]
        cases = [values, planted]
        if scales and row.size >= 1 << scales[0]:
            edge = np.zeros(n, dtype=np.int8)
            edge[row[: math.floor(deltas[1 << scales[0]]) + 1]] = 1
            cases.append(edge)
        for v in cases:
            assert certify_partial_coloring(req, v) == _certify_blocks(n, xs, v, sched, kappa)


def test_build_request_counts_blocks_once(monkeypatch):
    # the request lays out X's orbit rows once, for its table size, its block
    # counts (in closed form) and its walk table: at n = 1061 (prime) every
    # step d has one row of all 530 points
    calls = []
    layout = engine._orbit_layout
    monkeypatch.setattr(engine, "_orbit_layout",
                        lambda *args: calls.append(args) or layout(*args))
    req = build_c2_request(1061, range(1, 531), DeltaSchedule.main(1061))
    engine._walk_table(req)
    assert len(calls) == 1
    assert sorted(req.deltas) == [1 << i for i in range(10)]
    binding = [size for size in sorted(req.deltas) if req.deltas[size] < size]
    assert binding and list(req.blocks) == binding
    assert {size: len(group) for size, group in req.blocks.items()} == {
        size: 1060 * (530 // size) for size in binding}
