import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zndisc.ap_system import Coloring, max_ap_discrepancy, progression_incidence
from zndisc.exact import (
    LimitExceeded,
    _alternating_value,
    _search,
    _search_tables,
    _split_grid,
    exact_disc,
    exact_herdisc,
    measure,
)
from zndisc.number_theory import make_context

from .oracles import branch_and_bound_reference, split_grid_reference
from .test_ap_system import full_route


def brute_disc(n):
    """Oracle: minimum over every full coloring, no symmetry shortcuts."""
    from tests.test_ap_system import naive_ap_sets

    sets = [list(s) for s in naive_ap_sets(n)]
    best = n + 1
    for c in range(1 << n):
        vals = [1 if c >> i & 1 else -1 for i in range(n)]
        worst = max(abs(sum(vals[x] for x in s)) for s in sets)
        best = min(best, worst)
    return best


def test_exact_examples():
    assert exact_disc(make_context(1), "exhaustive").value == 1
    assert exact_disc(make_context(3), "exhaustive").value == 2
    assert exact_disc(make_context(4), "exhaustive").value == 2


def test_exact_matches_unrestricted_brute_force():
    # negation symmetry check: fixing chi(0) = +1 never changes the minimum
    for n in range(1, 11):
        res = exact_disc(make_context(n), "exhaustive")
        assert res.value == brute_disc(n)


def test_methods_agree_and_witnesses_attain():
    for n in range(1, 15):
        ctx = make_context(n)
        ex = exact_disc(ctx, "exhaustive")
        bb = exact_disc(ctx, "branch_and_bound")
        assert ex.value == bb.value
        for res in (ex, bb):
            assert res.optimal_coloring.is_full()
            t, _ = max_ap_discrepancy(res.optimal_coloring)
            assert max(t, 1) == res.value
            assert res.optimal_coloring.values[0] == 1


# Value and witness of each method, pinned from the earlier implementation
# (per-progression index arrays, partial sums with per-node fancy indexing,
# float32 sign matrices): the incidence kernels must reproduce them exactly.
BRANCH_AND_BOUND_PINS = {
    1: (1, "+"),
    2: (1, "+-"),
    3: (2, "++-"),
    4: (2, "++--"),
    5: (3, "+++--"),
    6: (2, "++-+--"),
    7: (3, "+++-+--"),
    8: (2, "++--++--"),
    9: (3, "++-++-+--"),
    10: (3, "+++--++---"),
    11: (4, "+++-++-+---"),
    12: (3, "+++-+--++---"),
    13: (5, "+++++-+-+----"),
    14: (3, "+++-+---++-+--"),
    15: (4, "++++--++--+-+--"),
    16: (4, "++++-+--++-+----"),
    17: (5, "+++++-+---++---+-"),
    18: (4, "++++-+-+---++---+-"),
    19: (5, "++++-+-+----++-++--"),
    20: (4, "++++-+-+--+-++-+----"),
    21: (4, "+++-+--+++-+---++-+--"),
    22: (4, "+++-++-+---+++-+--+---"),
}
EXHAUSTIVE_PINS = {
    1: (1, "+"),
    2: (1, "+-"),
    3: (2, "+-+"),
    4: (2, "+--+"),
    5: (3, "+--++"),
    6: (2, "+--+-+"),
    7: (3, "+--+-++"),
    8: (2, "+--++--+"),
    9: (3, "+--+-++-+"),
    10: (3, "+---++--++"),
    11: (4, "+---+-++-++"),
    12: (3, "+---++--+-++"),
    13: (5, "+----+-+-++++"),
    14: (3, "+--+-++---+-++"),
    15: (4, "+--+-+--++--+++"),
    16: (4, "+----+-++--+-+++"),
}
HERDISC_PINS = {
    1: (1, (0,)),
    2: (1, (0,)),
    3: (2, (0, 1, 2)),
    4: (2, (0, 1, 2)),
    5: (3, (0, 1, 2, 3, 4)),
    6: (2, (0, 1, 2)),
    7: (3, (0, 1, 2, 3, 4)),
    8: (3, (0, 1, 2, 3, 4)),
    9: (3, (0, 1, 2, 3, 4)),
    10: (3, (0, 1, 2, 4, 5)),
    11: (4, (0, 1, 2, 3, 4, 5, 6, 7, 8)),
    12: (3, (0, 1, 2, 3, 4)),
}
# nodes explored by the earlier branch and bound; the dense prune checks
# every progression against the current bound, so it may only cut nodes
EARLIER_BRANCH_AND_BOUND_NODES = {
    1: 1, 2: 2, 3: 4, 4: 6, 5: 18, 6: 12, 7: 38, 8: 14, 9: 52, 10: 76, 11: 294,
    12: 72, 13: 2004, 14: 92, 15: 970, 16: 1084, 17: 7656, 18: 1750, 19: 12232,
    20: 2780, 21: 6142, 22: 3106,
}


def signs(chi):
    return "".join("+" if v > 0 else "-" for v in chi.values)


def test_branch_and_bound_pinned_values_and_witnesses():
    for n, pin in BRANCH_AND_BOUND_PINS.items():
        res = exact_disc(make_context(n), "branch_and_bound")
        assert (res.value, signs(res.optimal_coloring)) == pin, n
        assert res.nodes_explored <= EARLIER_BRANCH_AND_BOUND_NODES[n], n


# past the default cap, pinned from the per-node gather search
BRANCH_AND_BOUND_PINS_PAST_CAP = {
    23: (6, 198286, "++++++-+-+-+--++----+--"),
    24: (4, 3568, "++++-+--+-++-+--+-++----"),
}


def test_branch_and_bound_pinned_past_the_cap():
    for n, pin in BRANCH_AND_BOUND_PINS_PAST_CAP.items():
        res = exact_disc(make_context(n), limit=n)
        assert (res.value, res.nodes_explored, signs(res.optimal_coloring)) == pin, n


def assert_search_matches_reference(inc, bound, witness):
    got = _search(_search_tables(inc), bound, witness)
    want = branch_and_bound_reference(inc, bound, witness)
    assert got[:2] == want[:2]
    assert (got[2] is None and want[2] is None) or np.array_equal(got[2], want[2])
    return want[0]


def test_search_matches_reference():
    # both modes with the bounds _branch_and_bound passes them
    for n in list(range(2, 23)) + [24]:
        ctx = make_context(n)
        inc = progression_incidence(ctx, min_len=2)
        heuristic = _alternating_value(ctx)
        best = assert_search_matches_reference(inc, heuristic + 1, witness=False)
        assert_search_matches_reference(inc, min(best, heuristic) + 1, witness=True)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_search_matches_reference_on_column_subsets(data):
    # bounds from 1 (the bound <= 1 exit) up to n + 1, and sparse subsets
    # where every child of a node is pruned
    n = data.draw(st.integers(2, 16))
    inc = progression_incidence(make_context(n), min_len=2)
    cols = data.draw(st.lists(st.integers(0, inc.shape[1] - 1), min_size=1, max_size=40,
                              unique=True))
    bound = data.draw(st.integers(1, n + 1))
    for witness in (False, True):
        assert_search_matches_reference(inc[:, sorted(cols)], bound, witness)


def test_oversized_incidence_refused_up_front():
    # n = 300 spans 1.8e9 (window, point) cells; nothing that size is built
    start = time.perf_counter()
    for call in (lambda ctx: exact_disc(ctx, limit=300),
                 lambda ctx: exact_disc(ctx, "exhaustive", limit=300),
                 lambda ctx: exact_herdisc(ctx, limit=300)):
        with pytest.raises(LimitExceeded, match="incidence"):
            call(make_context(300))
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("n", range(1, 17))
def test_split_grid_matches_reference(n):
    # the exhaustive grid (first point fixed to +1) at every n it serves
    # (n = 1 has no progression of size >= 2), and the herdisc grid over
    # {-1, 0, +1} vectors up to n = 10
    grids = []
    if n > 1:
        inc = progression_incidence(make_context(n), min_len=2)
        grids.append((_split_grid(inc[1:], (1, -1), base=inc[0]),
                      split_grid_reference(inc[1:], (1, -1), base=inc[0])))
    if n <= 10:
        inc = progression_incidence(make_context(n))
        grids.append((_split_grid(inc, (0, 1, -1)), split_grid_reference(inc, (0, 1, -1))))
    for got, want in grids:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_exhaustive_pinned_values_witnesses_and_nodes():
    for n, pin in EXHAUSTIVE_PINS.items():
        res = exact_disc(make_context(n), "exhaustive")
        assert (res.value, signs(res.optimal_coloring)) == pin, n
        assert res.nodes_explored == 1 << (n - 1)


@pytest.mark.parametrize("method,expected", [
    ("exhaustive", [(1, "+", 1), (1, "+-", 2), (2, "+-+", 4)]),
    ("branch_and_bound", [(1, "+", 1), (1, "+-", 2), (2, "++-", 4)]),
])
def test_smallest_moduli(method, expected):
    # n = 1 has no progression of size >= 2, n = 2 only {0, 1}
    for n, want in enumerate(expected, start=1):
        res = exact_disc(make_context(n), method)
        assert (res.value, signs(res.optimal_coloring), res.nodes_explored) == want
        assert res.method == method


def test_limit_exceeded():
    with pytest.raises(LimitExceeded):
        exact_disc(make_context(17), "exhaustive")
    with pytest.raises(LimitExceeded):
        exact_disc(make_context(23), "branch_and_bound")
    with pytest.raises(LimitExceeded):
        exact_herdisc(make_context(13))
    with pytest.raises(LimitExceeded):
        exact_disc(make_context(12), "exhaustive", limit=11)
    # explicit limits override the defaults
    ex = exact_disc(make_context(17), "exhaustive", limit=17)
    assert ex.value == BRANCH_AND_BOUND_PINS[17][0]
    assert ex.nodes_explored == 1 << 16
    assert max_ap_discrepancy(ex.optimal_coloring)[0] == ex.value
    bb = exact_disc(make_context(24), limit=24)
    assert bb.value == 4
    assert max_ap_discrepancy(bb.optimal_coloring)[0] == 4
    # past the split-sum grid's cell limit the search refuses instead of
    # allocating 2^(n-1) (exhaustive) or 3^n (herdisc) cells
    with pytest.raises(LimitExceeded, match="grid"):
        exact_disc(make_context(30), "exhaustive", limit=30)
    with pytest.raises(LimitExceeded, match="grid"):
        exact_herdisc(make_context(16), limit=16)


def test_herdisc_pinned_values_and_witnesses():
    for n, pin in HERDISC_PINS.items():
        assert exact_herdisc(make_context(n)) == pin, n


def test_herdisc_small():
    assert exact_herdisc(make_context(1)) == (1, (0,))
    for n in range(1, 9):
        value, witness = exact_herdisc(make_context(n))
        assert value >= exact_disc(make_context(n), "exhaustive").value
        assert all(0 <= x < n for x in witness)


def test_herdisc_witness_value():
    # restricted disc of the witness subset equals the reported value
    from tests.test_ap_system import naive_ap_sets

    n = 6
    value, witness = exact_herdisc(make_context(n))
    xs = set(witness)
    sets = {frozenset(s & xs) for s in naive_ap_sets(n)} - {frozenset()}
    best = n + 1
    for c in range(1 << len(witness)):
        chi = {x: (1 if c >> i & 1 else -1) for i, x in enumerate(sorted(xs))}
        worst = max(abs(sum(chi[x] for x in s)) for s in sets)
        best = min(best, worst)
    assert best == value


def test_measure_with_period_matches_full_scan():
    chi = Coloring.full(np.tile([1, 1, -1, 1, -1, -1], 8))
    assert measure(chi) == full_route(measure, chi)


def test_measure_examples():
    rep = measure(Coloring.full([1, 1, 1, 1]))
    assert rep["T"] == 4
    assert rep["congruence_max"] == 4
    assert rep["total_sum"] == 4
    rep = measure(Coloring.full([1, -1]))
    assert rep["T"] == 1
    assert rep["congruence_max"] == 1
    assert rep["total_sum"] == 0
    assert set(rep["congruence_by_divisor"]) == {"1", "2"}
