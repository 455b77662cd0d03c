import numpy as np
import pytest

from zndisc.ap_system import Coloring, max_ap_discrepancy
from zndisc.exact import (
    LimitExceeded,
    exact_disc,
    exact_herdisc,
    measure,
)
from zndisc.number_theory import make_context


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


def test_limit_exceeded():
    with pytest.raises(LimitExceeded):
        exact_disc(make_context(17), "exhaustive")
    with pytest.raises(LimitExceeded):
        exact_disc(make_context(23), "branch_and_bound")
    with pytest.raises(LimitExceeded):
        exact_herdisc(make_context(13))
    # explicit limits override the defaults
    assert exact_disc(make_context(17), "exhaustive", limit=17).value >= 1


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


def test_measure_rejects_foreign_context():
    with pytest.raises(ValueError):
        measure(Coloring.full([1, 1, -1, -1]), make_context(2))


def test_measure_with_period_matches_full_scan():
    chi = Coloring.full(np.tile([1, 1, -1, 1, -1, -1], 8))
    assert measure(chi, period=6) == measure(chi)
    with pytest.raises(ValueError):
        measure(chi, period=5)


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
