import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zndisc import analysis
from zndisc.analysis import (
    _PASS_ROWS,
    REL_TOL,
    class_power,
    fourier_checks,
    hereditary_upper_bound,
    lower_bound_main,
    lower_bound_prime_power,
    lower_bound_prop,
    max_progression_sum,
    upper_bound_main,
)
from zndisc.ap_system import _SCAN_CELLS, Coloring, congruence_class_sums, max_ap_discrepancy
from zndisc.number_theory import make_context

from .oracles import (
    dft_direct,
    double_sums_reference,
    max_progression_sum_per_step,
    weighted_lhs_all_m,
    weighted_lhs_spectral,
)


def weighted_lhs_tiny(f, m):
    """Third, loop-level evaluator of the double sum (small n only)."""
    n = len(f)
    total = 0.0
    for a in range(n):
        for b in range(n):
            inner = sum(f[(a + b * k) % n] for k in range(m))
            total += abs(inner) ** 2
    return total


def double_sums(f, ms):
    """The double sum for each m in ms, read off fourier_checks' grid."""
    return fourier_checks(f)["rhs_lower"].lhs[np.asarray(ms) - 1]


def assert_row_is_call(grids, b, one):
    """Row b of a stack's grids is bit for bit the one-function grids ``one``."""
    assert set(grids) == set(one)
    for name, grid in one.items():
        for field in ("lhs", "rhs", "passed", "error"):
            got, want = getattr(grids[name], field)[b], getattr(grid, field)
            assert got.shape == want.shape and got.dtype == want.dtype, (b, name, field)
            assert np.array_equal(got, want), (b, name, field)


# ----------------------------------------------------- Fourier transform

def test_dft_examples():
    delta = np.zeros(9)
    delta[0] = 1
    for transform in (np.fft.fft, dft_direct):
        assert np.allclose(transform(delta), np.ones(9))
        ones = transform(np.ones(9))
        assert ones[0] == pytest.approx(9)
        assert np.allclose(ones[1:], 0, atol=1e-12)


def test_dft_matches_direct():
    rng = np.random.default_rng(2)
    for n in (1, 2, 7, 16, 45):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.allclose(np.fft.fft(f), dft_direct(f), rtol=1e-9, atol=1e-9)


def test_plancherel_random():
    rng = np.random.default_rng(4)
    for n in (3, 10, 32):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        power = np.abs(np.fft.fft(f)) ** 2
        assert power.sum() == pytest.approx(n * (np.abs(f) ** 2).sum(), rel=1e-9)


def test_spectral_mass_of_colorings():
    rng = np.random.default_rng(6)
    for n in (5, 12, 64):
        chi = rng.integers(0, 2, n) * 2 - 1
        power = np.abs(np.fft.fft(chi)) ** 2
        assert power.sum() == pytest.approx(n * n, rel=1e-8)
        assert class_power(chi, n) == n  # G(n) over singleton classes


# ------------------------------------------------------ subgroup identity

def plancherel(f):
    return fourier_checks(f)["subgroup_plancherel"]


def test_subgroup_plancherel_examples():
    n = 12
    divisors = make_context(n).divisors
    assert divisors == (1, 2, 3, 4, 6, 12)  # one grid entry per r, ascending
    delta = np.zeros(n)
    delta[0] = 1
    grid = plancherel(delta)
    assert grid.passed.all()
    assert grid.lhs.tolist() == pytest.approx(list(divisors))
    grid = plancherel(np.ones(n))
    for r in (2, 6):
        i = divisors.index(r)
        assert grid.passed[i]
        assert grid.lhs[i] == pytest.approx(n * n)


def test_subgroup_plancherel_random():
    rng = np.random.default_rng(8)
    for n in (8, 12, 30, 64):
        ctx = make_context(n)
        for _ in range(25):
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            grid = plancherel(f)
            assert grid.passed.shape == (len(ctx.divisors),)
            assert grid.passed.all()


def test_subgroup_plancherel_is_the_scalar_formula():
    # each entry, in ascending r, is bit for bit the per-divisor formula
    # sum_{j<r} |fhat(j n/r)|^2 against r G_f(r)
    rng = np.random.default_rng(9)
    for n in range(1, 65):
        ctx = make_context(n)
        for f in (rng.integers(0, 2, n) * 2 - 1,
                  rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            arr = np.asarray(f, dtype=np.complex128)
            fhat = np.fft.fft(arr)
            want = []
            for r in sorted(ctx.divisors):
                lhs = float((np.abs(fhat[:: n // r]) ** 2).sum())
                rhs = float(r * class_power(arr, r))
                err = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
                want.append((lhs, rhs, err <= REL_TOL, err))
            grid = plancherel(f)
            got = zip(grid.lhs.tolist(), grid.rhs.tolist(), grid.passed.tolist(),
                      grid.error.tolist())
            assert list(got) == want, n


# ------------------------------------------------------- weighted double sum

def test_weighted_lhs_examples():
    n = 10
    assert double_sums(np.ones(n), [4])[0] == pytest.approx(n * n * 16)
    delta = np.zeros(n)
    delta[0] = 1
    assert double_sums(delta, [1])[0] == pytest.approx(n)


def test_weighted_lhs_three_routes_agree():
    rng = np.random.default_rng(10)
    for n in (6, 9, 14):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        all_m = weighted_lhs_all_m(f)
        grid = double_sums(f, range(1, n + 1))
        for m, direct in zip(range(1, n + 1), grid):
            assert direct == pytest.approx(weighted_lhs_tiny(f, m), rel=1e-8)
            assert direct == pytest.approx(weighted_lhs_spectral(f, m), rel=1e-8)
            assert direct == pytest.approx(all_m[m - 1], rel=1e-8)


def weighted_lhs_per_b(f, m):
    """The double sum as one contiguous (a, k) gather per b, added up over b."""
    arr = np.asarray(f, dtype=np.complex128)
    n = arr.size
    a = np.arange(n, dtype=np.int64)[:, None]
    k = np.arange(m, dtype=np.int64)[None, :]
    total = 0.0
    for b in range(n):
        total += float((np.abs(arr[(a + b * k) % n].sum(axis=1)) ** 2).sum())
    return total


def scalar_checks(f, m, ctx, fhat, t_f):
    """The five checks at one m, written out one scalar at a time: class
    powers per divisor in ascending k, spectral sums over 1-d arrays.  Each
    is the tuple (lhs, rhs, passed, error); mobius_inequality is keyed by l."""
    arr = np.asarray(f, dtype=np.complex128)
    n = arr.size
    power = np.abs(fhat) ** 2
    gcds = np.gcd(np.arange(n, dtype=np.int64), n)
    tol = 1e-6 * (n * m) ** 2
    lhs = weighted_lhs_per_b(arr, m)
    spectral_max = float((power * np.maximum(m * m * gcds / n, m)).sum())
    bound = n * n * t_f * t_f
    full = 0
    for k, phi_k in zip(ctx.divisors, ctx.divisor_phi):
        term = m * m * phi_k / k * class_power(arr, n // k)
        full += term
        if k < m:
            bound += term
    mid = float((power * (m * m * gcds / n)).sum())
    low = float((power * np.minimum(m * m * gcds / n, m)).sum())

    def result(lhs, rhs, passed, err):
        return float(lhs), float(rhs), bool(passed), err

    def scale(x, y):
        return max(1.0, abs(x), abs(y))

    ident_err = abs(full - mid) / scale(full, mid)
    out = {
        "rhs_lower": result(lhs, spectral_max, lhs >= spectral_max - tol,
                            (spectral_max - lhs) / scale(lhs, spectral_max)),
        "lhs_upper": result(lhs, bound, lhs <= bound + tol,
                            (lhs - bound) / scale(lhs, bound)),
        "mobius_identity": result(full, mid, ident_err <= 1e-8, ident_err),
        "composite_lower": result(bound, spectral_max,
                                  bound >= spectral_max - tol,
                                  (spectral_max - bound) / scale(bound, spectral_max)),
    }
    for l in ctx.divisors:
        rhs = 0.0
        for k, phi_k in zip(ctx.divisors, ctx.divisor_phi):
            G = class_power(arr, n // k)
            rhs += m * m * phi_k / k * G if k <= l else m * n / k * G
        out[l] = result(low, rhs, low <= rhs + tol,
                        (low - rhs) / scale(low, rhs))
    return out


@pytest.mark.parametrize("n,ms", [(48, range(1, 49)), (150, (1, 7, 150)), (7, (3,))])
def test_double_sum_gathers_are_chunked(monkeypatch, n, ms):
    # the pass reads every window of every step d in [1, n/2] (n*L sums per
    # step), at most _SCAN_CELLS window sums per chunk
    sizes = []
    windows = analysis._orbit_windows

    def spy(values, n):
        for L, w in windows(values, n):
            sizes.append(w.size)
            yield L, w

    monkeypatch.setattr(analysis, "_orbit_windows", spy)
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got, _ = analysis._window_pass(f)
    assert sizes and max(sizes) <= _SCAN_CELLS
    assert sum(sizes) == sum(n * (n // math.gcd(d, n)) for d in range(1, n // 2 + 1))
    for m in ms:
        assert got[m - 1] == pytest.approx(weighted_lhs_per_b(f, m), rel=1e-12)


def test_double_sums_match_reference_every_m():
    # complex input is summed in float64 in another order than the reference's
    rng = np.random.default_rng(19)
    for n in [*range(1, 71), 100, 150]:
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ms = np.arange(1, n + 1)
        want = double_sums_reference(f, ms)
        assert double_sums(f, ms) == pytest.approx(want, rel=1e-12), n


@settings(max_examples=25, deadline=None)
@example(n=150, seed=0, signs=False, ms=[150, 7, 65, 7, 1, 129, 128, 64, 65])
@given(n=st.integers(1, 150), seed=st.integers(0, 2**32 - 1), signs=st.booleans(),
       ms=st.lists(st.integers(1, 150), min_size=1, max_size=10))
def test_double_sums_match_reference_on_m_subsets(n, seed, signs, ms):
    # any m subset of the grid: unsorted, repeated; complex +-1 stays exact
    rng = np.random.default_rng(seed)
    if signs:
        f = (rng.integers(0, 2, n) * 2 - 1).astype(np.complex128)
    else:
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ms = (np.array(ms, dtype=np.int64) - 1) % n + 1
    want = double_sums_reference(f, ms)
    if signs:
        assert np.array_equal(double_sums(f, ms), want)
    else:
        assert double_sums(f, ms) == pytest.approx(want, rel=1e-12)


# +-1 and {-1, 0, +1} entries stay exact in every dtype: the int64 route, and
# in float64 every value formed is an integer below n^4 < 2^53
EXACT_DTYPES = (np.int64, np.int8, np.float64, np.complex128)


def test_exact_double_sums_match_reference_every_m():
    rng = np.random.default_rng(20)
    for n in [*range(1, 91), 100, 128, 150]:
        ms = np.arange(1, n + 1)
        for f in (rng.integers(0, 2, n) * 2 - 1, rng.integers(-1, 2, n)):
            want = double_sums_reference(f.astype(np.complex128), ms)
            for dtype in EXACT_DTYPES:
                assert np.array_equal(double_sums(f.astype(dtype), ms), want), (n, dtype)


@settings(max_examples=25, deadline=None)
@example(n=150, seed=0, zeros=False, ms=[150, 7, 65, 7, 1, 129, 128, 64, 65, 75, 76])
@example(n=2, seed=0, zeros=False, ms=[2, 1, 2])
@given(n=st.integers(1, 150), seed=st.integers(0, 2**32 - 1), zeros=st.booleans(),
       ms=st.lists(st.integers(1, 150), min_size=1, max_size=10))
def test_exact_double_sums_match_reference_on_m_subsets(n, seed, zeros, ms):
    rng = np.random.default_rng(seed)
    f = rng.integers(-1, 2, n) if zeros else rng.integers(0, 2, n) * 2 - 1
    ms = (np.array(ms, dtype=np.int64) - 1) % n + 1
    want = double_sums_reference(f.astype(np.complex128), ms)
    for dtype in EXACT_DTYPES:
        assert np.array_equal(double_sums(f.astype(dtype), ms), want), dtype


def test_double_sums_route_follows_input(monkeypatch):
    # integer input with every entry in {-1, 0, +1} takes the int64 route, a
    # Coloring through fourier_checks included; float +-1, an integer 2 and
    # complex input take the float route; one pass over the windows per call
    taken = []
    windows = analysis._orbit_windows

    def spy(values, n):
        taken.append(values.dtype)
        return windows(values, n)

    monkeypatch.setattr(analysis, "_orbit_windows", spy)
    rng = np.random.default_rng(4)
    signs = rng.integers(0, 2, 12) * 2 - 1
    two = signs.copy()
    two[5] = 2
    exact, floats = np.dtype(np.int8), np.dtype(np.complex128)
    cases = [(signs, exact), (signs.astype(np.int8), exact),
             (rng.integers(0, 2, 12).astype(np.uint8), exact),
             (rng.integers(-1, 2, 12), exact),
             (signs.astype(np.float64), floats), (two, floats),
             (signs.astype(np.complex128), floats)]
    for values, route in cases:
        taken.clear()
        double_sums(values, range(1, 13))
        assert taken == [route], values.dtype
    taken.clear()
    double_sums(Coloring(12, signs), [3, 12])
    assert taken == [exact]


def test_window_pass_t_f_matches_the_scans():
    # T_f from the pass is max_ap_discrepancy's on +-1 and {-1, 0, +1} input
    # and the per-step complex scan's, bit for bit, on complex input
    rng = np.random.default_rng(21)
    for n in [*range(1, 91), 100, 150]:
        for chi in (rng.integers(0, 2, n) * 2 - 1, rng.integers(-1, 2, n)):
            t, _ = max_ap_discrepancy(Coloring(n, chi))
            assert analysis._window_pass(chi)[1] == t, n
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert analysis._window_pass(f)[1] == max_progression_sum_per_step(f), n


def test_fourier_checks_t_f_is_max_progression_sum():
    # the upper bounds take T_f from the window pass: at m = 1 no class-power
    # term enters, so lhs_upper's bound is n^2 T_f^2 with T_f bit for bit
    # max_progression_sum(f)
    rng = np.random.default_rng(22)
    for n in [*range(1, 91), 100, 150]:
        for f in (rng.integers(0, 2, n) * 2 - 1, rng.integers(-1, 2, n),
                  rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            t_f = max_progression_sum(f)
            grids = fourier_checks(f)
            assert grids["lhs_upper"].rhs[0] == n * n * t_f * t_f, n
            assert grids["composite_lower"].lhs[0] == n * n * t_f * t_f, n


def test_fourier_checks_accept_integers_past_one():
    # integer entries outside {-1, 0, +1} take the float route: the same grids
    # as the float input, and max_progression_sum (which refused them) the
    # same T_f as the float call and the window pass
    rng = np.random.default_rng(23)
    f = rng.integers(-3, 4, 30)
    got = fourier_checks(f)
    want = fourier_checks(f.astype(np.float64))
    assert got["lhs_upper"].passed.all()
    for name in analysis.FOURIER_CHECKS:
        assert np.array_equal(got[name].lhs, want[name].lhs)
        assert np.array_equal(got[name].rhs, want[name].rhs)
    small = np.array([2, -3, 1, 0, 2, 1])
    assert max_progression_sum(small) == max_progression_sum(small.astype(np.float64)) == 6.0
    for g in (f, small):
        assert max_progression_sum(g) == max_progression_sum(g.astype(np.float64))
        assert max_progression_sum(g) == analysis._window_pass(g)[1]


@pytest.mark.parametrize("f", [
    np.array([], dtype=np.int64),  # raised numpy's zero-size reduction error
    np.array([], dtype=np.float64),  # returned 0.0
    np.array([], dtype=np.complex128),
    np.ones((2, 3)),  # read the first axis as n and returned 2.0
    np.ones((2, 3), dtype=np.int8),
    np.float64(1.0),
], ids=["int-empty", "float-empty", "complex-empty", "float-2d", "int-2d", "scalar"])
def test_progression_sums_refuse_all_but_one_function(f):
    with pytest.raises(ValueError, match="expected a nonempty 1-d array over Z_n, got shape"):
        max_progression_sum(f)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), signs=st.booleans())
def test_fourier_checks_property(n, seed, signs):
    rng = np.random.default_rng(seed)
    if signs:
        f = rng.integers(0, 2, n) * 2 - 1
    else:
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ctx = make_context(n)
    fhat = np.fft.fft(np.asarray(f, dtype=np.complex128))
    t_f = max_progression_sum(f)
    grid = fourier_checks(f)
    assert set(grid) == set(analysis.FOURIER_CHECKS)
    assert grid["mobius_inequality"].passed.shape == (n, len(ctx.divisors))

    def entry(name, *index):
        g = grid[name]
        return (float(g.lhs[index]), float(g.rhs[index]), bool(g.passed[index]),
                float(g.error[index]))

    lhs = grid["rhs_lower"].lhs
    for i, m in enumerate(range(1, n + 1)):
        assert lhs[i] == pytest.approx(weighted_lhs_tiny(f, m), rel=1e-8)
        ref = scalar_checks(f, m, ctx, fhat, t_f)
        for name in ("rhs_lower", "lhs_upper", "mobius_identity", "composite_lower"):
            got, want = entry(name, i), ref[name]
            if signs or name not in ("rhs_lower", "lhs_upper"):
                assert got == want
            else:  # the complex double sum, summed in another order than the scalar one
                assert got[1:3] == want[1:3]
                assert got[0] == pytest.approx(want[0], rel=1e-12)
                assert got[3] == pytest.approx(want[3], rel=0, abs=1e-12)
        for j, l in enumerate(ctx.divisors):
            assert entry("mobius_inequality", i, j) == ref[l]
    # a planted T_f = 0 breaks the upper bounds at m = 1 in both routes: no
    # class-power term enters there, so the bound is 0
    window_pass = analysis._window_pass

    def no_t_f(values):
        double, t = window_pass(values)
        return double, np.zeros_like(t)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_window_pass", no_t_f)
        planted = fourier_checks(f)
    for name in ("lhs_upper", "composite_lower"):
        assert not planted[name].passed[0]
    # f in a stack between two other functions gives its own grids in its row
    if signs:
        others = rng.integers(-1, 2, (2, n))
    else:
        others = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    stack = np.vstack([others[:1], [f], others[1:]])
    assert_row_is_call(fourier_checks(stack), 1, grid)


def stack_cases(n, rng, rows=5):
    """One stack per input kind, each with ``rows`` functions over Z_n."""
    signs = rng.integers(0, 2, (rows, n)) * 2 - 1
    two = signs.copy()
    two[rows // 2, n // 2] = 2  # one entry 2 sends the whole stack down the float route
    return {"signs": signs, "zeros": rng.integers(-1, 2, (rows, n)), "two": two,
            "floats": rng.standard_normal((rows, n)),
            "complex": rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))}


@pytest.mark.parametrize("n", [1, 2, 12, 30, 48])
def test_fourier_checks_stack_rows_are_one_function_calls(n):
    rng = np.random.default_rng(n)
    for stack in stack_cases(n, rng).values():
        grids = fourier_checks(stack)
        for b, f in enumerate(stack):
            assert_row_is_call(grids, b, fourier_checks(f))


def test_fourier_checks_stack_across_pass_blocks(monkeypatch):
    # rows past the first _PASS_ROWS go through later window passes, and with
    # a small cell budget every row is its own spectral block: the same
    # arithmetic either way
    monkeypatch.setattr(analysis, "_SCAN_CELLS", 16)
    rng = np.random.default_rng(26)
    n = 24
    for stack in stack_cases(n, rng, rows=2 * _PASS_ROWS + 5).values():
        grids = fourier_checks(stack)
        for b in (0, _PASS_ROWS - 1, _PASS_ROWS, 2 * _PASS_ROWS + 4):
            assert_row_is_call(grids, b, fourier_checks(stack[b]))


@pytest.mark.parametrize("kind", ["signs", "complex"])
def test_window_pass_blocks_of_a_stack_stay_in_budget(monkeypatch, kind):
    # 40 functions go through the window pass _PASS_ROWS rows at a time, so no
    # window block grows past _PASS_ROWS * _SCAN_CELLS sums with the stack
    rows, sizes = [], []
    windows = analysis._orbit_windows

    def spy(values, n):
        rows.append(len(values))
        for L, w in windows(values, n):
            sizes.append(w.size)
            yield L, w

    monkeypatch.setattr(analysis, "_orbit_windows", spy)
    n = 48
    stack = stack_cases(n, np.random.default_rng(27), rows=40)[kind]
    fourier_checks(stack)
    assert rows == [_PASS_ROWS, _PASS_ROWS, 40 - 2 * _PASS_ROWS]
    assert max(sizes) <= _PASS_ROWS * _SCAN_CELLS
    assert sum(sizes) == 40 * sum(n * (n // math.gcd(d, n)) for d in range(1, n // 2 + 1))


@pytest.mark.parametrize("f", [
    np.float64(1.0),  # ndim 0
    np.ones((2, 3, 4)),  # ndim 3
    np.ones((0, 6)),  # an empty stack
    np.ones((3, 0)),  # n = 0
    np.ones(0),
], ids=["ndim0", "ndim3", "no-rows", "n0", "empty"])
def test_fourier_checks_rejects_bad_stacks(f):
    with pytest.raises(ValueError):
        fourier_checks(f)


# ------------------------------------------------------------ inequalities

def test_rhs_lower_equality_for_ones():
    n = 12
    res = fourier_checks(np.ones(n))["rhs_lower"]
    assert res.passed.all()
    assert res.lhs == pytest.approx(res.rhs)  # gcd(0, n) = n makes it tight


def test_lhs_upper_m1_is_singleton_bound():
    rng = np.random.default_rng(12)
    n = 16
    f = rng.integers(0, 2, n) * 2 - 1
    res = fourier_checks(f)["lhs_upper"]
    assert res.passed[0]
    assert res.lhs[0] == pytest.approx(n * n)


def test_identity_and_inequalities_random_colorings():
    rng = np.random.default_rng(14)
    for n in (8, 12, 30, 48):
        for _ in range(10):
            grid = fourier_checks(Coloring(n, rng.integers(0, 2, n) * 2 - 1))
            for name, checked in grid.items():
                assert checked.passed.all(), name


def test_identities_random_complex():
    rng = np.random.default_rng(16)
    for n in (12, 30):
        for _ in range(5):
            grid = fourier_checks(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            for name in ("rhs_lower", "lhs_upper", "mobius_identity", "mobius_inequality"):
                assert grid[name].passed.all(), name


def test_mobius_identity_delta_function():
    # G = 1 for every class modulus, so both sides reduce to the divisor sum
    for n in (6, 12, 64):
        delta = np.zeros(n)
        delta[0] = 1
        res = fourier_checks(delta)
        assert res["mobius_identity"].passed.all()


def test_g_bounds_exact_integers():
    rng = np.random.default_rng(18)
    for n in (8, 12, 30, 64):
        ctx = make_context(n)
        for _ in range(20):
            chi = Coloring(n, rng.integers(0, 2, n) * 2 - 1)
            t, _ = max_ap_discrepancy(chi)
            for k in ctx.divisors:
                G = class_power(chi.values, n // k)
                assert isinstance(G, int)
                assert G <= n * k
                assert G <= (n // k) * t * t


# ---------------------------------------------------------------- bounds

def test_lower_bound_prop_examples():
    rep = lower_bound_prop(make_context(8), 2)
    assert rep.value == pytest.approx(1 / math.sqrt(2 + 10 / 64))
    assert rep.witness["S1"] == 2
    assert rep.witness["S2"] == pytest.approx(5 / 64)
    for n in (5, 9, 100):
        rep = lower_bound_prop(make_context(n), n)
        assert rep.value == pytest.approx(1 / math.sqrt(8))
        assert rep.witness["S2"] == 0
    rep = lower_bound_prop(make_context(97), 1)
    assert rep.value == pytest.approx((8 / 97 + 2 / 97**2) ** -0.5)


def test_lower_bound_main_examples():
    rep = lower_bound_main(make_context(101))
    assert rep.value == pytest.approx((1 + math.sqrt(101)) / (8 * math.sqrt(2)))
    rep = lower_bound_main(make_context(12))
    assert rep.value == pytest.approx((2 + math.sqrt(6)) / (8 * math.sqrt(6)))
    assert rep.witness["r"] == 6
    assert rep.witness["t1"] == 6 and rep.witness["t2"] == 4
    rep = lower_bound_main(make_context(1))
    assert rep.value == pytest.approx(0.25)
    assert rep.witness["t2"] is None


def test_lower_bound_prime_power_examples():
    assert lower_bound_prime_power(2, 3).value == pytest.approx(0.5)
    assert lower_bound_prime_power(2, 1).value == pytest.approx(math.sqrt(2) / 4)
    assert lower_bound_prime_power(3, 3).value == pytest.approx(0.75)
    with pytest.raises(ValueError):
        lower_bound_prime_power(4, 2)


def test_upper_bound_main_examples():
    rep = upper_bound_main(make_context(12), 1.0)
    assert rep.value == pytest.approx(7.0)
    assert rep.witness["r"] == 4
    rep = upper_bound_main(make_context(13), 1.0)
    assert rep.value == pytest.approx(min(14.0, 1 + 2 * math.sqrt(13)))
    rep = upper_bound_main(make_context(1), 2.5)
    assert rep.value == pytest.approx(1 + 2.5)


def test_hereditary_upper_bound_examples():
    rep = hereditary_upper_bound(make_context(1), 1.0)
    assert rep.value == pytest.approx(1.0)
    rep = hereditary_upper_bound(make_context(2), 1.0)
    assert rep.value == pytest.approx(math.log(2 * math.e) ** 1.5)
    rep = hereditary_upper_bound(make_context(101), 3.0)
    assert rep.value == pytest.approx(
        3.0 * math.sqrt(100) * math.log(math.e * 101 / 100) ** 1.5
    )


@pytest.mark.parametrize("c_hat", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("bound", [upper_bound_main, hereditary_upper_bound])
def test_upper_bounds_reject_bad_c_hat(bound, c_hat):
    # c_hat = inf made every divisor's bound inf, so r* = 1; nan read as a bound
    with pytest.raises(ValueError, match="c_hat"):
        bound(make_context(12), c_hat)


def test_class_sums_match_naive():
    rng = np.random.default_rng(20)
    for n in (6, 12, 20):
        f = rng.standard_normal(n)
        for r in make_context(n).divisors:
            g = congruence_class_sums(f, r)
            for w in range(r):
                assert g[w] == pytest.approx(sum(f[x] for x in range(w, n, r)))
