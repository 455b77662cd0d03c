"""Fourier analysis on Z_n and the closed-form discrepancy bound evaluators.

The transform convention is fhat(r) = sum_x f(x) exp(-2*pi*i*x*r/n), which is
exactly numpy's forward FFT.  The identity and inequality checks below all
revolve around the weighted double sum sum_{a,b} |f(a + b*M)|^2 for the
initial segment M = {0, ..., m-1}: it is bounded below by a gcd-weighted
spectral sum and above by progression discrepancy plus congruence-class power,
and comparing the two yields lower bounds on the discrepancy that depend only
on the divisor structure of n.

The six checks have one implementation, ``fourier_checks(f)``: one call
evaluates them for every m in 1..n (every (m, l), l a divisor of n, for the
truncated divisor bound, every divisor r for subgroup Plancherel) with numpy
arrays, computing the class powers once and the double sum for every m in
one pass.  A (B, n) stack of functions is one call as well: every grid
gains a leading batch axis, row b bit for bit the call on f[b] alone, and
the stack shares one FFT, one class power per divisor, one window pass
(``_PASS_ROWS`` rows at a time) and one evaluation of each check.  The
double sum and T_f come from one pass over each step's orbit-row windows
(``_window_pass``): with
g = gcd(b, n), L = n/g and m = q*L + s (0 <= s < L), a row's L starts give
L*q^2*|S|^2 + 2*q*s*|S|^2 + Q2[s], S the row sum and Q2[s] its sum of
squared length-s window sums, and T_f is the largest |window sum|.  Integer
input with every entry in {-1, 0, +1} (a coloring's values) is exact in
int64; any other, complex included, takes the same code in float64, and
``max_progression_sum`` reads T_f of such input off the same pass.  The
tests compare both against ``tests/oracles.py``: bit for bit on entries in
{-1, 0, +1}, to relative 1e-12 on complex input.

Equalities are checked to relative 1e-8; inequalities get an absolute floor
of 1e-6 at the n^2 m^2 scale on top.  ``class_power`` sums integer input in
int64, but ``fourier_checks`` takes its class powers on the complex128 copy
of the stack: exact on integer input only because every imaginary part is 0
and every class sum and power is an integer below 2^53.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ap_system import (_SCAN_CELLS, Coloring, _orbit_windows, congruence_class_sums,
                        max_ap_discrepancy)
from .number_theory import ZnContext, factorize, make_context

__all__ = [
    "CheckGrid",
    "BoundReport",
    "REL_TOL",
    "class_power",
    "FOURIER_CHECKS",
    "fourier_checks",
    "max_progression_sum",
    "lower_bound_prop",
    "lower_bound_main",
    "lower_bound_prime_power",
    "upper_bound_main",
    "hereditary_upper_bound",
]

REL_TOL = 1e-8
_ABS_COEFF = 1e-6
_PASS_ROWS = 16  # rows of a stack per window pass: blocks of _PASS_ROWS * _SCAN_CELLS sums

FOURIER_CHECKS = ("subgroup_plancherel", "rhs_lower", "lhs_upper", "mobius_identity",
                  "mobius_inequality", "composite_lower")


@dataclass(frozen=True)
class BoundReport:
    """An evaluated bound with the parameter choices that witness it."""

    n: int
    value: float
    witness: dict


def _as_values(f) -> np.ndarray:
    """The values of f as a C-contiguous array: one function (n,), a
    Coloring's included, or a stack (B, n) of them."""
    arr = np.asarray(f.values if isinstance(f, Coloring) else f)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise ValueError("expected a nonempty 1-d array over Z_n or (B, n) stack of them, "
                         f"got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def class_power(f, r: int):
    """G_f(r) = sum_w |g_f(w, r)|^2; exact integer for integer input.  A
    stack (B, n) gives one G per row, as an array."""
    g = congruence_class_sums(f.values if isinstance(f, Coloring) else f, r)
    G = (g * g if g.dtype.kind == "i" else np.abs(g) ** 2).sum(axis=-1)
    return G if G.ndim else G.item()


def _gcd_weights(n: int) -> np.ndarray:
    """gcd(r, n) for r = 0..n-1, with gcd(0, n) = n."""
    return np.gcd(np.arange(n, dtype=np.int64), n)


def _scale(lhs, rhs):
    """max(1, |lhs|, |rhs|), elementwise."""
    return np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))


def _window_pass(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The double sum sum_{a,b} |sum_{k<m} f(a + b*k)|^2 for each m in 1..n, as
    float64, and T_f = max |f(A)| over progressions, from one pass over the
    orbit-row windows (``ap_system._orbit_windows``).  ``values`` is one
    function (n,) or a stack (B, n): the sums have values' shape, entry m - 1
    the sum for m, and T_f values.shape[:-1], row b bit for bit the call on
    values[b].

    Step b (g = gcd(b, n)) runs round g orbit rows of L = n/g points.  With
    m = q*L + s (0 <= s < L) a start's sum is q*S + W, S the row sum and W a
    length-s window sum, and the length-s windows cover each point s times,
    so a row's L starts give L*q^2*|S|^2 + 2*q*s*|S|^2 + Q2[s], Q2[s] the sum
    of its squared length-s window sums; Q2[L] = L*|S|^2.  Steps b and n - b
    give the same windows reversed, so b runs over [0, n/2], weight 2 but at
    0 and n/2; b = 0 (L = 1) gives m^2 |f(a)|^2.  One flat table per function
    holds Q2[0..L] of each class, g ascending over the divisors of n (g = n is
    step 0), and each m's terms add up in that order.  T_f is the largest |W|,
    |f(0)| at n = 1 (no steps).  Integer input with every entry in
    {-1, 0, +1} is exact (window sums squared in int32, totals in int64:
    below n = 46 341); any other, complex included, is summed in float64.
    A stack takes one route: a row with entries in {-1, 0, +1} gives the
    same sums and T_f on either, because every value the float route forms
    from it is an integer below 2^53.  It goes _PASS_ROWS rows at a time, so
    a window block holds at most _PASS_ROWS * _SCAN_CELLS sums and each row
    keeps its one-function chunks.
    """
    n = values.shape[-1]
    ms = np.arange(1, n + 1, dtype=np.int64)
    integer = (np.issubdtype(values.dtype, np.integer) and values.min() >= -1
               and values.max() <= 1)
    stack = values.reshape(-1, n).astype(np.int8 if integer else np.complex128, copy=False)
    lengths = n // (np.flatnonzero(n % np.arange(1, n + 1) == 0) + 1)  # L = n/g, g | n rising
    offsets = np.cumsum(lengths + 1) - lengths - 1  # class L's Q2[0..L] starts here
    first = dict(zip(lengths.tolist(), (offsets + 1).tolist()))  # and its Q2[1] here
    q2 = np.zeros((len(stack), offsets[-1] + 2), dtype=np.int64 if integer else np.float64)
    q2[:, -1] = np.square(np.abs(stack)).sum(axis=-1)  # step 0: Q2[1] = sum |f(a)|^2
    top = np.zeros(len(stack), dtype=q2.dtype)
    for lo in range(0, len(stack), _PASS_ROWS):
        block = slice(lo, lo + _PASS_ROWS)
        for L, w in _orbit_windows(stack[block], n):
            square = np.square(w, out=w) if integer else np.abs(w)
            top[block] = np.maximum(top[block], square.max(axis=(1, 2, 3, 4)))
            if not integer:
                np.square(square, out=square)
            q2[block, first[L] : first[L] + L] += square.sum(axis=(1, 2, 3), dtype=q2.dtype)
    t = np.sqrt(top) if integer else top  # exact: perfect squares below 2^53
    if n == 1:  # abs of each scalar: numpy's array abs of complex can differ in the last bit
        t = np.array([abs(x) for x in stack[:, 0]], dtype=np.float64)
    q, s = np.divmod(ms[:, None], lengths)
    full = q2[:, offsets + lengths]  # Q2[L]: L times the sum of |S|^2 over the class's rows
    rows = (full // lengths if integer else full / lengths)[:, None, :]
    terms = q * (ms[:, None] + s) * rows + q2[:, offsets + s]  # L*q^2 + 2*q*s = q*(m + s)
    # steps b and n - b count twice; b = 0 (L = 1) and b = n/2 (L = 2) once.  The
    # class sum runs pairwise along contiguous rows: the gather comes out in
    # another memory order
    double = np.ascontiguousarray(terms * np.where(lengths > 2, 2, 1)).sum(axis=-1)
    return double.astype(np.float64).reshape(values.shape), t.reshape(values.shape[:-1])


def max_progression_sum(f) -> float:
    """T_f = max |f(A)| over progressions: ``max_ap_discrepancy``'s for
    colorings and integer input with entries in {-1, 0, +1}, the window
    pass's (``_window_pass``, in float64) for any other, complex included.
    Any other f than a Coloring or a nonempty 1-d array raises ValueError."""
    if isinstance(f, Coloring):
        t, _ = max_ap_discrepancy(f)
        return float(t)
    arr = np.asarray(f)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a nonempty 1-d array over Z_n, got shape {arr.shape}")
    if np.issubdtype(arr.dtype, np.integer) and arr.min() >= -1 and arr.max() <= 1:
        t, _ = max_ap_discrepancy(Coloring(arr.size, arr))
        return float(t)
    return float(_window_pass(arr)[1])


@dataclass(frozen=True)
class CheckGrid:
    """One check evaluated for every m in 1..n (and every divisor l of n):
    ``lhs``, ``rhs``, ``passed`` and ``error`` share the shape (n,), entry
    m - 1 for m, (n, d(n)) for mobius_inequality, or (d(n),) for
    subgroup_plancherel, one entry per divisor r of n, ascending.  A stack of
    B functions puts a leading batch axis of length B in front, row b bit for
    bit the grid of function b alone.  ``error`` is the signed relative
    defect: for equalities the relative difference, for inequalities the
    normalized amount by which the bound is violated (negative values mean
    slack)."""

    lhs: np.ndarray
    rhs: np.ndarray
    passed: np.ndarray
    error: np.ndarray


def _spectral_sums(power: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """sum_r power[b, r] * weight[i, r] for every row b of power and i of
    weight, each summed pairwise along r as for one row's (len(weight), n)
    product.  The product is formed for a block of rows at a time, at most
    _PASS_ROWS * _SCAN_CELLS cells, so memory does not grow with the stack."""
    out = np.empty((len(power), len(weight)))
    block = max(1, _PASS_ROWS * _SCAN_CELLS // weight.size)
    for lo in range(0, len(power), block):
        out[lo : lo + block] = (power[lo : lo + block, None, :] * weight).sum(axis=-1)
    return out


def fourier_checks(f) -> dict[str, CheckGrid]:
    """Evaluate the m-indexed checks for every m in 1..n, mobius_inequality
    for every (m, l) with l a divisor of n, and subgroup_plancherel for every
    divisor r of n.  With S = sum_{a,b} |f(a + bM)|^2, P(r) = |fhat(r)|^2,
    w(r) = m^2 gcd(r, n)/n and A(k) = m^2 (phi(k)/k) G_f(n/k), k | n:

    subgroup_plancherel  sum_{j<r} P(j n/r) = r G_f(r)
    rhs_lower            S >= sum_r P(r) max(w(r), m)
    lhs_upper            S <= n^2 T_f^2 + sum_{1<=k<m} A(k)
    mobius_identity      sum_k A(k) = sum_r P(r) w(r)
    mobius_inequality    sum_r P(r) min(w(r), m) <= sum_{k<=l} A(k) + sum_{k>l} (m n/k) G_f(n/k)
    composite_lower      n^2 T_f^2 + sum_{1<=k<m} A(k) >= sum_r P(r) max(w(r), m)

    ``f`` is one function over Z_n (a Coloring or a 1-d array) or a (B, n)
    stack of them; a stack's grids carry a leading batch axis, and row b is
    bit for bit the call on f[b] alone.  The stack shares one FFT, one class
    power per divisor, one window pass and one evaluation of each check.
    The double sum and T_f come from one pass over the orbit-row windows
    (``_window_pass``); T_f is ``max_progression_sum``'s, bit for bit.  The
    divisor and spectral entries are bitwise what the scalar formula gives
    for their m (while m^2 phi(k) < 2^53, i.e. n below about 2e5): divisor
    sums add up term by term in ascending k, spectral sums are pairwise
    along contiguous rows.
    So is the double sum on input with entries in {-1, 0, +1}, of any dtype,
    where every value it forms is an integer below n^4 < 2^53; on other input
    it differs from the scalar formula's order of summation only by rounding.
    """
    values = _as_values(f)
    stack = values.reshape(-1, values.shape[-1])
    batch, n = stack.shape
    ctx = make_context(n)
    ms = np.arange(1, n + 1, dtype=np.int64)
    arr = stack.astype(np.complex128)
    power = np.abs(np.fft.fft(arr)) ** 2
    m2 = ms * ms
    col = ms[:, None]
    scaled = np.outer(m2, _gcd_weights(n)) / n  # m^2 gcd(r, n) / n
    # squared in float: (n m)^2 would wrap in int64 past n m = 3e9
    tol = _ABS_COEFF * (n * ms).astype(np.float64) ** 2
    ks = np.array(ctx.divisors)
    # per row and divisor k | n ascending: G(k) = G_f(n/k), shape (B, d(n)), and
    # A(k) = m^2 (phi(k)/k) G(k), shape (B, d(n), n); terms[i] = A(k_i)
    G = np.stack([class_power(arr, n // k) for k in ctx.divisors], axis=-1)
    coeff = m2 * np.array(ctx.divisor_phi)[:, None] / ks[:, None]
    terms = (coeff * G[..., None]).swapaxes(0, 1)
    double, t_f = _window_pass(stack)
    spectral_max = _spectral_sums(power, np.maximum(scaled, col))
    below = np.repeat((n * n * t_f * t_f)[:, None], n, axis=1)
    for term, before in zip(terms, ks[:, None] < ms):
        np.add(below, term, out=below, where=before)

    out = {}
    # r = n/k, so ascending r is descending k
    lhs = np.stack([power[:, ::k].sum(axis=-1) for k in ctx.divisors[::-1]], axis=-1)
    rhs = n // ks[::-1] * G[:, ::-1]
    err = np.abs(lhs - rhs) / _scale(lhs, rhs)
    out["subgroup_plancherel"] = CheckGrid(lhs, rhs, err <= REL_TOL, err)
    out["rhs_lower"] = CheckGrid(double, spectral_max, double >= spectral_max - tol,
                                 (spectral_max - double) / _scale(double, spectral_max))
    out["lhs_upper"] = CheckGrid(double, below, double <= below + tol,
                                 (double - below) / _scale(double, below))
    lhs = np.zeros((batch, n))
    for term in terms:
        lhs += term
    rhs = _spectral_sums(power, scaled)
    err = np.abs(lhs - rhs) / _scale(lhs, rhs)
    out["mobius_identity"] = CheckGrid(lhs, rhs, err <= REL_TOL, err)
    lhs = _spectral_sums(power, np.minimum(scaled, col))[..., None]
    rhs = np.zeros((batch, n, ks.size))
    far = (ms * n / ks[:, None] * G[..., None]).swapaxes(0, 1)  # (m n/k) G(k)
    for term, tail, within in zip(terms, far, ks[:, None] <= ks):
        rhs += np.where(within, term[..., None], tail[..., None])
    lhs = np.broadcast_to(lhs, rhs.shape)
    out["mobius_inequality"] = CheckGrid(lhs, rhs, lhs <= rhs + tol[:, None],
                                         (lhs - rhs) / _scale(lhs, rhs))
    out["composite_lower"] = CheckGrid(below, spectral_max, below >= spectral_max - tol,
                                       (spectral_max - below) / _scale(below, spectral_max))
    if values.ndim == 1:
        out = {name: CheckGrid(g.lhs[0], g.rhs[0], g.passed[0], g.error[0])
               for name, g in out.items()}
    return out


def lower_bound_prop(ctx: ZnContext, l: int) -> BoundReport:
    """Divisor-profile lower bound: disc >= (8 S1/n + 2 S2)^(-1/2) with
    S1 = sum_{k<=l, k|n} phi(k) and S2 = sum_{k>l, k|n} k^(-2)."""
    n = ctx.n
    if not 1 <= l <= n:
        raise ValueError("l must lie in [1, n]")
    s1 = sum(phi_k for k, phi_k in zip(ctx.divisors, ctx.divisor_phi) if k <= l)
    s2 = sum(1.0 / (k * k) for k in ctx.divisors if k > l)
    value = (8.0 * s1 / n + 2.0 * s2) ** -0.5
    return BoundReport(n=n, value=value,
                       witness={"l": l, "S1": s1, "S2": s2, "m": n // (2 * s1)})


def lower_bound_main(ctx: ZnContext) -> BoundReport:
    """General lower bound: min_{r|n}(n/r + sqrt(r)) / (8 sqrt(d(n)))."""
    n = ctx.n

    def val(r):
        return n / r + math.sqrt(r)

    best_r = min(ctx.divisors, key=val)
    # threshold split at n^(2/3), compared exactly via r^3 vs n^2
    t1 = min(r for r in ctx.divisors if r**3 >= n**2)
    below = [r for r in ctx.divisors if r**3 < n**2]
    t2 = max(below) if below else None
    return BoundReport(n=n, value=val(best_r) / (8.0 * math.sqrt(ctx.d)),
                       witness={"r": best_r, "t1": t1, "t2": t2})


def lower_bound_prime_power(p: int, k: int) -> BoundReport:
    """Prime-power lower bound: disc(Z_{p^k}) >= p^{(k - floor(k/3))/2} / 4."""
    if factorize(p) != ((p, 1),):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("k must be positive")
    value = p ** ((k - k // 3) / 2.0) / 4.0
    return BoundReport(n=p**k, value=value, witness={"p": p, "k": k, "t": k // 3})


def upper_bound_main(ctx: ZnContext, c_hat: float = 1.0) -> BoundReport:
    """Construction-side upper bound: min_{r|n}(n/r + c_hat sqrt(r) 2^omega(r))."""
    if not 0 < c_hat < math.inf:
        raise ValueError(f"c_hat must be positive and finite, got {c_hat}")
    n = ctx.n

    def val(r):
        return n / r + c_hat * math.sqrt(r) * 2 ** ctx.omega_of_divisor(r)

    best_r = min(ctx.divisors, key=val)
    return BoundReport(n=n, value=val(best_r), witness={"r": best_r})


def hereditary_upper_bound(ctx: ZnContext, c_hat: float = 1.0) -> BoundReport:
    """Subset-uniform upper bound: c_hat * phi(n)^(1/2) * log(e n / phi(n))^(3/2)."""
    if not 0 < c_hat < math.inf:
        raise ValueError(f"c_hat must be positive and finite, got {c_hat}")
    n = ctx.n
    value = c_hat * math.sqrt(ctx.phi) * math.log(math.e * n / ctx.phi) ** 1.5
    return BoundReport(n=n, value=value, witness={"phi": ctx.phi})
