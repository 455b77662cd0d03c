"""Fourier analysis on Z_n and the closed-form discrepancy bound evaluators.

The transform convention is fhat(r) = sum_x f(x) exp(-2*pi*i*x*r/n), which is
exactly numpy's forward FFT.  The identity and inequality checks below all
revolve around the weighted double sum sum_{a,b} |f(a + b*M)|^2 for the
initial segment M = {0, ..., m-1}: it is bounded below by a gcd-weighted
spectral sum and above by progression discrepancy plus congruence-class power,
and comparing the two yields lower bounds on the discrepancy that depend only
on the divisor structure of n.

The five m-indexed checks have one implementation, ``fourier_checks``: one
call evaluates them for every m (and every (m, l) for the truncated divisor
bound) with numpy arrays, computing the class powers once and the double sum
for every m in one call; a one-m check is the call with ``ms=[m]``.  The
double sum of integer input with every entry in {-1, 0, +1} (a coloring's
values) is exact in int64, from the squared window sums of each step's orbit
rows: with g = gcd(b, n), L = n/g and m = q*L + s (0 <= s < L), a row's L
starts give L*q^2*S^2 + 2*q*s*S^2 + Q2[s], S the row sum and Q2[s] its sum of
squared length-s window sums.  Any other input, complex included, is summed
from chunked gathers of f(a + b*k) in numpy's pairwise order, bit for bit
the per-m ``table[..., :m].sum(axis=-1)``.  On entries in {-1, 0, +1} that
route's every value is an integer below n^4, exact while n^4 < 2^53
(n <= 9741), so both routes give the same float64 (``_double_sums``).  The
tests compare both against each other and against ``tests/oracles.py``.

Equalities are checked to relative 1e-8; inequalities get an absolute floor
of 1e-6 at the n^2 m^2 scale on top.  Class-sum tables for integer colorings
are computed in exact integer arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ap_system import (Coloring, _orbit_windows, congruence_class_sums, max_ap_discrepancy,
                        max_ap_sum_complex)
from .number_theory import ZnContext, factorize, make_context

__all__ = [
    "CheckResult",
    "CheckGrid",
    "BoundReport",
    "REL_TOL",
    "class_power",
    "check_subgroup_plancherel",
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
_GATHER_CELLS = 1 << 14  # cells per gather of f(a + b*k) in the double sum
_PAIRWISE_BLOCK = 64  # complex values numpy's pairwise sum adds in four lanes

FOURIER_CHECKS = ("rhs_lower", "lhs_upper", "mobius_identity", "mobius_inequality",
                  "composite_lower")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one identity or inequality check.

    ``error`` is the signed relative defect: for equalities the relative
    difference, for inequalities the normalized amount by which the bound is
    violated (negative values mean slack).
    """

    name: str
    lhs: float
    rhs: float
    passed: bool
    error: float


@dataclass(frozen=True)
class BoundReport:
    """An evaluated bound with the parameter choices that witness it."""

    n: int
    kind: str
    value: float
    witness: dict
    constants: dict


def _as_complex(f) -> np.ndarray:
    if isinstance(f, Coloring):
        f = f.values
    arr = np.asarray(f, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty 1-d array over Z_n")
    return arr


def class_power(f, r: int):
    """G_f(r) = sum_w |g_f(w, r)|^2; exact integer for integer input."""
    g = congruence_class_sums(f.values if isinstance(f, Coloring) else f, r)
    if np.issubdtype(g.dtype, np.integer):
        return int((g * g).sum())
    return float((np.abs(g) ** 2).sum())


def check_subgroup_plancherel(f, r: int, fhat: np.ndarray | None = None) -> CheckResult:
    """Spectral mass on the order-r subgroup equals r times the class power:
    sum_{k<r} |fhat(k n/r)|^2 = r * G_f(r)."""
    arr = _as_complex(f)
    n = arr.size
    if r < 1 or n % r != 0:
        raise ValueError("r must divide n")
    if fhat is None:
        fhat = np.fft.fft(arr)
    lhs = float((np.abs(fhat[:: n // r][:r]) ** 2).sum())
    rhs = float(r * class_power(arr, r))
    scale = max(1.0, abs(lhs), abs(rhs))
    err = abs(lhs - rhs) / scale
    return CheckResult("subgroup_plancherel", lhs, rhs, err <= REL_TOL, err)


def _gcd_weights(n: int) -> np.ndarray:
    """gcd(r, n) for r = 0..n-1, with gcd(0, n) = n."""
    return np.gcd(np.arange(n, dtype=np.int64), n)


def _scale(lhs, rhs):
    """max(1, |lhs|, |rhs|), elementwise."""
    return np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))


def _grid(n: int, values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if (arr.ndim != 1 or arr.size == 0 or not np.issubdtype(arr.dtype, np.integer)
            or arr.min() < 1 or arr.max() > n):
        raise ValueError(f"{name} must lie in [1, n]")
    return arr.astype(np.int64)


@functools.lru_cache(maxsize=16)
def _pairwise_plan(ms: tuple[int, ...]):
    """numpy's pairwise summation tree for a row of m values, every m in ms.

    A row longer than _PAIRWISE_BLOCK splits at h = (m - m % 8) / 2 into the
    sums over [0, h) and [h, m), recursively, so every block starts at a
    multiple of 4.  Blocks of at most _PAIRWISE_BLOCK values are leaves:
    row (m // 4 - q0, m % 4, offset) of ``_RowSums``'s prefix table, q0 the
    least m // 4 of a leaf.  The longer blocks take the rows after it, one
    level of adds at a time.  Returns the leaves' distinct offsets, longest
    length and q0, the (left, right) rows of each level bottom up, the rows
    of the ms (a slice when they are consecutive) and the row count.  The
    plan depends on ms alone and is cached; its arrays are read-only.
    """
    height = {}  # (offset, length) -> 0 for a leaf, else 1 + its children's

    def visit(lo: int, m: int) -> int:
        if (lo, m) not in height:
            h = (m - m % 8) // 2
            height[lo, m] = (0 if m <= _PAIRWISE_BLOCK
                             else 1 + max(visit(lo, h), visit(lo + h, m - h)))
        return height[lo, m]

    for m in ms:
        visit(0, m)
    leaves = [node for node, h in height.items() if h == 0]
    offsets = sorted({lo for lo, _ in leaves})
    width = max(m for _, m in leaves)
    q0 = min(m // 4 for _, m in leaves)
    row = {(lo, m): (m - 4 * q0) * len(offsets) + offsets.index(lo) for lo, m in leaves}
    rows = 4 * (width // 4 + 1 - q0) * len(offsets)
    levels = []
    for level in range(1, max(height.values()) + 1):
        nodes = [node for node, h in height.items() if h == level]
        splits = [(lo, m, (m - m % 8) // 2) for lo, m in nodes]
        levels.append((np.array([row[lo, h] for lo, _, h in splits], dtype=np.intp),
                       np.array([row[lo + h, m - h] for lo, m, h in splits], dtype=np.intp)))
        row.update(zip(nodes, range(rows, rows + len(nodes))))
        rows += len(nodes)
    out = [row[0, m] for m in ms]
    out = (slice(out[0], out[0] + len(out)) if out == list(range(out[0], out[0] + len(out)))
           else np.array(out, dtype=np.intp))
    offsets = np.array(offsets, dtype=np.intp)
    for a in (offsets, out, *(x for pair in levels for x in pair)):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return offsets, width, q0, levels, out, rows


class _RowSums:
    """Sums of the first m rows of a complex (k, column) table for every m in
    ms, each bit for bit what numpy's pairwise ``add.reduce`` gives on the
    column laid out as a contiguous row.

    numpy sums a row of 4 <= m <= _PAIRWISE_BLOCK values in four lanes,
    k = j (mod 4), combines them as (L0 + L1) + (L2 + L3) and adds the m % 4
    tail values in order; a shorter row is plain sequential, which is the
    same with no lanes.  So running sums of the lanes from each leaf offset,
    combined at every quad count q, and three strided adds of the tails give
    every length at once: prefix row (q, t) holds the sum of the first
    4q + t values.  The running sums start at the least q a leaf needs, with
    one reduction over the leading axis, which numpy adds in order, and fill
    the prefix table before the combinations and tails replace them.
    Longer rows add their leaves up by ``_pairwise_plan``'s levels.  Complex
    adds are the real and imaginary float adds, so the work runs on float64
    views.  The scratch arrays are allocated once, for tables of up to
    ``columns`` columns, and a call's result is a view of them when the ms
    are consecutive.
    """

    def __init__(self, ms: np.ndarray, columns: int):
        (self._offsets, self._width, self._q0, self._levels, self._out,
         self._rows) = _pairwise_plan(tuple(ms.tolist()))
        # the first `width` values from each leaf offset (clipped past the table's end)
        self._take = np.arange(self._width)[:, None] + self._offsets
        self._blocks = np.empty(self._take.size * 2 * columns if self._offsets.size > 1 else 0)
        self._sums = np.empty(self._rows * 2 * columns)

    def __call__(self, table: np.ndarray) -> np.ndarray:
        """The (len(ms), columns) sums of a C-contiguous (k, columns) table."""
        table = table.view(np.float64)
        width, q0, offsets = self._width, self._q0, self._offsets.size
        span = table.shape[1]
        if offsets == 1:
            blocks = table[:width, None]
        else:
            blocks = self._blocks[:width * offsets * span].reshape(width, offsets, span)
            np.take(table, self._take, axis=0, mode="clip", out=blocks)
        lanes = blocks[:width // 4 * 4].reshape(-1, 4, offsets, span)
        sums = self._sums[:self._rows * span].reshape(self._rows, span)
        done = (len(lanes) + 1 - q0) * 4 * offsets
        prefix = sums[:done].reshape(-1, 4, offsets, span)
        np.add.reduce(lanes[:q0], axis=0, out=prefix[0])
        for i in range(1, len(prefix)):  # np.cumsum over the leading axis is several times slower
            np.add(prefix[i - 1], lanes[q0 + i - 1], out=prefix[i])
        np.add(prefix[:, 0], prefix[:, 1], out=prefix[:, 0])
        np.add(prefix[:, 2], prefix[:, 3], out=prefix[:, 2])
        np.add(prefix[:, 0], prefix[:, 2], out=prefix[:, 0])
        for t in range(3):
            tail = blocks[4 * q0 + t::4]
            np.add(prefix[:len(tail), t], tail, out=prefix[:len(tail), t + 1])
        for left, right in self._levels:
            np.add(sums[left], sums[right], out=sums[done:done + left.size])
            done += left.size
        return sums[self._out].view(np.complex128)


def _double_sums(values: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """sum_{a,b} |sum_{k<m} f(a + b*k)|^2 for each m in ms, as float64.

    Integer input with every entry in {-1, 0, +1} takes
    ``_double_sums_exact``; any other, float +-1 included, the pairwise
    route, the only one for complex input.  On such entries every value
    that route forms (row sums, squares, sums over a and b) is an integer
    below n^4, exact while n^4 < 2^53 (n <= 9741), and hypot(x, 0) = |x|, so
    both routes return the same float64.
    """
    if (np.issubdtype(values.dtype, np.integer) and values.min() >= -1
            and values.max() <= 1):
        return _double_sums_exact(values.astype(np.int8), ms)
    return _double_sums_pairwise(values.astype(np.complex128, copy=False), ms)


def _double_sums_exact(values: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """The double sum of int8 entries in {-1, 0, +1}, exactly.

    Step b (g = gcd(b, n)) runs round g orbit rows of L = n/g points.  With
    m = q*L + s (0 <= s < L) a start's sum is q*S + W, S the row sum and W a
    length-s window sum, and the length-s windows cover each point s times,
    so a row's L starts give L*q^2*S^2 + 2*q*s*S^2 + Q2[s], Q2[s] the sum of
    its squared length-s window sums (``ap_system._orbit_windows``);
    Q2[L] = L*S^2.  Steps b and n - b give the same windows reversed, so b
    runs over [0, n/2], weight 2 but at 0 and n/2; b = 0 (L = 1) gives
    m^2 f(a)^2.  Window sums are int32, the totals int64 below n^4: no
    overflow below n = 55 000.
    """
    n = values.size
    # Q2[0..L] per row length L (one per gcd class), summed over the class's steps and rows
    q2 = {1: np.array([0, np.count_nonzero(values)], dtype=np.int64)}  # step 0: f(a)^2
    for L, windows in _orbit_windows(values, n):
        total = q2.setdefault(L, np.zeros(L + 1, dtype=np.int64))
        total[1:] += np.square(windows, out=windows).sum(axis=(0, 1, 2), dtype=np.int64)
    lengths = np.fromiter(q2, dtype=np.int64, count=len(q2))
    flat = np.concatenate(list(q2.values()))
    offsets = np.cumsum(lengths + 1) - lengths - 1
    q, s = np.divmod(ms[:, None], lengths)
    rows = flat[offsets + lengths] // lengths  # sum of S^2 over the class's steps and rows
    terms = q * (ms[:, None] + s) * rows + flat[offsets + s]  # L*q^2 + 2*q*s = q*(m + s)
    # steps b and n - b count twice; b = 0 (L = 1) and b = n/2 (L = 2) once
    return (terms @ np.where(lengths > 2, 2, 1)).astype(np.float64)


def _double_sums_pairwise(arr: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """The double sum of a complex array, in numpy's pairwise order.

    One gather of f(a + b*k), k < max(ms), serves every m, and ``_RowSums``
    gives every m's sums over k from one pass over it: four lane sums per
    leaf block of up to 64 values, combined as (L0 + L1) + (L2 + L3), the
    m % 4 tail values added in order, longer rows halved at (m - m % 8) / 2.
    That is numpy's pairwise order on a contiguous row, so each sum is bit
    for bit ``table[..., :m].sum(axis=-1)``
    (``tests/test_analysis.py::test_row_sums_match_numpy_pairwise`` pins
    it).  |.|^2 is summed over a along a contiguous axis and the total adds
    up over b in order.  A gather holds at most _GATHER_CELLS cells (one row
    of max(ms) if that is larger); its index is b*k mod n, taken once per b
    chunk, plus a, less n where that passes n.
    """
    n = arr.size
    width = int(ms.max())
    k = np.arange(width, dtype=np.int64)[:, None, None]
    a_rows = min(n, max(1, _GATHER_CELLS // width))
    b_rows = min(n, max(1, _GATHER_CELLS // (a_rows * width)))
    row_sums = _RowSums(ms, a_rows * b_rows)
    per_b = np.empty((ms.size, n))
    for b0 in range(0, n, b_rows):
        b = np.arange(b0, min(b0 + b_rows, n), dtype=np.int64)[:, None]
        step = b * k % n
        square = np.empty((ms.size, b.shape[0], n))  # |row sum|^2 per (m, b, a)
        for a0 in range(0, n, a_rows):
            a = np.arange(a0, min(a0 + a_rows, n), dtype=np.int64)
            index = step + a
            table = arr[np.subtract(index, n, out=index, where=index >= n)]
            del index
            row = np.abs(row_sums(table.reshape(width, -1)).reshape(ms.size, -1, a.size),
                         out=square[:, :, a0:a0 + a.size])
            np.square(row, out=row)
            del table
        per_b[:, b0:b0 + b.shape[0]] = square.sum(axis=-1)
    return np.cumsum(per_b, axis=1)[:, -1]


def max_progression_sum(f) -> float:
    """T_f = max |f(A)| over progressions; exact integer path for colorings."""
    if isinstance(f, Coloring):
        t, _ = max_ap_discrepancy(f)
        return float(t)
    arr = np.asarray(f)
    if np.isrealobj(arr) and np.issubdtype(arr.dtype, np.integer):
        t, _ = max_ap_discrepancy(Coloring(arr.size, arr))
        return float(t)
    return max_ap_sum_complex(arr)


@dataclass(frozen=True)
class CheckGrid:
    """One check evaluated over a grid of m (and l): ``lhs``, ``rhs``,
    ``passed`` and ``error`` share the shape (len(ms),), or (len(ms), len(ls))
    for mobius_inequality.  ``at(i)`` / ``at(i, j)`` is one CheckResult."""

    name: str
    lhs: np.ndarray
    rhs: np.ndarray
    passed: np.ndarray
    error: np.ndarray

    def at(self, *index) -> CheckResult:
        return CheckResult(self.name, float(self.lhs[index]), float(self.rhs[index]),
                           bool(self.passed[index]), float(self.error[index]))


def fourier_checks(f, ctx: ZnContext | None = None, *, fhat: np.ndarray | None = None,
                   t_f: float | None = None, ms=None, ls=None,
                   checks=FOURIER_CHECKS) -> dict[str, CheckGrid]:
    """Evaluate the m-indexed checks for every m in ``ms`` (default 1..n) and,
    for mobius_inequality, every (m, l) with l in ``ls`` (default the divisors
    of n).  With S = sum_{a,b} |f(a + bM)|^2, P(r) = |fhat(r)|^2,
    w(r) = m^2 gcd(r, n)/n and A(k) = m^2 (phi(k)/k) G_f(n/k), k | n:

    rhs_lower          S >= sum_r P(r) max(w(r), m)
    lhs_upper          S <= n^2 T_f^2 + sum_{1<=k<m} A(k)
    mobius_identity    sum_k A(k) = sum_r P(r) w(r)
    mobius_inequality  sum_r P(r) min(w(r), m) <= sum_{k<=l} A(k) + sum_{k>l} (m n/k) G_f(n/k)
    composite_lower    n^2 T_f^2 + sum_{1<=k<m} A(k) >= sum_r P(r) max(w(r), m)

    ``checks`` picks a subset: the double sum is computed only for rhs_lower
    and lhs_upper, and T_f (when not given) only for lhs_upper and
    composite_lower.  Every entry is bitwise what the scalar formula gives for
    its m (while m^2 phi(k) < 2^53, i.e. n below about 2e5): divisor sums add
    up term by term in ascending k, spectral sums are pairwise along
    contiguous rows.
    """
    arr = _as_complex(f)
    n = arr.size
    want = set(checks)
    if not want <= set(FOURIER_CHECKS):
        raise ValueError(f"unknown checks {sorted(want - set(FOURIER_CHECKS))}")
    ms = _grid(n, range(1, n + 1) if ms is None else ms, "m")
    ctx = ctx if ctx is not None else make_context(n)
    if ctx.n != n:
        raise ValueError(f"context is for n={ctx.n}, f has length {n}")
    ls = _grid(n, ctx.divisors if ls is None else ls, "l")
    if fhat is None:
        fhat = np.fft.fft(arr)
    power = np.abs(fhat) ** 2
    m2 = ms * ms
    col = ms[:, None]
    scaled = np.outer(m2, _gcd_weights(n)) / n  # m^2 gcd(r, n) / n
    # squared in float: (n m)^2 would wrap in int64 past n m = 3e9
    tol = _ABS_COEFF * (n * ms).astype(np.float64) ** 2
    terms = []  # (k, m^2 (phi(k)/k) G(k), G(k)) for k | n ascending
    if want != {"rhs_lower"}:
        for k, phi_k in zip(ctx.divisors, ctx.divisor_phi):
            G = class_power(arr, n // k)
            terms.append((k, m2 * phi_k / k * G, G))

    out = {}
    if want & {"rhs_lower", "lhs_upper"}:
        double = _double_sums(f.values if isinstance(f, Coloring) else np.asarray(f), ms)
    if want & {"rhs_lower", "composite_lower"}:
        spectral_max = (power * np.maximum(scaled, col)).sum(axis=1)
    if want & {"lhs_upper", "composite_lower"}:
        if t_f is None:
            t_f = max_progression_sum(f)
        below = np.full(ms.size, n * n * t_f * t_f, dtype=np.float64)
        for k, term, _ in terms:
            np.add(below, term, out=below, where=k < ms)
    if "rhs_lower" in want:
        out["rhs_lower"] = CheckGrid("rhs_lower", double, spectral_max,
                                     double >= spectral_max - tol,
                                     (spectral_max - double) / _scale(double, spectral_max))
    if "lhs_upper" in want:
        out["lhs_upper"] = CheckGrid("lhs_upper", double, below, double <= below + tol,
                                     (double - below) / _scale(double, below))
    if "mobius_identity" in want:
        lhs = np.zeros(ms.size)
        for _, term, _ in terms:
            lhs += term
        rhs = (power * scaled).sum(axis=1)
        err = np.abs(lhs - rhs) / _scale(lhs, rhs)
        out["mobius_identity"] = CheckGrid("mobius_identity", lhs, rhs, err <= REL_TOL, err)
    if "mobius_inequality" in want:
        lhs = (power * np.minimum(scaled, col)).sum(axis=1)[:, None]
        rhs = np.zeros((ms.size, ls.size))
        for k, term, G in terms:
            rhs += np.where(k <= ls, term[:, None], (ms * n / k * G)[:, None])
        lhs = np.broadcast_to(lhs, rhs.shape)
        out["mobius_inequality"] = CheckGrid("mobius_inequality", lhs, rhs,
                                             lhs <= rhs + tol[:, None],
                                             (lhs - rhs) / _scale(lhs, rhs))
    if "composite_lower" in want:
        out["composite_lower"] = CheckGrid("composite_lower", below, spectral_max,
                                           below >= spectral_max - tol,
                                           (spectral_max - below) / _scale(below, spectral_max))
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
    return BoundReport(
        n=n, kind="lower_prop", value=value,
        witness={"l": l, "S1": s1, "S2": s2, "m": n // (2 * s1)},
        constants={},
    )


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
    return BoundReport(
        n=n, kind="lower_main", value=val(best_r) / (8.0 * math.sqrt(ctx.d)),
        witness={"r": best_r, "t1": t1, "t2": t2},
        constants={},
    )


def lower_bound_prime_power(p: int, k: int) -> BoundReport:
    """Prime-power lower bound: disc(Z_{p^k}) >= p^{(k - floor(k/3))/2} / 4."""
    if factorize(p) != ((p, 1),):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("k must be positive")
    value = p ** ((k - k // 3) / 2.0) / 4.0
    return BoundReport(
        n=p**k, kind="lower_prime_power", value=value,
        witness={"p": p, "k": k, "t": k // 3},
        constants={},
    )


def upper_bound_main(ctx: ZnContext, c_hat: float = 1.0) -> BoundReport:
    """Construction-side upper bound: min_{r|n}(n/r + c_hat sqrt(r) 2^omega(r))."""
    if not 0 < c_hat < math.inf:
        raise ValueError(f"c_hat must be positive and finite, got {c_hat}")
    n = ctx.n

    def val(r):
        return n / r + c_hat * math.sqrt(r) * 2 ** ctx.omega_of_divisor(r)

    best_r = min(ctx.divisors, key=val)
    return BoundReport(
        n=n, kind="upper_main", value=val(best_r),
        witness={"r": best_r},
        constants={"c_hat": c_hat},
    )


def hereditary_upper_bound(ctx: ZnContext, c_hat: float = 1.0) -> BoundReport:
    """Subset-uniform upper bound: c_hat * phi(n)^(1/2) * log(e n / phi(n))^(3/2)."""
    if not 0 < c_hat < math.inf:
        raise ValueError(f"c_hat must be positive and finite, got {c_hat}")
    n = ctx.n
    value = c_hat * math.sqrt(ctx.phi) * math.log(math.e * n / ctx.phi) ** 1.5
    return BoundReport(
        n=n, kind="hereditary_upper", value=value,
        witness={"phi": ctx.phi},
        constants={"c_hat": c_hat},
    )
