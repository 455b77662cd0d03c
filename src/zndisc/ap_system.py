"""Arithmetic progressions and congruence classes in Z_n.

Progressions are handled as element sets; the same set arises from many
(offset, step, length) triples, and mirrored steps d and n - d trace the same
arcs, so the discrepancy evaluators only visit steps d in [1, n//2].

Every integer scan (a plain call, ``period=r`` and the batch) is one kernel,
``_step_maxima``: one-lap int32 prefix sums P[0..L] of the step-e orbits of
Z_r (r = n unless a period is given), steps of one gcd per chunked numpy call.
  - With S = P[L] and maxD, minD the extreme windows P[j] - P[i], i < j, the
    largest cyclic window sum is max(maxD, S - minD) and the least is
    min(minD, S - maxD): a window that wraps is the complement of one that
    does not.
  - A step-d orbit of Z_n (L points) runs Q = L/m times round a step-(d mod r)
    orbit of Z_r (m points); a window of length q*m + l (1 <= l <= m) sums to
    q*C + W, C the Z_r row sum, and |q*C + W| is convex in q, so q in
    {0, Q-1} and each row's extreme W suffice.  Q = 1 when r = n.
A coloring lifted from Z_r costs O(r^2 + n) against O(n^2).  The plain scan
and the batch (r = n) first bound every step by its rows' prefix ranges
(``_step_ranges``: max P - min P <= max |window| <= max P - min P + |S|, one
gather and cumsum, no extremes swept) and run the kernel only on the steps
whose upper bound reaches the largest lower bound.  At a prime n every
step has one row, S is the total sum, and the instrument's colorings have
|S| <= 1, so one or two steps of n/2 remain; a random +-1 coloring keeps
about a tenth (198 of 2048 at n = 4096).  The periodic path keeps the
kernel on every step: a window there can add Q - 1 whole laps, so the bound
widens by Q*|C| and about half the steps stay (1062 of 2100 at n = 4200,
r* = 175), too few dropped to pay for the extra pass.  The witness step
is scanned on Z_n by its own route, per-end extremes of the doubled prefix
(``_end_best``), and the witness is re-summed; complex sums, which have no
extremes to sweep, difference the doubled prefix over every window.  The
tests' oracles sum every window directly.

``dyadic_block_counts`` counts the dyadic blocks of X along every step-d orbit
in closed form; the engine's entropy budget takes its block counts from it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .number_theory import ZnContext, make_context

__all__ = [
    "ModAP",
    "Coloring",
    "full_ap",
    "progression_incidence",
    "max_ap_discrepancy",
    "max_ap_discrepancy_batch",
    "max_ap_sum_complex",
    "congruence_class_sums",
    "max_congruence_discrepancy",
    "dyadic_block_counts",
]


_SCAN_CELLS = 1 << 14  # prefix cells per numpy call in the window scans


@dataclass(frozen=True)
class ModAP:
    """Progression segment {a + k*d : i <= k <= j} in Z_n; j = i - 1 encodes empty."""

    n: int
    a: int
    d: int
    i: int
    j: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("modulus must be positive")
        if self.j < self.i - 1:
            raise ValueError("end index may not drop below start - 1")

    @property
    def length(self) -> int:
        return self.j - self.i + 1

    def elements(self) -> np.ndarray:
        k = np.arange(self.i, self.j + 1, dtype=np.int64)
        return (self.a + k * self.d) % self.n


def _check_signs(v: np.ndarray) -> None:
    """Raise ValueError unless every entry of ``v`` is -1, 0 or +1.

    Run before any int8 cast, which would truncate 0.7 or wrap 257.  Integer
    and bool arrays take one min/max range check; float entries must also be
    integral (NaN and infinities fail the range check).  Complex and
    non-numeric arrays are refused whatever their entries; an empty array
    passes.
    """
    kind = v.dtype.kind
    if kind not in "biuf":
        raise ValueError(f"coloring values must lie in {{-1, 0, +1}}, not dtype {v.dtype}")
    if not v.size:
        return
    in_range = v.min().item() >= -1 and v.max().item() <= 1  # False on NaN
    if not in_range or (kind == "f" and not (v == np.trunc(v)).all()):
        raise ValueError("coloring values must lie in {-1, 0, +1}")


class Coloring:
    """A map Z_n -> {-1, 0, +1}; zero entries mark uncolored points."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values):
        v = np.asarray(values)
        if v.shape != (n,):
            raise ValueError(f"expected {n} values, got shape {v.shape}")
        _check_signs(v)
        self.n = int(n)
        self.values = np.asarray(v, dtype=np.int8)

    @classmethod
    def full(cls, values) -> "Coloring":
        out = cls(len(values), values)
        if not out.is_full():
            raise ValueError("full coloring may not contain zeros")
        return out

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.values)

    def is_full(self) -> bool:
        return bool(np.all(self.values != 0))

    def __repr__(self) -> str:
        return f"Coloring(n={self.n}, colored={int(np.count_nonzero(self.values))})"


def full_ap(n: int, a: int, d: int, length: int) -> ModAP:
    """Canonical progression {a + k*d : 0 <= k < length} with distinct elements."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    a %= n
    d %= n
    orbit = n // math.gcd(d, n)
    if length > orbit:
        raise ValueError(f"length {length} exceeds orbit size {orbit}")
    return ModAP(n, a, d, 0, length - 1)


def progression_incidence(ctx: ZnContext, min_len: int = 1) -> np.ndarray:
    """Distinct progression sets of size >= min_len as an n x A boolean incidence.

    Every set is a window of some step-d orbit, and steps d and n - d trace
    the same windows, so the windows of steps d in [0, n//2] (d = 0 gives the
    singletons) are built at once per step, packed to bytes and deduplicated
    by ``np.unique``.  Columns follow the packed bytes' order; the column sets
    are those of ``enumerate_aps`` in ``tests/oracles.py``, for any n.
    """
    n = ctx.n
    packed = []
    for d in range(n // 2 + 1):
        g = math.gcd(d, n)
        L = n // g
        orbit = (np.arange(g)[:, None] + np.arange(L)[None, :] * d) % n
        # window (start i, length l) holds orbit position k iff (k - i) mod L < l
        rank = (np.arange(L)[None, :] - np.arange(L)[:, None]) % L
        window = rank[:, None, :] < np.arange(1, L + 1)[None, :, None]
        member = np.zeros((g, L * L, n), dtype=bool)
        np.put_along_axis(member, np.broadcast_to(orbit[:, None, :], (g, L * L, L)),
                          window.reshape(1, L * L, L), axis=2)
        packed.append(np.packbits(member.reshape(-1, n), axis=1))
    sets = np.unique(np.concatenate(packed), axis=0)
    sets = np.unpackbits(sets, axis=1, count=n).astype(bool)
    return np.ascontiguousarray(sets[sets.sum(axis=1) >= min_len].T)


def _orbit_prefix(values: np.ndarray, n: int, d, laps: int = 2) -> np.ndarray:
    """Prefix sums of every step-d orbit read ``laps`` times around, shape
    (..., g, laps*L + 1).

    Row a of the orbit axis follows a, a+d, a+2d, ... (L = n/g points, with
    g = gcd(d, n)), so P[..., a, j] - P[..., a, i] is the sum over the
    cyclic window of positions i..j-1.  Leading batch axes pass through.  An
    array of steps sharing one gcd adds its shape in front of the orbit axis.
    Integer values are summed in int32 or wider.
    """
    d = np.asarray(d, dtype=np.int64)
    g = math.gcd(int(d.flat[0]), n)
    L = n // g
    idx = np.arange(L, dtype=np.int64) * d[..., None, None] + np.arange(g)[:, None]
    idx -= idx // n * n  # as % n; floor division by a scalar is the faster numpy path
    vals = np.concatenate([np.take(values, idx, axis=-1)] * laps, axis=-1)
    P = np.zeros(vals.shape[:-1] + (laps * L + 1,), dtype=np.result_type(vals, np.int32))
    np.cumsum(vals, axis=-1, dtype=P.dtype, out=P[..., 1:])
    return P


def _end_best(P: np.ndarray) -> np.ndarray:
    """Largest |P[j] - P[i]| over the starts allowed for each end j in [1, 2L-1]
    of a doubled prefix: the largest |window sum| ending at j.

    End j admits starts i in [max(0, j-L), min(j-1, L-1)], i.e. every window of
    length 1..L: prefix extremes of P[:L] cover the ends j <= L and suffix
    extremes the wrapped ends.
    """
    L = P.shape[-1] // 2
    starts, tail, ends = P[..., :L], P[..., L - 1 : 0 : -1], P[..., 1 : 2 * L]
    lo, hi = np.empty_like(ends), np.empty_like(ends)
    # suffix extremes run backwards over starts L-1..1 into ends 2L-1..L+1
    for acc, out in ((np.minimum.accumulate, lo), (np.maximum.accumulate, hi)):
        acc(starts, axis=-1, out=out[..., :L])
        acc(tail, axis=-1, out=out[..., : L - 1 : -1])
    np.subtract(ends, lo, out=lo)
    np.subtract(hi, ends, out=hi)
    return np.maximum(lo, hi, out=lo)


def _row_extremes(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Largest window sum hi, largest negated window sum -lo and row sum S of
    each one-lap prefix row P[0..L], over its cyclic windows of length 1..L."""
    S, starts, ends = P[..., -1], P[..., :-1], P[..., 1:]
    max_d = (ends - np.minimum.accumulate(starts, axis=-1)).max(axis=-1)
    min_d = (ends - np.maximum.accumulate(starts, axis=-1)).min(axis=-1)
    return np.maximum(max_d, S - min_d), np.maximum(-min_d, max_d - S), S


def _step_maxima(values: np.ndarray, n: int, r: int, steps=None) -> np.ndarray:
    """Largest |window sum| of every step d in [1, n//2] of the coloring of Z_n
    that repeats ``values`` (length r, r | n), read off Z_r; leading batch
    axes pass through.  ``steps``, an ascending array of such d, restricts the
    scan to them (the last axis then follows ``steps``); only the plain scan
    (r = n) passes it, after ``_step_ranges``.  A chunk holds up to
    _SCAN_CELLS prefix cells, batch rows counted."""
    d = np.arange(1, n // 2 + 1, dtype=np.int64) if steps is None else steps
    e = np.minimum(d % r, -d % r)  # steps e and r - e trace the same rows reversed
    h = np.gcd(e, r)  # step e has h rows of r/h points; gcd(0, r) = r
    q = n // np.gcd(d, n) // (r // h) - 1  # Q - 1: the whole laps a window adds
    order = np.argsort(h * r + e, kind="stable")  # by (h, e): a chunk of e's is a run
    key = (h * r + e)[order]
    distinct = np.flatnonzero(np.bincount(e))
    out = np.empty(values.shape[:-1] + d.shape, dtype=np.int64)
    for g in np.flatnonzero(np.bincount(h)):
        es = distinct[np.gcd(distinct, r) == g]
        chunk = max(1, _SCAN_CELLS // (values.size // r * (r + g)))
        for lo in range(0, es.size, chunk):
            part = es[lo : lo + chunk]
            first, stop = np.searchsorted(key, [g * r + part[0], g * r + part[-1] + 1])
            sel = order[first:stop]
            k = np.searchsorted(part, e[sel])
            P = _orbit_prefix(values, r, part, laps=1)
            hi, neg_lo, row_sum = (x[..., k, :] for x in _row_extremes(P))
            lap = q[sel, None] * row_sum
            out[..., sel] = np.maximum(
                hi + np.maximum(lap, 0), neg_lo - np.minimum(lap, 0)
            ).max(axis=-1)
    return out


def _step_ranges(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lower <= max |window sum| <= upper of every step d in [1, n//2]
    of ``values`` on Z_n, each of shape (..., n//2).

    A one-lap prefix row P[0..L] with sum S = P[L] has a window of |sum|
    max P - min P (from one extreme to the other), and no window past
    max P - min P + |S| (a wrapped window is S minus an unwrapped one); lower
    and upper are those two over the step's rows.  One gather and cumsum per
    step, no extremes swept; chunked as in ``_step_maxima``.
    """
    d = np.arange(1, n // 2 + 1, dtype=np.int64)
    h = np.gcd(d, n)
    lower = np.empty(values.shape[:-1] + d.shape, dtype=np.int64)
    upper = np.empty_like(lower)
    for g in np.flatnonzero(np.bincount(h)):
        ds = d[h == g]
        chunk = max(1, _SCAN_CELLS // (values.size // n * (n + g)))
        for lo in range(0, ds.size, chunk):
            part = ds[lo : lo + chunk]
            P = _orbit_prefix(values, n, part, laps=1)
            spread = P.max(axis=-1) - P.min(axis=-1)
            lower[..., part - 1] = spread.max(axis=-1)
            upper[..., part - 1] = (spread + np.abs(P[..., -1])).max(axis=-1)
    return lower, upper


def _full_scan(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The steps that can attain some row's maximum, ascending, and their
    exact maxima (``_step_maxima`` with r = n).  A step whose upper bound
    falls below a row's largest lower bound cannot attain that row's maximum;
    the batch keeps a step that any row needs."""
    lower, upper = _step_ranges(values, n)
    keep = upper >= lower.max(axis=-1, keepdims=True)
    steps = np.flatnonzero(keep.reshape(-1, keep.shape[-1]).any(axis=0)) + 1
    return steps, _step_maxima(values, n, n, steps)


def _witness(v: np.ndarray, n: int, d: int, best: int) -> ModAP:
    """First window of step d attaining ``best``, over orbit rows, then window
    ends, then window starts.  RuntimeError if its elements do not sum to
    +-best, as when step d has no such window."""
    P = _orbit_prefix(v, n, d)
    L = P.shape[-1] // 2
    row, k = divmod(int(np.argmax(_end_best(P) == best)), 2 * L - 1)
    j = k + 1  # column k of _end_best holds window end j = k + 1
    lo = max(0, j - L)
    i = lo + int(np.argmax(np.abs(P[row, lo : min(j, L)] - P[row, j]) == best))
    witness = full_ap(n, (row + i * d) % n, d, j - i)
    if abs(int(v[witness.elements()].sum())) != best:
        raise RuntimeError(f"step {d} has no window of |sum| {best}")
    return witness


def max_ap_discrepancy(chi: Coloring, period: int | None = None) -> tuple[int, ModAP]:
    """Max |chi(A)| over all progressions A, with a witness attaining it.

    The witness is the first window attaining the maximum over steps d, then
    orbit rows, then window ends, then window starts.  ``period`` r declares
    chi = tile(chi[:r], n/r); the step maxima then come from Z_r and only the
    witness step is scanned on Z_n.  A period that does not divide n, or one
    chi does not have, raises ValueError.
    """
    n = chi.n
    v = chi.values
    r = n if period is None else operator.index(period)
    if r < 1 or n % r:
        raise ValueError(f"period must be a positive divisor of n={n}, got {r}")
    if r < n and (v.reshape(n // r, r) != v[:r]).any():
        raise ValueError(f"coloring does not repeat with period {r}")
    if n == 1:
        t = abs(int(v[0]))
        witness = ModAP(1, 0, 0, 0, 0) if t else ModAP(1, 0, 1, 0, -1)
        return t, witness
    if r < n:
        steps, t = np.arange(1, n // 2 + 1), _step_maxima(v[:r], n, r)
    else:
        steps, t = _full_scan(v, n)
    i = int(np.argmax(t))  # the first step attaining the maximum
    best_d, best = int(steps[i]), int(t[i])
    if best == 0:
        return 0, ModAP(n, 0, 1, 0, -1)
    return best, _witness(v, n, best_d, best)


def max_ap_discrepancy_batch(n: int, values: np.ndarray) -> np.ndarray:
    """Per-row max |progression sum| for a (B, n) matrix of colorings."""
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[1] != n:
        raise ValueError("expected a (B, n) matrix")
    _check_signs(values)
    values = values.astype(np.int8)
    if n == 1 or not values.size:
        return np.abs(values[:, 0]).astype(np.int64)
    return _full_scan(values, n)[1].max(axis=-1)


def max_ap_sum_complex(f) -> float:
    """Max |sum of f over a progression| for complex-valued f.

    Complex sums have no min/max extremes to sweep, so each step's window sums
    P[i + l] - P[i] (start i < L, length l = 1..L) are read off a sliding view
    of the doubled orbit prefix, a chunk of starts per numpy call (quadratic
    scan).
    """
    f = np.asarray(f, dtype=np.complex128)
    n = f.shape[0]
    if n == 1:
        return float(abs(f[0]))
    best = 0.0
    for d in range(1, n // 2 + 1):
        P = _orbit_prefix(f, n, d)
        g, L = P.shape[0], P.shape[-1] // 2
        ends = np.lib.stride_tricks.sliding_window_view(P[:, 1:], L, axis=-1)
        chunk = max(1, _SCAN_CELLS // (g * L))
        for i in range(0, L, chunk):
            starts = slice(i, min(i + chunk, L))
            best = max(best, float(np.abs(ends[:, starts] - P[:, starts, None]).max()))
    return best


def congruence_class_sums(values: np.ndarray, r: int) -> np.ndarray:
    """All class sums g(w, r), w < r, for an array of length n with r | n;
    integer input is summed in int64."""
    values = np.asarray(values)
    n = values.shape[0]
    if r < 1 or n % r != 0:
        raise ValueError("r must divide n")
    if np.issubdtype(values.dtype, np.integer):
        values = values.astype(np.int64, copy=False)
    return values.reshape(n // r, r).sum(axis=0)


def _class_maxima(values: np.ndarray, ctx: ZnContext) -> dict[int, int]:
    """Max |class sum| mod every divisor r of n, keyed by r in ascending order.

    Divisors are visited from n down, and the sums mod r are folded from those
    mod r*p, p the least prime of n/r: one pass over the n values, then folds
    of r*p entries each.  Sums are int64.
    """
    n = ctx.n
    sums = {n: values}
    for r in ctx.divisors[-2::-1]:
        p = next(p for p, _ in ctx.factors if n // r % p == 0)
        sums[r] = sums[r * p].reshape(p, r).sum(axis=0, dtype=np.int64)
    return {r: int(np.abs(sums[r]).max()) for r in ctx.divisors}


def max_congruence_discrepancy(chi: Coloring, ctx: ZnContext | None = None) -> int:
    """Max |class sum| over residues mod every divisor of n.

    Classes mod any r' coincide with classes mod gcd(r', n), so divisors
    suffice.
    """
    ctx = ctx if ctx is not None else make_context(chi.n)
    if ctx.n != chi.n:
        raise ValueError(f"context is for n={ctx.n}, coloring for n={chi.n}")
    return max(_class_maxima(chi.values, ctx).values())


def _as_subset(n: int, xs) -> np.ndarray:
    """X as a sorted, duplicate-free int64 array inside [0, n).

    A strictly increasing 1-d int64 array is already normal and comes back
    as is after the range check, so normalising the same X again is O(|X|).
    Non-integral or complex elements raise ValueError rather than truncate.
    """
    raw = np.asarray(xs)
    if raw.dtype.kind in "biu":
        xs = raw.astype(np.int64, copy=False)
    else:
        # checked before the cast, which would truncate 0.7 or drop an imaginary part
        if np.iscomplexobj(raw):
            raise ValueError("subset elements must be real integers")
        with np.errstate(invalid="ignore"):  # nan and inf cast to junk, caught below
            xs = raw.astype(np.int64)
        if not np.array_equal(xs, raw):
            raise ValueError("subset elements must be integers")
    if xs.ndim != 1 or not (xs[1:] > xs[:-1]).all():
        xs = np.unique(xs)
    if xs.size and (xs[0] < 0 or xs[-1] >= n):
        raise ValueError("subset elements must lie in [0, n)")
    return xs


def dyadic_block_counts(n: int, xs, scales=None) -> dict[int, int]:
    """Number of dyadic blocks per scale over all (d, a) orbits of X.

    The phi(n/g) steps d with gcd(d, n) = g share one row count per residue
    a mod g, so the count is a sum over the proper divisors g of n.  The last
    few counts are kept, so an engine request and its own check count once.
    """
    xs = _as_subset(n, xs)
    m = int(xs.size)
    if m == 0 or n == 1:
        return {}
    if scales is None:
        scales = range(m.bit_length())
    scales = tuple(dict.fromkeys(s for s in scales if (1 << s) <= m))  # a repeat counts once
    return dict(_block_counts(n, xs.tobytes(), scales))


@functools.lru_cache(maxsize=4)
def _block_counts(n: int, xs_bytes: bytes, scales: tuple[int, ...]) -> dict[int, int]:
    xs = np.frombuffer(xs_bytes, dtype=np.int64)
    counts = {s: 0 for s in scales}
    ctx = make_context(n)
    # divisors ascend, so phi(n/g) for g = divisors[i] is divisor_phi[-1-i]
    for g, steps in zip(ctx.divisors[:-1], ctx.divisor_phi[:0:-1]):
        cnt = np.bincount(xs % g)
        for s in scales:
            counts[s] += steps * int((cnt >> s).sum())
    return counts
