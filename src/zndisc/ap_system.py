"""Arithmetic progressions and congruence classes in Z_n.

Progressions are handled as element sets; the same set arises from many
(offset, step, length) triples, and mirrored steps d and n - d trace the same
arcs, so the discrepancy evaluators only visit steps d in [1, n//2].  Every
scan goes through one kernel: ``_orbit_prefix`` gathers each step-d orbit,
reads it twice around and takes prefix sums (any leading batch axes pass
through), and ``_end_best`` gives, per window end, the largest |window sum|
over windows of length 1..L from prefix and suffix extremes.  The single,
batch and witness searches reduce its output; complex sums, which have no
extremes to sweep, loop over window lengths on the same prefix sums.

``max_ap_discrepancy(chi, period=r)`` takes a coloring that repeats with
period r | n (a lift from Z_r) and reads every step's maximum off Z_r:
  - a step-d orbit of Z_n (L points) runs Q = L/m times round a step-(d mod r)
    orbit of Z_r (m points);
  - a window of length q*m + l (1 <= l <= m) sums to q*C + W, C the Z_r row sum;
  - |q*C + W| is convex in q, so q in {0, Q-1} and each row's extreme W suffice.
This costs O(r^2 + n) against O(n^2); only the witness step is scanned on Z_n.
The batch scan and a plain call stay on the full scan, so the lifting
inequality and the naive-enumeration tests keep an oracle that does not rely
on this argument.

``dyadic_block_counts`` counts the dyadic blocks of X along every step-d orbit
in closed form; the engine's entropy budget takes its block counts from it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .number_theory import ZnContext, make_context

__all__ = [
    "ModAP",
    "Coloring",
    "full_ap",
    "enumerate_aps",
    "progression_incidence",
    "max_ap_discrepancy",
    "max_ap_discrepancy_batch",
    "max_ap_sum_complex",
    "congruence_sum",
    "congruence_class_sums",
    "max_congruence_discrepancy",
    "dyadic_block_counts",
]


_PERIODIC_CELLS = 1 << 14  # prefix cells per numpy call in the periodic scan


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

    def element_set(self) -> frozenset[int]:
        return frozenset(int(x) for x in self.elements())


class Coloring:
    """A map Z_n -> {-1, 0, +1}; zero entries mark uncolored points."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values):
        v = np.asarray(values)
        if v.shape != (n,):
            raise ValueError(f"expected {n} values, got shape {v.shape}")
        # checked before the int8 cast, which would truncate 0.7 or wrap 257
        if np.iscomplexobj(v):
            raise ValueError("coloring values must be real")
        if not np.isin(v, (-1, 0, 1)).all():
            raise ValueError("coloring values must lie in {-1, 0, +1}")
        self.n = int(n)
        self.values = np.asarray(v, dtype=np.int8)

    @classmethod
    def zeros(cls, n: int) -> "Coloring":
        return cls(n, np.zeros(n, dtype=np.int8))

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

    def sum_over(self, indices) -> int:
        return int(self.values[np.asarray(indices, dtype=np.int64)].sum())

    def copy(self) -> "Coloring":
        return Coloring(self.n, self.values.copy())

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


def enumerate_aps(ctx: ZnContext) -> Iterator[tuple[int, ...]]:
    """Yield each distinct nonempty progression element set exactly once.

    Deduplication is by sorted element tuple; iteration order is by
    (step, offset, length), first appearance wins.
    """
    n = ctx.n
    seen: set[tuple[int, ...]] = set()
    for d in range(n):
        orbit = n // math.gcd(d, n)
        for a in range(n):
            for l in range(1, orbit + 1):
                t = tuple(sorted((a + k * d) % n for k in range(l)))
                if t not in seen:
                    seen.add(t)
                    yield t


def progression_incidence(ctx: ZnContext, min_len: int = 1) -> np.ndarray:
    """Distinct progression sets of size >= min_len as an n x A boolean incidence.

    Every set is a window of some step-d orbit, and steps d and n - d trace
    the same windows, so the windows of steps d in [0, n//2] (d = 0 gives the
    singletons) are built at once per step, packed to bytes and deduplicated
    by ``np.unique``.  Columns follow the packed bytes' order; the column sets
    are ``enumerate_aps``' sets, for any n.
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


def _orbit_prefix(values: np.ndarray, n: int, d) -> np.ndarray:
    """Prefix sums of every step-d orbit read twice around, shape (..., g, 2L+1).

    Row a of the orbit axis follows a, a+d, a+2d, ... (L = n/g points, with
    g = gcd(d, n)) twice, so P[..., a, j] - P[..., a, i] is the sum over the
    cyclic window of positions i..j-1.  Leading batch axes pass through.  An
    array of steps sharing one gcd adds its shape in front of the orbit axis.
    """
    d = np.asarray(d, dtype=np.int64)
    g = math.gcd(int(d.flat[0]), n)
    L = n // g
    idx = (
        np.arange(g, dtype=np.int64)[:, None]
        + np.arange(L, dtype=np.int64)[None, :] * d[..., None, None]
    ) % n
    vals = values[..., idx]
    P = np.zeros(vals.shape[:-1] + (2 * L + 1,), dtype=vals.dtype)
    np.cumsum(np.concatenate([vals, vals], axis=-1), axis=-1, out=P[..., 1:])
    return P


def _end_extremes(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest P[j] - P[i] and largest P[i] - P[j] over the starts allowed for
    each end j in [1, 2L-1]: the largest window sum ending at j and the largest
    negated one.

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
    return lo, hi


def _end_best(P: np.ndarray) -> np.ndarray:
    """Largest |P[j] - P[i]| over the starts allowed for each end j in [1, 2L-1]."""
    up, down = _end_extremes(P)
    return np.maximum(up, down, out=up)


def _periodic_step_maxima(base: np.ndarray, n: int) -> np.ndarray:
    """Largest |window sum| of every step d in [1, n//2] of the coloring of Z_n
    that repeats ``base`` (length r, r | n), computed on Z_r.

    A step-d orbit of Z_n read mod r is a step-e orbit of Z_r, e = d mod r,
    with m = r / gcd(e, r) points, repeated Q = L/m times; a window of length
    q*m + l (1 <= l <= m) sums to q*C + W, with C the Z_r row sum and W a Z_r
    window sum.  |q*C + W| is convex in q, so q in {0, Q-1} suffices, and the
    step's maximum needs only each row's C and its extreme window sums.
    """
    r = base.shape[0]
    d = np.arange(1, n // 2 + 1, dtype=np.int64)
    e = np.minimum(d % r, -d % r)  # steps e and r - e trace the same rows reversed
    h = np.gcd(e, r)  # step e has h rows of r/h points; gcd(0, r) = r
    q = n // np.gcd(d, n) // (r // h) - 1
    # steps sorted by (h, e), so the steps of one chunk of e's form one run
    key = h * r + e
    order = np.argsort(key, kind="stable")
    key = key[order]
    all_e = np.arange(r // 2 + 1, dtype=np.int64)
    all_h = np.gcd(all_e, r)
    out = np.empty(d.size, dtype=np.int64)
    for g in np.flatnonzero(np.bincount(all_h)):
        steps = all_e[all_h == g]
        m = r // g
        chunk = max(1, _PERIODIC_CELLS // (g * (2 * m + 1)))
        for lo in range(0, steps.size, chunk):
            es = steps[lo : lo + chunk]
            P = _orbit_prefix(base, r, es)
            up, down = _end_extremes(P)
            hi, neg_lo, row_sum = up.max(axis=-1), down.max(axis=-1), P[..., m]
            first, stop = np.searchsorted(key, [g * r + es[0], g * r + es[-1] + 1])
            sel = order[first:stop]
            k = np.searchsorted(es, e[sel])
            lap = q[sel, None] * row_sum[k]
            out[sel] = np.maximum(
                np.maximum(hi[k], neg_lo[k]), np.maximum(hi[k] + lap, neg_lo[k] - lap)
            ).max(axis=-1)
    return out


def _witness(v: np.ndarray, n: int, d: int, best: int) -> ModAP:
    """First window of step d attaining ``best``, over orbit rows, then window
    ends, then window starts."""
    P = _orbit_prefix(v, n, d)
    L = P.shape[-1] // 2
    row, k = divmod(int(np.argmax(_end_best(P) == best)), 2 * L - 1)
    j = k + 1  # column k of _end_best holds window end j = k + 1
    lo = max(0, j - L)
    i = lo + int(np.argmax(np.abs(P[row, lo : min(j, L)] - P[row, j]) == best))
    return full_ap(n, (row + i * d) % n, d, j - i)


def max_ap_discrepancy(chi: Coloring, period: int | None = None) -> tuple[int, ModAP]:
    """Max |chi(A)| over all progressions A, with a witness attaining it.

    The witness is the first window attaining the maximum over steps d, then
    orbit rows, then window ends, then window starts.  ``period`` r declares
    chi = tile(chi[:r], n/r); the step maxima then come from Z_r and only the
    witness step is scanned on Z_n.  A period that does not divide n, or one
    chi does not have, raises ValueError.
    """
    n = chi.n
    v = chi.values.astype(np.int64)
    r = n if period is None else operator.index(period)
    if r < 1 or n % r:
        raise ValueError(f"period must be a positive divisor of n={n}, got {r}")
    if r < n and (v.reshape(n // r, r) != v[:r]).any():
        raise ValueError(f"coloring does not repeat with period {r}")
    if n == 1:
        t = abs(int(v[0]))
        witness = ModAP(1, 0, 0, 0, 0) if t else ModAP(1, 0, 1, 0, -1)
        return t, witness
    best = 0
    best_d = None
    if r == n:
        for d in range(1, n // 2 + 1):
            cand = int(_end_best(_orbit_prefix(v, n, d)).max())
            if cand > best:
                best = cand
                best_d = d
    else:
        t = _periodic_step_maxima(v[:r], n)
        best_d = int(np.argmax(t)) + 1  # the first maximum, as the strict > above
        best = int(t[best_d - 1])
    if best == 0:
        return 0, ModAP(n, 0, 1, 0, -1)
    return best, _witness(v, n, best_d, best)


def max_ap_discrepancy_batch(n: int, values: np.ndarray) -> np.ndarray:
    """Per-row max |progression sum| for a (B, n) matrix of colorings."""
    values = np.asarray(values, dtype=np.int64)
    if values.ndim != 2 or values.shape[1] != n:
        raise ValueError("expected a (B, n) matrix")
    if n == 1:
        return np.abs(values[:, 0])
    out = np.zeros(values.shape[0], dtype=np.int64)
    for d in range(1, n // 2 + 1):
        np.maximum(out, _end_best(_orbit_prefix(values, n, d)).max(axis=(1, 2)), out=out)
    return out


def max_ap_sum_complex(f) -> float:
    """Max |sum of f over a progression| for complex-valued f.

    Complex sums have no min/max extremes to sweep, so every window length l
    is read off the orbit prefix sums in turn (quadratic scan).
    """
    f = np.asarray(f, dtype=np.complex128)
    n = f.shape[0]
    if n == 1:
        return float(abs(f[0]))
    best = 0.0
    for d in range(1, n // 2 + 1):
        P = _orbit_prefix(f, n, d)
        L = P.shape[-1] // 2
        for l in range(1, L + 1):
            cand = np.abs(P[:, l : l + L] - P[:, :L]).max()
            if cand > best:
                best = float(cand)
    return best


def congruence_sum(chi: Coloring, r: int, w: int) -> int:
    """Class sum g_chi(w, r) = sum of chi over {x : x = w mod r}."""
    if r < 1 or chi.n % r != 0:
        raise ValueError("r must divide n")
    if not 0 <= w < r:
        raise ValueError("residue out of range")
    return int(chi.values[w::r].astype(np.int64).sum())


def congruence_class_sums(values: np.ndarray, r: int) -> np.ndarray:
    """All class sums mod r (index w) for an array of length n with r | n."""
    values = np.asarray(values)
    n = values.shape[0]
    if r < 1 or n % r != 0:
        raise ValueError("r must divide n")
    return values.reshape(n // r, r).sum(axis=0)


def max_congruence_discrepancy(chi: Coloring, ctx: ZnContext | None = None) -> int:
    """Max |class sum| over residues mod every divisor of n.

    Classes mod any r' coincide with classes mod gcd(r', n), so divisors
    suffice.
    """
    ctx = ctx if ctx is not None else make_context(chi.n)
    if ctx.n != chi.n:
        raise ValueError(f"context is for n={ctx.n}, coloring for n={chi.n}")
    v = chi.values.astype(np.int64)
    best = 0
    for r in ctx.divisors:
        cand = int(np.abs(congruence_class_sums(v, r)).max())
        if cand > best:
            best = cand
    return best


def _as_subset(n: int, xs) -> np.ndarray:
    """X as a sorted, duplicate-free int64 array inside [0, n).

    A strictly increasing 1-d int64 array is already normal and comes back
    as is after the range check, so normalising the same X again is O(|X|).
    """
    xs = np.asarray(xs, dtype=np.int64)
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
