"""Arithmetic progressions and congruence classes in Z_n.

Progressions are handled as element sets; the same set arises from many
(offset, step, length) triples, and mirrored steps d and n - d trace the same
arcs, so the discrepancy evaluators only visit steps d in [1, n//2].

Every integer scan (``max_ap_discrepancy`` and the batch) is one kernel,
``_step_maxima``: one-lap prefix sums P[0..L] of the step-e orbits of
Z_r (r | n, the least period for ``max_ap_discrepancy``, ``_period``, and
n for the batch), in one segmented pass whose chunks mix the steps of every
gcd, each (e, laps) pair evaluated once.
  - With S = P[L] and maxD, minD the extreme windows P[j] - P[i], i < j, the
    largest cyclic window sum is max(maxD, S - minD) and the least is
    min(minD, S - maxD): a window that wraps is the complement of one that
    does not.
  - A step-d orbit of Z_n (L points) runs Q = L/m times round a step-(d mod r)
    orbit of Z_r (m points); a window of length q*m + l (1 <= l <= m) sums to
    q*C + W, C the Z_r row sum, and |q*C + W| is convex in q, so q in
    {0, Q-1} and each row's extreme W suffice.  Q = 1 when r = n.
A coloring lifted from Z_r costs O(r^2 + n) against O(n^2).  At a prime r
the units u with f(u*x) = f(x) (``_stabilizer``) shrink that further: u maps
the rows of step e onto those of step u*e, so the kernel scans one step per
coset of them, two for a quadratic character, and O(r) in all.  Any other
coloring, and every row of the batch, is scanned on all n//2 steps, O(n^2);
no bound rules steps out first.  The witness step is scanned on Z_n by its
own route, per-end extremes of the doubled prefix (``_end_best``), and the
witness is re-summed; complex sums, which have no extremes to sweep,
difference the doubled prefix over every window (``_orbit_windows``, the
steps of one gcd per numpy call, read by ``analysis``'s window pass).  Both
gather their doubled orbit rows in ``_orbit_prefix``, through an index of
int32 while n*L < 2^31 (L points a row) and of int64 past that; the kernel
builds its own, int32 while a chunk's prefixes and row shifts stay below
2^31.  The tests' oracles sum every window directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .number_theory import LimitExceeded, ZnContext, factorize, make_context

__all__ = [
    "ModAP",
    "Coloring",
    "full_ap",
    "progression_incidence",
    "max_ap_discrepancy",
    "max_ap_discrepancy_batch",
    "congruence_class_sums",
    "max_congruence_discrepancy",
]


_SCAN_CELLS = 1 << 14  # prefix cells per numpy call in the window scans
# (window, point) cells a progression incidence may span: n = 65 has 6.97e6,
# n = 67, the first n refused, 9.93e6, and n = 300 1.8e9; 72 is the last n allowed
_INCIDENCE_CELLS_LIMIT = 1 << 23


@dataclass(frozen=True)
class ModAP:
    """Progression segment {a + k*d : 0 <= k < length} in Z_n."""

    n: int
    a: int
    d: int
    length: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("modulus must be positive")
        if self.length < 0:
            raise ValueError("length must be nonnegative")

    def elements(self) -> np.ndarray:
        return (self.a + np.arange(self.length, dtype=np.int64) * self.d) % self.n


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
        if n < 1:
            raise ValueError("modulus must be positive")
        if v.shape != (n,):
            raise ValueError(f"expected {n} values, got shape {v.shape}")
        _check_signs(v)
        self.n = int(n)
        self.values = np.asarray(v, dtype=np.int8)

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.values)

    def is_full(self) -> bool:
        return bool(np.all(self.values != 0))

    def __repr__(self) -> str:
        return f"Coloring(n={self.n}, colored={int(np.count_nonzero(self.values))})"


def full_ap(n: int, a: int, d: int, length: int) -> ModAP:
    """Canonical progression {a + k*d : 0 <= k < length} with distinct elements."""
    if n < 1:  # before the reductions mod n
        raise ValueError("modulus must be positive")
    d %= n
    orbit = n // math.gcd(d, n)
    if length > orbit:
        raise ValueError(f"length {length} exceeds orbit size {orbit}")
    return ModAP(n, a % n, d, length)


def progression_incidence(ctx: ZnContext, min_len: int = 1) -> np.ndarray:
    """Distinct progression sets of size >= min_len as an n x A boolean incidence.

    Every set is a window of some step-d orbit, and steps d and n - d trace
    the same windows, so only steps d in [0, n//2] are read (d = 0 gives the
    singletons).  A set is keyed by bits: point p is bit 63 - p % 64 of word
    p // 64 of ceil(n/64) uint64 words, and a window's key is the difference
    of two prefix sums of those words along its doubled orbit (its points are
    distinct, so the sum is their OR).  The keys are sorted word by word,
    deduplicated, and unpacked from their big-endian bytes, so column order
    is that of the sets' ``np.packbits`` rows; the column sets are those of
    ``enumerate_aps`` in ``tests/oracles.py``, for any n.

    Raises LimitExceeded, before allocating anything, when the windows span
    more than _INCIDENCE_CELLS_LIMIT (window, point) cells, sum over d of
    n * n / gcd(d, n) windows times n points: the bound on the incidence
    and on the search tables that ``zndisc.exact`` builds from it.
    """
    n = ctx.n
    cells = n * sum(n * n // math.gcd(d, n) for d in range(n // 2 + 1))
    if cells > _INCIDENCE_CELLS_LIMIT:
        raise LimitExceeded(f"the progression incidence of n={n} spans {cells} cells, "
                            f"past the limit of {_INCIDENCE_CELLS_LIMIT}")
    words = -(-n // 64)
    p = np.arange(n)
    bit = np.zeros((n, words), dtype=np.uint64)
    bit[p, p // 64] = np.uint64(1) << (63 - p % 64).astype(np.uint64)
    keys = []
    for d in range(n // 2 + 1):
        g = math.gcd(d, n)
        L = n // g
        P = np.zeros((g, 2 * L + 1, words), dtype=np.uint64)
        np.cumsum(bit[(np.arange(g)[:, None] + np.arange(2 * L) * d) % n], axis=1, out=P[:, 1:])
        # window (start i, length l) of row a is P[a, i + l] - P[a, i]
        start = np.arange(L)[:, None]
        keys.append((P[:, start + np.arange(min_len, L + 1)] - P[:, start]).reshape(-1, words))
    keys = np.concatenate(keys)
    keys = keys[np.lexsort(keys.T[::-1])]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    sets = keys[first].astype(">u8").view(np.uint8)
    return np.ascontiguousarray(np.unpackbits(sets, axis=1, count=n).view(bool).T)


def _orbit_prefix(values: np.ndarray, n: int, d) -> np.ndarray:
    """Prefix sums of every step-d orbit read twice around, shape
    (..., g, 2L + 1).

    Row a of the orbit axis follows a, a+d, a+2d, ... (L = n/g points, with
    g = gcd(d, n)), so P[..., a, j] - P[..., a, i] is the sum over the
    cyclic window of positions i..j-1.  Leading batch axes pass through.  An
    array of steps sharing one gcd adds its shape in front of the orbit axis.
    Steps lie in [0, n), so every index (L-1)*d + a before its reduction mod n
    is below n*L: int32 while n*L < 2^31, else int64.  Integer values are
    summed in int32 or wider.
    """
    d = np.asarray(d)
    g = math.gcd(int(d.flat[0]), n)
    L = n // g
    dtype = np.int32 if n * L < 1 << 31 else np.int64
    idx = (np.arange(L, dtype=dtype) * d.astype(dtype)[..., None, None]
           + np.arange(g, dtype=dtype)[:, None])
    idx -= idx // n * n  # as % n; floor division by a scalar is the faster numpy path
    vals = np.take(values, idx, axis=-1)
    vals = np.concatenate([vals, vals], axis=-1)
    P = np.zeros(vals.shape[:-1] + (2 * L + 1,), dtype=np.result_type(vals, np.int32))
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


def _step_maxima(values: np.ndarray, n: int, r: int, steps=None, cosets=None) -> np.ndarray:
    """Largest |window sum| of every step d in [1, n//2] of the coloring of Z_n
    that repeats ``values`` (length r, r | n, entries in {-1, 0, +1}), read off
    Z_r; leading batch axes pass through.  ``steps``, an ascending array of
    such d, restricts the scan to them (the last axis then follows ``steps``);
    no library route passes it, but it lets a test reach the int64 kernel at
    r = 65537 with a few steps in milliseconds.  ``cosets``,
    the unit labels of ``_stabilizer(values)``, folds each step e onto the
    least e' in [1, r//2] with e' = +-u*e for a unit u that fixes ``values``:
    u maps the rows of step e onto those of step u*e, values and all.

    Step d reads the h = gcd(e, r) rows of step e = min(d, -d) mod r, r/h
    points each, and adds Q - 1 whole laps, Q = n/gcd(d, n)/(r/h); as
    gcd(d/h, r/h) = 1, Q = M/gcd(d/h, M) with M = n/r.  So a step's maximum
    depends on (e, Q) alone, and each such key present is evaluated once and
    gathered back to its steps.  The rows' extremes come from one segmented
    pass: the distinct e, whatever their gcd, in chunks of up to _SCAN_CELLS
    places (batch rows counted), the rows of each e laid end to end, so that
    place j of step e is (j*e + floor(j*h/r)) mod r, as (r/h)*e = 0 mod r.
    One cumsum per chunk gives the prefixes, and row t of the chunk is shifted
    by t*(r + 1) before the running min or max: the prefixes of an earlier
    row u lie within r*(t - u) of row t's first, so none of them wins.
    ``reduceat`` over the row starts then takes each row's extreme windows.
    """
    d = np.arange(1, n // 2 + 1, dtype=np.int64) if steps is None else steps
    e = np.minimum(d % r, -d % r)  # steps e and r - e trace the same rows reversed
    if cosets is not None:
        x = np.arange(1, r)
        least = np.full(r, r)  # per label, its least unit up to sign
        np.minimum.at(least, cosets[1:], np.minimum(x, r - x))
        e = np.where(e > 0, least[cosets[e]], 0)
    gcd_r = np.gcd(np.arange(r // 2 + 1), r)  # step e has gcd_r[e] rows; gcd(0, r) = r
    M = n // r
    key = e * M + np.gcd(np.arange(M), M)[d // gcd_r[e] % M] - 1  # (e, gcd(d/h, M))
    present = np.zeros((r // 2 + 1, M), dtype=bool)
    present.ravel()[key] = True
    keys = np.flatnonzero(present)  # by e, then gcd(d/h, M)
    step_key = np.cumsum(present)[key] - 1
    es = np.flatnonzero(present.any(axis=1))
    first_row = np.concatenate(([0], np.cumsum(gcd_r[es])))  # rows of es[i] start here
    max_d = np.empty(values.shape[:-1] + (first_row[-1],), dtype=np.int64)
    min_d, S = np.empty_like(max_d), np.empty_like(max_d)
    chunk = max(1, _SCAN_CELLS // values.size)
    # prefixes and row shifts stay below (chunk*r) * (r + 2)
    dtype = np.int32 if chunk * r * (r + 2) < 1 << 31 else np.int64
    j = np.arange(r, dtype=dtype)
    for lo in range(0, es.size, chunk):
        part = es[lo : lo + chunk]
        rows = gcd_r[part].astype(dtype)  # h rows of r/h places for each e
        idx = j * part.astype(dtype)[:, None] + j * rows[:, None] // r
        idx -= idx // r * r  # as % r; floor division by a scalar is the faster numpy path
        P = np.zeros(values.shape[:-1] + (idx.size + 1,), dtype=dtype)
        np.cumsum(np.take(values, idx.ravel(), axis=-1), axis=-1, dtype=dtype, out=P[..., 1:])
        size = np.repeat(r // rows, rows)
        start = np.cumsum(size) - size
        shift = np.arange(size.size, dtype=dtype) * (r + 1)
        offset = np.repeat(shift, size)
        starts, ends = P[..., :-1], P[..., 1:]
        band = slice(first_row[lo], first_row[lo + part.size])
        # an end minus the shifted running extreme is a window sum plus its row's shift
        run = np.subtract(starts, offset)
        np.minimum.accumulate(run, axis=-1, out=run)
        np.subtract(ends, run, out=run)
        max_d[..., band] = np.maximum.reduceat(run, start, axis=-1) - shift
        np.add(starts, offset, out=run)
        np.maximum.accumulate(run, axis=-1, out=run)
        np.subtract(ends, run, out=run)
        min_d[..., band] = np.minimum.reduceat(run, start, axis=-1) + shift
        S[..., band] = P[..., start + size] - P[..., start]
    hi, neg_lo = np.maximum(max_d, S - min_d), np.maximum(-min_d, max_d - S)
    # the rows of every (e, Q) key, keys end to end
    key_e = keys // M
    count = gcd_r[key_e]
    key_start = np.cumsum(count) - count
    key_rows = np.repeat(first_row[np.searchsorted(es, key_e)] - key_start, count) \
        + np.arange(count.sum())
    lap = np.repeat(M // (keys % M + 1) - 1, count) * np.take(S, key_rows, axis=-1)
    best = np.maximum(np.take(hi, key_rows, axis=-1) + np.maximum(lap, 0),
                      np.take(neg_lo, key_rows, axis=-1) - np.minimum(lap, 0))
    return np.take(np.maximum.reduceat(best, key_start, axis=-1), step_key, axis=-1)


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


def _period(v: np.ndarray) -> int:
    """Least period r | n of ``v`` (length n): r drops from n by each prime p
    of n while v[:r] repeats with period r/p, as the periods dividing n are
    the least one's multiples."""
    r = v.size
    for p, _ in factorize(r):
        while r % p == 0 and np.array_equal(v[r // p : r], v[: r - r // p]):
            r //= p
    return r


def _stabilizer(v: np.ndarray):
    """Coset labels of the units u of Z_p with v[u*x] = v[x] for every x, when
    ``v`` has prime length p >= 5 and more units than 1 fix it; else None.

    The units are cyclic, generated by a primitive root g, and v read in the
    order g^0, g^1, ..., g^(p-2) is fixed by u = g^s exactly when it has period
    s.  So the fixing units are the powers of g^k, k the least period
    (``_period``: k drops from p - 1 by each prime of p - 1 while it still
    fixes v), and unit x = g^j is labelled j mod k; label[0] is 0 and means
    nothing.  The powers of g come from O(log p) numpy products, O(p) in all.
    """
    p = v.size
    if p < 5 or not make_context(p).is_prime:
        return None
    qs = [q for q, _ in factorize(p - 1)]
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))
    power = np.ones(p - 1, dtype=np.int64)  # g^j mod p
    m = 1
    while m < p - 1:
        step = min(m, p - 1 - m)
        power[m : m + step] = power[:step] * pow(g, m, p) % p
        m *= 2
    k = _period(v[power])
    if k == p - 1:
        return None
    label = np.zeros(p, dtype=np.int64)
    label[power] = np.arange(p - 1) % k
    return label


def max_ap_discrepancy(chi: Coloring) -> tuple[int, ModAP]:
    """Max |chi(A)| over all progressions A, with a witness attaining it.

    The witness is the first window attaining the maximum over steps d, then
    orbit rows, then window ends, then window starts.  The step maxima come
    from one ``_step_maxima`` call on Z_r, r the least period of chi
    (``_period``; r < n for a coloring lifted from Z_r), which scans one step
    per coset of the units that fix chi[:r] when r is a prime (``_stabilizer``;
    the residues fix a quadratic character).  Only the witness step is then
    scanned on Z_n.
    """
    n = chi.n
    v = chi.values
    if n == 1:
        t = abs(int(v[0]))
        witness = ModAP(1, 0, 0, 1) if t else ModAP(1, 0, 1, 0)
        return t, witness
    r = _period(v)
    t = _step_maxima(v[:r], n, r, cosets=_stabilizer(v[:r]))
    best_d = int(np.argmax(t)) + 1  # the first step attaining the maximum
    best = int(t[best_d - 1])
    if best == 0:
        return 0, ModAP(n, 0, 1, 0)
    return best, _witness(v, n, best_d, best)


def max_ap_discrepancy_batch(n: int, values: np.ndarray) -> np.ndarray:
    """Per-row max |progression sum| for a (B, n) matrix of colorings.

    Every row is scanned on all n//2 steps of Z_n, with no period or
    stabilizer shortcut, on purpose: the acceptance and lifting-inequality
    tests use the batch as the route that does not depend on ``_period`` or
    ``_stabilizer``.
    """
    values = np.asarray(values)
    if n < 1:
        raise ValueError("modulus must be positive")
    if values.ndim != 2 or values.shape[1] != n:
        raise ValueError("expected a (B, n) matrix")
    _check_signs(values)
    values = values.astype(np.int8)
    if n == 1 or not values.size:
        return np.abs(values[:, 0]).astype(np.int64)
    return _step_maxima(values, n, n).max(axis=-1)


def _orbit_windows(values: np.ndarray, n: int):
    """Sums of every cyclic window of every step d in [1, n//2], in chunks.

    Yields (L, W) with W[..., i, l - 1] the sum of the length-l window that
    starts at position i of an orbit row (L points), read off a sliding view
    of the doubled orbit prefix; the axes before the last two are the leading
    axes of ``values``, then (steps, rows).  A chunk holds the steps of one
    gcd class, or the starts of one step, up to _SCAN_CELLS window sums per
    row of ``values``: the chunks do not depend on the leading axes.
    """
    d = np.arange(1, n // 2 + 1, dtype=np.int64)
    h = np.gcd(d, n)
    for g in np.flatnonzero(np.bincount(h)).tolist():
        ds = d[h == g]
        L = n // g
        chunk = max(1, _SCAN_CELLS // (n * L))
        for lo in range(0, ds.size, chunk):
            part = ds[lo : lo + chunk]
            P = _orbit_prefix(values, n, part)
            # ends[..., i, l - 1] = P[..., i + l]: a sliding view of the doubled prefix
            ends = np.ndarray(P.shape[:-1] + (L, L), P.dtype, P, P.itemsize,
                              P.strides + P.strides[-1:])
            starts = max(1, _SCAN_CELLS // (part.size * n))
            for i in range(0, L, starts):
                j = min(i + starts, L)
                yield L, ends[..., i:j, :] - P[..., i:j, None]


def congruence_class_sums(values: np.ndarray, r: int) -> np.ndarray:
    """All class sums g(w, r), w < r, for an array of length n with r | n;
    leading axes pass through, and integer input is summed in int64."""
    values = np.asarray(values)
    n = values.shape[-1]
    if n < 1:
        raise ValueError("expected values over Z_n, n >= 1, got length 0")
    if r < 1 or n % r != 0:
        raise ValueError("r must divide n")
    if values.dtype.kind in "iu":
        values = values.astype(np.int64, copy=False)
    return values.reshape(values.shape[:-1] + (n // r, r)).sum(axis=-2)


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


def max_congruence_discrepancy(chi: Coloring) -> int:
    """Max |class sum| over residues mod every divisor of n.

    Classes mod any r' coincide with classes mod gcd(r', n), so divisors
    suffice.
    """
    return max(_class_maxima(chi.values, make_context(chi.n)).values())


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

