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

The canonical segment decomposition (at most two segments per progression)
and its dyadic block refinement live here too; the coloring engine builds its
constraint systems from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .number_theory import ZnContext, make_context

__all__ = [
    "ModAP",
    "CongClass",
    "Coloring",
    "DyadicBlock",
    "full_ap",
    "is_c1_form",
    "enumerate_aps",
    "ap_index_arrays",
    "max_ap_discrepancy",
    "max_ap_discrepancy_batch",
    "max_ap_sum_complex",
    "congruence_sum",
    "congruence_class_sums",
    "max_congruence_discrepancy",
    "decompose_to_C1",
    "orbit_intersection",
    "dyadic_decompose",
    "block_elements",
    "dyadic_block_counts",
]


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


@dataclass(frozen=True)
class CongClass:
    """Congruence class {x in Z_n : x = w mod r} for a divisor r of n."""

    n: int
    r: int
    w: int

    def __post_init__(self):
        if self.r < 1 or self.n % self.r != 0:
            raise ValueError("r must divide n")
        if not 0 <= self.w < self.r:
            raise ValueError("residue out of range")

    def elements(self) -> np.ndarray:
        return np.arange(self.w, self.n, self.r, dtype=np.int64)


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


@dataclass(frozen=True)
class DyadicBlock:
    """Positions (t-1)*2^scale + 1 .. t*2^scale (1-based) of X in one step-d orbit.

    The orbit is the residue class a mod gcd(d, n) traversed in ascending k of
    x = a + k*d; the block refers to the ordered intersection with an ambient
    subset X fixed by context.
    """

    d: int
    a: int
    scale: int
    t: int

    @property
    def size(self) -> int:
        return 1 << self.scale


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


def is_c1_form(ap: ModAP) -> bool:
    """Segment-family membership: step in [1, n), offset below gcd, indices inside one orbit.

    The degenerate modulus n = 1 admits the singleton encoding with d = 1.
    """
    n, d = ap.n, ap.d
    if n == 1:
        return d == 1 and ap.a == 0 and ap.i == ap.j == 0
    if not 1 <= d < n:
        return False
    g = math.gcd(d, n)
    return 0 <= ap.a < g and 0 <= ap.i <= ap.j < n // g


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


def ap_index_arrays(ctx: ZnContext, min_len: int = 1) -> list[np.ndarray]:
    """Distinct progression sets of size >= min_len as sorted index arrays."""
    return [
        np.array(t, dtype=np.int64)
        for t in enumerate_aps(ctx)
        if len(t) >= min_len
    ]


def _orbit_prefix(values: np.ndarray, n: int, d: int) -> np.ndarray:
    """Prefix sums of every step-d orbit read twice around, shape (..., g, 2L+1).

    Row a of the orbit axis follows a, a+d, a+2d, ... (L = n/g points, with
    g = gcd(d, n)) twice, so P[..., a, j] - P[..., a, i] is the sum over the
    cyclic window of positions i..j-1.  Leading batch axes pass through.
    """
    g = math.gcd(d, n)
    L = n // g
    idx = (
        np.arange(g, dtype=np.int64)[:, None]
        + np.arange(L, dtype=np.int64)[None, :] * d
    ) % n
    vals = values[..., idx]
    P = np.zeros(vals.shape[:-1] + (2 * L + 1,), dtype=vals.dtype)
    np.cumsum(np.concatenate([vals, vals], axis=-1), axis=-1, out=P[..., 1:])
    return P


def _end_best(P: np.ndarray) -> np.ndarray:
    """Largest |P[j] - P[i]| over the starts allowed for each end j in [1, 2L-1].

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


def max_ap_discrepancy(chi: Coloring) -> tuple[int, ModAP]:
    """Max |chi(A)| over all progressions A, with a witness attaining it.

    The witness is the first window attaining the maximum over steps d, then
    orbit rows, then window ends, then window starts.
    """
    n = chi.n
    v = chi.values.astype(np.int64)
    if n == 1:
        t = abs(int(v[0]))
        witness = ModAP(1, 0, 0, 0, 0) if t else ModAP(1, 0, 1, 0, -1)
        return t, witness
    best = 0
    best_d = None
    for d in range(1, n // 2 + 1):
        cand = int(_end_best(_orbit_prefix(v, n, d)).max())
        if cand > best:
            best = cand
            best_d = d
    if best == 0:
        return 0, ModAP(n, 0, 1, 0, -1)
    P = _orbit_prefix(v, n, best_d)
    L = P.shape[-1] // 2
    row, k = divmod(int(np.argmax(_end_best(P) == best)), 2 * L - 1)
    j = k + 1  # column k of _end_best holds window end j = k + 1
    lo = max(0, j - L)
    i = lo + int(np.argmax(np.abs(P[row, lo : min(j, L)] - P[row, j]) == best))
    return best, full_ap(n, (row + i * best_d) % n, best_d, j - i)


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
    v = chi.values.astype(np.int64)
    best = 0
    for r in ctx.divisors:
        cand = int(np.abs(congruence_class_sums(v, r)).max())
        if cand > best:
            best = cand
    return best


def decompose_to_C1(A: ModAP) -> list[ModAP]:
    """Split a canonical progression into at most two disjoint segments.

    The offset is slid to its residue below gcd(n, d) by retargeting the index
    range, then the range is cut at the orbit boundary if it wraps.
    """
    n = A.n
    if A.i != 0:
        raise ValueError("expected canonical form with start index 0")
    length = A.length
    if length == 0:
        return []
    a = A.a % n
    d = A.d % n
    orbit = n // math.gcd(d, n)
    if length > orbit:
        raise ValueError("length exceeds orbit size")
    if n == 1:
        return [ModAP(1, 0, 1, 0, 0)]
    if d == 0:
        return [ModAP(n, 0, 1, a, a)]
    g = math.gcd(d, n)
    L = n // g
    aa = a % g
    k = (a - aa) // g * pow(d // g, -1, L) % L
    hi = k + length - 1
    if hi < L:
        return [ModAP(n, aa, d, k, hi)]
    return [ModAP(n, aa, d, k, L - 1), ModAP(n, aa, d, 0, hi - L)]


def _as_subset(n: int, xs) -> np.ndarray:
    xs = np.unique(np.asarray(xs, dtype=np.int64))
    if xs.size and (xs[0] < 0 or xs[-1] >= n):
        raise ValueError("subset elements must lie in [0, n)")
    return xs


def orbit_intersection(n: int, d: int, a: int, xs) -> np.ndarray:
    """X intersected with the step-d orbit of residue a, in ascending k of x = a + k*d."""
    xs = _as_subset(n, xs)
    if n == 1:
        return xs
    g = math.gcd(d, n)
    L = n // g
    if not 0 <= a < g:
        raise ValueError("orbit residue must lie in [0, gcd(d, n))")
    sel = xs[xs % g == a]
    if sel.size == 0:
        return sel
    k = (sel - a) // g * pow(d // g, -1, L) % L
    return sel[np.argsort(k, kind="stable")]


def _prefix_blocks(d: int, a: int, count: int) -> list[DyadicBlock]:
    """Binary decomposition of positions 1..count into dyadic blocks, big scales first."""
    out: list[DyadicBlock] = []
    done = 0
    for b in reversed(range(count.bit_length())):
        if count >> b & 1:
            size = 1 << b
            out.append(DyadicBlock(d=d, a=a, scale=b, t=done // size + 1))
            done += size
    return out


def dyadic_decompose(xs, A: ModAP) -> tuple[list[DyadicBlock], list[DyadicBlock]]:
    """Write A∩X as (union of U blocks) minus (union of V blocks), V inside U.

    U covers the ordered prefix of X's orbit up to A's last index, V the prefix
    before A's first index; each prefix splits into blocks of distinct
    power-of-two sizes.
    """
    n = A.n
    if not is_c1_form(A):
        raise ValueError("progression must be in segment (C1) form")
    xs = _as_subset(n, xs)
    ordered = orbit_intersection(n, A.d, A.a, xs)
    if ordered.size == 0:
        return [], []
    if n == 1:
        ks = np.zeros(ordered.size, dtype=np.int64)
    else:
        g = math.gcd(A.d, n)
        L = n // g
        ks = np.sort((ordered - A.a) // g * pow(A.d // g, -1, L) % L)
    first = int(np.searchsorted(ks, A.i, side="left"))
    last = int(np.searchsorted(ks, A.j, side="right")) - 1
    if first > last:
        return [], []
    return (
        _prefix_blocks(A.d, A.a, last + 1),
        _prefix_blocks(A.d, A.a, first),
    )


def block_elements(n: int, xs, block: DyadicBlock) -> np.ndarray:
    """Elements covered by a dyadic block of X, in orbit order."""
    ordered = orbit_intersection(n, block.d, block.a, xs)
    size = block.size
    lo = (block.t - 1) * size
    hi = block.t * size
    if hi > ordered.size:
        raise ValueError("block index past the orbit intersection")
    return ordered[lo:hi]


def dyadic_block_counts(n: int, xs, scales=None) -> dict[int, int]:
    """Number of dyadic blocks per scale over all (d, a) orbits of X."""
    xs = _as_subset(n, xs)
    m = int(xs.size)
    if m == 0 or n == 1:
        return {}
    if scales is None:
        scales = range(m.bit_length())
    scales = [s for s in scales if (1 << s) <= m]
    counts = {s: 0 for s in scales}
    for d in range(1, n):
        cnt = np.bincount(xs % math.gcd(d, n))
        for s in scales:
            counts[s] += int((cnt >> s).sum())
    return counts
