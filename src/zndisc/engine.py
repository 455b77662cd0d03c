"""Randomized partial-coloring engine with post-hoc certification.

The existence argument behind the block-sum bounds is nonconstructive, so the
engine searches directly: a random sign walk over the points of X that keeps
every enforced block sum within its budget, rolling back a sign when both
choices would violate a bound and restarting from a fresh seed when too few
points get colored.  Every returned coloring is re-verified against its block
constraints before being handed back; the certificate is what callers rely
on, not the search heuristic.

A request is its inputs: n, X and an allowance Delta per dyadic block size.
Everything else it derives in one place, from one layout of X's orbit rows
(``_orbit_layout``, built once per request): its constraints, the dyadic
blocks of X along every step-d orbit at each binding size (one closed-form
``OrbitBlocks`` count per size, which the entropy budget reads), and the
walk table's size, known in closed form, so a request whose table would be
too large is refused before anything is allocated.  The walk table and the
certificate both put X in orbit order the same way: per chunk of steps, one
in-place sort of packed keys ((a*L + k) << bits) | index, whose low bits
are then the points' indices by (row a, position k).  Only the steps d =
g*u with u <= L/2 (L = n/g) are sorted.  Step g*(L - u) reads each row of
step g*u backwards (k -> -k mod L), except that the row's k = 0 point, x =
a when a < g lies in X, stays first; both derive it from its partner
without a sort.  Row a fills the same sorted places in every step, so the
walk reads one point-major table: per X-point and step d, a slot at the
point's rank in its step-d orbit row; the point's block at scale 2^s is
slot >> s, and slots of points outside every full block fall in exempt
ids.  The certificate never reads that table: it re-sums each binding block
from its definition, by differencing prefix sums of the values in orbit
order (``certify_partial_coloring``).

The walk visits the points in a random order, but signs whole runs of that
order at once whenever no binding block can reach its cap within the run: a
block that stays inside its cap even if every point of the run takes its
preferred sign stays inside after each prefix too, so the point-by-point
walk would have signed the run the same way.  A run's per-block counts are
one histogram at the finest binding scale, summed upward for the coarser
ones.  Ids whose cap is at least m can never bind and are never checked;
the exempt id, which repeats across a point's columns, is among them.  Where
a run could reach a cap, the walk steps point by point, so the coloring is
the point-by-point walk's, bit for bit.

Blocks whose allowance Delta is at least their size cannot be violated by any
signing (|chi(S)| <= |S| <= Delta), so they are exempt from the walk, the
entropy-budget precondition, and the numeric recheck; that exemption is an
arithmetic fact, not a relaxation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .ap_system import Coloring, _as_subset, _check_signs
from .number_theory import LimitExceeded, ZnContext, make_context, totient

__all__ = [
    "BudgetExceeded",
    "SearchFailed",
    "DeltaSchedule",
    "PartialColorRequest",
    "OrbitBlocks",
    "TABLE_BYTES_LIMIT",
    "entropy_weight",
    "schedule_entropy_budget",
    "build_c2_request",
    "certify_partial_coloring",
    "partial_color",
    "full_color_iterate",
]

_RESTARTS = 64  # walks partial_color tries before it raises SearchFailed
_HEREDITARY_C1 = 5.0  # the hereditary schedule's constant: it must exceed 2
COLOR_FRACTION_DENOM = 10  # at least ceil(m/10) points must receive a sign
# A request whose walk table would pass this many bytes (a prime cell near
# n = 23000) is refused when it is built; the limit also keeps every slot id
# in int32.
TABLE_BYTES_LIMIT = 1 << 30
# Orbit-order keys (step x X) are built and sorted for at most this many
# cells at a time, and the paired steps derived from each such chunk, so their
# scratch stays small whatever the number of steps.
_CHUNK_CELLS = 1 << 15
# A run of the sign walk copies _RUN_IDS * ids to max(_RUN_CELLS, _RUN_IDS * ids)
# table positions (int32), ids counted at the finest scale.  Each run test
# passes over every id, so past 32 K ids the runs grow with them; below, a
# run's scratch stays at 512 KB.
_RUN_CELLS = 1 << 17
_RUN_IDS = 4


class BudgetExceeded(ValueError):
    """The entropy condition fails for the supplied blocks and deltas."""


class SearchFailed(RuntimeError):
    """The randomized search exhausted its restarts."""

    def __init__(self, message: str, *, iteration: int | None = None,
                 cell: int | None = None):
        super().__init__(message)
        self.iteration = iteration
        self.cell = cell


def _check_kind(kind: str) -> None:
    if kind not in ("main", "hereditary"):
        raise ValueError(f"unknown schedule kind {kind!r}")


@dataclass(frozen=True)
class DeltaSchedule:
    """Per-size block allowance b(s).

    main:       b(0) = 0, b(s) = 5*sqrt(s)*sqrt(log(e*n/s)), which is >= 2*sqrt(s)
                on (0, n].
    hereditary: b(s) = c1*sqrt(s)*(s/M)^(-1) for s >= M and c1*sqrt(s)*(s/M)^(-0.1)
                below, where M = phi(n)*log(e*n/phi(n)) and c1 = 5.
    """

    kind: str
    n: int

    def __post_init__(self):
        _check_kind(self.kind)
        if self.n < 1:
            raise ValueError("modulus must be positive")

    @classmethod
    def main(cls, n: int) -> "DeltaSchedule":
        return cls(kind="main", n=n)

    @classmethod
    def hereditary(cls, ctx: ZnContext) -> "DeltaSchedule":
        return cls(kind="hereditary", n=ctx.n)

    def b(self, s):
        s_arr = np.asarray(s, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.kind == "main":
                out = 5.0 * np.sqrt(s_arr) * np.sqrt(np.log(math.e * self.n / s_arr))
            else:
                phi = totient(self.n)
                M = phi * math.log(math.e * self.n / phi)
                ratio = s_arr / M
                # np.power, not **: ** on a numpy scalar takes libm's pow, so a
                # scalar s would differ from the same s in an array in the last bit
                out = np.where(
                    s_arr >= M,
                    _HEREDITARY_C1 * np.sqrt(s_arr) / ratio,
                    _HEREDITARY_C1 * np.sqrt(s_arr) * np.power(ratio, -0.1),
                )
        out = np.where(s_arr > 0, out, 0.0)
        return float(out) if np.isscalar(s) or np.ndim(s) == 0 else out


def entropy_weight(kind: str, delta, size):
    """Per-block term of the entropy condition for a block of the given size."""
    _check_kind(kind)
    delta = np.asarray(delta, dtype=np.float64)
    size = np.asarray(size, dtype=np.float64)
    if kind == "main":
        return np.exp(-(delta**2) / (4.0 * size))
    lam = delta / np.sqrt(size)
    # the lam >= 2 branch takes precedence at the seam
    return np.where(lam >= 2.0, 10.0 * np.exp(-(lam**2) / 4.0), 10.0 * np.log1p(2.0 / lam))


def schedule_entropy_budget(counts: Mapping[int, int], deltas: Mapping[int, float],
                            kind: str) -> float:
    """Left-hand side of the entropy condition over the given blocks.

    ``counts`` maps block size -> number of blocks of that size.  The caller
    compares the result against m/50 (main) or m/5 (hereditary).
    """
    _check_kind(kind)
    total = 0.0
    for size, count in counts.items():
        if size < 1:
            raise ValueError("block sizes must be positive")
        if count == 0:
            continue
        delta = float(deltas[size])
        if not delta > 0:
            raise ValueError("deltas must be strictly positive")
        total += count * float(entropy_weight(kind, delta, size))
    return total


@dataclass(frozen=True)
class OrbitBlocks:
    """The dyadic blocks of one size along every step-d orbit of a request's X.

    Row a of step d (a = x mod gcd(d, n)) lists X's points in ascending k of
    x = a + k*d; its block t holds the points of row rank t*size .. t*size +
    size - 1, for t < (row length) // size.  The request's n and X and the
    size it is filed under define the blocks, so only their count is held.
    """

    count: int

    def __len__(self) -> int:
        return self.count


@dataclass
class PartialColorRequest:
    """One partial-coloring job: a point set, block allowances and a seed.

    n, X and ``deltas`` (block size -> allowance; sizes powers of two) fix
    every constraint.  The request builds the orbit layout of X once
    (``_orbit_layout``: its rows per gcd(d, n) group, for the binding sizes,
    delta < size) and derives from it the walk table's size and ``blocks``:
    one ``OrbitBlocks`` per binding size, ascending, the dyadic blocks of
    that size along every step-d orbit of X, counted in closed form.  It
    raises LimitExceeded, before it counts them or allocates anything large,
    when the walk table would pass TABLE_BYTES_LIMIT.  The walk reads the
    blocks through one point-major table (a slot per point and step d from
    the point's orbit rank, laid out by the same layout), while
    ``certify_partial_coloring`` re-sums them from their definition, the
    sorted step-d orbit rows of X.
    """

    n: int
    x: np.ndarray
    deltas: Mapping[int, float]
    kind: str = "main"
    seed: int = 0
    blocks: dict[int, OrbitBlocks] = field(init=False)
    _layout: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_kind(self.kind)
        self.x = _as_subset(self.n, self.x)
        m = int(self.x.size)
        if m == 0:
            raise ValueError("X must be nonempty")
        for size, delta in self.deltas.items():
            if not float(delta) > 0:
                raise ValueError("deltas must be strictly positive")
            if size < 1 or size & (size - 1):
                raise ValueError(f"block sizes must be powers of two, got {size}")
        scales = [size.bit_length() - 1 for size in sorted(self.deltas)
                  if float(self.deltas[size]) < size]
        self._layout = list(_orbit_layout(self.n, self.x, scales)) if scales else []
        table_bytes = _table_bytes(m, scales, self._layout)
        if table_bytes > TABLE_BYTES_LIMIT:
            raise LimitExceeded(
                f"n={self.n}, m={m}: the constraint table needs {table_bytes} bytes, "
                f"past the limit of {TABLE_BYTES_LIMIT}"
            )
        # a group the layout skips has no row of the smallest binding size
        self.blocks = {1 << s: OrbitBlocks(sum(steps * int((cnt >> s).sum())
                                               for _, steps, _, cnt, _ in self._layout))
                       for s in scales}


@dataclass(frozen=True)
class _WalkTable:
    """Point-major constraint table the sign walk reads.

    Point t (an index into X) belongs to the blocks
    ``(positions[t] >> shifts) + offsets``, one row per scale, with shifts
    ascending; ``caps`` is the largest |sum| each block may reach.  A
    position equal to ``exempt`` falls in no binding block, and neither does
    any id whose cap is m: each point moves a block sum by at most one, so
    such a cap never binds.  The exempt id may repeat in a point's row; a
    binding id never does.  ``_sign_walk`` signs runs of its order at once
    whenever no binding block can reach its cap, and never checks ids whose
    cap is m.
    """

    positions: np.ndarray
    shifts: np.ndarray
    offsets: np.ndarray
    caps: np.ndarray
    exempt: int


def _orbit_layout(n: int, xs: np.ndarray, shifts: list[int]):
    """Slot layout of the orbit table: one column per step d, one slot per X-point.

    Steps are grouped by g = gcd(d, n); the phi(n/g) steps of a group share the
    row lengths l_a = #{x in X : x = a mod g}.  Within a column, a row with at
    least 2^shifts[0] points gets l_a slots starting at a multiple of its
    largest binding block size, so no block of any scale straddles two rows;
    shorter rows get none (offset -1).  Columns span a multiple of the largest
    block size.  Yields (g, steps in the group, row offsets, row lengths,
    column span) per group with a row that has slots.
    """
    ctx = make_context(n)
    smin, top = 1 << shifts[0], 1 << shifts[-1]
    for g, steps in zip(ctx.divisors[:-1], ctx.divisor_phi[:0:-1]):
        cnt = np.bincount(xs % g, minlength=g)
        rowoff = np.full(g, -1, dtype=np.int64)
        end = 0
        for a in np.flatnonzero(cnt >= smin):
            align = 1 << max(s for s in shifts if (1 << s) <= cnt[a])
            end = -(-end // align) * align
            rowoff[a] = end
            end += int(cnt[a])
        if end:
            yield g, steps, rowoff, cnt, -(-end // top) * top


def _orbit_orders(n: int, xs: np.ndarray, g: int, chunk: int):
    """X's points in orbit order for the first half of the steps d = g*u with
    gcd(u, n/g) = 1, the units u <= L/2 (L = n/g), ascending: yields (index
    of the chunk's first step, order of shape (steps in chunk, |X|)), at most
    ``chunk`` steps at a time.

    Row ``order[i]`` lists the indices into X by (a, k), where x = a + k*d
    and a = x mod g; row a fills the same places in every step.  k is
    q*u^-1 mod L (q = x // g, L = n/g): one multiply, then an integer
    floor-subtract (numpy's fast division by a scalar).  Each key packs
    ((a*L + k) << bits) | index, bits wide enough for every index, so the keys
    are unique and one in-place sort of them orders X stably by (a, k).

    The other half needs no sort: step L - u is step u read backwards, since
    k -> -k mod L.  Its row a keeps the point with k = 0 (x = a, in X only
    when a < g) at rank 0 and puts every other point of rank j at l_a - 1 +
    z_a - j, where l_a is the row length and z_a = 1 when a is in X.  The map
    depends on the row alone, so ``_walk_table`` and ``_orbit_blocks_hold``
    derive step L - u from step u.  L = 2 has the one unit u = 1, its own
    partner, listed once.
    """
    L = n // g
    m = int(xs.size)
    bits = (m - 1).bit_length()
    # both the keys (< n << bits) and the products q*u^-1 (< L^2) must fit
    small = n << bits < 1 << 31 and (L - 1) ** 2 < 1 << 31
    dtype = np.int32 if small else np.int64
    units = np.flatnonzero(np.gcd(np.arange(L), L) == 1)
    units = units[: (units.size + 1) // 2]
    q = (xs // g).astype(dtype)
    base = ((xs % g * L) << bits | np.arange(m)).astype(dtype)
    for lo in range(0, units.size, chunk):
        inv = np.array([pow(int(u), -1, L) for u in units[lo : lo + chunk]], dtype=dtype)
        key = q[None, :] * inv[:, None]
        key -= key // L * L
        key <<= bits
        key += base
        key.sort(axis=1)
        key &= (1 << bits) - 1
        yield lo, key


def _table_bytes(m: int, shifts: list[int], layout) -> int:
    """Closed-form size of the walk table for |X| = m from the ``_orbit_layout``
    groups at the binding scales ``shifts`` (exponents s of the block sizes
    2^s).  Counts the int32 positions (|X| per step column) and an int32 cap
    and sum per block id.  The walk's scratch is not part of the table: a run
    reads at most ``_RUN_CELLS`` positions whatever the table's size, besides
    a few words per block id.
    """
    columns = slots = 0
    for _, steps, _, _, span in layout:
        columns += steps
        slots += steps * span
    ids = sum((slots >> s) + 1 for s in shifts)
    return 4 * m * columns + 8 * ids


def _walk_table(req: PartialColorRequest) -> _WalkTable:
    """The walk's table: each X-point's slot per step column, from its rank in
    its orbit row.

    ``_orbit_orders`` lists X by (a, k); sorted place j of row a holds rank
    j - start[a], so one scatter of rowoff[a] + j - start[a] plus the column's
    base fills a chunk of columns.  Step L - u sits in the column mirrored
    about the group's middle, and each of its slots comes from the partner
    column's by one subtraction: rank j -> l_a - 1 + z_a - j gives slot' =
    2*rowoff[a] + l_a - 1 + z_a + base_u + base_-u - slot, except that the
    k = 0 point (X's points below g) keeps its rank, slot' = slot - base_u +
    base_-u.  Block ids at scale 2^s are slot >> s plus that scale's offset.
    """
    n, xs = req.n, req.x
    m = int(xs.size)
    if not req.blocks:  # no columns: every sign is free
        zero = np.zeros((1, 1), dtype=np.int32)
        return _WalkTable(np.empty((m, 0), dtype=np.int32), zero, zero,
                          np.array([m], dtype=np.int32), 0)
    shifts = [size.bit_length() - 1 for size in req.blocks]
    layout = req._layout
    columns = sum(steps for _, steps, _, _, _ in layout)
    exempt = sum(steps * span for _, steps, _, _, span in layout)
    positions = np.empty((m, columns), dtype=np.int32)
    caps = [np.full((exempt >> s) + 1, m, dtype=np.int32) for s in shifts]
    chunk = max(1, _CHUNK_CELLS // m)
    # a paired chunk is computed here, then copied into place: a ufunc whose
    # output shares `positions` with its input would copy that input first
    paired = np.empty((m, chunk), dtype=np.int32)
    col = base = 0
    for g, steps, rowoff, cnt, span in layout:
        colbase = base + span * np.arange(steps, dtype=np.int64)
        for j, (size, s) in enumerate(zip(req.blocks, shifts)):
            per_row = cnt >> s
            rows = np.repeat(np.arange(g), per_row)
            t = np.arange(rows.size) - (np.cumsum(per_row) - per_row)[rows]
            ids = (colbase[:, None] >> s) + ((rowoff[rows] >> s) + t)[None, :]
            caps[j][ids] = math.floor(float(req.deltas[size]))
        # sorted place j of row a (rows fill cnt[a] places each) has rank j - start[a]
        row = np.repeat(np.arange(g), cnt)
        place = rowoff[row] + np.arange(m) - (np.cumsum(cnt) - cnt)[row]
        # step L - u's column is steps - 1 - i for step u's i, and the bases
        # of each such pair sum to colbase[0] + colbase[-1]; X is ascending,
        # so its k = 0 points (x < g) are its first `low` ones
        low = int(np.searchsorted(xs, g))
        a = xs % g
        z = np.zeros(g, dtype=np.int64)
        z[xs[:low]] = 1
        mirror = (2 * rowoff[a] + cnt[a] - 1 + z[a] + colbase[0] + colbase[-1]).astype(np.int32)
        for lo, order in _orbit_orders(n, xs, g, chunk):
            c = order.shape[0]
            cols = np.arange(col + lo, col + lo + c)[:, None]
            positions[order, cols] = colbase[lo : lo + c, None] + place
            if steps > 1:  # L = 2: the one step is its own partner
                src, pair = positions[:, col + lo : col + lo + c], paired[:, :c]
                np.subtract(mirror[:, None], src, out=pair)
                pair[:low] = src[:low] + (colbase[::-1] - colbase)[lo : lo + c]
                positions[:, col + steps - lo - c : col + steps - lo] = pair[:, ::-1]
        # a row without slots (rowoff -1) got junk slots above; it holds the
        # same points in every step, so one fill marks them exempt
        positions[rowoff[a] < 0, col : col + steps] = exempt
        col += steps
        base += span * steps
    offsets = np.cumsum([0] + [scale_caps.size for scale_caps in caps[:-1]])
    return _WalkTable(
        positions,
        np.array(shifts, dtype=np.int32)[:, None],
        offsets.astype(np.int32)[:, None],
        np.concatenate(caps),
        exempt,
    )


def _sign_walk(table: _WalkTable, rng) -> np.ndarray:
    """Sign the table's points in a random order: each takes its random
    preferred sign, else the other, else none, whichever first keeps every
    block of its row within its cap.

    Runs of consecutive points of the order are signed at once.  If sum + (the
    run's points preferring +1 in a block) <= cap and sum - (those preferring
    -1) >= -cap for every block, no prefix of the run can take a block past
    its cap, so point by point every point of the run would get its preferred
    sign.  The counts are one histogram of the run's positions >> s0 at the
    finest scale s0; a coarser scale s adds 2^(s - s0) adjacent counts, since
    slot >> s == (slot >> s0) >> (s - s0).  Ids with cap >= m are never
    checked and runs leave their sums alone: they cannot bind, and the exempt
    id repeats across a point's columns, where the histogram counts it once
    per column.  Each test passes over every id, so a run spans _RUN_IDS *
    ids to max(_RUN_CELLS, _RUN_IDS * ids) cells (run x columns, ids at the
    finest scale).  A failed test halves the run down to that floor; at the
    floor the walk steps point by point, over twice as many points after each
    consecutive failure, and a passed test doubles the run.  The result is
    the point-by-point walk's, bit for bit, for the same rng draws.
    """
    positions, caps = table.positions, table.caps
    m, width = positions.shape
    chi = np.zeros(m, dtype=np.int8)
    sums = np.zeros(caps.size, dtype=np.int32)
    order = rng.permutation(m)
    pref = rng.integers(0, 2, size=m, dtype=np.int64) * 2 - 1
    shifts = [int(s) for s in table.shifts[:, 0]]
    finest = table.exempt >> shifts[0]
    binds = caps < m
    limit = np.where(binds, caps, np.iinfo(np.int32).max)
    # per scale: views of the sums, limits and bind flags of the ids below its exempt id
    views = []
    for off, s in zip(table.offsets[:, 0], shifts):
        ids = slice(int(off), int(off) + (table.exempt >> s))
        views.append((sums[ids], limit[ids], binds[ids]))

    def hits(points):
        # per scale, how many of the points each block holds
        cells = np.take(positions, points, axis=0)
        cells >>= shifts[0]
        c = np.zeros(finest + 1, dtype=np.int64)
        np.add.at(c, cells.ravel(), 1)  # bincount would copy the cells to intp first
        c, out = c[:finest], []
        for prev, s in zip(shifts[:1] + shifts, shifts):
            for _ in range(s - prev):
                c = c[0::2] + c[1::2]
            out.append(c)
        return out

    # a run at the floor reads _RUN_IDS cells per finest-scale id, so a
    # failed test costs little next to the steps that follow it
    floor = max(1, _RUN_IDS * finest // max(width, 1))
    top = max(floor, _RUN_CELLS // max(width, 1))
    run, wait, i = top, floor, 0
    while i < m:
        points = order[i : i + run]
        sg = pref[points]
        plus, minus = hits(points[sg > 0]), hits(points[sg < 0])
        if all(np.all(v + p <= cap) and np.all(q - v <= cap)
               for (v, cap, _), p, q in zip(views, plus, minus)):
            chi[points] = sg
            for (v, _, bind), p, q in zip(views, plus, minus):
                v += (p - q) * bind
            run, wait = min(2 * run, top), floor
            i += points.size
        elif run > floor:
            run = max(run // 2, floor)
        else:
            for t in order[i : i + wait]:
                bl = (positions[t] >> table.shifts) + table.offsets
                s = sums[bl]
                cap = caps[bl]
                sg = int(pref[t])
                if np.all(np.abs(s + sg) <= cap):
                    chi[t] = sg
                    sums[bl] = s + sg
                elif np.all(np.abs(s - sg) <= cap):
                    chi[t] = -sg
                    sums[bl] = s - sg
            i += wait
            wait *= 2
    return chi


def _orbit_blocks_hold(n: int, xs: np.ndarray, values: np.ndarray, limits) -> bool:
    """Every orbit block sum within its delta, re-summed from the definition:
    take prefix sums P of the values in each step's orbit order (X by row a,
    then k), difference them at multiples of the block size within each row.
    Step L - u reads the same P as its partner step u: a block of ranks
    [A, B) in its row a (start s, length l) is the forward range
    [s + l + z - B, s + l + z - A), except the first block when the k = 0
    point a is in X (z = 1), which wraps: (P[s+1] - P[s]) + (P[s+l] -
    P[s+l+1-B]).  Reads only n, X and the values, never the walk table.
    ``limits`` holds (size, delta) pairs."""
    m = int(xs.size)
    v = values[xs].astype(np.int32)  # |prefix sums| <= |X| < 2^31
    ctx = make_context(n)
    smallest = min(size for size, _ in limits)
    for g in ctx.divisors[:-1]:
        cnt = np.bincount(xs % g, minlength=g)
        if cnt.max() < smallest:
            continue
        # in (a, k) order row a fills cnt[a] consecutive places; `within` is the rank
        row = np.repeat(np.arange(g), cnt)
        start = np.cumsum(cnt) - cnt
        within = np.arange(m) - start[row]
        z = np.zeros(g, dtype=np.int64)
        z[xs[xs < g]] = 1
        checks = []
        for size, delta in limits:
            hi = np.flatnonzero((within + 1) % size == 0) + 1
            lo = hi - size
            wrap = first = np.empty(0, dtype=np.int64)
            if n // g > 2:  # L = 2: the one step is its own partner
                r = row[lo]
                turn = 2 * start[r] + cnt[r] + z[r]
                wrap = np.flatnonzero((lo == start[r]) & (z[r] == 1))
                first = lo[wrap]
                mhi = turn - lo
                mhi[wrap] -= 1
                lo, hi, wrap = (np.concatenate([lo, turn - hi]), np.concatenate([hi, mhi]),
                                wrap + lo.size)
            checks.append((lo, hi, wrap, first, delta))
        for _, order in _orbit_orders(n, xs, g, max(1, _CHUNK_CELLS // m)):
            P = np.zeros((order.shape[0], m + 1), dtype=np.int32)
            np.cumsum(np.take(v, order), axis=1, dtype=np.int32, out=P[:, 1:])
            for lo, hi, wrap, first, delta in checks:
                sums = np.take(P, hi, axis=1) - np.take(P, lo, axis=1)
                if wrap.size:
                    sums[:, wrap] += np.take(P, first + 1, axis=1) - np.take(P, first, axis=1)
                if np.any(np.abs(sums) > delta):
                    return False
    return True


def certify_partial_coloring(req: PartialColorRequest, values) -> bool:
    """True when every binding block of the request has |chi(block)| <= delta.

    ``values`` is the coloring over Z_n, entries in {-1, 0, +1}; anything
    else raises ValueError.  Each block sum is recomputed from the block's
    definition, the sorted step-d orbits of X.  Nothing the search built is
    used.
    """
    values = np.asarray(values)
    if values.shape != (req.n,):
        raise ValueError(f"values must be a coloring of Z_{req.n}: n entries in {{-1, 0, +1}}")
    _check_signs(values)
    if not req.blocks:
        return True
    limits = [(size, float(req.deltas[size])) for size in req.blocks]
    return _orbit_blocks_hold(req.n, req.x, values, limits)


def partial_color(req: PartialColorRequest) -> Coloring:
    """Search for a partial coloring meeting every block bound.

    Raises BudgetExceeded if the entropy condition fails for the binding
    blocks, and SearchFailed when no restart yields a coloring that signs at
    least ceil(m/10) points and passes ``certify_partial_coloring``.
    """
    m = int(req.x.size)
    threshold = m / 50.0 if req.kind == "main" else m / 5.0
    counts = {size: len(group) for size, group in req.blocks.items()}
    budget = schedule_entropy_budget(counts, req.deltas, req.kind)
    if budget > threshold + 1e-12:
        raise BudgetExceeded(
            f"{req.kind} schedule: entropy budget {budget:.6g} exceeds "
            f"{threshold:.6g} for m={m}"
        )
    table = _walk_table(req)
    need = -(-m // COLOR_FRACTION_DENOM)
    for restart in range(_RESTARTS):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=req.seed, spawn_key=(restart,))
        )
        chi_local = _sign_walk(table, rng)
        if int(np.count_nonzero(chi_local)) < need:
            continue
        values = np.zeros(req.n, dtype=np.int8)
        values[req.x] = chi_local
        if certify_partial_coloring(req, values):
            return Coloring(req.n, values)
    raise SearchFailed(f"no certified partial coloring after {_RESTARTS} restarts (m={m})")


def _derived_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


def build_c2_request(n: int, xs, schedule: DeltaSchedule, seed: int = 0) -> PartialColorRequest:
    """The request with allowance b(2^i) at every scale 2^i <= |X|.

    Scales whose allowance reaches 2^i bind nothing: no signing can violate
    them, so the request enforces none of their blocks.
    """
    if schedule.n != n:
        raise ValueError(f"schedule is for n={schedule.n}, request for n={n}")
    xs = _as_subset(n, xs)
    sizes = 1 << np.arange(int(xs.size).bit_length())
    deltas = dict(zip(sizes.tolist(), schedule.b(sizes).tolist()))
    return PartialColorRequest(n=n, x=xs, deltas=deltas, kind=schedule.kind, seed=seed)


def full_color_iterate(ctx: ZnContext, xs, kind: str = "main", seed: int = 0,
                       ) -> tuple[Coloring, list[int]]:
    """Color all of X by repeated partial coloring of the uncolored remainder.

    Returns (coloring, sizes) where sizes[i] = |X_i| going into iteration i.
    With kind="hereditary" the looser schedule is used while more than phi(n)
    points remain, then the main schedule finishes; kind="main" uses the main
    schedule throughout.
    """
    _check_kind(kind)
    xs = _as_subset(ctx.n, xs)
    if xs.size == 0:
        raise ValueError("X must be nonempty")
    values = np.zeros(ctx.n, dtype=np.int8)
    sizes: list[int] = []
    remaining = xs
    iteration = 0
    while remaining.size:
        sizes.append(int(remaining.size))
        if kind == "hereditary" and remaining.size > ctx.phi:
            schedule = DeltaSchedule.hereditary(ctx)
        else:
            schedule = DeltaSchedule.main(ctx.n)
        req = build_c2_request(ctx.n, remaining, schedule, seed=_derived_seed(seed, iteration))
        try:
            part = partial_color(req)
        except SearchFailed as exc:
            raise SearchFailed(f"iteration {iteration}: {exc}", iteration=iteration) from exc
        values[remaining] += part.values[remaining]
        remaining = remaining[part.values[remaining] == 0]
        iteration += 1
    return Coloring(ctx.n, values), sizes
