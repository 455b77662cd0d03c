"""Ground-truth oracles: exact discrepancy and hereditary discrepancy at small n.

All three oracles read one dense incidence: ``progression_incidence`` gives
the distinct progression sets as an n x A boolean array (sets of size >= 2
for the disc searches, whose singletons only pin the value to >= 1), and
refuses with LimitExceeded, before building anything, an n whose windows span
too many cells.

Exhaustive search evaluates every coloring with the first sign fixed to +1
(negation flips no absolute sum) by split sums: the progression sums of every
sign pattern on the low half of the points and on the high half are built by
doubling (one concatenation per point), and each high-half row is added to
every low-half row in int8; an in-place abs and one max-reduction over the A
progressions, the last and contiguous axis, give each max |sum|.
(Progressions on the leading axis would make herdisc n = 10 faster still,
but not exhaustive n = 16, A = 1071, whose adds then run 3 x 1071 inner
loops of 256 cells per chunk.)  The row-major index of the (high, low) grid
is the coloring's bit pattern, so the first minimiser is the first in
enumeration order.  Exact herdisc runs the same grid over every
{-1, 0, +1} vector on the full incidence: a vector's support is the subset
X it colors, so the restricted disc of X is the least grid entry over the
vectors with support X.  A grid past 2^25 cells raises LimitExceeded rather
than exhausting memory.

Branch and bound walks the points in natural order and keeps, per
progression, the window [lo, hi] = [s - u, s + u] of final sums it can still
reach (s its partial sum, u its unassigned points): a +1 at x adds 2*inc[x] to
lo, a -1 subtracts it from hi.  The state is one (2, A) int16 array of lo and
nh = -hi, so a -1 also adds 2*inc[x], to nh, and one add gives both
children's states; one max over the two changed rows gives both children's
new extremes.  A branch is pruned as soon as some progression is forced to
reach the bound (lo.max() >= bound or nh.max() >= bound), a dense test over
every progression.  One DFS kernel serves both modes: optimisation tries the
sign against the incident partial sums' vote first (one integer dot, taken
only when both children survive the prune) and lowers the bound at each
leaf; the witness pin searches +1 first with bound value + 1 and stops at
the first leaf, the lexicographically first coloring that attains the value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ap_system import Coloring, _class_maxima, max_ap_discrepancy, progression_incidence
from .number_theory import LimitExceeded, ZnContext, make_context

__all__ = [
    "LimitExceeded",
    "ExactResult",
    "EXHAUSTIVE_LIMIT",
    "BRANCH_AND_BOUND_LIMIT",
    "HERDISC_LIMIT",
    "exact_disc",
    "exact_herdisc",
    "measure",
]

EXHAUSTIVE_LIMIT = 16
BRANCH_AND_BOUND_LIMIT = 22
HERDISC_LIMIT = 12
# the split-sum grid holds one int8 per sign vector (exhaustive n <= 26,
# herdisc n <= 15); its adds run over at most _GRID_CHUNK cells at a time
_GRID_CELLS_LIMIT = 1 << 25
_GRID_CHUNK = 1 << 20


@dataclass(frozen=True)
class ExactResult:
    n: int
    value: int
    optimal_coloring: Coloring
    nodes_explored: int
    method: str


def _digit_sums(inc: np.ndarray, digits: tuple[int, ...]) -> np.ndarray:
    """Row c: progression sums of the signs digits[c_i] on the points of inc,
    c_i the base-len(digits) digits of c, point 0 the least significant."""
    sums = np.zeros((1, inc.shape[1]), dtype=np.int8)
    for row in inc:
        sums = np.concatenate([sums + v * row for v in digits])
    return sums


def _split_grid(inc: np.ndarray, digits: tuple[int, ...],
                base: np.ndarray | int = 0) -> np.ndarray:
    """max |base + progression sum| of every sign vector over inc's points.

    Entry (c_hi, c_lo) signs the low half by the digits of c_lo and the high
    half by those of c_hi, so the row-major index is the vector's digit
    pattern over all the points.
    """
    cells = len(digits) ** inc.shape[0]
    if cells > _GRID_CELLS_LIMIT:
        raise LimitExceeded(f"the search grid needs {cells} cells, past the limit of "
                            f"{_GRID_CELLS_LIMIT}")
    inc = inc.astype(np.int8)
    k = (inc.shape[0] + 1) // 2
    lo = _digit_sums(inc[:k], digits) + base
    hi = _digit_sums(inc[k:], digits)
    grid = np.empty((hi.shape[0], lo.shape[0]), dtype=np.int8)
    rows = max(1, _GRID_CHUNK // lo.size)
    for j in range(0, hi.shape[0], rows):
        t = lo + hi[j:j + rows, None, :]
        np.maximum.reduce(np.abs(t, out=t), axis=2, out=grid[j:j + rows])
    return grid


def _exhaustive(ctx: ZnContext) -> ExactResult:
    n = ctx.n
    inc = progression_incidence(ctx, min_len=2)
    vals = np.maximum(_split_grid(inc[1:], (1, -1), base=inc[0]), 1)
    c = int(np.argmin(vals))
    chi = np.ones(n, dtype=np.int8)
    chi[1:] -= 2 * ((c >> np.arange(n - 1)) & 1).astype(np.int8)
    return ExactResult(n=n, value=int(vals.flat[c]), optimal_coloring=Coloring(n, chi),
                       nodes_explored=1 << (n - 1), method="exhaustive")


def _search_tables(inc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrays ``_search`` reads: the children's steps, the vote weights
    and the progression lengths.

    steps[x, 0] adds 2*inc[x] to lo (the +1 child), steps[x, 1] to nh (the
    -1 child).  |lo| and |nh| are at most n, within int16 for any n the
    incidence's cell limit admits (n <= 72).  The vote weights are int32: a
    point lies in about A/2 progressions, past int16 from n = 53 on.
    """
    n, A = inc.shape
    steps = np.zeros((n, 2, 2, A), dtype=np.int16)
    steps[:, 0, 0] = steps[:, 1, 1] = 2 * inc
    return steps, inc.astype(np.int32), inc.sum(axis=0, dtype=np.int16)


def _search(tables: tuple[np.ndarray, np.ndarray, np.ndarray], bound: int,
            witness: bool) -> tuple[int, int, np.ndarray | None]:
    """DFS over colorings with chi(0) = +1 for one below ``bound`` (max |sum|).

    Optimisation mode returns the least value below the bound (the bound
    itself if none is lower), the nodes explored and the last leaf reached,
    each leaf lowering the bound; witness mode stops at the first leaf.

    A node's state is one (2, A) int16 array, lo and nh = -hi.  One add of
    ``steps[x]`` gives both children's states, and one max over the row each
    child changed gives the +1 child's top and the -1 child's -bottom.  The
    vote, the incident progressions' sum signs sign(lo - nh) weighted by
    inc[x], is one integer dot.  It is only taken when both children survive
    the prune: the bound only falls, so a child pruned on entry stays pruned,
    and with one survivor the order changes no node count, bound or leaf.
    """
    steps, votes, length = tables
    n, A = votes.shape
    chi = np.ones(n, dtype=np.int8)
    leaf = None
    nodes = 0

    def dfs(x: int, state: np.ndarray, top: int, bottom: int) -> bool:
        # top = lo.max() and bottom = hi.min(); at a leaf lo = hi = the sums
        nonlocal bound, leaf, nodes
        if x == n:
            bound = max(1, top, -bottom)
            leaf = chi.copy()
            return witness
        if bound <= 1:
            return False
        kids = state + steps[x]
        up, down = np.maximum.reduce(kids.reshape(4, A)[::3], axis=1).tolist()
        first = 1
        if (not witness and up < bound and down < bound
                and np.dot(votes[x], np.sign(state[0] - state[1])) > 0):
            first = -1
        for sg in (first, -first):
            nodes += 1
            chi[x] = sg
            if sg > 0:
                kid, top2, bottom2 = 0, up, bottom
            else:
                kid, top2, bottom2 = 1, top, -down
            if top2 < bound and bottom2 > -bound and dfs(x + 1, kids[kid], top2, bottom2):
                return True
        return False

    state = np.stack([steps[0, 0, 0] - length, -length])
    dfs(1, state, int(state[0].max()), int(length.min()))
    return bound, nodes, leaf


def _alternating_value(ctx: ZnContext) -> int:
    n = ctx.n
    alt = np.where(np.arange(n) % 2 == 0, 1, -1).astype(np.int8)
    t, _ = max_ap_discrepancy(Coloring(n, alt))
    return max(1, t)


def _branch_and_bound(ctx: ZnContext) -> ExactResult:
    tables = _search_tables(progression_incidence(ctx, min_len=2))
    heuristic = _alternating_value(ctx)
    best, nodes, _ = _search(tables, heuristic + 1, witness=False)
    value = min(best, heuristic)
    _, _, chi = _search(tables, value + 1, witness=True)
    return ExactResult(n=ctx.n, value=value, optimal_coloring=Coloring(ctx.n, chi),
                       nodes_explored=nodes, method="branch_and_bound")


def exact_disc(ctx: ZnContext, method: str = "branch_and_bound",
               limit: int | None = None) -> ExactResult:
    """Exact disc over all progressions by full search; LimitExceeded past the cap."""
    if method not in ("exhaustive", "branch_and_bound"):
        raise ValueError(f"unknown method {method!r}")
    cap = limit if limit is not None else (
        EXHAUSTIVE_LIMIT if method == "exhaustive" else BRANCH_AND_BOUND_LIMIT
    )
    if ctx.n > cap:
        raise LimitExceeded(f"n={ctx.n} exceeds limit {cap} for {method}")
    if ctx.n == 1:  # no progression of size >= 2; the singleton pins 1
        return ExactResult(1, 1, Coloring(1, np.ones(1, dtype=np.int8)), 1, method)
    if method == "exhaustive":
        return _exhaustive(ctx)
    return _branch_and_bound(ctx)


def exact_herdisc(ctx: ZnContext) -> tuple[int, tuple[int, ...]]:
    """Exact hereditary discrepancy: max over subsets X of the restricted disc,
    with the first X (as a bit mask) that attains it; LimitExceeded past
    HERDISC_LIMIT."""
    n = ctx.n
    if n > HERDISC_LIMIT:
        raise LimitExceeded(f"n={n} exceeds limit {HERDISC_LIMIT} for herdisc")
    # every {-1, 0, +1} vector of Z_n; its support is the subset X it signs
    grid = _split_grid(progression_incidence(ctx), (0, 1, -1))
    support = np.zeros(1, dtype=np.int32)
    for i in range(n):
        support = np.concatenate([support, support | 1 << i, support | 1 << i])
    disc = np.full(1 << n, n + 1, dtype=np.int8)
    np.minimum.at(disc, support, grid.ravel())
    X = int(np.argmax(disc))
    return int(disc[X]), tuple(int(e) for e in np.flatnonzero((X >> np.arange(n)) & 1))


def measure(chi: Coloring) -> dict:
    """Serializable summary: max progression sum with witness (a lift from
    Z_r scanned on Z_r), per-divisor class-sum maxima, and the total sum."""
    t, witness = max_ap_discrepancy(chi)
    per_divisor = {str(r): m for r, m in _class_maxima(chi.values, make_context(chi.n)).items()}
    return {
        "n": chi.n,
        "T": int(t),
        "witness": {"a": witness.a, "d": witness.d, "length": witness.length},
        "congruence_max": max(per_divisor.values()),
        "congruence_by_divisor": per_divisor,
        "total_sum": int(chi.values.sum(dtype=np.int64)),
    }
