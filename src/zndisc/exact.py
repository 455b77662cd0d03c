"""Ground-truth oracles: exact discrepancy and hereditary discrepancy at small n.

Exhaustive search evaluates every coloring with the first sign fixed to +1
(negation flips no absolute sum); branch and bound walks elements in natural
order, keeps per-progression partial sums, and prunes a branch as soon as
some progression is forced to reach the incumbent (|partial sum| minus the
number of its unassigned points).  Singleton progressions pin every full
coloring to value >= 1, which seeds the search floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ap_system import (
    Coloring,
    ap_index_arrays,
    congruence_class_sums,
    enumerate_aps,
    max_ap_discrepancy,
)
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
_CHUNK = 1 << 12


@dataclass(frozen=True)
class ExactResult:
    n: int
    value: int
    optimal_coloring: Coloring
    nodes_explored: int
    method: str


def _sign_matrix(bits: int, count_lo: int, count_hi: int) -> np.ndarray:
    """Rows count_lo..count_hi-1 of the +-1 matrix indexed by bit patterns (0 -> +1)."""
    c = np.arange(count_lo, count_hi, dtype=np.int64)[:, None]
    b = (c >> np.arange(bits, dtype=np.int64)[None, :]) & 1
    return (1 - 2 * b).astype(np.float32)


def _eval_colorings(signs: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """Per-row max |progression sum| (>= 1 floor from singletons)."""
    if inc.shape[1] == 0:
        return np.ones(signs.shape[0], dtype=np.int64)
    sums = signs @ inc
    return np.maximum(np.abs(sums).max(axis=1).astype(np.int64), 1)


def _exhaustive(ctx: ZnContext) -> ExactResult:
    n = ctx.n
    aps = ap_index_arrays(ctx, min_len=2)
    inc = np.zeros((n, len(aps)), dtype=np.float32)
    for j, A in enumerate(aps):
        inc[A, j] = 1.0
    best = n + 1
    best_row = None
    total = 1 << (n - 1)
    nodes = 0
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        signs = np.hstack([np.ones((hi - lo, 1), dtype=np.float32),
                           _sign_matrix(n - 1, lo, hi)])
        vals = _eval_colorings(signs, inc)
        nodes += hi - lo
        k = int(np.argmin(vals))
        if vals[k] < best:
            best = int(vals[k])
            best_row = signs[k].astype(np.int8)
        if best == 1:
            break
    return ExactResult(n=n, value=best, optimal_coloring=Coloring(n, best_row),
                       nodes_explored=nodes, method="exhaustive")


class _BBState:
    """Shared progression bookkeeping for one branch-and-bound run."""

    def __init__(self, ctx: ZnContext):
        self.n = ctx.n
        self.aps = ap_index_arrays(ctx, min_len=2)
        self.incident = [[] for _ in range(self.n)]
        for j, A in enumerate(self.aps):
            for x in A:
                self.incident[int(x)].append(j)
        self.incident = [np.array(ids, dtype=np.int64) for ids in self.incident]
        self.lengths = np.array([A.size for A in self.aps], dtype=np.int64)


def _bb_search(state: _BBState, incumbent: int) -> tuple[int, int]:
    """Exact minimum below the incumbent over colorings with chi(0) = +1 (the
    incumbent itself if none is lower), and the number of nodes explored."""
    n = state.n
    sums = np.zeros(len(state.aps), dtype=np.int64)
    unassigned = state.lengths.copy()
    best = incumbent
    nodes = 0

    def apply(x: int, sg: int) -> None:
        ids = state.incident[x]
        sums[ids] += sg
        unassigned[ids] -= 1

    def undo(x: int, sg: int) -> None:
        ids = state.incident[x]
        sums[ids] -= sg
        unassigned[ids] += 1

    def dfs(x: int) -> None:
        nonlocal best, nodes
        if best <= 1:
            return
        if x == n:
            best = min(best, max(1, int(np.abs(sums).max()) if sums.size else 0))
            return
        ids = state.incident[x]
        vote = int(np.sign(sums[ids]).sum()) if ids.size else 0
        first = -1 if vote > 0 else 1
        for sg in (first, -first):
            nodes += 1
            apply(x, sg)
            if not np.any(np.abs(sums[ids]) - unassigned[ids] >= best):
                dfs(x + 1)
            undo(x, sg)

    apply(0, 1)
    dfs(1)
    return best, nodes


def _first_coloring_at(state: _BBState, value: int) -> np.ndarray:
    """Lexicographically first full coloring (chi(0)=+1, +1 before -1) with
    max |progression sum| <= value; used to pin a deterministic witness."""
    n = state.n
    sums = np.zeros(len(state.aps), dtype=np.int64)
    unassigned = state.lengths.copy()
    chi = np.zeros(n, dtype=np.int8)

    def dfs(x: int) -> bool:
        if x == n:
            return not sums.size or int(np.abs(sums).max()) <= value
        ids = state.incident[x]
        choices = (1,) if x == 0 else (1, -1)
        for sg in choices:
            sums[ids] += sg
            unassigned[ids] -= 1
            chi[x] = sg
            if not np.any(np.abs(sums[ids]) - unassigned[ids] > value) and dfs(x + 1):
                return True
            sums[ids] -= sg
            unassigned[ids] += 1
            chi[x] = 0
        return False

    if not dfs(0):
        raise AssertionError("witness reconstruction failed")
    return chi


def _alternating_value(ctx: ZnContext) -> tuple[int, np.ndarray]:
    n = ctx.n
    alt = np.where(np.arange(n) % 2 == 0, 1, -1).astype(np.int8)
    t, _ = max_ap_discrepancy(Coloring(n, alt))
    return max(1, t), alt


def _branch_and_bound(ctx: ZnContext) -> ExactResult:
    n = ctx.n
    if n == 1:
        return ExactResult(1, 1, Coloring(1, np.array([1], dtype=np.int8)), 1,
                           "branch_and_bound")
    state = _BBState(ctx)
    heuristic, _ = _alternating_value(ctx)
    best, nodes = _bb_search(state, heuristic + 1)
    value = min(best, heuristic)
    witness = _first_coloring_at(state, value)
    return ExactResult(n=n, value=value, optimal_coloring=Coloring(n, witness),
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
    if method == "exhaustive":
        return _exhaustive(ctx)
    return _branch_and_bound(ctx)


def exact_herdisc(ctx: ZnContext, limit: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Exact hereditary discrepancy: max over subsets X of the restricted disc."""
    n = ctx.n
    cap = limit if limit is not None else HERDISC_LIMIT
    if n > cap:
        raise LimitExceeded(f"n={n} exceeds limit {cap} for herdisc")
    masks = set()
    for t in enumerate_aps(ctx):
        masks.add(sum(1 << x for x in t))
    ap_masks = np.array(sorted(masks), dtype=np.int64)
    sign_cache: dict[int, np.ndarray] = {}
    best, best_x = 0, ()
    for X in range(1, 1 << n):
        elems = np.array([i for i in range(n) if X >> i & 1], dtype=np.int64)
        mx = elems.size
        restricted = np.unique(ap_masks & X)
        restricted = restricted[restricted != 0]
        inc = ((restricted[:, None] >> elems[None, :]) & 1).astype(np.float32).T
        if mx not in sign_cache:
            sign_cache[mx] = np.hstack([
                np.ones((1 << (mx - 1), 1), dtype=np.float32),
                _sign_matrix(mx - 1, 0, 1 << (mx - 1)),
            ])
        sums = sign_cache[mx] @ inc
        disc_x = int(np.abs(sums).max(axis=1).min())
        if disc_x > best:
            best = disc_x
            best_x = tuple(int(e) for e in elems)
    return best, best_x


def measure(chi: Coloring, ctx: ZnContext | None = None, *,
            period: int | None = None) -> dict:
    """Serializable summary: max progression sum with witness, per-divisor
    class-sum maxima, and the total sum.  ``period`` goes to
    ``max_ap_discrepancy``."""
    ctx = ctx if ctx is not None else make_context(chi.n)
    if ctx.n != chi.n:
        raise ValueError(f"context is for n={ctx.n}, coloring for n={chi.n}")
    t, witness = max_ap_discrepancy(chi, period=period)
    v = chi.values.astype(np.int64)
    per_divisor = {
        str(r): int(np.abs(congruence_class_sums(v, r)).max()) for r in ctx.divisors
    }
    return {
        "n": chi.n,
        "T": int(t),
        "witness": {"a": witness.a, "d": witness.d, "length": witness.length},
        "congruence_max": max(per_divisor.values()),
        "congruence_by_divisor": per_divisor,
        "total_sum": int(v.sum()),
    }
