"""Deterministic low-discrepancy colorings of Z_n and its subsets.

The key trick is sign-flipped doubling: color half of a suitably-shaped set,
copy the colors to the translated other half with flipped signs, and entire
congruence classes cancel exactly.  Stitching such pieces over the divisor
lattice yields a full coloring of Z_n whose class sums never exceed 1 in
magnitude, and pulling a coloring back along the quotient map Z_n -> Z_r
trades progression discrepancy against class discrepancy.

The box halves are colored by the randomized engine; all the exact
cancellation statements hold regardless of what the engine returns, because
they depend only on the sign-flip structure.  An odd prime p is colored by
its quadratic character instead, with no engine request, so the seed has no
effect there: its progression sums are below what the engine finds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .analysis import upper_bound_main
from .ap_system import Coloring, _as_subset, max_congruence_discrepancy
from .engine import SearchFailed, _derived_seed, full_color_iterate
from .exact import measure
from .number_theory import LimitExceeded, ZnContext, make_context

__all__ = [
    "CONSTRUCT_N_LIMIT",
    "CrtBox",
    "ConstructionReport",
    "lift_coloring",
    "crt_box_coloring",
    "congruence_balanced_coloring",
    "construct_best_coloring",
    "hereditary_coloring",
]

# construct_best_coloring refuses an n past this before it colors anything:
# coloring Z_{r*}, the lift and its measure hold about 105 bytes a point at
# their peak (857 MB at n = 8 388 593), so every n it takes stays under 1 GiB
CONSTRUCT_N_LIMIT = 1 << 23


@dataclass(frozen=True)
class CrtBox:
    """Residue box X = {psi(t_1, ..., t_k) : 0 <= t_i < T_i}, 1 <= T_i <= p_i^{alpha_i}.

    Every even extent T_i takes the sign flip: X is its half box (T_i/2 along
    each even coordinate) and the sign-flipped copies translated by T_i/2 along
    them.
    """

    ctx: ZnContext
    extents: tuple[int, ...]

    def __post_init__(self):
        facs = self.ctx.factors
        if len(self.extents) != len(facs):
            raise ValueError("one extent per prime-power factor required")
        for t, (p, e) in zip(self.extents, facs):
            if not 1 <= t <= p**e:
                raise ValueError(f"extent {t} out of range for {p}^{e}")

    def cancellation_moduli(self) -> tuple[int, ...]:
        """Class moduli r_i = n / p_i^{alpha_i - b_i} whose sums vanish on X, one
        per even extent T_i, with b_i the largest b such that T_i / p_i^b is
        even (so p_i^{b_i} divides the half extent T_i/2).  A smaller b_i
        would give a divisor of r_i, whose classes are unions of r_i's."""
        out = []
        for t, (p, e) in zip(self.extents, self.ctx.factors):
            if t % 2:
                continue
            b = 0
            while t % p == 0 and (t // p) % 2 == 0:
                t //= p
                b += 1
            out.append(self.ctx.n // p ** (e - b))
        return tuple(out)


@dataclass(frozen=True)
class ConstructionReport:
    """What a top-level construction run chose, predicted, and measured;
    ``measure`` is ``exact.measure`` of the lifted coloring."""

    n: int
    r_star: int
    predicted: float
    measured_t: int
    measure: dict = field(hash=False)
    base_congruence_max: int
    c_hat: float
    seed: int


def _box_elements(ctx: ZnContext, extents) -> np.ndarray:
    """Sorted elements psi(t_1, ..., t_k), 0 <= t_i < extent_i."""
    x = np.zeros(1, dtype=np.int64)
    for basis, t in zip(ctx.crt_basis, extents):
        x = (x[:, None] + basis * np.arange(t, dtype=np.int64)[None, :]).reshape(-1)
        x %= ctx.n
    return np.sort(x)


def _normalized(n: int, values: np.ndarray) -> Coloring:
    """Global sign flip so the first colored point is +1 (chi and -chi are equivalent)."""
    sup = np.flatnonzero(values)
    if sup.size and values[sup[0]] < 0:
        values = -values
    return Coloring(n, values)


def lift_coloring(base: Coloring, n: int) -> Coloring:
    """Pull a full coloring of Z_r back along the quotient Z_n -> Z_r."""
    r = base.n
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n % r != 0:
        raise ValueError("r must divide n")
    if not base.is_full():
        raise ValueError("lifting expects a full coloring")
    return Coloring(n, np.tile(base.values, n // r))


def crt_box_coloring(box: CrtBox, seed: int = 0) -> Coloring:
    """Color a residue box by sign-flipped doubling across its even extents.

    The half box X_0 (T_i/2 along each even extent T_i) is engine-colored; for
    each corner v in {0, 1}^(even coordinates) the copy u_v + X_0 carries
    (-1)^(sum v) times those colors, where u_v = sum v_i (T_i/2) e_i mod n
    (e_i the CRT basis element of factor i).  For every modulus r of
    ``box.cancellation_moduli()`` and every w, the class sum over C(r, w) ∩ X
    is exactly 0: the copies pair up inside each class with opposite signs.
    """
    ctx = box.ctx
    n = ctx.n
    half = [t // 2 if t % 2 == 0 else t for t in box.extents]
    shifts = [h * basis for t, h, basis in zip(box.extents, half, ctx.crt_basis)
              if t % 2 == 0]
    x0 = _box_elements(ctx, half)
    chi0, _ = full_color_iterate(ctx, x0, kind="main", seed=seed)
    values = np.zeros(n, dtype=np.int8)
    for v in itertools.product((0, 1), repeat=len(shifts)):
        u = sum(vi * s for vi, s in zip(v, shifts)) % n
        values[(x0 + u) % n] = (-1) ** sum(v) * chi0.values[x0]
    return _normalized(n, values)


def _balanced_cells(ctx: ZnContext):
    """The divisor-indexed partition of Z_n into translated residue boxes.

    Yields (r, box, shift), divisors r ascending: the cell of r is
    (box elements + shift) mod n.  Coordinate i is cut into intervals by the
    exponent delta_i of p_i in r: for p_i = 2 only delta_i = alpha_i survives
    (the whole coordinate); for odd p_i, delta_i = 0 is {0} and delta_i >= 1 is
    [p^(delta-1), p^delta).  The cell of r is the product of those intervals,
    pushed through the CRT map, and holds at most r points.
    """
    for r in ctx.divisors:
        extents = []
        shift = 0
        for (p, e), basis in zip(ctx.factors, ctx.crt_basis):
            delta = 0
            while r % p ** (delta + 1) == 0:
                delta += 1
            if p == 2 and delta != e:
                break
            start = 0 if p == 2 else p**delta // p
            extents.append(p**delta - start)
            shift += start * basis
        else:
            yield r, CrtBox(ctx, tuple(extents)), shift % ctx.n


def _legendre_coloring(p: int) -> Coloring:
    """The quadratic character (x/p) of an odd prime p, with 0 colored +1.

    Its only class sum is the total, +1, as the units hold as many residues as
    nonresidues; Polya-Vinogradov bounds every progression sum by
    O(sqrt(p) log p).
    """
    values = np.full(p, -1, dtype=np.int8)
    x = np.arange((p + 1) // 2, dtype=np.int64)
    values[x * x % p] = 1
    return Coloring(p, values)


def congruence_balanced_coloring(ctx: ZnContext, seed: int = 0) -> Coloring:
    """Full coloring of Z_n with every congruence-class sum in {-1, 0, +1}.

    Z_n is partitioned into one translated residue box per divisor r (cells of
    size at most r, ``_balanced_cells``); each cell is colored by
    crt_box_coloring.  The unit class-sum guarantee is structural: it
    survives any engine output.  An odd prime n is colored by its quadratic
    character instead (``_legendre_coloring``), whatever the seed.
    """
    n = ctx.n
    if n == 1:
        return Coloring(1, np.array([1], dtype=np.int8))
    if ctx.is_prime and n > 2:
        return _legendre_coloring(n)
    values = np.zeros(n, dtype=np.int8)
    for idx, (r, box, shift) in enumerate(_balanced_cells(ctx)):
        try:
            cell = crt_box_coloring(box, seed=_derived_seed(seed, idx))
        except SearchFailed as exc:
            raise SearchFailed(f"cell r={r}: {exc}", iteration=exc.iteration, cell=r) from exc
        sup = cell.support()
        values[(sup + shift) % n] = cell.values[sup]
    if np.any(values == 0):
        raise AssertionError("divisor cells failed to partition Z_n")
    return _normalized(n, values)


def construct_best_coloring(ctx: ZnContext, c_hat: float = 1.0, seed: int = 0,
                            ) -> tuple[Coloring, ConstructionReport]:
    """Best divisor-balanced coloring of Z_n: pick r* minimizing the predicted
    bound n/r + c_hat*sqrt(r)*2^omega(r) (``upper_bound_main``), color Z_{r*},
    and lift.

    The unit class-sum invariant belongs to the base coloring of Z_{r*};
    lifting preserves the progression bound, not the class bound.  Its least
    period is r* (mod s < r* a class sum would be +-r*/s), so ``measure``
    scans the lift on Z_{r*}.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    bound = upper_bound_main(ctx, c_hat)
    if ctx.n > CONSTRUCT_N_LIMIT:
        raise LimitExceeded(f"n={ctx.n} exceeds the construction limit {CONSTRUCT_N_LIMIT}")
    best_r = bound.witness["r"]
    base_ctx = make_context(best_r)
    base = congruence_balanced_coloring(base_ctx, seed=seed)
    chi = lift_coloring(base, ctx.n)
    summary = measure(chi)
    report = ConstructionReport(
        n=ctx.n, r_star=best_r, predicted=bound.value, measured_t=summary["T"], measure=summary,
        base_congruence_max=max_congruence_discrepancy(base),
        c_hat=c_hat, seed=seed,
    )
    return chi, report


def hereditary_coloring(ctx: ZnContext, xs, seed: int = 0) -> Coloring:
    """Full coloring of a subset X of Z_n, when the schedules' entropy
    conditions hold.

    Runs the totient-tuned schedule while more than phi(n) points remain
    uncolored, then finishes with the main schedule.  The hereditary
    schedule's entropy precondition can fail, whatever the seed, and then
    ``partial_color`` raises BudgetExceeded naming that schedule: X = Z_270
    is one such subset.
    """
    xs = _as_subset(ctx.n, xs)
    chi, _ = full_color_iterate(ctx, xs, kind="hereditary", seed=seed)
    return _normalized(ctx.n, chi.values.copy())
