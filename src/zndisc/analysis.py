"""Fourier analysis on Z_n and the closed-form discrepancy bound evaluators.

The transform convention is fhat(r) = sum_x f(x) exp(-2*pi*i*x*r/n), which is
exactly numpy's forward FFT; a direct O(n^2) evaluator is kept alongside as a
cross-check.  The identity and inequality checkers below all revolve around
the weighted double sum sum_{a,b} |f(a + b*M)|^2 for the initial segment
M = {0, ..., m-1}: it is bounded below by a gcd-weighted spectral sum and
above by progression discrepancy plus congruence-class power, and comparing
the two yields lower bounds on the discrepancy that depend only on the
divisor structure of n.

Equalities are checked to relative 1e-8; inequalities get an absolute floor
of 1e-6 at the n^2 m^2 scale on top.  Class-sum tables for integer colorings
are computed in exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ap_system import Coloring, max_ap_discrepancy, max_ap_sum_complex
from .number_theory import ZnContext, make_context

__all__ = [
    "Spectrum",
    "CheckResult",
    "BoundReport",
    "REL_TOL",
    "dft",
    "dft_direct",
    "class_sums",
    "class_power",
    "class_power_table",
    "check_subgroup_plancherel",
    "weighted_lhs",
    "weighted_lhs_all_m",
    "weighted_lhs_spectral",
    "verify_rhs_lower",
    "verify_lhs_upper",
    "mobius_identity_check",
    "mobius_inequality_check",
    "composite_lower_check",
    "max_progression_sum",
    "lower_bound_prop",
    "lower_bound_main",
    "lower_bound_prime_power",
    "upper_bound_main",
    "hereditary_upper_bound",
]

REL_TOL = 1e-8
_ABS_COEFF = 1e-6
_DIRECT_DFT_LIMIT = 4096


@dataclass(frozen=True)
class Spectrum:
    """Fourier coefficients fhat(r) = sum_x f(x) e^{-2 pi i x r / n}."""

    n: int
    fhat: np.ndarray

    def power(self) -> np.ndarray:
        return np.abs(self.fhat) ** 2


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

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "kind": self.kind,
            "value": self.value,
            "witness": self.witness,
            "constants": self.constants,
        }


def _as_complex(f) -> np.ndarray:
    if isinstance(f, Coloring):
        f = f.values
    arr = np.asarray(f, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty 1-d array over Z_n")
    return arr


def dft(f) -> Spectrum:
    """Fourier transform via the FFT (matches the direct definition to 1e-9)."""
    arr = _as_complex(f)
    return Spectrum(n=arr.size, fhat=np.fft.fft(arr))


def dft_direct(f) -> np.ndarray:
    """Definition-level O(n^2) transform, the cross-check for dft."""
    arr = _as_complex(f)
    n = arr.size
    if n > _DIRECT_DFT_LIMIT:
        raise ValueError(f"direct transform capped at n = {_DIRECT_DFT_LIMIT}")
    x = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(x, x) / n)
    return w @ arr


def class_sums(f, r: int) -> np.ndarray:
    """g_f(w, r) for all residues w, for a divisor r of n."""
    arr = f.values if isinstance(f, Coloring) else np.asarray(f)
    n = arr.shape[0]
    if r < 1 or n % r != 0:
        raise ValueError("r must divide n")
    if np.issubdtype(arr.dtype, np.integer):
        arr = arr.astype(np.int64)
    return arr.reshape(n // r, r).sum(axis=0)


def class_power(f, r: int):
    """G_f(r) = sum_w |g_f(w, r)|^2; exact integer for integer input."""
    g = class_sums(f, r)
    if np.issubdtype(g.dtype, np.integer):
        return int((g * g).sum())
    return float((np.abs(g) ** 2).sum())


def class_power_table(f, ctx: ZnContext) -> dict[int, float]:
    return {r: class_power(f, r) for r in ctx.divisors}


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


def weighted_lhs(f, m: int) -> float:
    """Direct double sum over a, b of |sum_{k<m} f(a + b*k)|^2."""
    arr = _as_complex(f)
    n = arr.size
    if not 1 <= m <= n:
        raise ValueError("m must lie in [1, n]")
    a = np.arange(n, dtype=np.int64)[:, None]
    k = np.arange(m, dtype=np.int64)[None, :]
    total = 0.0
    for b in range(n):
        inner = arr[(a + b * k) % n].sum(axis=1)
        total += float((np.abs(inner) ** 2).sum())
    return total


def weighted_lhs_all_m(f) -> np.ndarray:
    """weighted_lhs for every m = 1..n at once (cumulative inner sums per b)."""
    arr = _as_complex(f)
    n = arr.size
    a = np.arange(n, dtype=np.int64)[:, None]
    k = np.arange(n, dtype=np.int64)[None, :]
    out = np.zeros(n, dtype=np.float64)
    for b in range(n):
        partial = np.cumsum(arr[(a + b * k) % n], axis=1)
        out += (np.abs(partial) ** 2).sum(axis=0)
    return out


def weighted_lhs_spectral(f, m: int, fhat: np.ndarray | None = None) -> float:
    """Independent spectral route: convolve with the segment indicator per b
    and add the spectral energies."""
    arr = _as_complex(f)
    n = arr.size
    if not 1 <= m <= n:
        raise ValueError("m must lie in [1, n]")
    if fhat is None:
        fhat = np.fft.fft(arr)
    indicator = np.zeros(n, dtype=np.complex128)
    indicator[(-np.arange(m)) % n] += 1.0
    w = np.abs(np.fft.fft(indicator)) ** 2
    power = np.abs(fhat) ** 2
    total = 0.0
    for b in range(n):
        total += float((power * w[(b * np.arange(n)) % n]).sum())
    return total / n


def _gcd_weights(n: int) -> np.ndarray:
    """gcd(r, n) for r = 0..n-1, with gcd(0, n) = n."""
    return np.gcd(np.arange(n, dtype=np.int64), n)


def _ineq_tol(n: int, m: int) -> float:
    return _ABS_COEFF * (n * m) ** 2


def verify_rhs_lower(f, m: int, fhat: np.ndarray | None = None) -> CheckResult:
    """Lower bound on the double sum by the gcd-weighted spectral sum:
    sum_{a,b} |f(a+bM)|^2 >= sum_r |fhat(r)|^2 max(m^2 gcd(r,n)/n, m)."""
    arr = _as_complex(f)
    n = arr.size
    if fhat is None:
        fhat = np.fft.fft(arr)
    lhs = weighted_lhs(arr, m)
    weights = np.maximum(m * m * _gcd_weights(n) / n, m)
    rhs = float((np.abs(fhat) ** 2 * weights).sum())
    tol = _ineq_tol(n, m)
    passed = lhs >= rhs - tol
    err = (rhs - lhs) / max(1.0, abs(lhs), abs(rhs))
    return CheckResult("rhs_lower", lhs, rhs, bool(passed), err)


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


def verify_lhs_upper(f, m: int, t_f: float | None = None,
                     ctx: ZnContext | None = None) -> CheckResult:
    """Upper bound on the double sum by discrepancy plus class power:
    sum_{a,b} |f(a+bM)|^2 <= n^2 T_f^2 + sum_{1<=k<m, k|n} m^2 (phi(k)/k) G_f(n/k)."""
    arr = _as_complex(f)
    n = arr.size
    ctx = ctx if ctx is not None else make_context(n)
    if t_f is None:
        t_f = max_progression_sum(f)
    lhs = weighted_lhs(arr, m)
    rhs = n * n * t_f * t_f
    for k, phi_k in zip(ctx.divisors, ctx.divisor_phi):
        if 1 <= k < m:
            rhs += m * m * phi_k / k * class_power(arr, n // k)
    tol = _ineq_tol(n, m)
    passed = lhs <= rhs + tol
    err = (lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return CheckResult("lhs_upper", lhs, float(rhs), bool(passed), err)


def mobius_identity_check(f, m: int, fhat: np.ndarray | None = None,
                          ctx: ZnContext | None = None) -> CheckResult:
    """Divisor identity: sum_{k|n} m^2 (phi(k)/k) G_f(n/k)
    = sum_r |fhat(r)|^2 m^2 gcd(r,n)/n."""
    arr = _as_complex(f)
    n = arr.size
    ctx = ctx if ctx is not None else make_context(n)
    if fhat is None:
        fhat = np.fft.fft(arr)
    lhs = sum(m * m * phi_k / k * class_power(arr, n // k)
              for k, phi_k in zip(ctx.divisors, ctx.divisor_phi))
    rhs = float((np.abs(fhat) ** 2 * (m * m * _gcd_weights(n) / n)).sum())
    scale = max(1.0, abs(lhs), abs(rhs))
    err = abs(lhs - rhs) / scale
    return CheckResult("mobius_identity", float(lhs), rhs, err <= REL_TOL, err)


def mobius_inequality_check(f, m: int, l: int, fhat: np.ndarray | None = None,
                            ctx: ZnContext | None = None) -> CheckResult:
    """Truncated divisor bound: sum_r |fhat(r)|^2 min(m^2 gcd(r,n)/n, m)
    <= sum_{k<=l, k|n} m^2 (phi(k)/k) G_f(n/k) + sum_{k>l, k|n} (m n/k) G_f(n/k)."""
    arr = _as_complex(f)
    n = arr.size
    if not 1 <= l <= n:
        raise ValueError("l must lie in [1, n]")
    ctx = ctx if ctx is not None else make_context(n)
    if fhat is None:
        fhat = np.fft.fft(arr)
    weights = np.minimum(m * m * _gcd_weights(n) / n, m)
    lhs = float((np.abs(fhat) ** 2 * weights).sum())
    rhs = 0.0
    for k, phi_k in zip(ctx.divisors, ctx.divisor_phi):
        G = class_power(arr, n // k)
        if k <= l:
            rhs += m * m * phi_k / k * G
        else:
            rhs += m * n / k * G
    tol = _ineq_tol(n, m)
    passed = lhs <= rhs + tol
    err = (lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return CheckResult("mobius_inequality", lhs, float(rhs), bool(passed), err)


def composite_lower_check(f, m: int, fhat: np.ndarray | None = None,
                          t_f: float | None = None,
                          ctx: ZnContext | None = None) -> CheckResult:
    """Combined bound: n^2 T_f^2 + sum_{1<=k<m, k|n} m^2 (phi(k)/k) G_f(n/k)
    >= sum_r |fhat(r)|^2 max(m^2 gcd(r,n)/n, m)."""
    arr = _as_complex(f)
    n = arr.size
    ctx = ctx if ctx is not None else make_context(n)
    if fhat is None:
        fhat = np.fft.fft(arr)
    if t_f is None:
        t_f = max_progression_sum(f)
    lhs = n * n * t_f * t_f
    for k, phi_k in zip(ctx.divisors, ctx.divisor_phi):
        if 1 <= k < m:
            lhs += m * m * phi_k / k * class_power(arr, n // k)
    weights = np.maximum(m * m * _gcd_weights(n) / n, m)
    rhs = float((np.abs(fhat) ** 2 * weights).sum())
    tol = _ineq_tol(n, m)
    passed = lhs >= rhs - tol
    err = (rhs - lhs) / max(1.0, abs(lhs), abs(rhs))
    return CheckResult("composite_lower", float(lhs), rhs, bool(passed), err)


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
    best_r, best_val = None, None
    for r in ctx.divisors:
        val = n / r + math.sqrt(r)
        if best_val is None or val < best_val:
            best_r, best_val = r, val
    # threshold split at n^(2/3), compared exactly via r^3 vs n^2
    t1 = min(r for r in ctx.divisors if r**3 >= n**2)
    below = [r for r in ctx.divisors if r**3 < n**2]
    t2 = max(below) if below else None
    return BoundReport(
        n=n, kind="lower_main", value=best_val / (8.0 * math.sqrt(ctx.d)),
        witness={"r": best_r, "t1": t1, "t2": t2},
        constants={},
    )


def lower_bound_prime_power(p: int, k: int) -> BoundReport:
    """Prime-power lower bound: disc(Z_{p^k}) >= p^{(k - floor(k/3))/2} / 4."""
    from .number_theory import factorize

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
    if c_hat <= 0:
        raise ValueError("c_hat must be positive")
    n = ctx.n
    best_r, best_val = None, None
    for r in ctx.divisors:
        val = n / r + c_hat * math.sqrt(r) * 2 ** ctx.omega_of_divisor(r)
        if best_val is None or val < best_val:
            best_r, best_val = r, val
    return BoundReport(
        n=n, kind="upper_main", value=best_val,
        witness={"r": best_r},
        constants={"c_hat": c_hat},
    )


def hereditary_upper_bound(ctx: ZnContext, c_hat: float = 1.0) -> BoundReport:
    """Subset-uniform upper bound: c_hat * phi(n)^(1/2) * log(e n / phi(n))^(3/2)."""
    if c_hat <= 0:
        raise ValueError("c_hat must be positive")
    n = ctx.n
    value = c_hat * math.sqrt(ctx.phi) * math.log(math.e * n / ctx.phi) ** 1.5
    return BoundReport(
        n=n, kind="hereditary_upper", value=value,
        witness={"phi": ctx.phi},
        constants={"c_hat": c_hat},
    )
