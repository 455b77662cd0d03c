"""Correctness checks for the benchmark's outputs, written apart from zndisc.

Nothing here imports the package under test: progressions, class sums,
divisors, the r* rule and the exact optima are recomputed from their
definitions with numpy and the standard library.  Each check records a named
failure in a ``Report`` instead of raising, so the fault self-test can see
exactly which checks a planted fault trips.
"""

from __future__ import annotations

import functools
import math

import numpy as np

RANDOM_PROGRESSIONS = 4000


class Report:
    """Named check failures collected over one run."""

    def __init__(self):
        self.failures: list[tuple[str, str]] = []

    def require(self, check: str, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append((check, message))
        return bool(ok)

    def failed(self) -> set[str]:
        return {check for check, _ in self.failures}

    @property
    def ok(self) -> bool:
        return not self.failures


# --- number theory, from the definitions -------------------------------------

def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small) | {n // d for d in small})


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def upper_bound(n: int, c_hat: float = 1.0) -> tuple[float, int]:
    """min over r | n of n/r + c_hat*sqrt(r)*2^omega(r), with the first minimizing r."""
    best = None
    for r in divisors(n):
        val = n / r + c_hat * math.sqrt(r) * 2 ** len(prime_factors(r))
        if best is None or val < best[0]:
            best = (val, r)
    return best


# --- progressions and class sums ---------------------------------------------

def progression(n: int, a: int, d: int, length: int) -> np.ndarray | None:
    """Elements a, a+d, ..., a+(length-1)d mod n, or None if they repeat."""
    if length < 1 or length > n // math.gcd(d % n, n):
        return None
    return (a + np.arange(length, dtype=np.int64) * d) % n


def class_sums(values: np.ndarray, r: int) -> np.ndarray:
    """Sum of values over {x : x = w mod r} for w = 0..r-1 (r | n)."""
    return values.astype(np.int64).reshape(-1, r).sum(axis=0)


def max_ap_sum_naive(values) -> int:
    """max |sum| over every (start, step, length) progression; O(n^3), small n only."""
    v = np.asarray(values, dtype=np.int64)
    n = v.size
    best = 0
    for d in range(n):
        L = n // math.gcd(d, n)
        idx = (np.arange(n)[:, None] + np.arange(L)[None, :] * d) % n
        best = max(best, int(np.abs(np.cumsum(v[idx], axis=1)).max()))
    return best


def _progression_masks(n: int) -> set[int]:
    """Every nonempty progression of Z_n as a bitmask of its elements."""
    masks = set()
    for d in range(n):
        L = n // math.gcd(d, n)
        for a in range(n):
            mask = 0
            for k in range(L):
                mask |= 1 << (a + k * d) % n
                masks.add(mask)
    return masks


def _min_max_sum(points: list[int], masks) -> int:
    """min over signings of the points (first fixed +1) of max |sum| over the sets."""
    m = len(points)
    inc = np.array([[mask >> x & 1 for mask in masks] for x in points], dtype=np.int64)
    codes = np.arange(1 << (m - 1), dtype=np.int64)[:, None]
    bits = (codes >> np.arange(m - 1, dtype=np.int64)[None, :]) & 1
    signs = np.hstack([np.ones((codes.shape[0], 1), dtype=np.int64), 1 - 2 * bits])
    return int(np.abs(signs @ inc).max(axis=1).min())


def naive_exact_disc(n: int) -> int:
    """Exact disc of Z_n by enumerating every coloring and every progression."""
    return _min_max_sum(list(range(n)), sorted(_progression_masks(n)))


def naive_restricted_disc(n: int, subset, masks=None) -> int:
    """Disc of the progressions of Z_n restricted to a subset of points."""
    within = sum(1 << x for x in subset)
    masks = _progression_masks(n) if masks is None else masks
    restricted = sorted({mask & within for mask in masks} - {0})
    return _min_max_sum(sorted(subset), restricted)


@functools.cache
def naive_herdisc(n: int) -> int:
    masks = _progression_masks(n)
    return max(
        naive_restricted_disc(n, [x for x in range(n) if sub >> x & 1], masks)
        for sub in range(1, 1 << n)
    )


# --- checks on program outputs -----------------------------------------------

def check_full(rep: Report, values, n: int, where: str) -> bool:
    v = np.asarray(values)
    return rep.require(
        "full_pm1", v.shape == (n,) and bool(np.all(np.abs(v) == 1)),
        f"{where}: coloring is not a full +-1 vector of length {n}",
    )


def random_progression_max(values: np.ndarray, rng: np.random.Generator) -> int:
    """Largest |sum| over RANDOM_PROGRESSIONS random progressions."""
    n = values.size
    v = values.astype(np.int64)
    a = rng.integers(0, n, RANDOM_PROGRESSIONS)
    d = rng.integers(0, n, RANDOM_PROGRESSIONS)
    orbit = n // np.gcd(d, n)
    length = 1 + (rng.random(RANDOM_PROGRESSIONS) * orbit).astype(np.int64)
    best = 0
    for ai, di, li in zip(a.tolist(), d.tolist(), length.tolist()):
        best = max(best, abs(int(v[progression(n, ai, di, li)].sum())))
    return best


def check_construct(rep: Report, rec: dict, seed: int) -> None:
    """One `zndisc construct` result (its JSON ``results[0]``)."""
    n = rec["n"]
    where = f"construct n={n}"
    if not check_full(rep, rec["coloring"], n, where):
        return
    v = np.asarray(rec["coloring"], dtype=np.int64)
    t = rec["measured_t"]
    m = rec["measure"]
    rep.require("reported_t", m["T"] == t, f"{where}: measure.T {m['T']} != measured_t {t}")
    w = m["witness"]
    elems = progression(n, w["a"], w["d"], w["length"])
    rep.require(
        "witness_sum", elems is not None and abs(int(v[elems].sum())) == t,
        f"{where}: witness {w} does not attain T={t}",
    )
    rng = np.random.default_rng([seed, n])
    sampled = random_progression_max(v, rng)
    rep.require("random_progressions", sampled <= t,
                f"{where}: a random progression sums to {sampled} > T={t}")
    by_div = {str(r): int(np.abs(class_sums(v, r)).max()) for r in divisors(n)}
    rep.require("congruence_floor", t >= max(by_div.values()),
                f"{where}: T={t} is below a congruence-class sum {max(by_div.values())}")
    rep.require(
        "measure_tables",
        m["congruence_by_divisor"] == by_div and m["total_sum"] == int(v.sum())
        and m["congruence_max"] == max(by_div.values()),
        f"{where}: reported class sums or total differ from a recount",
    )
    value, r_star = upper_bound(n, rec["c_hat"])
    rep.require(
        "r_star", rec["r_star"] == r_star and math.isclose(rec["predicted"], value, rel_tol=1e-12),
        f"{where}: r*={rec['r_star']} predicted={rec['predicted']}, expected r*={r_star} "
        f"predicted={value}",
    )
    r = rec["r_star"]
    base = v[:r] if r >= 1 and n % r == 0 else None
    base_max = None
    if base is not None and np.array_equal(v, np.tile(base, n // r)):
        base_max = max(int(np.abs(class_sums(base, q)).max()) for q in divisors(r))
    rep.require(
        "base_balanced", base_max is not None and base_max <= 1
        and rec["base_congruence_max"] == base_max,
        f"{where}: base coloring of Z_{r} is not a balanced period "
        f"(class max {base_max}, reported {rec['base_congruence_max']})",
    )


def check_exact(rep: Report, n: int, value: int, coloring, where: str) -> None:
    """An exact optimum: its witness is full and attains exactly the value."""
    if check_full(rep, coloring, n, where):
        t = max_ap_sum_naive(coloring)
        rep.require("exact_witness", t == value,
                    f"{where}: witness discrepancy {t} != reported value {value}")


def check_exact_small(rep: Report, values: dict[tuple[str, int], int]) -> None:
    """Program optima at small n against full enumeration."""
    truth: dict[int, int] = {}
    for (method, n), value in sorted(values.items()):
        if n not in truth:
            truth[n] = naive_exact_disc(n)
        rep.require("exact_vs_naive", value == truth[n],
                    f"exact_disc n={n} {method} = {value}, enumeration gives {truth[n]}")


def check_herdisc(rep: Report, n: int, value: int, subset, truth: int) -> None:
    rep.require("herdisc", value == truth,
                f"exact_herdisc n={n} = {value}, enumeration gives {truth}")
    rep.require("herdisc_witness", naive_restricted_disc(n, subset) == value,
                f"exact_herdisc n={n}: witness subset {subset} does not attain {value}")


def fourier_expected(n: int, trials: int) -> dict[str, int]:
    """Checks `fourier-check` runs per identity: 2*trials functions, each with
    d(n) Plancherel checks and, for every m in 1..n, four checks plus one
    Mobius inequality per divisor."""
    d = len(divisors(n))
    per = 2 * trials
    return {
        "subgroup_plancherel": per * d,
        "rhs_lower": per * n,
        "lhs_upper": per * n,
        "mobius_identity": per * n,
        "composite_lower": per * n,
        "mobius_inequality": per * n * d,
    }


def check_fourier(rep: Report, n: int, trials: int, code: int, payload: dict | None) -> None:
    where = f"fourier-check n={n}"
    rep.require("fourier_exit", code == 0, f"{where}: exit code {code}")
    rows = {row["identity"]: row for row in (payload or {}).get("results", [])}
    expected = fourier_expected(n, trials)
    counts = {k: rows[k]["checks"] for k in rows}
    rep.require("fourier_counts", counts == expected
                and sum(counts.values()) == 2 * trials * (
                    len(divisors(n)) + n * (4 + len(divisors(n)))),
                f"{where}: check counts {counts}, expected {expected}")
    rep.require("fourier_passes", all(r["passes"] == r["checks"] for r in rows.values()),
                f"{where}: some checks failed: {rows}")


def check_t_values(rep: Report, functions, ts) -> None:
    for f, t in zip(functions, ts):
        truth = max_ap_sum_naive(f)
        rep.require("fourier_t", t == truth,
                    f"T of a +-1 function at n={len(f)} is {t}, enumeration gives {truth}")
