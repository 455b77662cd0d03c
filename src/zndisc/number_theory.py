"""Exact integer arithmetic over Z_n: factorization, divisors, totient, CRT basis.

Everything here is deterministic pure-integer math on desk-scale moduli.
Throughout the package gcd(0, n) = n, which is already ``math.gcd``'s
convention.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "N_LIMIT",
    "LimitExceeded",
    "ZnContext",
    "factorize",
    "divisors_from_factors",
    "totient",
    "make_context",
]

# Trial division up to sqrt(n) stays fast well past this.
N_LIMIT = 1 << 41


class LimitExceeded(ValueError):
    """A request is past a configured size limit (search size or memory)."""


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, primes ascending."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    out: list[tuple[int, int]] = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def divisors_from_factors(factors: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    divs = [1]
    for p, e in factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def totient(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


@dataclass(frozen=True)
class ZnContext:
    """A modulus n with its factorization, divisor list, and multiplicative invariants.

    ``divisor_phi`` holds phi(r) for each r in ``divisors``, in the same order.
    ``crt_basis`` holds e_i with e_i = 1 mod p_i^{a_i} (the i-th factor) and
    e_i = 0 mod the other prime powers, so combining residues is a dot product
    mod n.
    """

    n: int
    factors: tuple[tuple[int, int], ...]
    divisors: tuple[int, ...]
    divisor_phi: tuple[int, ...]
    phi: int
    omega: int
    d: int
    crt_basis: tuple[int, ...]

    def omega_of_divisor(self, r: int) -> int:
        """Number of distinct primes of n dividing r (equals omega(r) for r | n)."""
        if r < 1 or self.n % r != 0:
            raise ValueError(f"{r} does not divide {self.n}")
        return sum(1 for p, _ in self.factors if r % p == 0)


def make_context(n: int) -> ZnContext:
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > N_LIMIT:
        raise ValueError(f"n exceeds the supported limit {N_LIMIT}")
    factors = factorize(n)
    divisors = divisors_from_factors(factors)
    divisor_phi = []
    for r in divisors:
        phi = r
        for p, _ in factors:
            if r % p == 0:
                phi = phi // p * (p - 1)
        divisor_phi.append(phi)
    d = 1
    for _, e in factors:
        d *= e + 1
    basis = []
    for p, e in factors:
        m = n // p**e
        basis.append(m * pow(m, -1, p**e) % n)
    return ZnContext(
        n=n,
        factors=factors,
        divisors=divisors,
        divisor_phi=tuple(divisor_phi),
        phi=divisor_phi[-1],
        omega=len(factors),
        d=d,
        crt_basis=tuple(basis),
    )
