import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zndisc.number_theory import (
    N_LIMIT,
    divisors_from_factors,
    factorize,
    make_context,
    totient,
)


def phi_sieve(limit):
    """Independent totient oracle: linear sieve."""
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    return phi


def test_context_examples():
    ctx = make_context(1)
    assert ctx.factors == ()
    assert ctx.divisors == (1,)
    assert (ctx.phi, ctx.omega, ctx.d) == (1, 0, 1)

    ctx = make_context(12)
    assert ctx.factors == ((2, 2), (3, 1))
    assert ctx.divisors == (1, 2, 3, 4, 6, 12)
    assert (ctx.phi, ctx.omega, ctx.d) == (4, 2, 6)

    ctx = make_context(9)
    assert ctx.factors == ((3, 2),)
    assert (ctx.phi, ctx.omega, ctx.d) == (6, 1, 3)


def test_context_rejects_bad_n():
    with pytest.raises(ValueError):
        make_context(0)
    with pytest.raises(ValueError):
        make_context(-5)
    with pytest.raises(ValueError):
        make_context(N_LIMIT + 1)


def test_context_invariants_sampled():
    phi = phi_sieve(3000)
    for n in range(1, 3000):
        ctx = make_context(n)
        prod = 1
        last_p = 0
        for p, e in ctx.factors:
            assert p > last_p and e >= 1
            assert factorize(p) == ((p, 1),)
            prod *= p**e
            last_p = p
        assert prod == n
        assert ctx.divisors[0] == 1 and ctx.divisors[-1] == n
        assert len(ctx.divisors) == ctx.d
        assert all(n % r == 0 for r in ctx.divisors)
        assert ctx.phi == phi[n]
        assert ctx.divisor_phi == tuple(int(phi[r]) for r in ctx.divisors)
        assert ctx.omega == len(ctx.factors)


def test_divisor_phi_sum_identity():
    # sum of phi over the divisors of n equals n
    for n in range(1, 10_001):
        facs = factorize(n)
        total = 0
        for r in divisors_from_factors(facs):
            total += totient(r)
        assert total == n


def crt_combine(ctx, residues):
    """Element of Z_n with residue t_i mod the i-th prime power: sum t_i e_i mod n."""
    return sum(t * e for t, e in zip(residues, ctx.crt_basis)) % ctx.n


def prime_power_factors(ctx):
    """The pairwise-coprime factors p_i^{a_i} of n, in ``ctx.factors`` order."""
    return tuple(p**e for p, e in ctx.factors)


def crt_split(ctx, x):
    return tuple(x % q for q in prime_power_factors(ctx))


def test_crt_examples():
    ctx6 = make_context(6)
    assert ctx6.crt_basis == (3, 4)
    assert crt_combine(ctx6, (1, 2)) == 5
    assert crt_split(ctx6, 5) == (1, 2)
    ctx12 = make_context(12)
    assert crt_combine(ctx12, (1, 2)) == 5
    assert crt_combine(ctx12, (0, 0)) == 0
    assert crt_split(ctx12, 0) == (0, 0)
    assert crt_split(make_context(9), 7) == (7,)


def test_crt_round_trips_all_n():
    # identity on Z_n and on the residue box, via the basis over whole arrays
    for n in range(1, 10_001):
        ctx = make_context(n)
        xs = np.arange(n, dtype=np.int64)
        res = crt_split(ctx, xs)
        back = crt_combine(ctx, res)
        if ctx.factors:
            assert np.array_equal(np.asarray(back), xs)
            for t, q in zip(crt_split(ctx, back), prime_power_factors(ctx)):
                assert np.array_equal(t, xs % q)
        else:
            assert back == 0


def test_crt_round_trip_scalar_spot_checks():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 5000))
        ctx = make_context(n)
        x = int(rng.integers(0, n))
        assert crt_combine(ctx, crt_split(ctx, x)) == x


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**6), st.data())
def test_crt_basis_round_trip_property(n, data):
    ctx = make_context(n)
    qs, basis = prime_power_factors(ctx), ctx.crt_basis
    for i, e in enumerate(basis):
        assert 0 <= e < n
        assert [e % q for q in qs] == [int(i == j) for j in range(len(qs))]
    t = tuple(data.draw(st.integers(0, q - 1)) for q in qs)
    assert crt_split(ctx, crt_combine(ctx, t)) == t
    y = data.draw(st.integers(0, n - 1))
    assert crt_combine(ctx, crt_split(ctx, y)) == y


def test_totient_supermultiplicative():
    # phi(a*b) >= phi(a)*phi(b) for all a, b <= 500
    limit = 500
    phi = phi_sieve(limit * limit)
    small = phi[: limit + 1]
    for a in range(1, limit + 1):
        prods = phi[np.arange(1, limit + 1) * a]
        assert np.all(prods >= small[a] * small[1 : limit + 1])


def test_gcd_zero_convention():
    import math

    assert math.gcd(0, 7) == 7
    assert math.gcd(0, 1) == 1
