import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuspgate.arith import (
    Factorization,
    PrimeSieve,
    factor,
    is_prime,
    is_qr,
    is_square,
    num,
    valuation,
)


def test_num_frozen():
    assert num(Fraction(6, 8)) == 3
    assert num(Fraction(-6, 8)) == 3
    assert num(Fraction(16, 24)) == 2
    assert num(Fraction(10, 12)) == 5
    assert num(0) == 0
    assert num(7) == 7


@given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
def test_num_is_reduced_numerator(a, b):
    assert num(Fraction(a, b)) == abs(a) // math.gcd(a, b)


def test_valuation():
    assert valuation(24, 2) == 3
    assert valuation(24, 3) == 1
    assert valuation(-48, 2) == 4
    assert valuation(7, 2) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)


@given(st.integers(1, 10**6), st.integers(1, 10**6), st.sampled_from([2, 3, 5, 7]))
def test_valuation_additive(a, b, p):
    assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


def test_is_square():
    assert is_square(0) == (True, 0)
    assert is_square(49) == (True, 7)
    assert is_square(50) == (False, None)
    assert is_square(-4) == (False, None)
    big = 12345678901234567890**2
    assert is_square(big) == (True, 12345678901234567890)


SMALL_PRIMES = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}


def test_is_prime_small_exhaustive():
    for n in range(-3, 50):
        assert is_prime(n) == (n in SMALL_PRIMES)


def test_is_prime_carmichael_and_strong_pseudoprimes():
    # Carmichael numbers fool Fermat tests; these are the classics.
    for n in (561, 1105, 1729, 41041, 825265):
        assert not is_prime(n)
    # 3215031751 is a strong pseudoprime to bases 2, 3, 5, 7 simultaneously.
    assert not is_prime(3215031751)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert is_prime(10**18 + 9)
    with pytest.raises(ValueError):
        is_prime(2**82 + 9)  # beyond the deterministic witness bound


def test_factor_frozen():
    f = factor(360)
    assert f.pairs == ((2, 3), (3, 2), (5, 1))
    assert f.primes() == (2, 3, 5)
    assert not f.is_squarefree()
    assert f.divisors()[:6] == [1, 2, 3, 4, 5, 6]
    assert len(f.divisors()) == 24
    assert factor(1).pairs == ()
    assert factor(2**67 - 1).pairs == ((193707721, 1), (761838257287, 1))
    with pytest.raises(ValueError):
        factor(0)


@given(st.integers(1, 10**9))
def test_factor_roundtrip(n):
    f = factor(n)
    m = 1
    for p, e in f.pairs:
        assert is_prime(p)
        m *= p**e
    assert m == n
    assert f.is_squarefree() == all(e == 1 for _, e in f.pairs)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3000))
def test_sieve_factors_every_n_it_covers(limit):
    """Every limit, prime squares and their neighbours included."""
    sieve = PrimeSieve(limit)
    assert [sieve.pairs(n) for n in range(1, limit + 1)] == [
        factor(n).pairs for n in range(1, limit + 1)
    ]


def test_sieve_matches_factor_to_a_hundred_thousand():
    sieve = PrimeSieve(100_000)
    for n in range(1, 100_001):
        assert sieve.pairs(n) == factor(n).pairs


def test_sieve_range_is_checked():
    with pytest.raises(ValueError):
        PrimeSieve(0)
    sieve = PrimeSieve(10)
    assert sieve.pairs(1) == () and sieve.pairs(10) == ((2, 1), (5, 1))
    for n in (0, -3, 11):
        with pytest.raises(ValueError):
            sieve.pairs(n)


@given(st.integers(1, 10**4))
def test_divisors_complete(n):
    divs = factor(n).divisors()
    assert divs == sorted(d for d in range(1, n + 1) if n % d == 0)


def test_factorization_validates():
    with pytest.raises(ValueError):
        Factorization(12, ((2, 1), (3, 1)))  # product mismatch
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))  # out of order
    with pytest.raises(ValueError):
        Factorization(9, ((9, 1),))  # 9 is not prime
    with pytest.raises(ValueError):
        Factorization(1, ((2, 0),))  # zero exponent


def brute_qr(a, m):
    return any(x * x % m == a % m for x in range(m))


@given(st.integers(-50, 200), st.integers(1, 120))
def test_is_qr_matches_brute_force(a, m):
    assert is_qr(a, m) == brute_qr(a, m)


def test_is_qr_frozen():
    # -5 mod 3: 1 is a square; -3 mod 5: 2 is not.
    assert is_qr(-5, 3)
    assert not is_qr(-3, 5)
    assert is_qr(-7, 2)  # everything is a square mod 2
    assert is_qr(0, 17)
    assert not is_qr(3, 8)
    assert is_qr(1, 8)
    with pytest.raises(ValueError):
        is_qr(1, 0)
