import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from atkin_lehner_oracle import is_qr
from searches_oracle import _odd_prime_power

from cuspgate import arith
from cuspgate.arith import (
    Factorization,
    PrimeSieve,
    factor,
    is_prime,
    is_square,
    num,
    valuation,
)
from cuspgate.curves import WeierstrassModel


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


@pytest.mark.parametrize("p", [1, -1, 0, -2])
def test_valuation_refuses_p_below_2(p):
    # p = 1 and p = -1 divide n forever, and p = 0 divides nothing
    with pytest.raises(ValueError, match="p >= 2"):
        valuation(12, p)


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


def eratosthenes(limit: int) -> bytearray:
    """flags[n] == 1 exactly for the primes n < limit."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return flags


PRIME_FLAGS = eratosthenes(10**6)
PRIMES = [p for p in range(10**6) if PRIME_FLAGS[p]]


def test_is_prime_matches_a_sieve_below_a_million():
    assert [n for n in range(10**6) if is_prime(n) != PRIME_FLAGS[n]] == []


# (psi_k, its factors, k): psi_k is the least strong pseudoprime to all of
# the first k prime bases (Pomerance, Selfridge and Wagstaff; Jaeschke; Jiang
# and Deng; Sorenson and Webster)
PSI = [
    (2_047, (23, 89), 1),
    (1_373_653, (829, 1657), 2),
    (25_326_001, (2251, 11251), 3),
    (3_215_031_751, (151, 751, 28351), 4),
    (2_152_302_898_747, (6763, 10627, 29947), 5),
    (3_474_749_660_383, (1303, 16927, 157543), 6),
    (341_550_071_728_321, (10670053, 32010157), 7),
    (3_825_123_056_546_413_051, (149491, 747451, 34233211), 9),
    (318_665_857_834_031_151_167_461, (399165290221, 798330580441), 12),
    (3_317_044_064_679_887_385_961_981, (1287836182261, 2575672364521), 13),
]
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_witness_table_is_the_published_one():
    assert arith._MR_BASES == FIRST_PRIMES
    assert arith._MR_BOUNDS == tuple((psi, k) for psi, _, k in PSI)


@pytest.mark.parametrize("psi, factors, k", PSI)
def test_each_bound_fools_its_own_bases_but_not_is_prime(psi, factors, k):
    """psi_k is composite and a strong probable prime to the first k bases, so
    the row that covers it must run more bases than k: no row can drop one."""
    assert math.prod(factors) == psi and all(1 < f < psi for f in factors)
    assert all(strong_probable_prime(psi, a) for a in FIRST_PRIMES[:k])
    if k < 13:
        assert not is_prime(psi)
    else:
        with pytest.raises(ValueError):
            is_prime(psi)  # psi_13 is past the last proven bound


def test_twelve_bases_no_longer_prove_psi_12():
    # psi_12 is a strong pseudoprime to every base up to 37; base 41 exposes it
    psi_12 = 318_665_857_834_031_151_167_461
    assert not is_prime(psi_12)
    assert factor(psi_12).pairs == ((399165290221, 1), (798330580441, 1))


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


def trial_pairs(n: int) -> Counter:
    """The factorization of a small n by trial division."""
    pairs = Counter()
    p = 2
    while p * p <= n:
        while n % p == 0:
            pairs[p] += 1
            n //= p
        p += 1
    if n > 1:
        pairs[n] += 1
    return pairs


def prime_powers(lo: int, limit: int):
    """(p, a) with p prime, lo < p, a <= 4 and p**a < limit."""
    return st.one_of(
        st.tuples(st.sampled_from([p for p in PRIMES if lo < p and p**a < limit]), st.just(a))
        for a in range(1, 5)
    )


@settings(max_examples=200, deadline=None)
@example((101, 2), (103, 4), 1)  # a square cofactor of a square
@example((101, 3), (103, 3), 1)  # a cube: no square to peel
@example((999983, 1), (999983, 1), 9973)  # p^2 beside a prime above 97
@example((104723, 2), (104729, 2), 36)
@given(prime_powers(97, 10**10), prime_powers(97, 10**10), st.integers(1, 10**4))
def test_factor_prime_powers_times_a_small_part(pa, qb, s):
    (p, a), (q, b) = pa, qb
    expected = trial_pairs(s)
    expected[p] += a
    expected[q] += b
    assert factor(p**a * q**b * s).pairs == tuple(sorted(expected.items()))


@settings(max_examples=100, deadline=None)
@example((3, 1))  # u = 3, v = 11
@example((3, 4))  # u = 81, v = 89
@example((199999, 1))
@example((97, 2))
@given(prime_powers(2, 200_000))
def test_factor_4pq_discriminants(pa):
    """The 4pq curve x(x - u)(x - v) with v = u + 8 has discriminant
    16 u^2 v^2 (v - u)^2 = 2^10 u^2 v^2, a square past its power of 2."""
    p, a = pa
    u = p**a
    v = u + 8
    disc = WeierstrassModel(0, -(u + v), 0, u * v, 0).disc
    assert disc == 2**10 * u * u * v * v
    expected = Counter({2: 10, p: 2 * a})
    for q, b in trial_pairs(v).items():
        expected[q] += 2 * b
    pairs = factor(disc).pairs
    assert pairs == tuple(sorted(expected.items()))
    # where u and v are both odd prime powers (a 4pq candidate), the oracle's
    # factoring of each agrees with the discriminant's
    qv = _odd_prime_power(v)
    if qv is not None and p > 2:
        assert _odd_prime_power(u) == pa
        assert pairs == tuple(sorted([(2, 10), (p, 2 * a), (qv[0], 2 * qv[1])]))


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


def test_sieve_prime_power_matches_factor_to_a_hundred_thousand():
    sieve = PrimeSieve(100_000)
    assert sieve.prime_power(1) is None
    for n in range(2, 100_001):
        pairs = factor(n).pairs
        assert sieve.prime_power(n) == (pairs[0] if len(pairs) == 1 else None), n


def test_sieve_prime_power_agrees_with_the_4pq_oracle():
    """On every odd n that the 4pq tests read: u and v up to 6000 + 8."""
    sieve = PrimeSieve(6_008)
    for n in range(3, 6_009, 2):
        assert sieve.prime_power(n) == _odd_prime_power(n), n


def test_sieve_range_is_checked():
    with pytest.raises(ValueError):
        PrimeSieve(0)
    sieve = PrimeSieve(10)
    assert sieve.pairs(1) == () and sieve.pairs(10) == ((2, 1), (5, 1))
    assert sieve.prime_power(9) == (3, 2) and sieve.prime_power(10) is None
    for n in (0, -3, 11):
        with pytest.raises(ValueError):
            sieve.pairs(n)
        with pytest.raises(ValueError):
            sieve.prime_power(n)


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
