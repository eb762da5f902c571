"""Exact integer/rational primitives shared by every other module.

Rationals are stdlib ``fractions.Fraction`` (always reduced, positive
denominator).  `is_prime` screens n against the primes up to 97 with one
gcd, then runs deterministic Miller-Rabin on as few of the first thirteen
prime bases as n's size needs: the first k prime bases are a proven
witness set below the published bound psi_k, so a prime below 2.5e7 takes
at most three bases, and thirteen reach ~3.3e24.
`factor` adds trial division, a perfect-square peel and Pollard rho.  A
scan that factors every number of a range builds a `PrimeSieve` over it
instead: a table of smallest prime factors, filled by Eratosthenes' sieve,
which factors any n it covers in O(log n) divisions.  The sieve proves its
primes by construction, so its factorizations need no primality test
either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)
# an n with no prime factor up to 97 is prime below the next prime's square
_SCREEN_LIMIT = 101 * 101

# (psi_k, k): Miller-Rabin on the first k prime bases proves every n < psi_k,
# where psi_k is the least strong pseudoprime to all of them (Pomerance,
# Selfridge and Wagstaff 1980 and Jaeschke 1993 to k = 8; Jiang and Deng 2014
# to k = 11; Sorenson and Webster 2015 for k = 12, 13).  psi_8 = psi_7 and
# psi_9 = psi_10 = psi_11, so those rows would add a base and prove nothing
# more.  Twelve bases stop at psi_12, a composite; the thirteenth base, 41,
# carries the proof to psi_13, past which `is_prime` refuses.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUNDS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)


def num(x) -> int:
    """Absolute numerator of x in lowest terms; num(0) = 0."""
    return abs(Fraction(x).numerator)


def valuation(n: int, p: int) -> int:
    """Largest e with p**e | n, for n != 0 and p >= 2."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2:  # every power of 1 or -1 divides n, and 0 divides nothing
        raise ValueError(f"valuation needs p >= 2, got {p}")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def is_square(n: int) -> tuple[bool, int | None]:
    """(True, isqrt(n)) when n is a perfect square, else (False, None)."""
    if n < 0:
        return False, None
    r = math.isqrt(n)
    if r * r == n:
        return True, r
    return False, None


def is_prime(n: int) -> bool:
    """Proven primality of n below psi_13 (~3.3e24); ValueError above."""
    if n <= _SMALL_PRIMES[-1]:
        return n in _SMALL_PRIMES
    if math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return False
    if n < _SCREEN_LIMIT:
        return True
    for limit, k in _MR_BOUNDS:
        if n < limit:
            break
    else:
        raise ValueError(f"{n} exceeds the deterministic primality bound")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        seed += 1
        y, c, m = seed, seed, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # cycle degenerated; retry with a new constant


@dataclass(frozen=True)
class Factorization:
    """n = prod(p**e) with primes strictly increasing."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        self._check_product()
        for p, _ in self.pairs:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")

    @classmethod
    def _of_proven_primes(cls, n: int, pairs: tuple[tuple[int, int], ...]) -> "Factorization":
        """Build from primes the caller has already proven, without testing them again."""
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "pairs", pairs)
        out._check_product()
        return out

    def _check_product(self) -> None:
        m = 1
        last = 0
        for p, e in self.pairs:
            if p <= last or e < 1:
                raise ValueError(f"pairs {self.pairs} need increasing primes and positive exponents")
            last = p
            m *= p**e
        if m != self.n:
            raise ValueError(f"pairs {self.pairs} multiply to {m}, not {self.n}")

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.pairs)

    def divisors(self) -> list[int]:
        """All positive divisors, ascending."""
        divs = [1]
        for p, e in self.pairs:
            divs = [d * p**i for d in divs for i in range(e + 1)]
        return sorted(divs)


def factor(n: int) -> Factorization:
    """Full factorization of n >= 1: division by the primes up to 97 that
    one gcd with their product finds in n, then on each cofactor a square
    peel (a perfect square m = r^2 goes back as r with its multiplicity
    doubled), a primality proof, or a split by Pollard rho."""
    if n < 1:
        raise ValueError("factor expects n >= 1")
    remaining = n
    found: dict[int, int] = {}
    g = math.gcd(n, _SMALL_PRIMORIAL)  # the primes up to 97 that divide n
    for p in _SMALL_PRIMES:
        if g == 1:
            break
        if g % p == 0:
            g //= p
            while remaining % p == 0:
                found[p] = found.get(p, 0) + 1
                remaining //= p
    # (cofactor, multiplicity); every cofactor is > 1 with no prime up to 97
    stack = [(remaining, 1)] if remaining > 1 else []
    while stack:
        m, e = stack.pop()
        r = math.isqrt(m)
        if r * r == m:
            stack.append((r, 2 * e))
        elif is_prime(m):
            found[m] = found.get(m, 0) + e
        else:
            d = _pollard_rho(m)
            stack.append((d, e))
            stack.append((m // d, e))
    # every prime here passed is_prime or is one of _SMALL_PRIMES
    return Factorization._of_proven_primes(n, tuple(sorted(found.items())))


def factor_level(level: int | Factorization, least: int = 1) -> Factorization:
    """A level given as an int or as its Factorization, refused below `least`
    before anything is factored; `factor` runs only on an int."""
    fac = level if isinstance(level, Factorization) else None
    n = level if fac is None else fac.n
    if n < least:
        what = f"at least {least}" if least > 1 else "a positive integer"
        raise ValueError(f"level must be {what}")
    return factor(n) if fac is None else fac


class PrimeSieve:
    """The smallest prime factor of every n <= limit, held in one array('I'),
    for scans that factor every number of a range."""

    __slots__ = ("limit", "_spf")

    def __init__(self, limit: int):
        # imported here so that only a scan pays for loading array
        from array import array

        if limit < 1:
            raise ValueError("sieve limit must be at least 1")
        self.limit = limit
        # 0 marks a prime (and 0, 1); a composite holds its smallest prime
        spf = array("I", [0]) * (limit + 1)
        root = math.isqrt(limit)
        small = bytearray([1]) * (root + 1)
        primes = []
        for p in range(2, root + 1):
            if small[p]:
                primes.append(p)
                small[p * p :: p] = bytes(len(range(p * p, root + 1, p)))
        # every composite n has its smallest prime p with p*p <= n; smaller
        # primes are written last, so they win
        for p in reversed(primes):
            spf[p * p :: p] = array("I", [p]) * len(range(p * p, limit + 1, p))
        self._spf = spf

    def pairs(self, n: int) -> tuple[tuple[int, int], ...]:
        """`factor(n).pairs` for 1 <= n <= limit, by repeated table lookups.
        The sieve proves each p prime (no smaller prime divides it), so the
        pairs may go to `Factorization._of_proven_primes`."""
        if not 1 <= n <= self.limit:
            raise ValueError(f"{n} is outside the sieve's range 1..{self.limit}")
        spf = self._spf
        pairs = []
        m = n
        while m > 1:
            p = spf[m] or m
            m //= p
            e = 1
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
        return tuple(pairs)

    def prime_power(self, n: int) -> tuple[int, int] | None:
        """(p, e) when n = p^e for 1 <= n <= limit, else None: the one pair
        of `pairs(n)`, read from n's smallest prime without listing any."""
        if not 1 <= n <= self.limit:
            raise ValueError(f"{n} is outside the sieve's range 1..{self.limit}")
        if n == 1:
            return None
        p = self._spf[n] or n
        m = n // p
        e = 1
        while m % p == 0:
            m //= p
            e += 1
        return (p, e) if m == 1 else None
