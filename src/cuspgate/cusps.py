"""Cusps of X0(N) for square-free N and the divisor-class machinery.

Cusps are labeled by divisors r|N (P_r = the cusp of denominator r) and
listed in tensor "bit order": index k corresponds to the divisor
prod(p_i ** bit_i(k)) over the ascending primes p_i of N.  The linear map
`lambda_forward` (per-prime blocks [[p,1],[1,p]] scaled by 1/24) carries
eta-exponent vectors to cusp divisors; its exact inverse plus two parity
contractions decide principality, divisor order, and the full group
structure of the cuspidal subgroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import factor, num
from .lattice import smith_normal_form


@dataclass(frozen=True)
class SquarefreeLevel:
    n: int
    primes: tuple[int, ...]

    @staticmethod
    def of(n: int) -> "SquarefreeLevel":
        if n < 2:
            raise ValueError("level must be at least 2")
        fac = factor(n)
        if not fac.is_squarefree():
            raise ValueError(f"level {n} is not square-free")
        return SquarefreeLevel(n, fac.primes())

    @property
    def t(self) -> int:
        return len(self.primes)

    @property
    def divisors(self) -> tuple[int, ...]:
        """All divisors of N in bit order (index bit i <-> prime p_i)."""
        out = []
        for k in range(1 << self.t):
            d = 1
            for i, p in enumerate(self.primes):
                if k >> i & 1:
                    d *= p
            out.append(d)
        return tuple(out)

    def divisor_index(self, d: int) -> int:
        if d < 1 or self.n % d != 0:
            raise ValueError(f"{d} does not divide {self.n}")
        k = 0
        for i, p in enumerate(self.primes):
            if d % p == 0:
                k |= 1 << i
        return k


@dataclass(frozen=True)
class DivisorVector:
    """A rational vector indexed by the divisors of N (bit order)."""

    level: SquarefreeLevel
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        assert len(self.coeffs) == 1 << self.level.t
        assert all(isinstance(c, Fraction) for c in self.coeffs)

    @classmethod
    def zero(cls, level: SquarefreeLevel):
        return cls(level, (Fraction(0),) * (1 << level.t))

    @classmethod
    def from_map(cls, level: SquarefreeLevel, entries: dict):
        coeffs = [Fraction(0)] * (1 << level.t)
        for d, c in entries.items():
            coeffs[level.divisor_index(d)] += Fraction(c)
        return cls(level, tuple(coeffs))

    def coeff(self, d: int) -> Fraction:
        return self.coeffs[self.level.divisor_index(d)]

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        assert self.level == other.level
        return type(self)(self.level, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        assert self.level == other.level
        return type(self)(self.level, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, k):
        k = Fraction(k)
        return type(self)(self.level, tuple(k * c for c in self.coeffs))

    def __neg__(self):
        return -1 * self


class CuspDivisor(DivisorVector):
    def degree(self) -> Fraction:
        return sum(self.coeffs, Fraction(0))


class EtaVector(DivisorVector):
    pass


def _apply_slot(coeffs: list, i: int, m00, m01, m10, m11) -> None:
    """In place: act with [[m00,m01],[m10,m11]] on tensor slot i."""
    for k in range(len(coeffs)):
        if k >> i & 1:
            continue
        k1 = k | 1 << i
        v0, v1 = coeffs[k], coeffs[k1]
        coeffs[k] = m00 * v0 + m01 * v1
        coeffs[k1] = m10 * v0 + m11 * v1


def lambda_forward(v: EtaVector) -> CuspDivisor:
    """(1/24) * tensor_i [[p_i, 1], [1, p_i]] applied to v."""
    coeffs = [Fraction(c) for c in v.coeffs]
    for i, p in enumerate(v.level.primes):
        _apply_slot(coeffs, i, p, 1, 1, p)
    scale = Fraction(1, 24)
    return CuspDivisor(v.level, tuple(scale * c for c in coeffs))


def lambda_inverse(w: CuspDivisor) -> EtaVector:
    """Exact inverse of lambda_forward: 24 * tensor_i [[p,-1],[-1,p]]/(p^2-1)."""
    coeffs = [Fraction(c) for c in w.coeffs]
    den = 1
    for i, p in enumerate(w.level.primes):
        _apply_slot(coeffs, i, p, -1, -1, p)
        den *= p * p - 1
    scale = Fraction(24, den)
    return EtaVector(w.level, tuple(scale * c for c in coeffs))


def _parity_contractions(u: EtaVector) -> list[Fraction]:
    """For each prime slot i: sum of entries over divisors divisible by p_i."""
    sums = []
    for i in range(u.level.t):
        s = sum((c for k, c in enumerate(u.coeffs) if k >> i & 1), Fraction(0))
        sums.append(s)
    return sums


def is_principal(w: CuspDivisor) -> bool:
    """Whether the integral divisor w is a divisor of a function.

    Three lattice conditions: the eta-exponent preimage is integral, the
    degree vanishes, and every per-prime contraction of the preimage is
    even.
    """
    if not w.is_integral():
        raise ValueError("is_principal expects an integral divisor")
    if w.degree() != 0:
        return False
    u = lambda_inverse(w)
    if not u.is_integral():
        return False
    return all(s % 2 == 0 for s in _parity_contractions(u))


def divisor_order(w: CuspDivisor) -> int:
    """Least n >= 1 with n*w principal.

    The integrality condition pins n to multiples of the denominator lcm
    of the eta-exponent preimage; the parity condition can at most double
    that, so only two candidates need testing.
    """
    if not w.is_integral():
        raise ValueError("divisor_order expects an integral divisor")
    if w.degree() != 0:
        raise ValueError("divisor_order expects a degree-0 divisor")
    u = lambda_inverse(w)
    n0 = 1
    for c in u.coeffs:
        n0 = n0 * c.denominator // math.gcd(n0, c.denominator)
    if is_principal(n0 * w):
        return n0
    if not is_principal(2 * n0 * w):
        raise AssertionError(f"{2 * n0} times the divisor is not principal")
    return 2 * n0


def ogg_order(level: SquarefreeLevel, signs) -> int:
    """Closed-form order of sum_d (prod_{p_i | d} b_i) P_d for signs b_i.

    Prime level uses num((p-1)/12); composite square-free levels use
    num(prod(p_i + b_i)/24).  At least one sign must be -1.
    """
    signs = tuple(signs)
    if len(signs) != level.t or any(b not in (1, -1) for b in signs):
        raise ValueError("signs must be a +/-1 vector aligned to the primes")
    if all(b == 1 for b in signs):
        raise ValueError("the all-(+1) sign vector is excluded")
    if level.t == 1:
        return num(Fraction(level.primes[0] - 1, 12))
    prod = 1
    for p, b in zip(level.primes, signs):
        prod *= p + b
    return num(Fraction(prod, 24))


def _congruence_rows(level: SquarefreeLevel) -> tuple[list[list[int]], int]:
    """Integer congruence system C x = 0 (mod D) cutting out the principal
    sublattice in coordinates x_d (d|N, d != 1) w.r.t. the basis P_d - P_1.
    """
    t = level.t
    size = 1 << t
    primes = level.primes
    D = 1
    for p in primes:
        D *= p * p - 1

    def K_entry(k, j):
        e = 1
        for i, p in enumerate(primes):
            e *= p if (k >> i & 1) == (j >> i & 1) else -1
        return e

    rows = []
    # integrality of the eta preimage: 24 * (K w)_k = 0 (mod D)
    for k in range(size):
        rows.append([24 * (K_entry(k, j) - K_entry(k, 0)) for j in range(1, size)])
    # evenness of the contractions: 12 * sum_{bit_i(k)=1} (K w)_k = 0 (mod D)
    for i in range(t):
        row = [0] * (size - 1)
        for k in range(size):
            if not k >> i & 1:
                continue
            for j in range(1, size):
                row[j - 1] += 12 * (K_entry(k, j) - K_entry(k, 0))
        rows.append(row)
    return rows, D


def cuspidal_group_structure(level: SquarefreeLevel) -> tuple[int, ...]:
    """Elementary divisors (d1 | d2 | ...) of the cuspidal subgroup.

    The group is Z^dim modulo the principal sublattice
    L = {x : C x = 0 (mod D)}, dim = 2^t - 1, with C, D from
    `_congruence_rows`.  So Z^dim / L is the image C Z^dim mod D, which is
    the sum of Z/(D / gcd(c_i, D)) over the Smith invariants c_i of C
    (c_i = 0 past the rank gives a trivial factor).  `smith_normal_form`
    returns exactly those gcd(c_i, D).
    """
    if level.t > 6:
        raise ValueError("group structure is limited to levels with at most 6 primes")
    rows, D = _congruence_rows(level)
    return tuple(sorted(D // g for g in smith_normal_form(rows, D) if g != D))


def apply_2_old_projection(w: CuspDivisor) -> CuspDivisor:
    """Pushforward of a cusp divisor at even N to level N/2.

    Each P_r maps to the cusp labeled by the odd part of r, with
    multiplicity one; rejects odd levels.
    """
    if w.level.n % 2 != 0:
        raise ValueError("2-old projection needs an even level")
    target = SquarefreeLevel.of(w.level.n // 2)
    coeffs = [Fraction(0)] * (1 << target.t)
    for k, c in enumerate(w.coeffs):
        d = w.level.divisors[k]
        odd = d // 2 if d % 2 == 0 else d
        coeffs[target.divisor_index(odd)] += c
    return CuspDivisor(target, tuple(coeffs))
