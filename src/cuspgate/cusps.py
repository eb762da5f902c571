"""Cusps of X0(N) for square-free N and the divisor-class machinery.

Cusps are labeled by divisors r|N (P_r = the cusp of denominator r) and
listed in tensor "bit order": index k corresponds to the divisor
prod(p_i ** bit_i(k)) over the ascending primes p_i of N.  The linear map
`lambda_forward` (per-prime blocks [[p,1],[1,p]] scaled by 1/24) carries
eta-exponent vectors to cusp divisors.  Its inverse is 24 K / D with
K = tensor_i [[p_i,-1],[-1,p_i]] and D = prod(p_i^2 - 1), so one integer
congruence system mod D (`_principal_residues`) decides principality,
divisor order, and the full group structure of the cuspidal subgroup.
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
        if len(self.coeffs) != 1 << self.level.t:
            raise ValueError(f"level {self.level.n} needs {1 << self.level.t} coefficients")
        if not all(isinstance(c, Fraction) for c in self.coeffs):
            raise TypeError("coefficients must be Fractions")

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
        if self.level != other.level:
            raise ValueError("mismatched levels")
        return type(self)(self.level, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if self.level != other.level:
            raise ValueError("mismatched levels")
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


def _modulus(level: SquarefreeLevel) -> int:
    """D = prod(p^2 - 1), the denominator of lambda_inverse."""
    return math.prod(p * p - 1 for p in level.primes)


def lambda_inverse(w: CuspDivisor) -> EtaVector:
    """Exact inverse of lambda_forward: 24 * tensor_i [[p,-1],[-1,p]]/(p^2-1)."""
    coeffs = [Fraction(c) for c in w.coeffs]
    for i, p in enumerate(w.level.primes):
        _apply_slot(coeffs, i, p, -1, -1, p)
    scale = Fraction(24, _modulus(w.level))
    return EtaVector(w.level, tuple(scale * c for c in coeffs))


def _principal_residues(level: SquarefreeLevel, coeffs) -> list[int]:
    """The 2^t + t integers that all vanish mod D exactly when the degree-0
    integral divisor with these coefficients is principal.

    lambda_inverse(w) = 24 K w / D, so the eta-exponent preimage is
    integral iff 24 (K w)_k = 0 (mod D) for every cusp k, and its sum over
    the divisors divisible by p_i is even iff
    12 * sum_{bit_i(k)=1} (K w)_k = 0 (mod D).
    """
    kw = list(coeffs)
    for i, p in enumerate(level.primes):
        _apply_slot(kw, i, p, -1, -1, p)
    residues = [24 * c for c in kw]
    for i in range(level.t):
        residues.append(12 * sum(c for k, c in enumerate(kw) if k >> i & 1))
    return residues


def _integral_coeffs(w: CuspDivisor, caller: str) -> list[int]:
    if not w.is_integral():
        raise ValueError(f"{caller} expects an integral divisor")
    return [c.numerator for c in w.coeffs]


def is_principal(w: CuspDivisor) -> bool:
    """Whether the integral divisor w is a divisor of a function.

    w is principal iff its degree vanishes and every entry of
    `_principal_residues` is 0 mod D: the eta-exponent preimage is
    integral and each of its per-prime contractions is even.
    """
    coeffs = _integral_coeffs(w, "is_principal")
    if sum(coeffs) != 0:
        return False
    D = _modulus(w.level)
    return all(r % D == 0 for r in _principal_residues(w.level, coeffs))


def divisor_order(w: CuspDivisor) -> int:
    """Least n >= 1 with n*w principal.

    The residues of n*w are n times those of w, and n*r = 0 (mod D) for
    every residue r exactly when D / gcd(D, r's) divides n.
    """
    coeffs = _integral_coeffs(w, "divisor_order")
    if sum(coeffs) != 0:
        raise ValueError("divisor_order expects a degree-0 divisor")
    D = _modulus(w.level)
    return D // math.gcd(D, *_principal_residues(w.level, coeffs))


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
    sublattice in coordinates x_d (d|N, d != 1) w.r.t. the basis P_d - P_1:
    column d holds the `_principal_residues` of P_d - P_1.
    """
    size = 1 << level.t
    columns = []
    for j in range(1, size):
        basis = [0] * size
        basis[0], basis[j] = -1, 1
        columns.append(_principal_residues(level, basis))
    return [list(row) for row in zip(*columns)], _modulus(level)


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
    for d, c in zip(w.level.divisors, w.coeffs):
        odd = d // 2 if d % 2 == 0 else d
        coeffs[target.divisor_index(odd)] += c
    return CuspDivisor(target, tuple(coeffs))
