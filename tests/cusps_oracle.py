"""The Fraction forms of the divisor vector, of the tensor maps and of the
principal-lattice test, kept as test oracles.

`FractionVector` is the vector record as it was before it held integer
numerators over one denominator: a frozen dataclass with one `Fraction` per
divisor, whose sums, differences and multiples are taken entry by entry.

`lambda_forward`, `lambda_inverse` and `ligozat_check` are the library's
maps as they were before they ran on integer numerators over one common
denominator: every entry is a `Fraction`, multiplied and added in place one
tensor slot at a time.

`cusps` used to decide principality from the exact eta-exponent preimage
`lambda_inverse(w)`: it must be integral and each of its per-prime
contractions (the sum over the divisors divisible by p_i) must be even.
The order then came from the denominator lcm n0 of that preimage and a test
of the two candidates n0 and 2*n0.  The library now reads both off one
integer residue vector mod D; the suite compares it with these forms.
`congruence_rows` builds the group's generic congruence rows entry by entry
from K = tensor_i [[p,-1],[-1,p]]; the library's closed-form rows are these
in other coordinates.  `eta_order_at_cusp` is the classical vanishing
order of eta(m*tau) on X0(n) at the cusp of denominator d, for any n; on a
square-free level those orders are the matrix of `lambda_forward`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from cuspgate.cusps import CuspDivisor, EtaVector, SquarefreeLevel
from cuspgate.eta import LigozatVerdict


@dataclass(frozen=True)
class FractionVector:
    level: SquarefreeLevel
    coeffs: tuple[Fraction, ...]

    def coeff(self, d: int) -> Fraction:
        return self.coeffs[self.level.divisor_index(d)]

    def degree(self) -> Fraction:
        return sum(self.coeffs, Fraction(0))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        return FractionVector(self.level, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return FractionVector(self.level, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, k):
        k = Fraction(k)
        return FractionVector(self.level, tuple(k * c for c in self.coeffs))

    def __neg__(self):
        return -1 * self


def eta_order_at_cusp(n: int, m: int, d: int) -> Fraction:
    """Vanishing order of eta(m*tau) on X0(n) at the cusp of denominator d."""
    if n < 1 or n % m != 0 or n % d != 0:
        raise ValueError("need m | n and d | n")
    g = math.gcd(d, m)
    return Fraction(n * g * g, 24 * d * math.gcd(d, n // d) * m)


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
    """24 * tensor_i [[p,-1],[-1,p]] / (p^2-1) applied to w."""
    coeffs = [Fraction(c) for c in w.coeffs]
    D = 1
    for i, p in enumerate(w.level.primes):
        _apply_slot(coeffs, i, p, -1, -1, p)
        D *= p * p - 1
    scale = Fraction(24, D)
    return EtaVector(w.level, tuple(scale * c for c in coeffs))


def ligozat_check(r: EtaVector) -> LigozatVerdict:
    """The five conditions on Fraction sums: (1) integer exponents;
    (2) sum r_d * d = 0 mod 24; (3) sum r_d * (N/d) = 0 mod 24;
    (4) sum r_d = 0; (5), only when 1 holds, prod d^(r_d) a square."""
    level = r.level
    failed = []
    integral = all(c.denominator == 1 for c in r.coeffs)
    if not integral:
        failed.append(1)
    s2 = sum((c * d for c, d in zip(r.coeffs, level.divisors)), Fraction(0))
    if s2 % 24 != 0:
        failed.append(2)
    s3 = sum((c * (level.n // d) for c, d in zip(r.coeffs, level.divisors)), Fraction(0))
    if s3 % 24 != 0:
        failed.append(3)
    if sum(r.coeffs, Fraction(0)) != 0:
        failed.append(4)
    if integral:
        for i in range(level.t):
            exponent = sum(int(c) for k, c in enumerate(r.coeffs) if k >> i & 1)
            if exponent % 2 != 0:
                failed.append(5)
                break
    return LigozatVerdict(not failed, tuple(failed))


def parity_contractions(u) -> list[Fraction]:
    """For each prime slot i: sum of entries over divisors divisible by p_i."""
    return [
        sum((c for k, c in enumerate(u.coeffs) if k >> i & 1), Fraction(0))
        for i in range(u.level.t)
    ]


def is_principal(w: CuspDivisor) -> bool:
    """Degree 0, integral preimage, and every contraction even."""
    if not w.is_integral():
        raise ValueError("is_principal expects an integral divisor")
    if w.degree() != 0:
        return False
    u = lambda_inverse(w)
    if not u.is_integral():
        return False
    return all(s % 2 == 0 for s in parity_contractions(u))


def divisor_order(w: CuspDivisor) -> int:
    """n0 = lcm of the preimage's denominators makes it integral; the parity
    condition can at most double that."""
    if not w.is_integral():
        raise ValueError("divisor_order expects an integral divisor")
    if w.degree() != 0:
        raise ValueError("divisor_order expects a degree-0 divisor")
    n0 = 1
    for c in lambda_inverse(w).coeffs:
        n0 = n0 * c.denominator // math.gcd(n0, c.denominator)
    if is_principal(n0 * w):
        return n0
    if not is_principal(2 * n0 * w):
        raise AssertionError(f"{2 * n0} times the divisor is not principal")
    return 2 * n0


def congruence_rows(level: SquarefreeLevel) -> tuple[list[list[int]], int]:
    """The generic rows C and modulus D, one entry of K at a time: column d
    holds the residues of P_d - P_1, so C x = 0 (mod D) cuts out the principal
    sublattice in the basis P_d - P_1."""
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
