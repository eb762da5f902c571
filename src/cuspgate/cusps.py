"""Cusps of X0(N) for square-free N and the divisor-class machinery.

Cusps are labeled by divisors r|N (P_r = the cusp of denominator r) and
listed in tensor "bit order": index k corresponds to the divisor
prod(p_i ** bit_i(k)) over the ascending primes p_i of N.  The linear map
`lambda_forward` (per-prime blocks [[p,1],[1,p]] scaled by 1/24) carries
eta-exponent vectors to cusp divisors.  Its inverse is 24 K / D with
K = tensor_i [[p_i,-1],[-1,p_i]] and D = prod(p_i^2 - 1), so one integer
congruence system mod D (`_principal_residues`) decides principality and
divisor order.  A vector is integer numerators c over one denominator L,
so each map runs `_tensor` on c and reduces once, over 24 L or (times 24)
D L; Fractions are built only when a caller reads `coeffs`.  The group
structure is read off the same system in coordinates where it is a
diagonal and t + 1 dense rows (`_congruence_rows`), by one elimination over
each prime power of D (`lattice.image_invariants`) that keeps the diagonal
apart: a diagonal pivot only zeroes its column in the dense rows, and a
dense pivot turns the diagonal row of its column into a multiple of the
pivot row, which replaces it; both are unimodular row operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .arith import Factorization, factor, factor_level, num
from .lattice import image_invariants


def _products(pairs) -> list[int]:
    """prod_i (b_i if bit i of k else a_i) for every index k, in bit order."""
    out = [1]
    for a, b in pairs:
        out = [x * a for x in out] + [x * b for x in out]
    return out


@dataclass(frozen=True)
class SquarefreeLevel:
    n: int
    primes: tuple[int, ...]

    @staticmethod
    def of(level: int | Factorization) -> "SquarefreeLevel":
        """The level N, given as an int or, already factored, as its `Factorization`."""
        fac = factor_level(level, 2)
        if not fac.is_squarefree():
            raise ValueError(f"level {fac.n} is not square-free")
        return SquarefreeLevel(fac.n, fac.primes())

    @property
    def t(self) -> int:
        return len(self.primes)

    @cached_property
    def divisors(self) -> tuple[int, ...]:
        """All divisors of N in bit order (index bit i <-> prime p_i), built once."""
        return tuple(_products((1, p) for p in self.primes))

    def divisor_index(self, d: int) -> int:
        if d < 1 or self.n % d != 0:
            raise ValueError(f"{d} does not divide {self.n}")
        k = 0
        for i, p in enumerate(self.primes):
            if d % p == 0:
                k |= 1 << i
        return k


class DivisorVector:
    """A rational vector indexed by the divisors of N (bit order): integer
    numerators `c` over one denominator `L` >= 1, in lowest terms."""

    __slots__ = ("level", "c", "L")

    def __new__(cls, level: SquarefreeLevel, coeffs: tuple[Fraction, ...]):
        if len(coeffs) != 1 << level.t:
            raise ValueError(f"level {level.n} needs {1 << level.t} coefficients")
        if not all(isinstance(x, Fraction) for x in coeffs):
            raise TypeError("coefficients must be Fractions")
        L = math.lcm(*(x.denominator for x in coeffs))
        return cls._of(level, [x.numerator * (L // x.denominator) for x in coeffs], L)

    @classmethod
    def _of(cls, level: SquarefreeLevel, c, L: int = 1):
        """c / L from integers, reduced to gcd(L, *c) = 1: equal vectors
        then have equal fields.  The library builds every vector here."""
        g = math.gcd(L, *c) if L != 1 else 1
        self = object.__new__(cls)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "c", tuple([x // g for x in c] if g != 1 else c))
        object.__setattr__(self, "L", L // g)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return type(self), (self.level, self.coeffs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.L) for x in self.c)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(level={self.level!r}, coeffs={self.coeffs!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.level, self.c, self.L) == (other.level, other.c, other.L)

    def __hash__(self) -> int:
        return hash((self.level, self.coeffs))

    @classmethod
    def zero(cls, level: SquarefreeLevel):
        return cls._of(level, (0,) * (1 << level.t))

    @classmethod
    def from_map(cls, level: SquarefreeLevel, entries: dict):
        coeffs = [Fraction(0)] * (1 << level.t)
        for d, x in entries.items():
            coeffs[level.divisor_index(d)] = Fraction(x)
        return cls(level, tuple(coeffs))

    def coeff(self, d: int) -> Fraction:
        return Fraction(self.c[self.level.divisor_index(d)], self.L)

    def is_integral(self) -> bool:
        return self.L == 1

    def is_zero(self) -> bool:
        return not any(self.c)

    def __add__(self, other):
        if self.level != other.level:
            raise ValueError("mismatched levels")
        L = math.lcm(self.L, other.L)
        a, b = L // self.L, L // other.L
        return self._of(self.level, [a * x + b * y for x, y in zip(self.c, other.c)], L)

    def __sub__(self, other):
        return self + -other

    def __rmul__(self, k):
        if isinstance(k, int):
            return self._of(self.level, [k * x for x in self.c], self.L)
        k = Fraction(k)
        return self._of(self.level, [k.numerator * x for x in self.c], k.denominator * self.L)

    def __neg__(self):
        return -1 * self


class CuspDivisor(DivisorVector):
    __slots__ = ()

    def degree(self) -> Fraction:
        return Fraction(sum(self.c), self.L)


class EtaVector(DivisorVector):
    __slots__ = ()


@cache
def _plan(t: int) -> tuple[tuple[list[int], list[int]], ...]:
    """For each bit i below t: the indices k < 2^t without bit i, and the
    matching k | bit i.  They depend on t alone, so each t builds them once."""
    lows = ([k for k in range(1 << t) if not k >> i & 1] for i in range(t))
    return tuple((lo, [k | 1 << i for k in lo]) for i, lo in enumerate(lows))


def _tensor(level: SquarefreeLevel, ints: list[int], off: int) -> list[int]:
    """In place: tensor_i [[p_i, off], [off, p_i]] applied to integers."""
    for p, (lo, hi) in zip(level.primes, _plan(level.t)):
        for k0, k1 in zip(lo, hi):
            v0, v1 = ints[k0], ints[k1]
            ints[k0], ints[k1] = p * v0 + off * v1, off * v0 + p * v1
    return ints


def _contractions(level: SquarefreeLevel, c) -> list[int]:
    """For each prime p_i, the sum of the entries at the divisors divisible by p_i."""
    return [sum(map(c.__getitem__, hi)) for _, hi in _plan(level.t)]


def lambda_forward(v: EtaVector) -> CuspDivisor:
    """(1/24) * tensor_i [[p_i, 1], [1, p_i]] applied to v."""
    return CuspDivisor._of(v.level, _tensor(v.level, list(v.c), 1), 24 * v.L)


def _modulus(level: SquarefreeLevel) -> int:
    """D = prod(p^2 - 1), the denominator of lambda_inverse."""
    return math.prod(p * p - 1 for p in level.primes)


def lambda_inverse(w: CuspDivisor) -> EtaVector:
    """Exact inverse of lambda_forward: 24 * tensor_i [[p,-1],[-1,p]]/(p^2-1)."""
    kw = _tensor(w.level, list(w.c), -1)
    return EtaVector._of(w.level, [24 * x for x in kw], _modulus(w.level) * w.L)


def _principal_residues(level: SquarefreeLevel, coeffs) -> list[int]:
    """The 2^t + t integers that all vanish mod D exactly when the degree-0
    integral divisor with these coefficients is principal.

    lambda_inverse(w) = 24 K w / D, so the eta-exponent preimage is
    integral iff 24 (K w)_k = 0 (mod D) for every cusp k, and its sum over
    the divisors divisible by p_i is even iff
    12 * sum_{bit_i(k)=1} (K w)_k = 0 (mod D).
    """
    kw = _tensor(level, list(coeffs), -1)
    return [24 * c for c in kw] + [12 * c for c in _contractions(level, kw)]


def is_principal(w: CuspDivisor) -> bool:
    """Whether the integral divisor w is a divisor of a function: its degree
    vanishes and its order is 1."""
    if w.L != 1:
        raise ValueError("is_principal expects an integral divisor")
    return sum(w.c) == 0 and divisor_order(w) == 1


def divisor_order(w: CuspDivisor) -> int:
    """Least n >= 1 with n*w principal.

    The residues of n*w are n times those of w, and n*r = 0 (mod D) for
    every residue r exactly when D / gcd(D, r's) divides n.
    """
    if w.L != 1:
        raise ValueError("divisor_order expects an integral divisor")
    if sum(w.c) != 0:
        raise ValueError("divisor_order expects a degree-0 divisor")
    D = _modulus(w.level)
    return D // math.gcd(D, *_principal_residues(w.level, w.c))


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


def _congruence_rows(level: SquarefreeLevel) -> tuple[list[int], list[list[int]]]:
    """Rows C with C y = 0 (mod D) exactly on the principal divisors, as the
    diagonal 24 lam_S (S nonempty) and the t + 1 dense rows: the degree row,
    then the t contractions.

    Each block [[p,-1],[-1,p]] of K is E^-1 diag(1, p^2-1) F^-1, with
    E^-1 = [[-1,0],[p,1]] and F = [[0,1],[1,p]] unimodular.  In y =
    (tensor F)^-1 w, indexed by the sets S of primes, 24 K w = 0 (mod D)
    becomes 24 lam_S y_S = 0, lam_S = prod_{p in S}(p^2 - 1); the degree is
    sum_S delta_S y_S, delta_S = prod_{p in S}(p + 1); the i-th contraction
    is 12 sum_S rho_i(S) lam_S y_S, rho_i(S) = prod_{j != i, p_j not in S}
    (p_j - 1), times p_i if p_i is not in S.  Columns: e_S - delta_S e_{}.
    """
    primes = level.primes
    lam = _products((1, p * p - 1) for p in primes)
    delta = _products((1, p + 1) for p in primes)
    size = len(lam)
    rows = [[-24 * d for d in delta[1:]]]
    for i in range(level.t):
        rho = _products((p if j == i else p - 1, 1) for j, p in enumerate(primes))
        rows.append([12 * (rho[s] * lam[s] - rho[0] * delta[s]) for s in range(1, size)])
    return [24 * x for x in lam[1:]], rows


def _modulus_prime_powers(level: SquarefreeLevel) -> list[tuple[int, int]]:
    """(l, a) for every l^a || D, from the factorizations of each p - 1 and
    p + 1: the primes of N are proven, so each of these stays inside
    `is_prime`'s proven range, where D itself need not."""
    exponents = {}
    for p in level.primes:
        for ell, a in factor(p - 1).pairs + factor(p + 1).pairs:
            exponents[ell] = exponents.get(ell, 0) + a
    return sorted(exponents.items())


def cuspidal_group_structure(level: SquarefreeLevel) -> tuple[int, ...]:
    """Elementary divisors (d1 | d2 | ...) of the cuspidal subgroup: Z^dim
    modulo {y : C y = 0 (mod D)}, dim = 2^t - 1, is the image of C (from
    `_congruence_rows`) in (Z/D)^rows."""
    if level.t > 7:
        raise ValueError("group structure is limited to levels with at most 7 primes")
    diag, rows = _congruence_rows(level)
    return image_invariants(rows, _modulus_prime_powers(level), diag)


def apply_2_old_projection(w: CuspDivisor) -> CuspDivisor:
    """Pushforward of a cusp divisor at even N to level N/2.

    Each P_r maps to the cusp labeled by the odd part of r, with
    multiplicity one: 2 is p_0, so index k goes to k >> 1, and level N/2
    has the other primes, with nothing to factor.  Rejects odd levels, and
    N = 2, whose level N/2 = 1 has no cusp divisors.
    """
    if w.level.n % 2 != 0:
        raise ValueError("2-old projection needs an even level")
    if w.level.n == 2:
        raise ValueError("2-old projection needs an even level above 2")
    c = [x + y for x, y in zip(w.c[::2], w.c[1::2])]
    return CuspDivisor._of(SquarefreeLevel(w.level.n // 2, w.level.primes[1:]), c, w.L)
