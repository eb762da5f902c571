"""Atkin-Lehner involutions acting on the cusps of X0(N), square-free N.

Everything here works with divisor labels: w_s sends the cusp of
denominator r to the cusp of denominator s*r / gcd(s,r)^2, which is the
label formula in either cusp-indexing convention (it is invariant under
r <-> N/r).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import is_qr
from .cusps import CuspDivisor, SquarefreeLevel


def _al_label(r: int, d: int) -> int:
    """Label of w_r applied to the cusp labeled d: r*d / gcd(r, d)^2."""
    g = math.gcd(r, d)
    return r * d // (g * g)


@dataclass(frozen=True)
class ALElement:
    """w_r on X0(N); r runs over divisors of square-free N, r=1 is the identity."""

    level: SquarefreeLevel
    r: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.level.n % self.r != 0:
            raise ValueError(f"w_{self.r} is not an involution on level {self.level.n}")

    def __mul__(self, other: "ALElement") -> "ALElement":
        if self.level != other.level:
            raise ValueError("mismatched levels")
        return ALElement(self.level, _al_label(self.r, other.r))

    def is_identity(self) -> bool:
        return self.r == 1


def al_act_on_cusp(w: ALElement, d: int) -> int:
    """Denominator label of w_r applied to the cusp of denominator d."""
    if w.level.n % d != 0:
        raise ValueError(f"{d} is not a divisor of {w.level.n}")
    return _al_label(w.r, d)


def al_act_on_divisor(w: ALElement, v: CuspDivisor) -> CuspDivisor:
    if w.level != v.level:
        raise ValueError("mismatched levels")
    coeffs = [Fraction(0)] * len(v.coeffs)
    for k, d in enumerate(v.level.divisors):
        coeffs[v.level.divisor_index(al_act_on_cusp(w, d))] += v.coeffs[k]
    return CuspDivisor(v.level, tuple(coeffs))


def al_fixed_point_exists(w: ALElement) -> bool:
    """Whether w_r fixes a point of X0(N).

    Criterion: for every prime p | r, -p must be a square modulo N/r.
    For r = N the condition is vacuous and the answer is True (w_N is the
    Fricke involution, which always has fixed points).
    """
    m = w.level.n // w.r
    return all(is_qr(-p, m) for p in w.level.primes if w.r % p == 0)


@dataclass(frozen=True)
class SignAssignment:
    """A choice of sign in {+1,-1} for each prime dividing the level."""

    level: SquarefreeLevel
    signs: tuple[int, ...]  # aligned with level.primes

    def __post_init__(self) -> None:
        if len(self.signs) != len(self.level.primes) or any(s not in (1, -1) for s in self.signs):
            raise ValueError("need one sign in {+1,-1} per prime")

    def sign(self, p: int) -> int:
        return self.signs[self.level.primes.index(p)]

    def product(self) -> int:
        out = 1
        for s in self.signs:
            out *= s
        return out

    def as_dict(self) -> dict[int, int]:
        return dict(zip(self.level.primes, self.signs))


def _sign_product(signs: tuple[int, ...], k: int) -> int:
    """Product of the signs at the primes in bit mask k."""
    return math.prod(s for i, s in enumerate(signs) if k >> i & 1)


def admissible_sign_assignments(
    level: SquarefreeLevel, *, composite_rule: bool = False
) -> tuple[SignAssignment, ...]:
    """Sign patterns not already excluded by fixed points or parity.

    Baseline constraints: the product over all primes is -1; whenever w_p
    has a fixed point on X0(N) the sign at p must be -1; and when N = 2*odd
    the sign at 2 must be +1.  With composite_rule=True the fixed-point
    constraint is also imposed for every composite w_r (product of the
    chosen signs over p | r equal to -1), which can cut the list further.
    """
    t = level.t
    forced = {}
    for i, p in enumerate(level.primes):
        if al_fixed_point_exists(ALElement(level, p)):
            forced[i] = -1
    if level.n % 2 == 0:
        i2 = level.primes.index(2)
        if i2 in forced and forced[i2] == -1:
            return ()  # contradictory requirements; nothing is admissible
        forced[i2] = 1
    # bit masks of the composite r whose w_r has a fixed point
    fixed = []
    if composite_rule:
        for k, r in enumerate(level.divisors):
            if k & (k - 1) and al_fixed_point_exists(ALElement(level, r)):
                fixed.append(k)
    out = []
    for signs in itertools.product((1, -1), repeat=t):
        if math.prod(signs) != -1:
            continue
        if any(signs[i] != s for i, s in forced.items()):
            continue
        if any(_sign_product(signs, k) != -1 for k in fixed):
            continue
        out.append(SignAssignment(level, signs))
    return tuple(out)


def sign_divisor(
    level: SquarefreeLevel, signs: dict[int, int], base: int = 1
) -> CuspDivisor:
    """Expand prod_u (1 - eps_u * w_u) applied to the cusp labeled `base`.

    `signs` maps pairwise-coprime divisors u>1 of N to eps_u in {+1,-1};
    each factor contributes 1 and -eps_u*w_u, so a subset S of the labels
    contributes (-1)^|S| * prod_{u in S} eps_u at the cusp (prod S)*base
    (labels act multiplicatively on coprime parts).
    """
    n = level.n
    labels = sorted(signs)
    for u in labels:
        if u <= 1 or n % u != 0:
            raise ValueError(f"{u} is not a divisor > 1 of {n}")
        if signs[u] not in (1, -1):
            raise ValueError("signs must be +1 or -1")
    for a, b in itertools.combinations(labels, 2):
        if math.gcd(a, b) != 1:
            raise ValueError("divisor labels must be pairwise coprime")
    if n % base != 0:
        raise ValueError(f"{base} is not a divisor of {n}")
    coeffs = [0 for _ in level.divisors]
    for size in range(len(labels) + 1):
        for subset in itertools.combinations(labels, size):
            weight = (-1) ** size
            cusp = base
            for u in subset:
                weight *= signs[u]
                cusp = _al_label(u, cusp)
            coeffs[level.divisor_index(cusp)] += weight
    return CuspDivisor(level, tuple(Fraction(c) for c in coeffs))
