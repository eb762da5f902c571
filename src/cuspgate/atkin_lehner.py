"""Atkin-Lehner involutions on X0(N), square-free N: which w_r fix a
point, which sign patterns survive, and the sign divisors (1 - eps_u w_u)P_1.

A cusp, an involution w_r and a sign pattern are all sets of primes of N,
held as the bit mask `SquarefreeLevel.divisor_index` gives (bit i <-> p_i).
w_s sends the cusp of denominator r to the cusp of denominator
s*r / gcd(s,r)^2, the symmetric difference of the two prime sets: on masks,
r ^ s.  That holds in either cusp-indexing convention (it is invariant under
r <-> N/r).  `sign_divisor` is where that action runs, as a permutation of
a divisor's coefficients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .cusps import CuspDivisor, SquarefreeLevel


@dataclass(frozen=True)
class ALElement:
    """w_r on X0(N); r runs over divisors of square-free N, r=1 is the identity."""

    level: SquarefreeLevel
    r: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.level.n % self.r != 0:
            raise ValueError(f"w_{self.r} is not an involution on level {self.level.n}")


def _nonresidues(level: SquarefreeLevel) -> list[int]:
    """Entry i: the mask of the primes q != p_i of N modulo which -p_i is not
    a square, by Euler's criterion.  At q = 2 the exponent q >> 1 is 1 and
    -p_i is odd, so 2 is never in a mask."""
    return [sum(1 << j for j, q in enumerate(level.primes) if j != i and pow(-p, q >> 1, q) != 1)
            for i, p in enumerate(level.primes)]


def _fixes_a_point(nonresidues: list[int], mask: int) -> bool:
    """Whether w_r, r the mask, fixes a point: no p in r has a nonresidue
    prime outside r."""
    return all(not bad & ~mask for i, bad in enumerate(nonresidues) if mask >> i & 1)


def al_fixed_point_exists(w: ALElement) -> bool:
    """Whether w_r fixes a point of X0(N).

    Criterion: for every prime p | r, -p must be a square modulo N/r, that
    is modulo each prime of N outside r.  For r = N the condition is vacuous
    and the answer is True (w_N is the Fricke involution, which always has
    fixed points).
    """
    return _fixes_a_point(_nonresidues(w.level), w.level.divisor_index(w.r))


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
        return math.prod(self.signs)


def admissible_sign_assignments(
    level: SquarefreeLevel, *, composite_rule: bool = False
) -> tuple[SignAssignment, ...]:
    """Sign patterns not already excluded by fixed points or parity.

    Each constraint is a parity rule on the mask m of the primes with sign
    -1: the count of primes of r in m is odd (the signs over p | r multiply
    to -1) or even.  Baseline rules: odd at r = N, the rule of the Fricke
    involution, which always has a fixed point; odd at each p whose w_p has
    a fixed point on X0(N); and even at 2 when N = 2*odd.  With
    composite_rule=True every composite r whose w_r has a fixed point adds
    an odd rule too, which can cut the list further.  The output is in the
    order of itertools.product((1, -1), repeat=t); levels with more than 13
    primes are refused, since the list grows like 2^t.
    """
    t = level.t
    if t > 13:
        raise ValueError("sign assignments are limited to levels with at most 13 primes")
    full = (1 << t) - 1
    nonresidues = _nonresidues(level)
    candidates = range(1, full) if composite_rule else (1 << i for i in range(t))
    rules = [(full, 1)] + [(r, 1) for r in candidates if _fixes_a_point(nonresidues, r)]
    if level.n % 2 == 0:
        rules.append((1, 0))
    masks = [0]
    for i in reversed(range(t)):  # the minus-sign masks, in product order
        masks += [m | 1 << i for m in masks]
    signs = itertools.product((1, -1), repeat=t)
    return tuple(SignAssignment(level, s) for s, m in zip(signs, masks)
                 if all((m & r).bit_count() & 1 == odd for r, odd in rules))


def sign_divisor(
    level: SquarefreeLevel, signs: dict[int, int], base: int = 1
) -> CuspDivisor:
    """Apply prod_u (1 - eps_u * w_u) to the cusp labeled `base`.

    `signs` maps pairwise-coprime divisors u>1 of N to eps_u in {+1,-1}.
    Each factor takes the integer vector v to v - eps_u * w_u v, where
    (w_u v)[k] = v[k ^ mask(u)]; the factors commute.
    """
    n = level.n
    labels = sorted(signs)
    for u in labels:
        if u <= 1 or n % u != 0:
            raise ValueError(f"{u} is not a divisor > 1 of {n}")
        if signs[u] not in (1, -1):
            raise ValueError("signs must be +1 or -1")
    masks = [level.divisor_index(u) for u in labels]
    if any(a & b for a, b in itertools.combinations(masks, 2)):
        raise ValueError("divisor labels must be pairwise coprime")
    if n % base != 0:
        raise ValueError(f"{base} is not a divisor of {n}")
    coeffs = [0] * (1 << level.t)
    coeffs[level.divisor_index(base)] = 1
    for u, mask in zip(labels, masks):
        eps = signs[u]
        coeffs = [c - eps * coeffs[k ^ mask] for k, c in enumerate(coeffs)]
    return CuspDivisor._of(level, coeffs)
