"""The divisor-label forms of the Atkin-Lehner bookkeeping, kept as test
oracles.

`atkin_lehner` used to work on divisor labels: w_s sent the cusp labeled r
to s*r / gcd(s, r)^2, the fixed-point test asked `is_qr` (which factors
N/r) whether -p is a square modulo N/r for each p | r, the
admissible sign patterns were filtered by a dict of forced signs and a
product of signs per composite r, and `sign_divisor` expanded
prod_u (1 - eps_u w_u) over every subset of the labels.  The library now
does all of this on the prime bit masks of the labels; the suite compares
it with these forms.
"""

from __future__ import annotations

import itertools
import math

from cuspgate.arith import factor, valuation
from cuspgate.cusps import SquarefreeLevel


def is_qr(a: int, m: int) -> bool:
    """Whether x*x = a (mod m) is solvable (any modulus m >= 1, via CRT)."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return True
    a %= m
    for p, k in factor(m).pairs:
        pk = p**k
        r = a % pk
        if r == 0:
            continue
        v = valuation(r, p)
        if v % 2 == 1:
            return False
        u = r // p**v
        if p == 2:
            w = k - v
            if w == 1:
                continue
            if w == 2 and u % 4 != 1:
                return False
            if w >= 3 and u % 8 != 1:
                return False
        elif pow(u, (p - 1) // 2, p) != 1:
            return False
    return True


def al_label(r: int, d: int) -> int:
    """Label of w_r applied to the cusp labeled d: r*d / gcd(r, d)^2."""
    g = math.gcd(r, d)
    return r * d // (g * g)


def fixed_point_exists(level: SquarefreeLevel, r: int) -> bool:
    """For every prime p | r, -p must be a square modulo N/r."""
    m = level.n // r
    return all(is_qr(-p, m) for p in level.primes if r % p == 0)


def _sign_product(signs: tuple[int, ...], k: int) -> int:
    """Product of the signs at the primes in bit mask k."""
    return math.prod(s for i, s in enumerate(signs) if k >> i & 1)


def admissible_signs(level: SquarefreeLevel, composite_rule: bool = False) -> tuple[tuple[int, ...], ...]:
    """The sign vectors with product -1, sign -1 at every p whose w_p fixes
    a point, sign +1 at 2, and with composite_rule a product of -1 over the
    primes of every composite r whose w_r fixes a point."""
    forced = {}
    for i, p in enumerate(level.primes):
        if fixed_point_exists(level, p):
            forced[i] = -1
    if level.n % 2 == 0:
        i2 = level.primes.index(2)
        if i2 in forced and forced[i2] == -1:
            return ()  # contradictory requirements; nothing is admissible
        forced[i2] = 1
    fixed = []
    if composite_rule:
        for k, r in enumerate(level.divisors):
            if k & (k - 1) and fixed_point_exists(level, r):
                fixed.append(k)
    out = []
    for signs in itertools.product((1, -1), repeat=level.t):
        if math.prod(signs) != -1:
            continue
        if any(signs[i] != s for i, s in forced.items()):
            continue
        if any(_sign_product(signs, k) != -1 for k in fixed):
            continue
        out.append(signs)
    return tuple(out)


def sign_divisor_coeffs(level: SquarefreeLevel, signs: dict[int, int], base: int = 1) -> list[int]:
    """prod_u (1 - eps_u w_u) applied to the cusp labeled `base`, expanded
    over the subsets S of the labels: S contributes (-1)^|S| prod_{u in S}
    eps_u at the cusp labeled (prod S) * base, reduced by `al_label`."""
    labels = sorted(signs)
    coeffs = [0] * len(level.divisors)
    for size in range(len(labels) + 1):
        for subset in itertools.combinations(labels, size):
            weight = (-1) ** size
            cusp = base
            for u in subset:
                weight *= signs[u]
                cusp = al_label(u, cusp)
            coeffs[level.divisor_index(cusp)] += weight
    return coeffs
