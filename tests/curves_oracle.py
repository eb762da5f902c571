"""Rational-only forms of two `curves` operations, and the point
arithmetic built on the group law, kept as test oracles.

`apply_transform` used to lift every coefficient and every entry of
(u, r, s, t) to a Fraction and divide by u^k even when u = 1, and
`_rational_cubic_roots` factored the leading and constant coefficients and
evaluated each candidate p/q by Horner's rule over Fraction
(`rational_cubic_roots`), then bisected each monotone piece of the cubic
one bit per step (`bisected_cubic_roots`).  The library now stays in int
where it can and finds the cubic's roots by Newton steps from the outer
end of each convex or concave part; the suite compares it with these forms.

The library's one point operation is `group_law_add`.  `negate`,
`scalar_mul`, `on_curve` and `transform_point` are what the suite checks it
with (inverses, homomorphism, associativity, coordinate changes), and
`double_x` is the duplication formula from the division polynomials, a
second route to x(2P).
"""

from __future__ import annotations

import math
from fractions import Fraction

from cuspgate.arith import factor
from cuspgate.curves import INFINITY, Point, Transform, WeierstrassModel, b_invariants, group_law_add


def apply_transform(e: WeierstrassModel, t: Transform) -> WeierstrassModel:
    u, r, s, tt = (Fraction(v) for v in (t.u, t.r, t.s, t.t))
    a1, a2, a3, a4, a6 = (Fraction(a) for a in e.coefficients())
    na1 = (a1 + 2 * s) / u
    na2 = (a2 - s * a1 + 3 * r - s * s) / u ** 2
    na3 = (a3 + r * a1 + 2 * tt) / u ** 3
    na4 = (a4 - s * a3 + 2 * r * a2 - (tt + r * s) * a1 + 3 * r * r - 2 * s * tt) / u ** 4
    na6 = (a6 + r * a4 + r * r * a2 + r ** 3 - tt * a3 - tt * tt - r * tt * a1) / u ** 6
    return WeierstrassModel(na1, na2, na3, na4, na6)


def rational_cubic_roots(c3: int, c2: int, c1: int, c0: int) -> list[Fraction]:
    """All rational roots of c3 x^3 + c2 x^2 + c1 x + c0 (c3 != 0), by
    evaluating every candidate +-p/q over Fraction."""
    roots = []
    coeffs = [c3, c2, c1, c0]
    while coeffs[-1] == 0 and len(coeffs) > 1:
        coeffs.pop()
        if Fraction(0) not in roots:
            roots.append(Fraction(0))
    lead, const = coeffs[0], coeffs[-1]
    if len(coeffs) == 1:
        return roots
    for p in factor(abs(const)).divisors():
        for q in factor(abs(lead)).divisors():
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                acc = Fraction(0)
                for c in [c3, c2, c1, c0]:
                    acc = acc * cand + c
                if acc == 0:
                    roots.append(cand)
    return sorted(roots)


def bisected_cubic_roots(c3: int, c2: int, c1: int, c0: int) -> list[Fraction]:
    """All rational roots of c3 x^3 + c2 x^2 + c1 x + c0 (c3 != 0), by
    bisecting each monotone piece of the monic g(X) = X^3 + a X^2 + b X + c,
    X = c3 x, inside Fujiwara's bound: one evaluation per bit."""
    a, b, c = c2, c1 * c3, c0 * c3 * c3

    def g(x: int) -> int:
        return ((x + a) * x + b) * x + c

    bound = 2 * max(
        abs(a), 1 << (abs(b).bit_length() + 1) // 2, 1 << (abs(c).bit_length() + 2) // 3
    )
    q = a * a - 3 * b
    if q <= 0:  # g is increasing
        pieces = [(-bound, bound, 1)]
    else:
        s = math.isqrt(q)
        lo = (-a - s - (s * s != q)) // 3
        hi = (-a + s) // 3
        pieces = [(-bound, lo, 1), (lo + 1, hi, -1), (hi + 1, bound, 1)]
    roots = []
    for start, stop, sign in pieces:
        if start > stop or sign * g(start) > 0 or sign * g(stop) < 0:
            continue
        while start < stop:  # least x in the piece with sign * g(x) >= 0
            mid = (start + stop) // 2
            if sign * g(mid) < 0:
                start = mid + 1
            else:
                stop = mid
        if g(start) == 0:
            roots.append(Fraction(start, c3))
    return sorted(roots)


def on_curve(e: WeierstrassModel, pt) -> bool:
    if pt is INFINITY:
        return True
    x, y = Fraction(pt.x), Fraction(pt.y)
    a1, a2, a3, a4, a6 = e.coefficients()
    return y * y + a1 * x * y + a3 * y == x ** 3 + a2 * x * x + a4 * x + a6


def negate(e: WeierstrassModel, pt):
    if pt is INFINITY:
        return INFINITY
    return Point(pt.x, -pt.y - e.a1 * pt.x - e.a3)


def scalar_mul(e: WeierstrassModel, n: int, pt):
    if n < 0:
        return scalar_mul(e, -n, negate(e, pt))
    acc = INFINITY
    add = pt
    while n:
        if n & 1:
            acc = group_law_add(e, acc, add)
        add = group_law_add(e, add, add)
        n >>= 1
    return acc


def transform_point(pt, t: Transform):
    """Map a point on E to the corresponding point of apply_transform(E, t)."""
    if pt is INFINITY:
        return INFINITY
    u, r, s, tt = (Fraction(v) for v in (t.u, t.r, t.s, t.t))
    x = (Fraction(pt.x) - r) / u ** 2
    y = (Fraction(pt.y) - s * u * u * x - tt) / u ** 3
    return Point(x, y)


def double_x(e: WeierstrassModel, x) -> Fraction:
    """x-coordinate of 2P in terms of x(P), via the division-polynomial ratio."""
    x = Fraction(x)
    b = b_invariants(e)
    den = 4 * x ** 3 + b.b2 * x * x + 2 * b.b4 * x + b.b6
    if den == 0:
        raise ValueError("x is the abscissa of a 2-torsion point; 2P is the origin")
    num = x ** 4 - b.b4 * x * x - 2 * b.b6 * x - b.b8
    return num / den
