"""Rational-only forms of two `curves` operations, kept as test oracles.

`apply_transform` used to lift every coefficient and every entry of
(u, r, s, t) to a Fraction and divide by u^k even when u = 1, and
`_rational_cubic_roots` factored the leading and constant coefficients and
evaluated each candidate p/q by Horner's rule over Fraction.  The library
now stays in int where it can and finds the cubic's roots by bisection
without factoring; the suite compares it with these forms.
"""

from __future__ import annotations

from fractions import Fraction

from cuspgate.arith import factor
from cuspgate.curves import Transform, WeierstrassModel


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
