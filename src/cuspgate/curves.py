"""Weierstrass models over Q: invariants, coordinate changes, group law.

All arithmetic is exact (int / fractions.Fraction).  A model is the tuple
(a1,a2,a3,a4,a6) of y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 and is
required to be nonsingular (disc != 0).  Its discriminant is computed once,
when the model is built, and kept as the attribute `disc`, which is not a
field, so equality, hashing and the repr read the coefficients alone.  A
coordinate change with u = 1 is a polynomial in the coefficients and
(r, s, t), so it stays in int when they are integers; only u != 1 divides,
exactly, through Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

Coeff = int | Fraction


def _norm(x: Coeff) -> Coeff:
    """Collapse integral Fractions to int so reprs stay readable."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"coefficient {x!r} is not int or Fraction")


@dataclass(frozen=True)
class WeierstrassModel:
    a1: Coeff
    a2: Coeff
    a3: Coeff
    a4: Coeff
    a6: Coeff

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "a3", "a4", "a6"):
            value = getattr(self, name)
            if type(value) is not int:
                object.__setattr__(self, name, _norm(value))
        # computed once, here: a zero is refused, and the conductor reads it
        disc = _discriminant(_b_invariants(self.coefficients()))
        if disc == 0:
            raise ValueError("singular model (discriminant zero)")
        object.__setattr__(self, "disc", disc)

    # -- standard invariants, by the formulas on the coefficient tuple ------
    b2 = property(lambda self: _b_invariants(self.coefficients())[0])
    b4 = property(lambda self: _b_invariants(self.coefficients())[1])
    b6 = property(lambda self: _b_invariants(self.coefficients())[2])
    b8 = property(lambda self: _b_invariants(self.coefficients())[3])
    c4 = property(lambda self: _c_invariants(_b_invariants(self.coefficients()))[0])
    c6 = property(lambda self: _c_invariants(_b_invariants(self.coefficients()))[1])

    def j_invariant(self) -> Fraction:
        return Fraction(self.c4 ** 3, self.disc)

    def coefficients(self) -> tuple[Coeff, Coeff, Coeff, Coeff, Coeff]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def is_integral(self) -> bool:
        return all(isinstance(a, int) for a in self.coefficients())

    def integral_model(self) -> tuple["WeierstrassModel", "Transform"]:
        """Clear denominators with a (u,0,0,0) change, u = 1/c."""
        if self.is_integral():
            return self, _IDENTITY
        c = lcm(*(Fraction(a).denominator for a in self.coefficients()))
        t = Transform(Fraction(1, c), 0, 0, 0)
        return apply_transform(self, t), t

    @classmethod
    def from_coefficients(cls, seq) -> "WeierstrassModel":
        vals = [Fraction(x) for x in seq]
        if len(vals) == 2:  # short form [a4, a6]
            vals = [Fraction(0), Fraction(0), Fraction(0), vals[0], vals[1]]
        if len(vals) != 5:
            raise ValueError("expected 5 coefficients [a1,a2,a3,a4,a6] (or 2 for short form)")
        return cls(*vals)


@dataclass(frozen=True)
class BInvariants:
    b2: Coeff
    b4: Coeff
    b6: Coeff
    b8: Coeff
    disc: Coeff


def b_invariants(e: WeierstrassModel) -> BInvariants:
    b2, b4, b6, b8 = b = _b_invariants(e.coefficients())
    if 4 * b8 != b2 * b6 - b4 * b4:
        raise AssertionError(f"4 b8 != b2 b6 - b4^2 for {e}")
    return BInvariants(*b, _discriminant(b))


def _b_invariants(a: tuple) -> tuple[Coeff, Coeff, Coeff, Coeff]:
    """(b2, b4, b6, b8) of the coefficient tuple (a1, a2, a3, a4, a6)."""
    a1, a2, a3, a4, a6 = a
    return (
        a1 * a1 + 4 * a2,
        2 * a4 + a1 * a3,
        a3 * a3 + 4 * a6,
        a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4,
    )


def _c_invariants(b: tuple) -> tuple[Coeff, Coeff]:
    """(c4, c6) from (b2, b4, b6, b8)."""
    b2, b4, b6, _ = b
    return b2 * b2 - 24 * b4, -b2 ** 3 + 36 * b2 * b4 - 216 * b6


def _discriminant(b: tuple) -> Coeff:
    """The discriminant from (b2, b4, b6, b8)."""
    b2, b4, b6, b8 = b
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


# -- coordinate changes -----------------------------------------------------


@dataclass(frozen=True)
class Transform:
    """x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""

    u: Coeff
    r: Coeff
    s: Coeff
    t: Coeff

    def __post_init__(self) -> None:
        for name in ("u", "r", "s", "t"):
            value = getattr(self, name)
            if type(value) is not int:
                object.__setattr__(self, name, _norm(Fraction(value)))
        if self.u == 0:
            raise ValueError("u must be nonzero")

    @classmethod
    def identity(cls) -> "Transform":
        return cls(1, 0, 0, 0)

    def then(self, other: "Transform") -> "Transform":
        """The composite change: apply self first, then other."""
        u1, r1, s1, t1 = self.u, self.r, self.s, self.t
        u2, r2, s2, t2 = other.u, other.r, other.s, other.t
        return Transform(
            u1 * u2,
            r1 + u1 * u1 * r2,
            s1 + u1 * s2,
            t1 + u1 * u1 * s1 * r2 + u1 ** 3 * t2,
        )

    def inverse(self) -> "Transform":
        u, r, s, t = (Fraction(v) for v in (self.u, self.r, self.s, self.t))
        return Transform(1 / u, -r / u ** 2, -s / u, (r * s - t) / u ** 3)

    def is_identity(self) -> bool:
        return (self.u, self.r, self.s, self.t) == (1, 0, 0, 0)


# Transform is frozen, so one identity serves every model that is already integral
_IDENTITY = Transform.identity()


def apply_transform(e: WeierstrassModel, t: Transform) -> WeierstrassModel:
    coeffs = _shifted(e.coefficients(), t.r, t.s, t.t)
    if t.u != 1:
        # a1, a2, a3, a4, a6 have weights 1, 2, 3, 4, 6 in u
        coeffs = tuple(Fraction(x) / t.u ** k for x, k in zip(coeffs, (1, 2, 3, 4, 6)))
    return WeierstrassModel(*coeffs)


def _shifted(a: tuple, r: Coeff, s: Coeff, t: Coeff) -> tuple:
    """The coefficient tuple a after x = x' + r, y = y' + s x' + t (u = 1)."""
    a1, a2, a3, a4, a6 = a
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1,
    )


# -- points and the chord-tangent law ---------------------------------------


class _Infinity:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "INFINITY"


INFINITY = _Infinity()


@dataclass(frozen=True)
class Point:
    x: Coeff
    y: Coeff

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _norm(Fraction(self.x)))
        object.__setattr__(self, "y", _norm(Fraction(self.y)))


def group_law_add(e: WeierstrassModel, p, q):
    """Chord-tangent addition on the full a1..a6 model."""
    if p is INFINITY:
        return q
    if q is INFINITY:
        return p
    a1, a2, a3, a4, a6 = (Fraction(a) for a in e.coefficients())
    x1, y1 = Fraction(p.x), Fraction(p.y)
    x2, y2 = Fraction(q.x), Fraction(q.y)
    if x1 == x2 and y1 + y2 + a1 * x2 + a3 == 0:
        return INFINITY
    if x1 == x2:
        den = 2 * y1 + a1 * x1 + a3
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / den
        nu = (-(x1 ** 3) + a4 * x1 + 2 * a6 - a3 * y1) / den
    else:
        lam = (y2 - y1) / (x2 - x1)
        nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return Point(x3, y3)


# -- rational 2-torsion ------------------------------------------------------


def _rational_cubic_roots(c3: int, c2: int, c1: int, c0: int) -> list[Fraction]:
    """All rational roots of c3 x^3 + c2 x^2 + c1 x + c0 (c3 != 0), exact.

    X = c3 x turns the cubic into the monic g(X) = X^3 + a X^2 + b X + c
    with a = c2, b = c1 c3, c = c0 c3^2, whose rational roots are integers.
    They lie inside Fujiwara's bound |X| <= 2 max(|a|, |b|^(1/2), |c/2|^(1/3)).
    The floors of the inflection -a/3 and of the critical points
    (-a -+ sqrt(a^2 - 3b)) / 3 cut the integers there into parts on which g
    is monotone and either convex or concave, so each part holds at most
    one root, which `_part_root` finds; no coefficient is factored.
    """
    if c3 == 0:
        raise ValueError("leading coefficient must be nonzero")
    a, b, c = c2, c1 * c3, c0 * c3 * c3

    def g(x: int) -> int:
        return ((x + a) * x + b) * x + c

    def dg(x: int) -> int:
        return (3 * x + 2 * a) * x + b

    bound = 2 * max(
        abs(a), 1 << (abs(b).bit_length() + 1) // 2, 1 << (abs(c).bit_length() + 2) // 3
    )
    cuts = {-a // 3}
    q = a * a - 3 * b
    if q > 0:
        s = isqrt(q)
        # floors of the critical points, exact for irrational sqrt(q) too
        cuts |= {(-a - s - (s * s != q)) // 3, (-a + s) // 3}
    ends = [-bound - 1, *sorted(x for x in cuts if -bound <= x < bound), bound]
    roots = []
    for lo, hi in zip(ends, ends[1:]):
        # g'' = 6x + 2a has one sign on [lo + 1, hi], or vanishes at one end
        x = _part_root(g, dg, lo + 1, hi, 3 * (lo + 1 + hi) + 2 * a > 0)
        if x is not None:
            roots.append(Fraction(x, c3))
    return sorted(roots)


def _part_root(g, dg, lo: int, hi: int, convex: bool) -> int | None:
    """The integer root of g in [lo, hi], or None, where g is a cubic that is
    monotone and convex (or concave) on [lo, hi].

    Newton's method from the end where g has the sign of g'' moves toward
    the root and never past it.  It crawls only while g is far from linear
    between the iterate and the root, which happens near the other end, at
    a critical point or at the inflection.  So the root's distance from that
    end is first bisected by its bit length until it is known within a
    factor of 8, and Newton's steps then converge quickly: a root n bits
    from that end takes O(log n) evaluations of g, where bisection takes n.
    """
    glo, ghi = g(lo), g(hi)
    if glo == 0:
        return lo
    if ghi == 0:
        return hi
    if (glo > 0) == (ghi > 0):
        return None
    # the root lies strictly between near and far; Newton steps go from far
    step = 1 if (ghi > 0) == convex else -1
    near, far, gfar = (lo, hi, ghi) if step == 1 else (hi, lo, glo)
    anchor = near
    while abs(far - near) > 1:
        bits_near, bits_far = abs(near - anchor).bit_length(), abs(far - anchor).bit_length()
        if bits_far - bits_near >= 3:
            # strictly between: 2^bits_near <= 2^k <= 2^(bits_far - 2)
            x = anchor + step * (1 << (bits_near + bits_far) // 2)
        else:
            # rounded toward far, so it stays on far's side of the root
            x = far - step * max(1, abs(gfar) // abs(dg(far)))
        gx = g(x)
        if gx == 0:
            return x
        if (gx > 0) == (gfar > 0):
            far, gfar = x, gx
        else:
            near = x
    return None


@dataclass(frozen=True)
class TwoTorsion:
    label: str  # "trivial" | "Z/2" | "Z/2 x Z/2"
    roots: tuple[Fraction, ...]  # rational roots of 4x^3 + b2 x^2 + 2 b4 x + b6


def two_torsion_structure(e: WeierstrassModel) -> TwoTorsion:
    """Group structure of E(Q)[2], from the rational roots of the 2-division cubic."""
    b2, b4, b6, _ = _b_invariants(e.coefficients())
    m = lcm(*(Fraction(c).denominator for c in (b2, b4, b6)))
    roots = _rational_cubic_roots(4 * m, int(m * b2), int(m * 2 * b4), int(m * b6))
    if len(roots) == 0:
        label = "trivial"
    elif len(roots) == 1:
        label = "Z/2"
    elif len(roots) == 3:
        label = "Z/2 x Z/2"
    else:  # pragma: no cover - a cubic cannot have exactly two rational roots
        raise AssertionError("cubic with exactly two rational roots")
    return TwoTorsion(label, tuple(roots))
