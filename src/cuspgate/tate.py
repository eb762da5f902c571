"""Kodaira types, conductor exponents and Tamagawa numbers at a prime.

This runs the standard step-by-step reduction analysis on the coefficient
tuple a = (a1, ..., a6) of an integral model, in bare ints: locate the
singular point of the reduction, translate it to the origin, walk the
valuation tests, translating as needed, and divide a non-minimal model by p
and restart.  A translation (u = 1) keeps a integral and the discriminant
fixed, so v(disc) is computed once and drops by 12 per exact division.  The
model and transform are built once, in `_result`: with u = p^k after k
divisions the change is triangular in (s, r, t), so a1, a2 and a3 give s, r
and t by exact divisions.  The conductor exponent f = v - m + 1 comes from
v(disc) and the component count m, at every prime, including the wildly
ramified small ones.

There is one path for every prime.  The singular point, the shape of the
I0* cubic and its root count are closed forms mod p that branch only on the
characteristic (p = 2, p = 3, p >= 5), after Cremona, *Algorithms for
Modular Elliptic Curves*, section 3.2.  Brute-force searches over F_p for
the same answers are the test oracles in `tests/tate_oracle.py`.

The split/non-split and component-group decisions are made on the
*translated* model; deciding them on the input coefficients is a classic
mistake (it gives the wrong Tamagawa number already for the conductor-11
curve (0,-1,1,-10,-20)) and the tests pin this down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import factor, is_prime, valuation
from .curves import Transform, WeierstrassModel, _b_invariants, _c_invariants, _shifted

# ---------------------------------------------------------------------------
# closed forms mod p


def _quad(a: int, b: int, c: int, p: int) -> tuple[str, int | None]:
    """Shape of a*Y^2 + b*Y + c over F_p (a a unit).

    Returns ("distinct_split"|"distinct_nonsplit", None) or ("double", root).
    """
    a, b, c = a % p, b % p, c % p
    if a == 0:
        raise ValueError("leading coefficient vanishes mod p")
    if p == 2:
        if b == 1:
            return ("distinct_split" if c == 0 else "distinct_nonsplit", None)
        return ("double", c * a % 2)  # Y^2 + c/a = (Y + sqrt(c/a))^2
    disc = (b * b - 4 * a * c) % p
    if disc == 0:
        return ("double", -b * pow(2 * a, -1, p) % p)
    if pow(disc, (p - 1) // 2, p) == 1:
        return ("distinct_split", None)
    return ("distinct_nonsplit", None)


def _cubic(b: int, c: int, d: int, p: int) -> tuple[str, int]:
    """Shape of the monic cubic T^3 + b T^2 + c T + d over F_p.

    Returns ("distinct", #F_p-roots), ("double", root) or ("triple", root);
    the returned root is the repeated one.
    """
    b, c, d = b % p, c % p, d % p
    if (b * b * c * c - 4 * c**3 - 4 * b**3 * d - 27 * d * d + 18 * b * c * d) % p:
        # squarefree: three roots iff T^p = T mod the cubic; one root and an
        # irreducible quadratic factor iff only T^(p^2) = T
        t = (0, 1, 0)
        if _tpow(p, b, c, d, p) == t:
            return ("distinct", 3)
        return ("distinct", 1 if _tpow(p * p, b, c, d, p) == t else 0)
    # with roots (x, x, y), 3c - b^2 = -(x - y)^2 in every characteristic
    delta = (3 * c - b * b) % p
    if delta:
        # x = (bc - 9d) / (2(3c - b^2)) for odd p, which is bc at p = 3;
        # at p = 2, c = x^2 + 2xy = x
        root = c if p == 2 else (b * c - 9 * d) * pow(2 * delta, -1, p)
        return ("double", root % p)
    # (T - x)^3: b = -3x, and at p = 3, d = -x^3 = -x
    return ("triple", -d % p if p == 3 else -b * pow(3, -1, p) % p)


def _tpow(e: int, b: int, c: int, d: int, p: int) -> tuple[int, int, int]:
    """T^e in F_p[T]/(T^3 + bT^2 + cT + d), as coefficients (T^2, T, 1)."""

    def mul(x, y):
        x2, x1, x0 = x
        y2, y1, y0 = y
        # fold T^4 = -b T^3 - c T^2 - d T, then T^3 = -b T^2 - c T - d
        e4 = x2 * y2
        e3 = x2 * y1 + x1 * y2 - b * e4
        e2 = x2 * y0 + x1 * y1 + x0 * y2 - c * e4 - b * e3
        e1 = x1 * y0 + x0 * y1 - d * e4 - c * e3
        e0 = x0 * y0 - d * e3
        return (e2 % p, e1 % p, e0 % p)

    out, base = (0, 0, 1), (0, 1, 0)
    while e:
        if e & 1:
            out = mul(out, base)
        base = mul(base, base)
        e >>= 1
    return out


def _vp(n: int, p: int) -> float:
    return math.inf if n == 0 else valuation(n, p)


def _singular_point(a: tuple, p: int) -> tuple[int, int]:
    """The unique singular point of the reduction mod p, as residues."""
    a1, a2, a3, a4, a6 = a
    b2, b4, b6, _ = b = _b_invariants(a)
    if p == 2:
        if b2 % 2 == 0:
            r = a4
            t = r * (1 + a2 + a4) + a6
        else:
            r = a3
            t = r + a4
        return r % 2, t % 2
    c4, c6 = _c_invariants(b)
    if p == 3:
        r = -b6 if b2 % 3 == 0 else -b2 * b4
    elif c4 % p == 0:
        r = -b2 * pow(12, -1, p)
    else:
        r = -(c6 + b2 * c4) * pow(12 * c4, -1, p)
    t = -(a1 * r + a3) * pow(2, -1, p)
    return r % p, t % p


_COMPONENTS = {"I0": 1, "II": 1, "III": 2, "IV": 3, "I0*": 5, "IV*": 7, "III*": 8, "II*": 9}


@dataclass(frozen=True)
class TateResult:
    p: int
    kodaira: str  # "I0", "I5", "II", ..., "I2*", "II*"
    n: int  # the n of I_n / I_n*; 0 otherwise
    f: int  # conductor exponent
    c: int  # Tamagawa number [E(Qp) : E0(Qp)]
    m: int  # number of components of the special fiber (over F_p-bar)
    v_disc: int  # valuation of the *minimal* discriminant
    minimal: bool  # whether the input model was already minimal at p
    split: bool | None  # multiplicative case only
    model: WeierstrassModel  # the translated p-minimal model the decisions used
    transform: Transform  # input -> model


def _result(e, a, k, p, kodaira, n, c, v, split=None) -> TateResult:
    """The record for the final tuple a, reached from e with u = p^k."""
    m = _COMPONENTS.get(kodaira, n + 5 if kodaira.endswith("*") else n)  # I_n*, I_n
    f = v - m + 1 if v > 0 else 0
    # solve u a1' = a1 + 2s, u^2 a2' = a2 - s a1 + 3r - s^2, u^3 a3' = a3 + r a1 + 2t
    u = p**k
    e1, e2, e3, _, _ = e.coefficients()
    s = _exact(u * a[0] - e1, 2, 1)
    r = _exact(u * u * a[1] - e2 + s * e1 + s * s, 3, 1)
    t = _exact(u**3 * a[2] - e3 - r * e1, 2, 1)
    model, transform = WeierstrassModel(*a), Transform(u, r, s, t)
    return TateResult(p, kodaira, n, f, c, m, v, k == 0, split, model, transform)


def tate_algorithm(e: WeierstrassModel, p: int) -> TateResult:
    """Reduction type of an integral model at the prime p."""
    if not e.is_integral():
        raise ValueError("model must have integer coefficients")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _tate(e, p)


def _tate(e: WeierstrassModel, p: int) -> TateResult:
    """tate_algorithm for an integral model and a p already proven prime."""
    a = e.coefficients()
    k = 0
    v = valuation(e.disc, p)  # raises on a zero discriminant, also under -O

    while True:
        if v == 0:
            return _result(e, a, k, p, "I0", 0, 1, 0)

        x0, y0 = _singular_point(a, p)
        a = a1, a2, a3, a4, a6 = _shifted(a, x0, 0, y0)
        assert all(_vp(x, p) >= 1 for x in (a3, a4, a6))
        b2, _, b6, b8 = _b_invariants(a)

        if b2 % p != 0:
            # multiplicative reduction; tangent directions from T^2 + a1 T - a2
            kind, _ = _quad(1, a1, -a2, p)
            split = kind == "distinct_split"
            c = v if split else (2 if v % 2 == 0 else 1)
            return _result(e, a, k, p, f"I{v}", v, c, v, split)

        if _vp(a6, p) < 2:
            return _result(e, a, k, p, "II", 0, 1, v)
        if _vp(b8, p) < 3:
            return _result(e, a, k, p, "III", 0, 2, v)
        if _vp(b6, p) < 3:
            kind, _ = _quad(1, _exact(a3, p, 1), -_exact(a6, p, 2), p)
            assert kind != "double"
            c = 3 if kind == "distinct_split" else 1
            return _result(e, a, k, p, "IV", 0, c, v)

        a = a1, a2, a3, a4, a6 = _normalize(a, p)

        # the reduced cubic T^3 + (a2/p) T^2 + (a4/p^2) T + (a6/p^3)
        shape, info = _cubic(_exact(a2, p, 1), _exact(a4, p, 2), _exact(a6, p, 3), p)
        if shape == "distinct":
            return _result(e, a, k, p, "I0*", 0, 1 + info, v)
        # a double or a triple root: translate it to T = 0
        a = a1, a2, a3, a4, a6 = _shifted(a, p * info, 0, 0)
        if shape == "double":
            assert _vp(a2, p) == 1 and _vp(a4, p) >= 3 and _vp(a6, p) >= 4
            a, n, c = _in_star(a, p, v)
            return _result(e, a, k, p, f"I{n}*", n, c, v)
        assert _vp(a2, p) >= 2 and _vp(a4, p) >= 3 and _vp(a6, p) >= 4

        kind, root = _quad(1, _exact(a3, p, 2), -_exact(a6, p, 4), p)
        if kind != "double":
            c = 3 if kind == "distinct_split" else 1
            return _result(e, a, k, p, "IV*", 0, c, v)
        a = a1, a2, a3, a4, a6 = _shifted(a, 0, 0, p * p * root)
        assert _vp(a3, p) >= 3 and _vp(a6, p) >= 5

        if _vp(a4, p) < 4:
            return _result(e, a, k, p, "III*", 0, 2, v)
        if _vp(a6, p) < 6:
            return _result(e, a, k, p, "II*", 0, 1, v)

        # non-minimal: all a_i divisible by p^i, divide out and restart
        a = tuple(_exact(x, p, w) for x, w in zip(a, (1, 2, 3, 4, 6)))
        k += 1
        v -= 12


def _exact(n: int, p: int, k: int) -> int:
    q, r = divmod(n, p**k)
    if r:
        raise AssertionError(f"{n} is not divisible by {p}^{k}")
    return q


def _normalize(a, p):
    """Arrange v(a1)>=1, v(a2)>=1, v(a3)>=2, v(a4)>=2, v(a6)>=3."""
    a1, a2, a3, _, a6 = a
    if p == 2:
        assert a1 % 2 == 0  # b2 = a1^2 + 4 a2 is even here
        s = a2 % 2
        # v(b6)>=3 with v(a6)>=2 forces v(a3)>=2 already; pick t in {0,2}
        assert _vp(a3, 2) >= 2
        t = 2 * (_exact(a6, 2, 2) % 2)
    else:
        s = -a1 * pow(2, -1, p) % p
        t = -a3 * pow(2, -1, p * p) % (p * p)
    a = a1, a2, a3, a4, a6 = _shifted(a, 0, s, t)
    assert _vp(a1, p) >= 1 and _vp(a2, p) >= 1
    assert _vp(a3, p) >= 2 and _vp(a4, p) >= 2 and _vp(a6, p) >= 3
    return a


def _in_star(a, p, v):
    """The I_n* chain: alternate Y- and X-direction tests, translating on
    double roots, until a quadratic with distinct roots appears.  Returns
    the final tuple, n and the Tamagawa number."""
    n = 1
    kx = ky = 2  # the next X- and Y-shifts are multiples of p^kx and p^ky
    while True:
        if n > v - 4:
            raise AssertionError("I_n* chain exceeded the discriminant bound")
        kind, root = _quad(1, _exact(a[2], p, ky), -_exact(a[4], p, kx + ky), p)
        if kind != "double":
            break
        a = _shifted(a, 0, 0, p**ky * root)
        ky += 1
        n += 1

        kind, root = _quad(_exact(a[1], p, 1), _exact(a[3], p, 1 + kx), _exact(a[4], p, kx + ky), p)
        if kind != "double":
            break
        a = _shifted(a, p**kx * root, 0, 0)
        kx += 1
        n += 1
    return a, n, 4 if kind == "distinct_split" else 2


# ---------------------------------------------------------------------------


def conductor(e: WeierstrassModel) -> int:
    """Conductor of E/Q (the model need not be minimal, only integral up to
    clearing denominators)."""
    return math.prod(p**res.f for p, res in _local_data(e))


def _local_data(e: WeierstrassModel):
    """Yield (p, tate_algorithm) at each prime of the discriminant of the
    integral model of e, ascending."""
    e = e.integral_model()[0]
    # factor proves its primes, so they skip tate_algorithm's primality test
    for p in factor(abs(int(e.disc))).primes():
        yield p, _tate(e, p)
