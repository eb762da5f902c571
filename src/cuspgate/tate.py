"""Kodaira types, conductor exponents and Tamagawa numbers at a prime.

This runs the standard step-by-step reduction analysis on an integral
Weierstrass model: locate the singular point of the reduction, translate
it to the origin, and walk the valuation tests, translating as needed,
restarting on a non-minimal model.  The conductor exponent is recovered
from v(disc) and the component count (f = v - m + 1), which is valid at
every prime, including the wildly ramified small ones.

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
from .curves import Transform, WeierstrassModel, apply_transform

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


def _singular_point(e: WeierstrassModel, p: int) -> tuple[int, int]:
    """The unique singular point of the reduction mod p, as residues."""
    a1, a2, a3, a4, a6 = e.coefficients()
    if p == 2:
        if e.b2 % 2 == 0:
            r = a4
            t = r * (1 + a2 + a4) + a6
        else:
            r = a3
            t = r + a4
        return r % 2, t % 2
    if p == 3:
        r = -e.b6 if e.b2 % 3 == 0 else -e.b2 * e.b4
    elif e.c4 % p == 0:
        r = -e.b2 * pow(12, -1, p)
    else:
        r = -(e.c6 + e.b2 * e.c4) * pow(12 * e.c4, -1, p)
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


def _result(p, kodaira, n, c, v, minimal, split, cur, total) -> TateResult:
    if kodaira in _COMPONENTS:
        m = _COMPONENTS[kodaira]
    elif kodaira.endswith("*"):
        m = n + 5  # I_n*
    else:
        m = n  # I_n, n >= 1
    f = v - m + 1 if v > 0 else 0
    return TateResult(p, kodaira, n, f, c, m, v, minimal, split, cur, total)


def tate_algorithm(e: WeierstrassModel, p: int) -> TateResult:
    """Reduction type of an integral model at the prime p."""
    if not e.is_integral():
        raise ValueError("model must have integer coefficients")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _tate(e, p)


def _tate(e: WeierstrassModel, p: int) -> TateResult:
    """tate_algorithm for an integral model and a p already proven prime."""
    cur = e
    total = Transform.identity()
    minimal = True

    while True:
        v = valuation(cur.disc, p)  # raises on a zero discriminant, also under -O
        if v == 0:
            return _result(p, "I0", 0, 1, 0, minimal, None, cur, total)

        x0, y0 = _singular_point(cur, p)
        cur, total = _shift(cur, total, x0, y0)
        assert all(_vp(a, p) >= 1 for a in (cur.a3, cur.a4, cur.a6))

        if cur.b2 % p != 0:
            # multiplicative reduction; tangent directions from T^2 + a1 T - a2
            kind, _ = _quad(1, cur.a1, -cur.a2, p)
            split = kind == "distinct_split"
            c = v if split else (2 if v % 2 == 0 else 1)
            return _result(p, f"I{v}", v, c, v, minimal, split, cur, total)

        if _vp(cur.a6, p) < 2:
            return _result(p, "II", 0, 1, v, minimal, None, cur, total)
        if _vp(cur.b8, p) < 3:
            return _result(p, "III", 0, 2, v, minimal, None, cur, total)
        if _vp(cur.b6, p) < 3:
            kind, _ = _quad(1, _exact(cur.a3, p, 1), -_exact(cur.a6, p, 2), p)
            assert kind != "double"
            c = 3 if kind == "distinct_split" else 1
            return _result(p, "IV", 0, c, v, minimal, None, cur, total)

        cur, total = _normalize(cur, total, p)

        # the reduced cubic T^3 + (a2/p) T^2 + (a4/p^2) T + (a6/p^3)
        shape, info = _cubic(_exact(cur.a2, p, 1), _exact(cur.a4, p, 2), _exact(cur.a6, p, 3), p)
        if shape == "distinct":
            return _result(p, "I0*", 0, 1 + info, v, minimal, None, cur, total)
        if shape == "double":
            if info:
                cur, total = _shift(cur, total, p * info, 0, 0)
            assert _vp(cur.a2, p) == 1 and _vp(cur.a4, p) >= 3 and _vp(cur.a6, p) >= 4
            return _in_star(cur, total, p, v, minimal)

        # triple root: translate it to T = 0
        if info:
            cur, total = _shift(cur, total, p * info, 0, 0)
        assert _vp(cur.a2, p) >= 2 and _vp(cur.a4, p) >= 3 and _vp(cur.a6, p) >= 4

        kind, root = _quad(1, _exact(cur.a3, p, 2), -_exact(cur.a6, p, 4), p)
        if kind != "double":
            c = 3 if kind == "distinct_split" else 1
            return _result(p, "IV*", 0, c, v, minimal, None, cur, total)
        if root:
            cur, total = _shift(cur, total, 0, p * p * root, 0)
        assert _vp(cur.a3, p) >= 3 and _vp(cur.a6, p) >= 5

        if _vp(cur.a4, p) < 4:
            return _result(p, "III*", 0, 2, v, minimal, None, cur, total)
        if _vp(cur.a6, p) < 6:
            return _result(p, "II*", 0, 1, v, minimal, None, cur, total)

        # non-minimal: all a_i divisible by p^i, divide out and restart
        assert _vp(cur.a1, p) >= 1 and _vp(cur.a2, p) >= 2
        rescale = Transform(p, 0, 0, 0)
        cur = apply_transform(cur, rescale)
        if not cur.is_integral():
            raise AssertionError(f"the model is not divisible by {p}^i in each a_i")
        total = total.then(rescale)
        minimal = False


def _shift(cur, total, r, t, s=0):
    tr = Transform(1, r, s, t)
    nxt = apply_transform(cur, tr)
    if not nxt.is_integral():
        raise AssertionError(f"shift by {tr} leaves a non-integral model")
    return nxt, total.then(tr)


def _exact(n: int, p: int, k: int) -> int:
    q, r = divmod(n, p**k)
    if r:
        raise AssertionError(f"{n} is not divisible by {p}^{k}")
    return q


def _normalize(cur, total, p):
    """Arrange v(a1)>=1, v(a2)>=1, v(a3)>=2, v(a4)>=2, v(a6)>=3."""
    if p == 2:
        assert cur.a1 % 2 == 0  # b2 = a1^2 + 4 a2 is even here
        s = cur.a2 % 2
        # v(b6)>=3 with v(a6)>=2 forces v(a3)>=2 already; pick t in {0,2}
        assert _vp(cur.a3, 2) >= 2
        t = 2 * (_exact(cur.a6, 2, 2) % 2)
    else:
        inv2 = pow(2, -1, p)
        s = -cur.a1 * inv2 % p
        t = -cur.a3 * pow(2, -1, p * p) % (p * p)
    cur, total = _shift(cur, total, 0, t, s)
    assert _vp(cur.a1, p) >= 1 and _vp(cur.a2, p) >= 1
    assert _vp(cur.a3, p) >= 2 and _vp(cur.a4, p) >= 2 and _vp(cur.a6, p) >= 3
    return cur, total


def _in_star(cur, total, p, v, minimal):
    """The I_n* chain: alternate Y- and X-direction tests, translating on
    double roots, until a quadratic with distinct roots appears."""
    n = 1
    kx = ky = 2  # the next X- and Y-shifts are multiples of p^kx and p^ky
    while True:
        if n > v - 4:
            raise AssertionError("I_n* chain exceeded the discriminant bound")
        kind, root = _quad(1, _exact(cur.a3, p, ky), -_exact(cur.a6, p, kx + ky), p)
        if kind != "double":
            c = 4 if kind == "distinct_split" else 2
            break
        if root:
            cur, total = _shift(cur, total, 0, p**ky * root, 0)
        ky += 1
        n += 1

        kind, root = _quad(_exact(cur.a2, p, 1), _exact(cur.a4, p, 1 + kx), _exact(cur.a6, p, kx + ky), p)
        if kind != "double":
            c = 4 if kind == "distinct_split" else 2
            break
        if root:
            cur, total = _shift(cur, total, p**kx * root, 0, 0)
        kx += 1
        n += 1
    return _result(p, f"I{n}*", n, c, v, minimal, None, cur, total)


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
