"""Kodaira types, conductor exponents and Tamagawa numbers at a prime.

`_tate` runs the standard step-by-step reduction analysis on the
coefficient tuple a = (a1, ..., a6) of an integral model, in bare ints:
locate the singular point of the reduction, translate it to the origin,
walk the valuation tests, translating as needed, and divide a non-minimal
model by p and restart.  A translation (u = 1) keeps the discriminant, so
the caller passes v(disc) and it drops by 12 per exact division.  The
outcome is a plain tuple (a, k, kodaira, n, c, v, split), with u = p^k.
f = v - m + 1 comes from v and the component count m at every prime.
Records are built only for `tate_algorithm` and `_local_data`, in
`_result`; for a fixed u the change is triangular in (s, r, t), so a1, a2
and a3 give s, r and t by exact divisions.  `conductor` computes the
discriminant once per curve, takes its factorization from the caller or
factors it, and builds no record.  At a prime p of the discriminant that
does not divide c4 it takes f = 1 without running the loop: the singular
point is a node, and the model is minimal at p (a non-minimal one has
p^4 | c4), so the loop would stop in its first, multiplicative branch (on
the translated model c4 = b2^2 mod p, and a shift leaves c4 as it is).  At
every other prime it reads f straight off the loop's outcome.

Beside that read, there is one path for every prime.  The singular point,
the shape of the I0* cubic and its root count are closed forms mod p that
branch only on the characteristic (p = 2, p = 3, p >= 5), after Cremona,
*Algorithms for Modular Elliptic Curves*, section 3.2.  Brute-force searches over F_p for
the same answers are the test oracles in `tests/tate_oracle.py`.

The split/non-split and component-group decisions are made on the
*translated* model; deciding them on the input coefficients is a classic
mistake (it gives the wrong Tamagawa number already for the conductor-11
curve (0,-1,1,-10,-20)) and the tests pin this down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import Factorization, factor, is_prime, valuation
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


def _exponents(outcome: tuple) -> tuple[int, int]:
    """(m, f) of `_tate`'s outcome: the component count and f = v - m + 1."""
    _, _, kodaira, n, _, v, _ = outcome
    m = _COMPONENTS.get(kodaira, n + 5 if kodaira.endswith("*") else n)  # I_n*, I_n
    return m, (v - m + 1 if v > 0 else 0)


def _result(e, p, outcome) -> TateResult:
    """The record of `_tate`'s outcome at p, its final tuple a reached from e."""
    a, k, kodaira, n, c, v, split = outcome
    m, f = _exponents(outcome)
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
    return _result(e, p, _tate(e, p, valuation(e.disc, p)))  # raises on disc 0, also under -O


def _tate(e: WeierstrassModel, p: int, v: int) -> tuple:
    """tate_algorithm for an integral model, a p already proven prime and
    v = v_p(disc), as the bare outcome (a, k, kodaira, n, c, v, split)."""
    a = e.coefficients()
    k = 0

    while True:
        if v == 0:
            return a, k, "I0", 0, 1, 0, None

        x0, y0 = _singular_point(a, p)
        a = a1, a2, a3, a4, a6 = _shifted(a, x0, 0, y0)
        if a3 % p or a4 % p or a6 % p:
            raise AssertionError(f"({x0}, {y0}) is not the singular point mod {p}")
        b2, _, b6, b8 = _b_invariants(a)

        if b2 % p != 0:
            # multiplicative reduction; tangent directions from T^2 + a1 T - a2
            kind, _ = _quad(1, a1, -a2, p)
            split = kind == "distinct_split"
            c = v if split else (2 if v % 2 == 0 else 1)
            return a, k, f"I{v}", v, c, v, split

        if a6 % p**2:
            return a, k, "II", 0, 1, v, None
        if b8 % p**3:
            return a, k, "III", 0, 2, v, None
        if b6 % p**3:
            kind, _ = _quad(1, _exact(a3, p, 1), -_exact(a6, p, 2), p)
            if kind == "double":
                raise AssertionError(f"type IV needs distinct roots mod {p}")
            c = 3 if kind == "distinct_split" else 1
            return a, k, "IV", 0, c, v, None

        a = a1, a2, a3, a4, a6 = _normalize(a, p)

        # the reduced cubic T^3 + (a2/p) T^2 + (a4/p^2) T + (a6/p^3)
        shape, info = _cubic(_exact(a2, p, 1), _exact(a4, p, 2), _exact(a6, p, 3), p)
        if shape == "distinct":
            return a, k, "I0*", 0, 1 + info, v, None
        # a double or a triple root: translate it to T = 0
        a = a1, a2, a3, a4, a6 = _shifted(a, p * info, 0, 0)
        # v(a2) = 1 after a double root, v(a2) >= 2 after a triple one
        if a2 % p or a4 % p**3 or a6 % p**4 or (a2 % p**2 == 0) != (shape == "triple"):
            raise AssertionError(f"the {shape} root did not move to 0 mod {p}")
        if shape == "double":
            a, n, c = _in_star(a, p, v)
            return a, k, f"I{n}*", n, c, v, None

        kind, root = _quad(1, _exact(a3, p, 2), -_exact(a6, p, 4), p)
        if kind != "double":
            c = 3 if kind == "distinct_split" else 1
            return a, k, "IV*", 0, c, v, None
        a = a1, a2, a3, a4, a6 = _shifted(a, 0, 0, p * p * root)
        if a3 % p**3 or a6 % p**5:
            raise AssertionError(f"the double root of the IV* test did not move to 0 mod {p}")

        if a4 % p**4:
            return a, k, "III*", 0, 2, v, None
        if a6 % p**6:
            return a, k, "II*", 0, 1, v, None

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
        # b2 = a1^2 + 4 a2 is even here, and v(b6)>=3 with v(a6)>=2 forces
        # v(a3)>=2 already
        if a1 % 2 or a3 % 4:
            raise AssertionError("a1 is odd or 4 does not divide a3, though 2 | b2 and 8 | b6")
        s = a2 % 2
        t = 2 * (_exact(a6, 2, 2) % 2)  # pick t in {0,2}
    else:
        s = -a1 * pow(2, -1, p) % p
        t = -a3 * pow(2, -1, p * p) % (p * p)
    a = a1, a2, a3, a4, a6 = _shifted(a, 0, s, t)
    if a1 % p or a2 % p or a3 % p**2 or a4 % p**2 or a6 % p**3:
        raise AssertionError(f"the model did not normalize at {p}")
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


def conductor(e: WeierstrassModel, disc: Factorization | None = None) -> int:
    """Conductor of E/Q (the model need not be minimal, only integral up to
    clearing denominators): f = 1 at each prime of the discriminant that
    does not divide c4, where the reduction is multiplicative, and f read
    off `_tate`'s outcome at each other prime, with no records built.

    `disc` is the factorization of |disc| of e's integral model when the
    caller has already proven it, as a search does for its hits; without
    it the discriminant is factored here.  ValueError if `disc.n` is not
    that |disc|."""
    e = e.integral_model()[0]
    n = abs(e.disc)
    if disc is None:
        disc = factor(n)
    elif disc.n != n:
        raise ValueError(f"factorization of {disc.n} given for the discriminant {n}")
    # p | disc and p !| c4 make the singular point a node (Silverman, AEC
    # III.1.4, in every characteristic), and the model is minimal at p, since
    # a non-minimal one has p^4 | c4: multiplicative, f = 1.  This is the
    # loop's own first branch read early: with the singular point moved to
    # the origin, p | b4, so c4 = b2^2 - 24 b4 = b2^2 (mod p), and a shift
    # (u = 1) leaves c4 as it is, so p !| c4 iff p !| b2 there.
    c4 = e.c4
    # the primes are proven and carry v_p(disc) with them
    return math.prod(
        p if c4 % p else p ** _exponents(_tate(e, p, v))[1] for p, v in disc.pairs
    )


def _local_data(e: WeierstrassModel):
    """Yield (p, tate_algorithm) at each prime of the discriminant of the
    integral model of e, ascending."""
    e = e.integral_model()[0]
    # factor proves its primes, so they skip tate_algorithm's primality test
    for p, v in factor(abs(e.disc)).pairs:
        yield p, _result(e, p, _tate(e, p, v))
