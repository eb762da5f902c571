"""Brute-force searches over F_p, kept as test oracles for `tate`.

The library finds the singular point of a reduction and the shape of the
I0* cubic by closed forms mod p.  These forms search F_p (and F_p x F_p for
the singular point) instead, so they only reach small p; the suite compares
the closed forms with them at every prime p <= 97.  Papadopoulos's table
reads the Kodaira symbol at p >= 5 from valuations alone, without running
the algorithm.  The naive point count and the Hasse check at 2 built on it
live here too, as nothing in the library calls them.
"""

from __future__ import annotations

import math

from cuspgate.arith import valuation
from cuspgate.curves import WeierstrassModel
from cuspgate.tate import tate_algorithm


def singular_point(a: tuple, p: int) -> tuple[int, int]:
    """The point where both partial derivatives vanish, on the reduction mod
    p of the coefficient tuple a = (a1, a2, a3, a4, a6)."""
    a1, a2, a3, a4, a6 = (x % p for x in a)
    for x in range(p):
        rhs = (((x + a2) * x + a4) * x + a6) % p
        fx = (3 * x * x + 2 * a2 * x + a4) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - rhs) % p:
                continue
            if (2 * y + a1 * x + a3) % p:
                continue
            if (a1 * y - fx) % p:
                continue
            return x, y
    raise AssertionError("no singular point found mod %d" % p)


def cubic(b: int, c: int, d: int, p: int) -> tuple[str, int]:
    """Shape of T^3 + b T^2 + c T + d over F_p, by trying every residue:
    ("distinct", #roots), ("double", root) or ("triple", root)."""
    b, c, d = b % p, c % p, d % p
    roots = [x for x in range(p) if (((x + b) * x + c) * x + d) % p == 0]
    for x in roots:
        # multiplicity by repeated synthetic division (characteristic-proof)
        poly = [1, b, c, d]
        m = 0
        while len(poly) > 1:
            quot = []
            acc = 0
            for coef in poly[:-1]:
                acc = (acc * x + coef) % p
                quot.append(acc)
            if (acc * x + poly[-1]) % p != 0:
                break
            m += 1
            poly = quot
        if m >= 3:
            return ("triple", x)
        if m == 2:
            return ("double", x)
    return ("distinct", len(roots))


# Papadopoulos (J. Number Theory 44, 1993), the table for p >= 5: the
# Kodaira symbol of a minimal model from (v(c4), v(c6), v(disc)).  An entry
# k is v = k, and (k,) is v >= k; the n of I_n and I_n* comes from v(disc).
PAPADOPOULOS = (
    ("I0", (0,), (0,), 0),
    ("In", 0, 0, (1,)),
    ("II", (1,), 1, 2),
    ("III", 1, (2,), 3),
    ("IV", (2,), 2, 4),
    ("I0*", 2, (3,), 6),
    ("I0*", (3,), 3, 6),
    ("In*", 2, 3, (7,)),
    ("IV*", (3,), 4, 8),
    ("III*", 3, (5,), 9),
    ("II*", (4,), 5, 10),
)


def papadopoulos(e: WeierstrassModel, p: int) -> tuple[str, int]:
    """(Kodaira symbol, v(minimal disc)) at a prime p >= 5, from the table.

    At p >= 5 a model is minimal unless v(c4) >= 4, v(c6) >= 6 and
    v(disc) >= 12, and u = p lowers the three by 4, 6 and 12."""
    if p < 5:
        raise ValueError("the table is for p >= 5")
    c4, c6, disc = e.c4, e.c6, e.disc
    assert 1728 * disc == c4**3 - c6**2
    v4, v6, vd = (math.inf if x == 0 else valuation(x, p) for x in (c4, c6, disc))
    while v4 >= 4 and v6 >= 6 and vd >= 12:
        v4, v6, vd = v4 - 4, v6 - 6, vd - 12

    def fits(v, entry):
        return v >= entry[0] if isinstance(entry, tuple) else v == entry

    rows = [row for row in PAPADOPOULOS if all(map(fits, (v4, v6, vd), row[1:]))]
    if len(rows) != 1:
        raise AssertionError(f"(v(c4), v(c6), v(disc)) = {(v4, v6, vd)} fits rows {rows}")
    symbol = rows[0][0]
    if symbol == "In":
        symbol = f"I{vd}"
    elif symbol == "In*":
        symbol = f"I{vd - 6}*"
    return symbol, vd


def reduction_point_count(e: WeierstrassModel, p: int) -> int:
    """#E(F_p) for a model with good reduction at p (counts naively)."""
    res = tate_algorithm(e, p)
    if res.f != 0:
        raise ValueError(f"bad reduction at {p} (type {res.kodaira})")
    a1, a2, a3, a4, a6 = (a % p for a in res.model.coefficients())
    count = 1
    for x in range(p):
        rhs = (((x + a2) * x + a4) * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - rhs) % p == 0:
                count += 1
    return count


def hasse_bound_check_at_2(e: WeierstrassModel, claimed_order: int) -> bool:
    """Whether a rational torsion subgroup of the claimed order survives the
    injection into E(F_2).  Requires good reduction at 2; #E(F_2) <= 5, so
    claimed orders >= 6 always fail."""
    if claimed_order < 1:
        raise ValueError("order must be positive")
    count = reduction_point_count(e, 2)
    assert count <= 5  # Hasse: |#E(F_2) - 3| <= 2*sqrt(2)
    return count % claimed_order == 0
