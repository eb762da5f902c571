"""Brute-force searches over F_p, kept as test oracles for `tate`.

The library finds the singular point of a reduction and the shape of the
I0* cubic by closed forms mod p.  These forms search F_p (and F_p x F_p for
the singular point) instead, so they only reach small p; the suite compares
the closed forms with them at every prime p <= 97.  The naive point count
and the Hasse check at 2 built on it live here too, as nothing in the
library calls them.
"""

from __future__ import annotations

from cuspgate.curves import WeierstrassModel
from cuspgate.tate import tate_algorithm


def singular_point(e: WeierstrassModel, p: int) -> tuple[int, int]:
    """The point of the reduction mod p where both partial derivatives vanish."""
    a1, a2, a3, a4, a6 = (a % p for a in e.coefficients())
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
