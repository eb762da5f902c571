"""Smith invariants of an integer matrix modulo a fixed modulus.

For rows spanning a lattice L in Z^n, the group Z^n / (L + m Z^n) has
invariant factors gcd(d_i, m), where d_1 | d_2 | ... is the Smith diagonal
of the rows over Z (d_i = 0 past the rank).  Since m Z^n is in the
submodule, every entry can be reduced mod m after every step, so no entry
ever exceeds m; integer Smith reduction without that bound blows up on
the cuspidal congruence systems (Domich-Kannan-Trotter 1987; Cohen, GTM
138, section 2.4).
"""

from __future__ import annotations

import math


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b, for a > 0 and b >= 0.

    When a divides b this is (a, 1, 0), so a pivot that already divides
    an entry stays in place and the entry is eliminated.
    """
    if b % a == 0:
        return a, 1, 0
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def smith_normal_form(rows: list[list[int]], modulus: int) -> list[int]:
    """Invariant factors g_1 | g_2 | ... | g_n of Z^n / (row lattice + modulus Z^n).

    One factor per column (n = row length), each a divisor of `modulus`:
    g_i = gcd(d_i, modulus) for the integer Smith diagonal d_i.  Every row
    and column operation is unimodular over Z and keeps entries in
    [0, modulus).
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    m = modulus
    A = [[x % m for x in row] for row in rows]
    n = len(A[0]) if A else 0
    A = [row for row in A if any(row)]
    diag = []
    while A:
        # pivot: the entry that generates the largest ideal mod m
        _, pr, pc = min((math.gcd(v, m), i, j) for i, row in enumerate(A) for j, v in enumerate(row) if v)
        A[0], A[pr] = A[pr], A[0]
        # clear the pivot's column and row; a pass that leaves work behind
        # has lowered the pivot (it stays in [1, m)), so this terminates
        cleared = False
        while not cleared:
            cleared = True
            piv = A[0]
            for row in A[1:]:
                b = row[pc]
                if b:
                    a = piv[pc]
                    g, x, y = _xgcd(a, b)
                    u, v = a // g, b // g
                    piv[:], row[:] = (
                        [(x * p + y * r) % m for p, r in zip(piv, row)],
                        [(u * r - v * p) % m for p, r in zip(piv, row)],
                    )
            for j in range(len(piv)):
                b = piv[j]
                if j != pc and b:
                    a = piv[pc]
                    g, x, y = _xgcd(a, b)
                    u, v = a // g, b // g
                    for row in A:
                        p, r = row[pc], row[j]
                        row[pc], row[j] = (x * p + y * r) % m, (u * r - v * p) % m
                    cleared = False
        diag.append(math.gcd(A[0][pc], m))
        A = [row[:pc] + row[pc + 1 :] for row in A[1:]]
        A = [row for row in A if any(row)]
    diag += [m] * (n - len(diag))
    # Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b): sort the cyclic factors into a chain
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            g = math.gcd(a, b)
            diag[i], diag[j] = g, a // g * b
    return diag
