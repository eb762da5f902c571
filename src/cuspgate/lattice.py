"""Invariant factors of the image of an integer matrix modulo D.

For an integer matrix C with Smith diagonal c_1, c_2, ... the image of C in
(Z/D)^rows is the sum of Z/(D / gcd(c_i, D)).  That sum splits over the
prime powers l^a || D, and over Z/l^a every entry is a unit times a power
of l.  So an entry of least valuation v divides every entry: one row
operation per row clears its column, with no extended gcd and no column
operation, and its row and column drop out as the summand Z/l^(a - v).
"""

from __future__ import annotations

from math import gcd


def _local_part(rows: list[list[int]], m: int) -> list[int]:
    """The summands m/g (descending) of the image of `rows` over Z/m, m = l^a."""
    A = [[x % m for x in row] for row in rows]
    part, floor = [], 1
    while A:
        # the row of least gcd(row, m) = l^v; no step lowers v, so the
        # search stops at the first row at the last pivot's v (a unit at first)
        g = m
        for i, row in enumerate(A):
            h = gcd(m, *row)
            if h < g:
                g, pr = h, i
                if h == floor:
                    break
        if g == m:
            break
        piv, floor = A.pop(pr), g
        pc = next(j for j, x in enumerate(piv) if gcd(x, m) == g)
        unit = pow(piv[pc] // g, -1, m)
        others = [(j, y) for j, y in enumerate(piv) if y and j != pc]
        for row in A:
            if row[pc]:
                q = row[pc] // g * unit % m
                for j, y in others:
                    row[j] = (row[j] - q * y) % m
            del row[pc]
        part.append(m // g)
    return part


def image_invariants(rows: list[list[int]], prime_powers) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... (each > 1) of the span of the columns
    of `rows` in (Z/D)^len(rows), D the product of l**a over the pairs
    (l, a) of `prime_powers`: the l-parts, multiplied largest with largest."""
    chain = []  # descending
    for ell, a in prime_powers:
        part = _local_part(rows, ell**a)
        chain += [1] * (len(part) - len(chain))
        for i, d in enumerate(part):
            chain[i] *= d
    return tuple(reversed(chain))
