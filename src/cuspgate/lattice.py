"""Invariant factors of the image of an integer matrix modulo D.

For an integer matrix C with Smith diagonal c_1, c_2, ... the image of C in
(Z/D)^rows is the sum of Z/(D / gcd(c_i, D)).  That sum splits over the
prime powers l^a || D, and over Z/l^a every entry is a unit times a power
of l.  So an entry of least valuation v divides every entry: one row
operation per row clears its column, with no extended gcd and no column
operation, and its row and column drop out as the summand Z/l^(a - v).

A diagonal (one row per column, one entry each) is kept apart and never
written out: its entries never change, so it is sorted by valuation once.
A pivot on the diagonal has no other entry in its row, so it only zeroes
its column in the dense rows.  A pivot at dense entry (r, s), strictly
below the diagonal's least valuation, also clears column s of diagonal row
s, which leaves (d_s / g) times row r up to a unit; that row joins the
dense rows as row r leaves.  Each step adds multiples of one row to others
and scales a row by a unit of Z/l^a: unimodular, so the image is kept.
"""

from __future__ import annotations

from math import gcd


def _local_part(rows: list[list[int]], m: int, diag) -> list[int]:
    """The summands m/g (descending) of the image of `rows` stacked on the
    diagonal `diag` over Z/m, m = l^a; entry j of `diag` sits on column j."""
    A = [[x % m for x in row] for row in rows]
    # the diagonal columns left, least gcd(d, m) last; a d = 0 mod m never pivots
    todo = [j for j, d in enumerate(diag) if d % m]
    vals = [gcd(d, m) for d in diag] if todo else []
    todo.sort(key=vals.__getitem__, reverse=True)
    part, floor = [], 1
    while True:
        # the dense row of least gcd(row, m) = l^v; no step lowers v, so the
        # search stops at the first row at the last pivot's v (a unit at first)
        g = m
        for i, row in enumerate(A):
            h = gcd(m, *row)
            if h < g:
                g, pr = h, i
                if h == floor:
                    break
        if todo and vals[todo[-1]] <= g:
            # every diagonal pivot at this valuation, each only zeroing its column
            floor = vals[todo[-1]]
            while todo and vals[todo[-1]] == floor:
                j = todo.pop()
                for row in A:
                    row[j] = 0
                part.append(m // floor)
            continue
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
                row[pc] = 0
        if pc in todo:
            todo.remove(pc)
            q = diag[pc] % m // g
            A.append([q * y % m if j != pc else 0 for j, y in enumerate(piv)])
        part.append(m // g)
    return part


def image_invariants(rows: list[list[int]], prime_powers, diag=()) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... (each > 1) of the span of the columns
    of `rows`, stacked on the diagonal `diag` (entry j on column j), in
    (Z/D)^(len(diag) + len(rows)), D the product of l**a over the pairs
    (l, a) of `prime_powers`: the l-parts, multiplied largest with largest."""
    chain = []  # descending
    for ell, a in prime_powers:
        part = _local_part(rows, ell**a, diag)
        chain += [1] * (len(part) - len(chain))
        for i, d in enumerate(part):
            chain[i] *= d
    return tuple(reversed(chain))
