"""Integer lattice algorithms, kept as test oracles.

Row Hermite form, integer kernels, Smith reduction over Z and the Hermite
index: the chain `cuspidal_group_structure` used before it switched to one
Smith reduction modulo D.  The Hermite form's and the kernels' entries grow
without bound, so the chain only finishes on small inputs; the suite
compares the library against it there.  The Smith form reduces by rounded
quotients, which keeps its entries bounded.

`modular_smith_normal_form` is that Smith reduction modulo D: extended-gcd
row and column operations with entries kept in [0, D), the library's path
until it eliminated without extended gcds.  It finishes on every cuspidal
congruence system up to 7 primes, and the suite checks the library against
it on the generic rows of `cusps_oracle.congruence_rows`.
"""

from __future__ import annotations

import math


def row_hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form; returns the nonzero rows.

    The returned rows are a basis (in echelon form, positive pivots,
    entries above each pivot reduced) of the lattice generated by the
    input rows.
    """
    A = [list(r) for r in rows]
    if not A:
        return []
    m, n = len(A), len(A[0])
    piv = 0
    pivot_cols = []
    for col in range(n):
        if piv >= m:
            break
        # collapse column `col` (rows piv..m-1) into a single nonzero entry
        while True:
            nz = [r for r in range(piv, m) if A[r][col] != 0]
            if not nz:
                break
            r0 = min(nz, key=lambda r: abs(A[r][col]))
            A[piv], A[r0] = A[r0], A[piv]
            done = True
            for r in range(piv + 1, m):
                if A[r][col] != 0:
                    q = A[r][col] // A[piv][col]
                    for j in range(n):
                        A[r][j] -= q * A[piv][j]
                    if A[r][col] != 0:
                        done = False
            if done:
                break
        if piv < m and A[piv][col] != 0:
            if A[piv][col] < 0:
                A[piv] = [-x for x in A[piv]]
            # reduce entries above the pivot
            for r in range(piv):
                q = A[r][col] // A[piv][col]
                if q:
                    for j in range(n):
                        A[r][j] -= q * A[piv][j]
            pivot_cols.append(col)
            piv += 1
    return [row for row in A[:piv]]


def kernel_basis(mat: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of {x in Z^ncols : mat @ x = 0} (mat given as rows)."""
    nrows = len(mat)
    # rows of [mat^T | I]: integer combos are ((mat @ x)^T, x)
    aug = []
    for j in range(ncols):
        aug.append([mat[i][j] for i in range(nrows)] + [1 if k == j else 0 for k in range(ncols)])
    reduced = row_hnf(aug)
    return [row[nrows:] for row in reduced if all(v == 0 for v in row[:nrows])]


def _nearest(a: int, b: int) -> int:
    """The integer q nearest a / b, so that |a - q*b| <= |b| / 2."""
    q, r = divmod(a, b)  # r has b's sign and |r| < |b|
    return q + 1 if 2 * abs(r) > abs(b) else q


def smith_normal_form(mat: list[list[int]]) -> list[int]:
    """Diagonal d1 | d2 | ... of the Smith normal form (nonneg ints).

    Each round pivots on the least nonzero |entry| of the trailing block and
    reduces the pivot's row and column by rounded quotients.  A round that
    leaves a nonzero entry there leaves one of at most half the pivot's size,
    so each pivot takes O(log) rounds and the entries stay bounded.
    """
    A = [list(r) for r in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    diag = []
    t = 0
    while t < min(m, n):
        _, pr, pc = min(
            ((abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]),
            default=(0, None, None),
        )
        if pr is None:
            break
        A[t], A[pr] = A[pr], A[t]
        for row in A:
            row[t], row[pc] = row[pc], row[t]
        p = A[t][t]
        for i in range(t + 1, m):
            q = _nearest(A[i][t], p)
            if q:
                A[i][t:] = [x - q * y for x, y in zip(A[i][t:], A[t][t:])]
        for j in range(t + 1, n):
            q = _nearest(A[t][j], p)
            if q:
                for row in A[t:]:
                    row[j] -= q * row[t]
        if any(A[i][t] for i in range(t + 1, m)) or any(A[t][t + 1 :]):
            continue  # a remainder below the pivot's size is the next pivot
        # the pivot must divide every remaining entry; else add a row that it
        # does not divide into the pivot row, whose reduction then leaves a remainder
        bad = next((i for i in range(t + 1, m) if any(x % p for x in A[i][t + 1 :])), None)
        if bad is None:
            diag.append(abs(p))
            t += 1
        else:
            A[t] = [x + y for x, y in zip(A[t], A[bad])]
    return diag


def lattice_index(generators: list[list[int]], dim: int) -> int:
    """Index [Z^dim : L] for the lattice L spanned by the generator rows.

    Requires L to have full rank (raises otherwise); equals |det| of any
    basis, read off the Hermite form.
    """
    basis = row_hnf(generators)
    if len(basis) != dim:
        raise ValueError("lattice does not have full rank")
    det = 1
    for i, row in enumerate(basis):
        # pivots sit on the diagonal exactly when rank == dim
        pivot = next((v for v in row if v != 0), 0)
        assert pivot > 0 and row[i] == pivot
        det *= pivot
    return det


def kernel_group_structure(rows: list[list[int]], modulus: int) -> tuple[int, ...]:
    """Invariant factors > 1 of Z^n / {x : rows @ x = 0 (mod modulus)}.

    The former library path: an integer kernel of [rows | modulus*I],
    Smith reduction of its generators, and the Hermite index as a check
    on the group order.
    """
    dim = len(rows[0])
    augmented = [row + [modulus if i == r else 0 for i in range(len(rows))] for r, row in enumerate(rows)]
    gens = [vec[:dim] for vec in kernel_basis(augmented, dim + len(rows))]
    diag = smith_normal_form(gens)
    if len(diag) != dim or 0 in diag:
        raise ValueError("the congruence lattice must have finite index")
    order = 1
    for d in diag:
        order *= d
    if order != lattice_index(gens, dim):
        raise ValueError("Smith diagonal and Hermite index disagree")
    return tuple(d for d in diag if d > 1)


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


def modular_smith_normal_form(rows: list[list[int]], modulus: int) -> list[int]:
    """Invariant factors g_1 | g_2 | ... of Z^n / (row lattice + modulus Z^n).

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


def group_structure(rows: list[list[int]], modulus: int) -> tuple[int, ...]:
    """Invariant factors > 1 of the image of `rows` mod `modulus`, ascending:
    the former `cuspidal_group_structure` on its congruence rows."""
    return tuple(sorted(modulus // g for g in modular_smith_normal_form(rows, modulus) if g != modulus))
