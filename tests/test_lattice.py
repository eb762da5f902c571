import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cuspgate.lattice import image_invariants
from lattice_oracle import kernel_basis, lattice_index, modular_smith_normal_form, row_hnf, smith_normal_form

small_matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=5
    )
)


def rational_rref_rank(rows):
    A = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(A[0]) if A else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(A)) if A[r][c] != 0), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        A[rank] = [x / A[rank][c] for x in A[rank]]
        for r in range(len(A)):
            if r != rank and A[r][c] != 0:
                A[r] = [x - A[r][c] * y for x, y in zip(A[r], A[rank])]
        rank += 1
    return rank


def in_span(rows, v):
    """Whether v is an integer combination of the rows (via HNF reduction)."""
    basis = row_hnf(rows)
    v = list(v)
    n = len(v)
    for row in basis:
        c = next(j for j in range(n) if row[j] != 0)
        if v[c] % row[c] != 0:
            return False
        q = v[c] // row[c]
        v = [a - q * b for a, b in zip(v, row)]
    return all(x == 0 for x in v)


def test_row_hnf_frozen():
    assert row_hnf([[2, 0], [0, 2], [1, 1]]) == [[1, 1], [0, 2]]
    assert row_hnf([[4, 6], [6, 9]]) == [[2, 3]]
    assert row_hnf([[0, 0], [0, 0]]) == []
    assert row_hnf([[-3]]) == [[3]]


@settings(max_examples=150)
@given(small_matrix)
def test_row_hnf_same_lattice(rows):
    basis = row_hnf(rows)
    # echelon shape with positive pivots
    last = -1
    for row in basis:
        c = next(j for j in range(len(row)) if row[j] != 0)
        assert c > last and row[c] > 0
        last = c
    # every input row lies in the span of the basis and vice versa
    for r in rows:
        assert in_span(basis, r) or not any(r)
    for b in basis:
        assert in_span(rows, b)
    assert len(basis) == rational_rref_rank(rows)


def test_smith_frozen():
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[6]]) == [6]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]]) == []


@settings(max_examples=150)
@given(small_matrix)
def test_smith_divisibility_chain(rows):
    diag = smith_normal_form(rows)
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    assert len(diag) == rational_rref_rank(rows)


def det(rows):
    n = len(rows)
    A = [[Fraction(x) for x in r] for r in rows]
    d = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            d = -d
        d *= A[c][c]
        for r in range(c + 1, n):
            coef = A[r][c] / A[c][c]
            A[r] = [x - coef * y for x, y in zip(A[r], A[c])]
    return d


square_matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-7, 7), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(max_examples=150)
@given(square_matrix)
def test_smith_preserves_determinant(rows):
    d = abs(det(rows))
    diag = smith_normal_form(rows)
    if d != 0:
        prod = 1
        for x in diag:
            prod *= x
        assert prod == d
        assert lattice_index(rows, len(rows)) == d
    else:
        assert len(diag) < len(rows)
        with pytest.raises(ValueError):
            lattice_index(rows, len(rows))


@settings(max_examples=150)
@given(small_matrix)
def test_kernel_basis_spans_kernel(rows):
    ncols = len(rows[0])
    ker = kernel_basis(rows, ncols)
    for v in ker:
        assert all(sum(r[j] * v[j] for j in range(ncols)) == 0 for r in rows)
    assert len(ker) == ncols - rational_rref_rank(rows)


def test_kernel_basis_frozen():
    # x + y + z = 0 over Z
    ker = row_hnf(kernel_basis([[1, 1, 1]], 3))
    assert len(ker) == 2
    assert in_span(ker, [1, -1, 0]) and in_span(ker, [0, 1, -1])
    assert kernel_basis([[1, 0], [0, 1]], 2) == []


def test_modular_smith_frozen():
    # integer diagonal (2, 2, 156); 156 = 4 * 3 * 13
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    # mod 12 the image is Z/(12/2) + Z/(12/2) + Z/(12/12)
    assert image_invariants(A, [(2, 2), (3, 1)]) == (6, 6)
    assert image_invariants(A, [(13, 1)]) == (13, 13)
    assert image_invariants(A, []) == ()
    # a column the rows never reach adds nothing to the image
    assert image_invariants([[2, 0], [0, 0]], [(2, 3)]) == (4,)
    assert image_invariants([[0, 0]], [(5, 1)]) == ()
    # Z/4 + Z/9 = Z/36: the l-parts multiply largest with largest
    assert image_invariants([[9, 0], [0, 4]], [(2, 2), (3, 2)]) == (36,)
    assert image_invariants([[1, 0], [0, 6]], [(2, 2), (3, 2)]) == (6, 36)
    # a pivot of least valuation sits in a row that is not first
    assert image_invariants([[4, 8], [2, 6]], [(2, 3)]) == (2, 4)


prime_powers = st.lists(
    st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4)), max_size=3, unique_by=lambda pa: pa[0]
)


@settings(max_examples=300)
@given(small_matrix, prime_powers)
def test_modular_smith_matches_integer_smith(rows, powers):
    """The elimination gives Z/(D / gcd(d_i, D)) over the integer Smith
    diagonal d_i, for D a product of prime powers."""
    D = math.prod(ell**a for ell, a in powers)
    want = sorted(D // math.gcd(d, D) for d in smith_normal_form(rows))
    assert list(image_invariants(rows, powers)) == [q for q in want if q > 1]


@settings(max_examples=200)
@given(small_matrix, st.integers(1, 720))
def test_modular_smith_oracle_matches_integer_smith(rows, m):
    """gcd(d_i, m) over the integer Smith diagonal, padded with 0 to the width."""
    diag = smith_normal_form(rows)
    diag += [0] * (len(rows[0]) - len(diag))
    assert modular_smith_normal_form(rows, m) == [math.gcd(d, m) for d in diag]
    with pytest.raises(ValueError):
        modular_smith_normal_form(rows, 0)



def diagonal_and_dense(powers):
    """A diagonal of width 1..5, some entries = 0 mod an l^a of `powers` or
    mod their product, and 0..3 dense rows of that width."""
    moduli = [ell**a for ell, a in powers] + [math.prod(ell**a for ell, a in powers)]
    entry = st.one_of(st.integers(-12, 12), st.tuples(st.sampled_from(moduli), st.integers(-2, 2)).map(math.prod))
    return st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(entry, min_size=n, max_size=n),
            st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), max_size=3),
            st.just(powers),
        )
    )


small_prime_powers = st.lists(
    st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4)), max_size=2, unique_by=lambda pa: pa[0]
)


@settings(max_examples=300)
@given(small_prime_powers.flatmap(diagonal_and_dense))
@example(([0, 6, 0], [[1, 2, 3], [0, 4, 8]], [(2, 3), (3, 2)]))  # zero diagonal entries
@example(([16, -32, 5, 80], [[2, 6, 5, 1], [4, 0, 2, 8]], [(2, 4), (5, 1)]))  # entries = 0 mod l^a
@example(([4, 6, 9, 1], [], [(2, 2), (3, 2)]))  # no dense rows
@example(([4, 0], [[2, 2]], [(2, 3)]))  # a dense pivot leaves (4 / 2) times its row
@example(  # entries blow up here unless each step reduces by rounded quotients
    (
        [-625, -625, -1250, 625, -1250],
        [[9, -8, 3, -2, -8], [-3, -3, 4, -7, 3], [2, 9, 3, 7, -9]],
        [(2, 1), (5, 4)],
    )
)
def test_diagonal_elimination_matches_integer_smith(case):
    """With a diagonal, the elimination gives what the integer Smith diagonal
    of the stacked matrix (diagonal rows, then dense rows) gives."""
    diag, rows, powers = case
    stacked = [[d if k == s else 0 for k in range(len(diag))] for s, d in enumerate(diag)] + rows
    D = math.prod(ell**a for ell, a in powers)
    want = sorted(D // math.gcd(d, D) for d in smith_normal_form(stacked))
    assert list(image_invariants(rows, powers, diag)) == [q for q in want if q > 1]
