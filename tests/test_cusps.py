import itertools
import math
import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cuspgate.arith import factor, valuation
from cuspgate.atkin_lehner import admissible_sign_assignments, sign_divisor
from cuspgate.cusps import (
    CuspDivisor,
    EtaVector,
    SquarefreeLevel,
    _congruence_rows,
    _contractions,
    _modulus,
    _tensor,
    apply_2_old_projection,
    cuspidal_group_structure,
    divisor_order,
    is_principal,
    lambda_forward,
    lambda_inverse,
    ogg_order,
)
from cuspgate.eta import ligozat_check
import cusps_oracle
from lattice_oracle import group_structure, kernel_group_structure

levels = st.sampled_from([2, 3, 11, 14, 15, 17, 30, 35, 66, 105])


def rational_vector(level, bound=30, max_denominator=24):
    n = 1 << level.t
    return st.lists(
        st.fractions(min_value=-bound, max_value=bound, max_denominator=max_denominator),
        min_size=n,
        max_size=n,
    ).map(lambda cs: tuple(Fraction(c) for c in cs))


def test_level_construction():
    L = SquarefreeLevel.of(30)
    assert L.primes == (2, 3, 5)
    assert L.t == 3
    assert L.divisors == (1, 2, 3, 6, 5, 10, 15, 30)  # bit order, not sorted
    assert L.divisor_index(15) == 0b110
    # built once; eq, hash and repr still see only n and the primes
    assert L.divisors is L.divisors
    fresh = SquarefreeLevel.of(30)
    assert L == fresh and hash(L) == hash(fresh)
    assert repr(L) == repr(fresh) == "SquarefreeLevel(n=30, primes=(2, 3, 5))"
    with pytest.raises(ValueError):
        SquarefreeLevel.of(12)
    with pytest.raises(ValueError):
        SquarefreeLevel.of(1)
    with pytest.raises(ValueError):
        L.divisor_index(4)


def test_divisor_vector_helpers():
    L = SquarefreeLevel.of(15)
    w = CuspDivisor.from_map(L, {1: 2, 15: -2})
    assert w.coeff(1) == 2 and w.coeff(15) == -2 and w.coeff(3) == 0
    assert w.degree() == 0
    assert w.is_integral()
    assert (w - w).is_zero()
    assert (2 * w).coeff(1) == 4
    assert (-w).coeff(15) == 2
    with pytest.raises(ValueError):
        CuspDivisor(L, (Fraction(1),))
    with pytest.raises(TypeError):
        CuspDivisor(L, (1, 0, 0, -1))
    with pytest.raises(ValueError):
        w + CuspDivisor.zero(SquarefreeLevel.of(14))
    with pytest.raises(ValueError):
        w - CuspDivisor.zero(SquarefreeLevel.of(14))


def test_divisor_vector_record_contract():
    """repr, eq, hash and immutability of a vector as the frozen dataclass
    gave them: the class and both fields in the repr, Fraction entries,
    same-class equality, and equal vectors reached by different paths hash
    alike."""
    L = SquarefreeLevel.of(6)
    v = sign_divisor(L, {2: 1, 3: -1})
    assert repr(v) == (
        "CuspDivisor(level=SquarefreeLevel(n=6, primes=(2, 3)), coeffs=(Fraction(1, 1), "
        "Fraction(-1, 1), Fraction(1, 1), Fraction(-1, 1)))"
    )
    assert hash(v) == hash((v.level, v.coeffs))
    assert all(type(c) is Fraction for c in v.coeffs)
    assert type(v.coeff(2)) is Fraction and type(v.degree()) is Fraction
    eta = EtaVector(L, v.coeffs)
    assert v != eta and eta != v and v.coeffs == eta.coeffs
    w = CuspDivisor(L, (Fraction(2, 4), Fraction(-1, 3), Fraction(0), Fraction(-1, 6)))
    for other in (
        lambda_forward(lambda_inverse(w)),
        2 * (Fraction(1, 2) * w),
        w + CuspDivisor.zero(L),
        -(-w),
        CuspDivisor(L, (Fraction(1, 2), Fraction(-2, 6), Fraction(0, 5), Fraction(-1, 6))),
    ):
        assert type(other) is CuspDivisor
        assert other == w and hash(other) == hash(w) and repr(other) == repr(w)
    assert w != 2 * w and w != CuspDivisor.zero(L)
    # frozen, and a pickle round trip gives an equal vector
    assert pickle.loads(pickle.dumps(w)) == w
    with pytest.raises(AttributeError):
        w.level = SquarefreeLevel.of(30)


def test_lambda_forward_frozen():
    # eta(tau)^24 / eta(11 tau)^24 has divisor 10 (P_1) - 10 (P_11)
    L = SquarefreeLevel.of(11)
    v = EtaVector.from_map(L, {1: 24, 11: -24})
    w = lambda_forward(v)
    assert w.coeffs == (Fraction(10), Fraction(-10))
    assert is_principal(w)
    # single eta has divisor (11/24, 1/24) in this labeling
    one = lambda_forward(EtaVector.from_map(L, {1: 1}))
    assert one.coeffs == (Fraction(11, 24), Fraction(1, 24))


@settings(max_examples=120)
@given(levels.flatmap(lambda n: rational_vector(SquarefreeLevel.of(n)).map(lambda c: (n, c))))
def test_lambda_roundtrip(nc):
    n, coeffs = nc
    L = SquarefreeLevel.of(n)
    v = EtaVector(L, coeffs)
    assert lambda_inverse(lambda_forward(v)).coeffs == coeffs
    w = CuspDivisor(L, coeffs)
    assert lambda_forward(lambda_inverse(w)).coeffs == coeffs


# levels with one to four primes, for the tests against the Fraction oracles
small_levels = st.sampled_from([2, 3, 11, 6, 15, 35, 30, 105, 210, 1155])


def level_and_vector(**kwargs):
    return small_levels.flatmap(
        lambda n: rational_vector(SquarefreeLevel.of(n), **kwargs).map(lambda c: (n, c))
    )


@settings(max_examples=200, deadline=None)
@example(nc=(30, (Fraction(0),) * 8))
@example(nc=(15, (Fraction(1, 2), Fraction(-7, 3), Fraction(5, 12), Fraction(-1))))
@example(nc=(1155, tuple(Fraction((-1) ** k * (k + 1), k % 5 + 1) for k in range(16))))
@given(level_and_vector(bound=10**6, max_denominator=10**4))
def test_integer_maps_match_fraction_oracles(nc):
    """The maps on integer numerators against their Fraction forms: same
    classes, levels and coefficients (compared as reprs), same verdicts."""
    n, coeffs = nc
    L = SquarefreeLevel.of(n)
    v, w = EtaVector(L, coeffs), CuspDivisor(L, coeffs)
    assert repr(lambda_forward(v)) == repr(cusps_oracle.lambda_forward(v))
    assert repr(lambda_inverse(w)) == repr(cusps_oracle.lambda_inverse(w))
    assert ligozat_check(v) == cusps_oracle.ligozat_check(v)
    u = lambda_inverse(w)
    assert ligozat_check(u) == cusps_oracle.ligozat_check(u)


@st.composite
def vector_case(draw):
    """A level with t <= 4; two vectors with entries a/b from integer pairs
    that need not be coprime (2/4, -6/3), so their common denominator often
    reduces; integers for a degree-0 divisor; an int and a Fraction scalar."""
    level = SquarefreeLevel.of(draw(small_levels))
    size = 1 << level.t
    pair = st.tuples(st.integers(-60, 60), st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24, 35]))
    vector = st.lists(pair, min_size=size, max_size=size).map(
        lambda ps: tuple(Fraction(a, b) for a, b in ps)
    )
    raw = st.lists(st.integers(-40, 40), min_size=size, max_size=size)
    return (level.n, draw(vector), draw(vector), draw(raw),
            draw(st.integers(-12, 12)), draw(st.fractions(max_denominator=30)))


@settings(max_examples=200, deadline=None)
@example(case=(6, (Fraction(2, 4),) * 4, (Fraction(0),) * 4, [0] * 4, 0, Fraction(-2, 4)))
@example(case=(15, (Fraction(0),) * 4, (Fraction(6, 4), Fraction(-2, 4), Fraction(10, 4), Fraction(2, 4)),
               [1, 0, 0, -1], 2, Fraction(2, 3)))
@given(vector_case())
def test_vector_operations_match_the_fraction_record(case):
    """Every operation on the numerators-over-one-denominator form against
    `cusps_oracle.FractionVector`, entry by entry."""
    n, x, y, raw, k, q = case
    L = SquarefreeLevel.of(n)
    for cls in (CuspDivisor, EtaVector):
        v, w = cls(L, x), cls(L, y)
        fv, fw = cusps_oracle.FractionVector(L, x), cusps_oracle.FractionVector(L, y)
        assert v.coeffs == fv.coeffs and all(type(c) is Fraction for c in v.coeffs)
        assert [v.coeff(d) for d in L.divisors] == [fv.coeff(d) for d in L.divisors]
        assert (v.is_integral(), v.is_zero()) == (fv.is_integral(), fv.is_zero())
        for got, want in ((v + w, fv + fw), (v - w, fv - fw), (k * v, k * fv),
                          (q * v, q * fv), (-v, -fv)):
            assert type(got) is cls and got.coeffs == want.coeffs
            assert got.L >= 1 and math.gcd(got.L, *got.c) == 1
            assert got == cls(L, want.coeffs) and hash(got) == hash(cls(L, want.coeffs))
    assert CuspDivisor(L, x).degree() == fv.degree()
    v = EtaVector(L, x)
    assert repr(lambda_forward(v)) == repr(cusps_oracle.lambda_forward(v))
    w = CuspDivisor(L, x)
    assert repr(lambda_inverse(w)) == repr(cusps_oracle.lambda_inverse(w))
    assert ligozat_check(v) == cusps_oracle.ligozat_check(v)
    coeffs = [Fraction(c) for c in raw]
    coeffs[0] -= sum(coeffs)
    w = CuspDivisor(L, tuple(coeffs))
    assert is_principal(w) == cusps_oracle.is_principal(w)
    assert divisor_order(w) == cusps_oracle.divisor_order(w)


@settings(max_examples=200, deadline=None)
# sum r_d d = 12 from c = (2, 23) over L = 4: 48 = 0 mod 24, but not mod 96
@example(nc=(2, (Fraction(0), Fraction(23, 4))), j=1, m=2, third=False)
@example(nc=(15, (Fraction(1, 3), Fraction(0), Fraction(5, 6), Fraction(0))), j=4, m=2, third=True)
@given(level_and_vector(), st.integers(-6, 6), st.integers(1, 12), st.booleans())
def test_ligozat_conditions_2_and_3_on_non_integral_vectors(nc, j, m, third):
    """Fix one entry so that sum r_d d (or, with `third`, sum r_d N/d) is
    24 j / m: condition 2 (or 3) holds exactly when m divides j, whatever
    the common denominator L of the other entries."""
    n, coeffs = nc
    L = SquarefreeLevel.of(n)
    weights = [n // d for d in L.divisors] if third else list(L.divisors)
    coeffs = list(coeffs)
    k = len(coeffs) - 1 if third else 0  # the entry of weight 1
    coeffs[k] = 0
    coeffs[k] = Fraction(24 * j, m) - sum(c * x for c, x in zip(coeffs, weights))
    r = EtaVector(L, tuple(coeffs))
    assume(not r.is_integral())
    verdict = ligozat_check(r)
    assert 1 in verdict.failed and 5 not in verdict.failed
    assert ((3 if third else 2) in verdict.failed) == (j % m != 0)
    assert verdict == cusps_oracle.ligozat_check(r)


def test_is_principal_requires_integral():
    L = SquarefreeLevel.of(11)
    with pytest.raises(ValueError):
        is_principal(CuspDivisor(L, (Fraction(1, 2), Fraction(-1, 2))))


def test_divisor_order_anchors():
    # prime levels: order of P_1 - P_N
    for p, expected in ((11, 5), (17, 4), (67, 11), (37, 3), (389, 97)):
        L = SquarefreeLevel.of(p)
        w = CuspDivisor.from_map(L, {1: 1, p: -1})
        assert divisor_order(w) == expected
    # nonzero degree and non-integral input are rejected
    L = SquarefreeLevel.of(11)
    with pytest.raises(ValueError):
        divisor_order(CuspDivisor.from_map(L, {1: 1}))
    with pytest.raises(ValueError):
        divisor_order(CuspDivisor(L, (Fraction(1, 2), Fraction(-1, 2))))


def test_ogg_order_anchors():
    assert ogg_order(SquarefreeLevel.of(11), (-1,)) == 5
    assert ogg_order(SquarefreeLevel.of(67), (-1,)) == 11
    # t = 1 uses num((p-1)/12), not /24: at p = 17 the parity doubles it
    assert ogg_order(SquarefreeLevel.of(17), (-1,)) == 4
    L14 = SquarefreeLevel.of(14)
    assert ogg_order(L14, (1, -1)) == 3
    assert ogg_order(L14, (-1, -1)) == 1
    L15 = SquarefreeLevel.of(15)
    assert ogg_order(L15, (-1, -1)) == 1
    assert ogg_order(L15, (1, -1)) == 2
    with pytest.raises(ValueError):
        ogg_order(L15, (1, 1))
    with pytest.raises(ValueError):
        ogg_order(L15, (1,))
    with pytest.raises(ValueError):
        ogg_order(L15, (1, 0))


def test_ogg_matches_lattice_at_prime_levels():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 101, 103):
        L = SquarefreeLevel.of(p)
        w = CuspDivisor.from_map(L, {1: 1, p: -1})
        assert divisor_order(w) == ogg_order(L, (-1,))


def test_t1_parity_wrinkle():
    # At p = 17 the integrality bound alone gives 2; parity doubles it.
    L = SquarefreeLevel.of(17)
    w = CuspDivisor.from_map(L, {1: 1, 17: -1})
    u = lambda_inverse(2 * w)
    assert u.is_integral()
    assert not is_principal(2 * w)
    assert is_principal(4 * w)


def brute_order(w, cap=600):
    for n in range(1, cap + 1):
        if cusps_oracle.is_principal(n * w):
            return n
    raise AssertionError("order exceeds cap")


@settings(max_examples=60, deadline=None)
@given(
    levels,
    st.lists(st.integers(-4, 4), min_size=8, max_size=8),
)
def test_divisor_order_matches_brute_force(n, raw):
    L = SquarefreeLevel.of(n)
    size = 1 << L.t
    coeffs = [Fraction(c) for c in raw[: size - 1]]
    coeffs.append(-sum(coeffs, Fraction(0)))
    w = CuspDivisor(L, tuple(coeffs))
    assert divisor_order(w) == brute_order(w)


def agrees_with_fraction_oracle(w):
    """The order and, at the multiples around it, principality agree with
    the Fraction oracle."""
    n = divisor_order(w)
    assert n == cusps_oracle.divisor_order(w)
    for m in {1, n, 2 * n, max(n // 2, 1)}:
        assert is_principal(m * w) == cusps_oracle.is_principal(m * w)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 11, 17, 30, 35, 66, 105, 210, 1155, 2310]).flatmap(
        lambda n: st.lists(
            st.integers(-50, 50),
            min_size=1 << SquarefreeLevel.of(n).t,
            max_size=1 << SquarefreeLevel.of(n).t,
        ).map(lambda raw: (n, raw))
    )
)
def test_order_and_principality_match_fraction_oracle(nraw):
    n, raw = nraw
    L = SquarefreeLevel.of(n)
    coeffs = [Fraction(c) for c in raw]
    coeffs[0] -= sum(coeffs)
    w = CuspDivisor(L, tuple(coeffs))
    agrees_with_fraction_oracle(w)
    shifted = w + CuspDivisor.from_map(L, {1: 1})
    assert not is_principal(shifted) and not cusps_oracle.is_principal(shifted)


def test_sign_divisors_match_fraction_oracle():
    """Every admissible sign divisor below 2310, built as the paper's
    (1 - e_u w_u)...P_1."""
    checked = 0
    for n in range(2, 2310):
        if not factor(n).is_squarefree():
            continue
        L = SquarefreeLevel.of(n)
        for a in admissible_sign_assignments(L):
            agrees_with_fraction_oracle(sign_divisor(L, {p: -b for p, b in zip(L.primes, a.signs)}))
            checked += 1
    assert checked == 1610


def kron(blocks):
    """The tensor product of 2x2 integer blocks, block i on bit i of the index."""
    size = 1 << len(blocks)
    return [
        [math.prod(b[k >> i & 1][j >> i & 1] for i, b in enumerate(blocks)) for j in range(size)]
        for k in range(size)
    ]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@pytest.mark.parametrize("n", [3, 15, 105, 1155, 15015, 255255, 4849845])
@pytest.mark.parametrize("off", [1, -1])
def test_tensor_and_contractions_match_kron(n, off):
    """_tensor is the matrix kron([[p_i, off], [off, p_i]]) on integer vectors,
    for t = 1..7, and _contractions sums the entries at the indices with bit i."""
    level = SquarefreeLevel.of(n)
    K = kron([[[p, off], [off, p]] for p in level.primes])
    size = 1 << level.t
    for seed in range(3):
        v = [(seed * 7919 + 104729 * k * k) % 201 - 100 for k in range(size)]
        assert _tensor(level, list(v), off) == [sum(a * b for a, b in zip(row, v)) for row in K]
        assert _contractions(level, v) == [sum(x for k, x in enumerate(v) if k >> i & 1) for i in range(level.t)]


def test_congruence_rows_match_entrywise_oracle():
    """C = (tensor E_p + I_t) C_generic V, exactly over Z: E_p = [[-1,0],[p,1]]
    and column S of V is (tensor F_p)(e_S - delta_S e_{}) with F_p = [[0,1],[1,p]],
    less its entry at d = 1.  Both factors are unimodular, so the two row sets
    present the same group.  C is rebuilt from the diagonal and the dense rows
    in the order degree row, diagonal rows, contractions."""
    levels = [n for n in range(2, 3000) if factor(n).is_squarefree()]
    for n in levels:
        L = SquarefreeLevel.of(n)
        diag, dense = _congruence_rows(L)
        assert len(dense) == L.t + 1
        assert all(len(row) == len(diag) for row in dense)
        diagonal_rows = [[d if k == s else 0 for k in range(len(diag))] for s, d in enumerate(diag)]
        full = dense[:1] + diagonal_rows + dense[1:]
        generic, D = cusps_oracle.congruence_rows(L)
        assert D == _modulus(L)
        size = 1 << L.t
        E = kron([[[-1, 0], [p, 1]] for p in L.primes])
        identity = [[int(i == j) for j in range(L.t)] for i in range(L.t)]
        left = [row + [0] * L.t for row in E] + [[0] * size + row for row in identity]
        F = kron([[[0, 1], [1, p]] for p in L.primes])
        V = []  # columns, then transposed
        for s in range(1, size):
            delta = math.prod(p + 1 for i, p in enumerate(L.primes) if s >> i & 1)
            V.append([F[k][s] - delta * F[k][0] for k in range(1, size)])
        assert full == matmul(matmul(left, generic), list(map(list, zip(*V)))), n


def test_group_structure_matches_modular_smith_oracle():
    """The elimination on the closed-form rows gives what the former Smith
    reduction mod D gives on the generic rows."""
    levels = [n for n in range(2, 3000) if factor(n).is_squarefree()] + [30030, 255255]
    for n in levels:
        level = SquarefreeLevel.of(n)
        assert cuspidal_group_structure(level) == group_structure(*cusps_oracle.congruence_rows(level)), n


def test_group_structure_never_factors_the_modulus():
    """D's prime powers come from each p - 1 and p + 1: at two 12-digit primes
    D has a cofactor past is_prime's proven bound, and the group still comes
    out, equal to the Smith reduction mod D on the generic rows."""
    level = SquarefreeLevel.of(10000000002200000000057)
    assert level.primes == (100000000003, 100000000019)
    with pytest.raises(ValueError, match="deterministic primality bound"):
        factor(_modulus(level))
    with mock.patch("cuspgate.cusps.factor", side_effect=factor) as spy:
        struct = cuspidal_group_structure(level)
    assert {c.args[0] for c in spy.call_args_list} == {p + e for p in level.primes for e in (-1, 1)}
    assert struct == (1666666667000000000006, 1041666667125000000062083333335900000000030)
    assert struct == group_structure(*cusps_oracle.congruence_rows(level))


def closed_form_parts(level):
    """{l: sorted l-power invariants} for every prime l >= 5 dividing some
    e_S = prod_{p in S}(p - 1) * prod_{p not in S}(p + 1), S a nonempty set
    of the primes of N: the l-part of the cuspidal group is the sum of
    Z/l^{v_l(e_S)} over S."""
    parts = {}
    for mask in range(1, 1 << level.t):
        e = 1
        for i, p in enumerate(level.primes):
            e *= p - 1 if mask >> i & 1 else p + 1
        for ell in factor(e).primes():
            if ell >= 5:
                parts.setdefault(ell, []).append(ell ** valuation(e, ell))
    return {ell: sorted(powers) for ell, powers in parts.items()}


def test_group_structure_matches_closed_form_at_primes_from_5():
    """Diagonalising each block [[p,1],[1,p]] by [[1,1],[1,-1]] changes the
    lattice only by a power of 2, so away from 2 and 3 the group is the sum
    over S of Z/e_S (ROADMAP item 3, after Takagi's class number formula)."""
    levels = [n for n in range(2, 2400) if factor(n).is_squarefree()] + [30030, 255255]
    checked = 0
    for n in levels:
        L = SquarefreeLevel.of(n)
        struct = cuspidal_group_structure(L)
        rest = 1
        for d in struct:
            rest *= d
        for ell, powers in closed_form_parts(L).items():
            got = sorted(ell ** valuation(d, ell) for d in struct if d % ell == 0)
            assert got == powers, (n, ell)
            rest //= ell ** sum(valuation(q, ell) for q in powers)
            checked += 1
        # no prime l >= 5 divides the group unless it divides some e_S
        rest //= 2 ** valuation(rest, 2) * 3 ** valuation(rest, 3)
        assert rest == 1, n
    assert checked == 2686


def test_group_structure_frozen():
    expected = {
        2: (),
        6: (),
        11: (5,),
        14: (6,),
        15: (2, 4),
        17: (4,),
        30: (2, 4, 24),
        34: (4, 12),
        66: (5, 10, 10, 120),
        105: (2, 2, 4, 8, 48, 192),
    }
    for n, struct in expected.items():
        assert cuspidal_group_structure(SquarefreeLevel.of(n)) == struct


def test_group_structure_matches_kernel_oracle():
    """The group is what the integer kernel -> Smith -> Hermite-index chain
    gives on the generic rows, wherever that chain finishes below 2310."""
    # entries of the integer chain blow up at these levels
    unbounded = {858, 910, 1122, 1302, 1326, 1410, 1430, 1634, 1794, 1806, 2002, 2145, 2170}
    checked = 0
    for n in range(2, 2310):
        if n in unbounded or not factor(n).is_squarefree():
            continue
        level = SquarefreeLevel.of(n)
        generic = cusps_oracle.congruence_rows(level)
        assert cuspidal_group_structure(level) == kernel_group_structure(*generic), n
        checked += 1
    assert checked == 1390


def test_group_structure_vs_element_enumeration():
    """BFS over generators with the Fraction principality oracle recovers
    the order."""
    for n in (11, 14, 15, 17):
        L = SquarefreeLevel.of(n)
        size = 1 << L.t
        gens = []
        for k in range(1, size):
            coeffs = [Fraction(0)] * size
            coeffs[k], coeffs[0] = Fraction(1), Fraction(-1)
            gens.append(CuspDivisor(L, tuple(coeffs)))
        seen = [CuspDivisor.zero(L)]
        frontier = list(seen)
        while frontier:
            w = frontier.pop()
            for g in gens:
                x = w + g
                if all(not cusps_oracle.is_principal(x - u) for u in seen):
                    seen.append(x)
                    frontier.append(x)
        order = 1
        for d in cuspidal_group_structure(L):
            order *= d
        assert len(seen) == order


def test_element_orders_divide_group_exponent():
    for n in (14, 15, 30, 66):
        L = SquarefreeLevel.of(n)
        struct = cuspidal_group_structure(L)
        exponent = struct[-1]
        for k in range(1, 1 << L.t):
            coeffs = [Fraction(0)] * (1 << L.t)
            coeffs[k], coeffs[0] = Fraction(1), Fraction(-1)
            assert exponent % divisor_order(CuspDivisor(L, tuple(coeffs))) == 0


def test_2_old_projection():
    L = SquarefreeLevel.of(14)
    w = CuspDivisor.from_map(L, {1: 1, 7: -1})
    pushed = apply_2_old_projection(w)
    assert pushed.level.n == 7
    assert pushed.coeff(1) == 1 and pushed.coeff(7) == -1
    # P_2 and P_1 both land on P_1
    w2 = CuspDivisor.from_map(L, {2: 1, 14: 1, 1: 1})
    pushed2 = apply_2_old_projection(w2)
    assert pushed2.coeff(1) == 2 and pushed2.coeff(7) == 1
    with pytest.raises(ValueError):
        apply_2_old_projection(CuspDivisor.zero(SquarefreeLevel.of(15)))
    # level 2 / 2 = 1 has no cusp divisors
    with pytest.raises(ValueError, match="^2-old projection needs an even level above 2$"):
        apply_2_old_projection(CuspDivisor.from_map(SquarefreeLevel.of(2), {1: 1, 2: -1}))


def test_2_old_projection_level_is_the_level_of_n_over_2():
    """The projection builds level N/2 from N's primes without factoring;
    it is the level `SquarefreeLevel.of(N // 2)` factors."""
    for n in range(6, 3000, 2):
        if factor(n).is_squarefree():
            w = CuspDivisor.zero(SquarefreeLevel.of(n))
            assert apply_2_old_projection(w).level == SquarefreeLevel.of(n // 2), n


@settings(max_examples=80)
@given(rational_vector(SquarefreeLevel.of(30)))
def test_2_old_projection_is_linear_and_degree_preserving(coeffs):
    L = SquarefreeLevel.of(30)
    w = CuspDivisor(L, coeffs)
    pushed = apply_2_old_projection(w)
    assert pushed.degree() == w.degree()
    assert apply_2_old_projection(2 * w).coeffs == (2 * pushed).coeffs
