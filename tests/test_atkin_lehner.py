import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import atkin_lehner_oracle as oracle
from cuspgate.arith import factor
from cuspgate.atkin_lehner import (
    ALElement,
    admissible_sign_assignments,
    al_fixed_point_exists,
    sign_divisor,
)
from cuspgate.cusps import CuspDivisor, SquarefreeLevel, divisor_order, ogg_order

LEVELS = [2, 6, 11, 14, 15, 30, 35, 66, 105, 210]


def level_and_divisors(n):
    L = SquarefreeLevel.of(n)
    return [(L, r) for r in L.divisors]


ALL_PAIRS = [pair for n in LEVELS for pair in level_and_divisors(n)]


def act(level, r, d):
    """w_r applied to the cusp labeled d, read off the sign divisor
    (1 - w_r)P_d = P_d - P_{w_r d}: the XOR action inside `sign_divisor`."""
    if r == 1:
        return d
    v = sign_divisor(level, {r: 1}, base=d)
    (image,) = [e for e in level.divisors if v.coeff(e) == -1]
    return image


def act_on_divisor(level, r, v):
    """w_r applied to v, by linearity: w_r P_d = P_d - (1 - w_r)P_d."""
    moved = v
    for d in level.divisors:
        moved = moved - v.coeff(d) * sign_divisor(level, {r: 1}, base=d)
    return moved


def test_al_element_validation():
    L = SquarefreeLevel.of(15)
    assert ALElement(L, 1).r == 1  # w_1, the identity
    with pytest.raises(ValueError):
        ALElement(L, 2)
    with pytest.raises(ValueError):
        ALElement(L, 0)


def test_al_action_frozen():
    L = SquarefreeLevel.of(15)
    assert act(L, 15, 1) == 15
    assert act(L, 15, 3) == 5
    assert act(L, 3, 1) == 3
    assert act(L, 3, 3) == 1
    assert act(L, 3, 5) == 15
    assert act(L, 3, 15) == 5


@pytest.mark.parametrize("L,r", ALL_PAIRS)
def test_al_is_an_involution_on_cusps(L, r):
    for d in L.divisors:
        assert act(L, r, act(L, r, d)) == d
        assert act(L, r, d) == oracle.al_label(r, d)


def test_al_composition():
    L = SquarefreeLevel.of(30)
    for a, b in itertools.product(L.divisors, repeat=2):
        combined = oracle.al_label(a, b)  # w_a w_b = w_{ab/gcd(a,b)^2}
        for d in L.divisors:
            assert act(L, combined, d) == act(L, a, act(L, b, d))


def test_al_on_divisor_is_permutation():
    L = SquarefreeLevel.of(15)
    v = CuspDivisor.from_map(L, {1: 2, 3: -1, 15: -1})
    moved = act_on_divisor(L, 5, v)
    assert moved.coeff(5) == 2 and moved.coeff(15) == -1 and moved.coeff(3) == -1
    assert moved.degree() == v.degree()


def test_fixed_points_frozen():
    L = SquarefreeLevel.of(15)
    assert not al_fixed_point_exists(ALElement(L, 3))  # -3 is not a QR mod 5
    assert al_fixed_point_exists(ALElement(L, 5))  # -5 = 1 (mod 3) is a QR
    assert al_fixed_point_exists(ALElement(L, 15))  # Fricke always fixes a point
    assert al_fixed_point_exists(ALElement(L, 1))
    L6 = SquarefreeLevel.of(6)
    assert al_fixed_point_exists(ALElement(L6, 2))


def test_fricke_always_has_fixed_points():
    for n in LEVELS:
        L = SquarefreeLevel.of(n)
        assert al_fixed_point_exists(ALElement(L, n))


def test_admissible_sign_assignments_frozen():
    assert admissible_sign_assignments(SquarefreeLevel.of(6)) == ()
    (a14,) = admissible_sign_assignments(SquarefreeLevel.of(14))
    assert a14.signs == (1, -1)
    assert a14.sign(2) == 1 and a14.sign(7) == -1
    (a15,) = admissible_sign_assignments(SquarefreeLevel.of(15))
    assert a15.signs == (1, -1)

    literal = admissible_sign_assignments(SquarefreeLevel.of(105))
    assert len(literal) == 2
    strict = admissible_sign_assignments(SquarefreeLevel.of(105), composite_rule=True)
    assert len(strict) == 1 and strict[0].signs == (1, -1, 1)
    # the stronger filter only removes assignments
    assert {a.signs for a in strict} <= {a.signs for a in literal}


def test_admissible_assignments_invariants():
    for n in LEVELS:
        L = SquarefreeLevel.of(n)
        for a in admissible_sign_assignments(L):
            assert a.product() == -1
            for p in L.primes:
                if al_fixed_point_exists(ALElement(L, p)):
                    assert a.sign(p) == -1
            if n % 2 == 0 and (n // 2) % 2 == 1:
                assert a.sign(2) == 1


def test_sign_divisor_frozen():
    L = SquarefreeLevel.of(15)
    w = sign_divisor(L, {3: 1, 5: -1})
    assert w.coeffs == (Fraction(1), Fraction(-1), Fraction(1), Fraction(-1))
    assert w.degree() == 0
    assert divisor_order(w) == 1


def test_sign_divisor_validation():
    L = SquarefreeLevel.of(30)
    with pytest.raises(ValueError):
        sign_divisor(L, {4: 1})  # not a divisor
    with pytest.raises(ValueError):
        sign_divisor(L, {1: 1})  # label must exceed 1
    with pytest.raises(ValueError):
        sign_divisor(L, {6: 1, 2: -1})  # labels must be coprime
    with pytest.raises(ValueError):
        sign_divisor(L, {2: 2})  # signs are +-1


def test_sign_divisor_composite_labels():
    # (1 - w_15)P_1 at level 30 spreads over the orbit of the composite label
    L = SquarefreeLevel.of(30)
    w = sign_divisor(L, {15: -1})
    assert w.coeff(1) == 1 and w.coeff(15) == 1
    assert w.degree() == 2  # a lone -1 label does not balance degree
    balanced = sign_divisor(L, {2: 1, 15: -1})
    assert balanced.degree() == 0


def test_sign_divisor_base_cusp():
    L = SquarefreeLevel.of(15)
    w1 = sign_divisor(L, {3: 1, 5: 1})
    w15 = sign_divisor(L, {3: 1, 5: 1}, base=15)
    # rebasing at the Fricke image mirrors the divisor
    assert w15.coeff(15) == w1.coeff(1)
    assert w15.coeff(5) == w1.coeff(3)


def test_sign_divisor_degree_rule():
    # degree = prod(1 - eps) over the labels: zero unless every sign is -1
    for n in (14, 15, 105):
        L = SquarefreeLevel.of(n)
        for signs in itertools.product((1, -1), repeat=L.t):
            w = sign_divisor(L, dict(zip(L.primes, signs)))
            expected = 1
            for s in signs:
                expected *= 1 - s
            assert w.degree() == expected


def test_ogg_matches_sign_divisor_small():
    # b_p = -eps_p translates the closed form onto the expanded divisor
    for n in (14, 15, 35, 105):
        L = SquarefreeLevel.of(n)
        for b in itertools.product((1, -1), repeat=L.t):
            if all(s == 1 for s in b):
                continue
            eps = {p: -s for p, s in zip(L.primes, b)}
            assert divisor_order(sign_divisor(L, eps)) == ogg_order(L, b)


# every square-free N < 3000 (one to five primes), and 6- to 8-prime anchors
ORACLE_LEVELS = [n for n in range(2, 3000) if factor(n).is_squarefree()] + [30030, 510510, 570570, 9699690]


def test_masks_match_label_oracles():
    """Euler's criterion and the parity rules against `is_qr` and the
    forced-sign filter at every level; below 3000, every sign divisor over
    the primes (the XOR action) against the subset expansion over the gcd
    labels."""
    for n in ORACLE_LEVELS:
        level = SquarefreeLevel.of(n)
        for r in level.divisors:
            w = ALElement(level, r)
            assert al_fixed_point_exists(w) == oracle.fixed_point_exists(level, r), (n, r)
        for rule in (False, True):
            got = tuple(a.signs for a in admissible_sign_assignments(level, composite_rule=rule))
            assert got == oracle.admissible_signs(level, rule), (n, rule)
        if n < 3000:
            for signs in itertools.product((1, -1), repeat=level.t):
                eps = dict(zip(level.primes, signs))
                want = tuple(map(Fraction, oracle.sign_divisor_coeffs(level, eps)))
                assert sign_divisor(level, eps).coeffs == want, (n, signs)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sign_divisor_matches_subset_expansion(data):
    """Coprime labels, composite ones among them, rebased at a cusp other
    than P_1: the XOR factors against the label expansion."""
    level = SquarefreeLevel.of(data.draw(st.sampled_from([6, 30, 210, 1155, 2310, 30030])))
    groups = data.draw(st.lists(st.integers(0, 3), min_size=level.t, max_size=level.t))
    labels = {}
    for p, g in zip(level.primes, groups):
        if g:
            labels[g] = labels.get(g, 1) * p
    signs = {u: data.draw(st.sampled_from((1, -1))) for u in labels.values()}
    base = data.draw(st.sampled_from(level.divisors[1:]))
    want = tuple(map(Fraction, oracle.sign_divisor_coeffs(level, signs, base)))
    assert sign_divisor(level, signs, base).coeffs == want
