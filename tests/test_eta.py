from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cusps_oracle import eta_order_at_cusp
from cuspgate.cusps import EtaVector, SquarefreeLevel, is_principal
from cuspgate.eta import divisor_of_eta_quotient, ligozat_check


def test_eta_order_frozen():
    # eta(tau) on X0(1)
    assert eta_order_at_cusp(1, 1, 1) == Fraction(1, 24)
    # eta(tau) and eta(11 tau) on X0(11)
    assert eta_order_at_cusp(11, 1, 1) == Fraction(11, 24)
    assert eta_order_at_cusp(11, 1, 11) == Fraction(1, 24)
    assert eta_order_at_cusp(11, 11, 1) == Fraction(1, 24)
    assert eta_order_at_cusp(11, 11, 11) == Fraction(11, 24)
    # a non-square-free level: eta(2 tau) on X0(4)
    assert eta_order_at_cusp(4, 2, 1) == Fraction(1, 12)
    assert eta_order_at_cusp(4, 2, 2) == Fraction(1, 12)
    assert eta_order_at_cusp(4, 2, 4) == Fraction(1, 12)


def test_eta_order_validates():
    with pytest.raises(ValueError):
        eta_order_at_cusp(11, 3, 1)  # m must divide n
    with pytest.raises(ValueError):
        eta_order_at_cusp(11, 1, 2)  # d must divide n


def test_eta_orders_sum_to_weight_degree():
    # deg div(eta_m^24) on X0(n), n square-free: 24 * n/(24 m) * prod... stays
    # proportional to the index; frozen small cases keep the normalization honest.
    L = SquarefreeLevel.of(15)
    total = sum(eta_order_at_cusp(15, 1, d) for d in L.divisors)
    assert total == Fraction(15 + 5 + 3 + 1, 24)


def test_divisor_of_eta_quotient_frozen():
    L = SquarefreeLevel.of(11)
    v = EtaVector.from_map(L, {1: 24, 11: -24})
    assert divisor_of_eta_quotient(v).coeffs == (Fraction(10), Fraction(-10))


eta_levels = st.sampled_from([6, 11, 15, 30, 105])


def vectors(n):
    L = SquarefreeLevel.of(n)
    size = 1 << L.t
    return st.lists(
        st.fractions(min_value=-24, max_value=24, max_denominator=6),
        min_size=size,
        max_size=size,
    ).map(lambda cs: EtaVector(L, tuple(Fraction(c) for c in cs)))


def divisor_from_cusp_orders(r):
    """Cusp-by-cusp assembly: sum over M of r_M times ord_d eta(M*tau)."""
    level = r.level
    return tuple(
        sum((c * eta_order_at_cusp(level.n, m, d) for c, m in zip(r.coeffs, level.divisors)), Fraction(0))
        for d in level.divisors
    )


@settings(max_examples=120)
@given(eta_levels.flatmap(lambda n: vectors(n)))
def test_divisor_agrees_with_lambda(v):
    """The eta-order formula and the tensor matrix are the same linear map."""
    assert divisor_of_eta_quotient(v).coeffs == divisor_from_cusp_orders(v)


@settings(max_examples=120)
@given(eta_levels.flatmap(lambda n: vectors(n)))
def test_divisor_degree_formula(v):
    scale = Fraction(1, 24)
    for p in v.level.primes:
        scale *= p + 1
    total = sum(v.coeffs, Fraction(0))
    assert divisor_of_eta_quotient(v).degree() == scale * total


def test_ligozat_frozen():
    L15 = SquarefreeLevel.of(15)
    bad = EtaVector.from_map(L15, {1: 1, 3: -1, 5: -1, 15: 1})
    verdict = ligozat_check(bad)
    assert not verdict.ok and verdict.failed == (2, 3)

    L11 = SquarefreeLevel.of(11)
    good = EtaVector.from_map(L11, {1: 24, 11: -24})
    assert ligozat_check(good).ok
    assert ligozat_check(good).failed == ()

    # weight-2 cusp form shape: nonzero exponent sum trips condition 4
    weight = EtaVector.from_map(L15, {1: 1, 3: 1, 5: 1, 15: 1})
    assert 4 in ligozat_check(weight).failed

    # fractional exponents fail condition 1 and mute the square test (5)
    frac = EtaVector(L15, (Fraction(1, 2), Fraction(-1, 2), Fraction(0), Fraction(0)))
    v = ligozat_check(frac)
    assert 1 in v.failed and 5 not in v.failed


def test_ligozat_condition5():
    L = SquarefreeLevel.of(15)
    v = EtaVector.from_map(L, {1: 24, 3: -24})
    assert ligozat_check(v).ok  # prod delta^r = 3^-24, a square
    # passes 1-4 but prod delta^r = 3^30 * 5^27 is not a rational square
    odd = EtaVector.from_map(L, {1: -30, 3: 3, 15: 27})
    verdict = ligozat_check(odd)
    assert not verdict.ok and verdict.failed == (5,)


@settings(max_examples=150)
@given(eta_levels.flatmap(lambda n: vectors(n)))
def test_ligozat_equals_principality_of_divisor(v):
    """Accept iff the attached cusp divisor is integral, degree 0, principal."""
    w = divisor_of_eta_quotient(v)
    lattice_side = (
        w.is_integral() and w.degree() == 0 and is_principal(w)
    )
    assert ligozat_check(v).ok == lattice_side
