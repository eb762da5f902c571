"""Local reduction data, frozen against hand-worked runs of the algorithm.

Every (curve, p) row below was computed by hand-stepping the reduction
procedure (singular-point shift, quadratic/cubic residue splits, the I_n*
sub-loop) and cross-checked against the component-count relation
f = v(disc) - m + 1.
"""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import tate_oracle
from cuspgate import tate
from cuspgate.arith import factor, is_prime, valuation
from cuspgate.curves import Transform, WeierstrassModel, apply_transform
from cuspgate.tate import conductor, tate_algorithm
from tate_oracle import hasse_bound_check_at_2, reduction_point_count

# (coefficients, p) -> (kodaira, n, f, c, m, v_disc, minimal, split)
FROZEN = [
    (((0, -1, 1, -10, -20), 11), ("I5", 5, 1, 5, 5, 5, True, True)),
    (((1, -1, 0, -2, -1), 7), ("III", 0, 2, 2, 2, 3, True, None)),
    (((0, 0, 1, 0, -7), 3), ("IV*", 0, 3, 3, 7, 9, True, None)),
    (((0, 0, 0, -1, 0), 2), ("III", 0, 5, 2, 2, 6, True, None)),
    (((0, 0, 0, 0, 1), 2), ("IV", 0, 2, 3, 3, 4, True, None)),
    (((0, 0, 0, 0, 1), 3), ("III", 0, 2, 2, 2, 3, True, None)),
    (((0, 1, 0, -1, 0), 2), ("IV", 0, 2, 3, 3, 4, True, None)),
    (((1, 4, 0, 1, 0), 2), ("I0", 0, 0, 1, 1, 0, True, None)),
    (((1, 4, 0, 1, 0), 3), ("I2", 2, 1, 2, 2, 2, True, False)),
    (((1, 4, 0, 1, 0), 5), ("I2", 2, 1, 2, 2, 2, True, True)),
    (((1, 1, 0, 2, 0), 2), ("I2", 2, 1, 2, 2, 2, True, False)),
    (((1, 1, 0, 2, 0), 103), ("I1", 1, 1, 1, 1, 1, True, True)),
    # y^2 = x(x+a)(x+b) rows: the 2-adic case split by a mod 4 and v2(b)
    (((0, 49, 0, 180, 0), 2), ("I1*", 1, 3, 2, 6, 8, True, None)),      # (45, 4)
    (((0, 19, 0, 60, 0), 2), ("I0*", 0, 4, 2, 5, 8, True, None)),       # (15, 4)
    (((0, 7, 0, 12, 0), 2), ("I0*", 0, 4, 2, 5, 8, True, None)),        # (3, 4)
    (((0, 23, 0, 120, 0), 2), ("I2*", 2, 4, 4, 7, 10, True, None)),     # (15, 8)
    (((0, 53, 0, 360, 0), 2), ("III*", 0, 3, 2, 8, 10, True, None)),    # (45, 8)
    (((0, -7, 0, -120, 0), 2), ("III*", 0, 3, 2, 8, 10, True, None)),   # (-15, 8)
    (((0, 7, 0, -120, 0), 2), ("I2*", 2, 4, 4, 7, 10, True, None)),     # (15, -8)
    (((0, -37, 0, -360, 0), 2), ("I2*", 2, 4, 4, 7, 10, True, None)),   # (-45, 8)
    (((0, 31, 0, 240, 0), 2), ("I4*", 4, 4, 4, 9, 12, True, None)),     # (15, 16)
    (((0, -31, 0, 240, 0), 2), ("I0", 0, 0, 1, 1, 0, False, None)),     # (-15, -16)
    (((0, 4, 0, 3, 0), 2), ("III", 0, 5, 2, 2, 6, True, None)),         # (3, 1)
    (((0, 17, 0, 30, 0), 2), ("III", 0, 5, 2, 2, 6, True, None)),       # (15, 2)
    # p > 97, where the closed forms have no brute-force oracle.  A twist by
    # p of a curve good at p is I0* with c = 1 + #roots of its cubic mod p:
    # x^3 - x has 3; x^3 + 1 has 1 at 101 = 2 (mod 3), 3 at 103 = 1 (mod 3);
    # x^3 - 2 has none at 1009, where 2 is not a cube; x^3 + x + 1 has 1.
    (((0, 0, 0, -(101**2), 0), 101), ("I0*", 0, 2, 4, 5, 6, True, None)),
    (((0, 0, 0, 0, 101**3), 101), ("I0*", 0, 2, 2, 5, 6, True, None)),
    (((0, 0, 0, 0, 103**3), 103), ("I0*", 0, 2, 4, 5, 6, True, None)),
    (((0, 0, 0, 0, -2 * 1009**3), 1009), ("I0*", 0, 2, 1, 5, 6, True, None)),
    (((0, 0, 0, 1009**2, 1009**3), 1009), ("I0*", 0, 2, 2, 5, 6, True, None)),
    # the twist by 103 of y^2 = x^3 + 5x^2 + 32x, which is (1, 1, 0, 2, 0)
    (((0, 5 * 103, 0, 32 * 103**2, 0), 103), ("I1*", 1, 2, 4, 6, 7, True, None)),
    # y^2 = x^3 + A x + B with v(A), v(B) >= (3, 4), (3, 5), (4, 5);
    # c = 3 for IV* iff B/p^4 is a square mod p (2 is not, mod 101)
    (((0, 0, 0, 0, 2 * 101**4), 101), ("IV*", 0, 2, 1, 7, 8, True, None)),
    (((0, 0, 0, 0, 103**4), 103), ("IV*", 0, 2, 3, 7, 8, True, None)),
    (((0, 0, 0, 103**3, 0), 103), ("III*", 0, 2, 2, 8, 9, True, None)),
    (((0, 0, 0, 0, 1009**5), 1009), ("II*", 0, 2, 1, 9, 10, True, None)),
    # scaled by u = p: the type of the model it came from, and not minimal
    (((0, 0, 0, -(1009**6), 0), 1009), ("I0*", 0, 2, 4, 5, 6, False, None)),
    (((103, 103**2, 0, 2 * 103**4, 0), 103), ("I1", 1, 1, 1, 1, 1, False, True)),
]


@pytest.mark.parametrize("case,expected", FROZEN)
def test_frozen_reduction_types(case, expected):
    coeffs, p = case
    r = tate_algorithm(WeierstrassModel(*coeffs), p)
    assert (r.kodaira, r.n, r.f, r.c, r.m, r.v_disc, r.minimal, r.split) == expected


def test_result_model_and_transform_are_consistent():
    for (coeffs, p), _ in FROZEN:
        e = WeierstrassModel(*coeffs)
        r = tate_algorithm(e, p)
        assert r.model.is_integral()
        assert apply_transform(e, r.transform) == r.model
        if r.minimal:
            assert Fraction(r.transform.u) == 1
            assert valuation(r.model.disc, p) == valuation(e.disc, p)
        else:
            assert valuation(r.model.disc, p) < valuation(e.disc, p)
        assert r.v_disc == (valuation(r.model.disc, p) if r.model.disc else 0)


def _count_records(fn, *args):
    """(WeierstrassModel, Transform) constructions made by fn(*args)."""
    spy_model, spy_transform = (
        mock.patch.object(cls, "__post_init__", autospec=True, side_effect=cls.__post_init__)
        for cls in (WeierstrassModel, Transform)
    )
    with spy_model as models, spy_transform as transforms:
        fn(*args)
    return models.call_count, transforms.call_count


def test_tate_algorithm_builds_one_model_and_one_transform():
    # the loop runs on a coefficient tuple: no record per step, even on the
    # I_n* chains and the non-minimal models among the frozen rows
    for (coeffs, p), _ in FROZEN:
        e = WeierstrassModel(*coeffs)
        assert _count_records(tate_algorithm, e, p) == (1, 1), (coeffs, p)


def test_conductor_of_an_integral_model_builds_no_records():
    # conductor reads f off the bare outcome of the loop at every prime
    refused = []
    for (coeffs, _), _ in FROZEN:
        e = WeierstrassModel(*coeffs)
        try:
            assert _count_records(conductor, e) == (0, 0), coeffs
        except ValueError:
            refused.append(coeffs)
    # two discriminants leave a cofactor past is_prime's proven bound
    assert len(refused) == 2


def assert_c4_read_matches_the_loop(e, pairs):
    """At each (p, v_p(disc)) of pairs, p !| c4 exactly when `_tate` stops in
    its first, multiplicative branch on e itself (k = 0, split decided), and
    there it gives I_v and f = 1: the value `conductor` takes without it."""
    c4 = e.c4
    for p, v in pairs:
        outcome = tate._tate(e, p, v)
        _, k, kodaira, _, _, _, split = outcome
        assert (c4 % p != 0) == (k == 0 and split is not None), (e, p)
        if c4 % p:
            assert kodaira == f"I{v}" and tate._exponents(outcome)[1] == 1, (e, p)


def test_c4_read_on_the_frozen_curves():
    multiplicative = 0
    for (coeffs, p), _ in FROZEN:
        e = WeierstrassModel(*coeffs)
        disc = abs(e.disc)
        try:
            pairs = factor(disc).pairs
        except ValueError:  # a cofactor past is_prime's proven bound
            pairs = [(p, valuation(disc, p))] if disc % p == 0 else []
        assert_c4_read_matches_the_loop(e, pairs)
        multiplicative += sum(e.c4 % q != 0 for q, _ in pairs)
    assert multiplicative >= 10


def test_c4_read_on_the_search_curves():
    from cuspgate import searches

    runs = [
        searches.search_neumann_setzer(2000),
        searches.search_2p_family(16),
        searches.search_8p_family(1000),
        searches.search_4pq_family(120),
        searches.search_4pq_family(120, difference=4),
        searches.verify_z2z4_classification(100).hits,
    ]
    curves = [hit.curve for hit in itertools.chain(*runs) if hit.curve is not None]
    assert len(curves) > 100
    for e in curves:
        assert_c4_read_matches_the_loop(e, factor(abs(e.disc)).pairs)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11, 97, 101]),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)),
    st.integers(0, 2),
    st.tuples(st.integers(-200, 200), st.integers(-200, 200), st.integers(-200, 200)),
)
def test_c4_read_on_models_with_bad_reduction(p, a12, a346, k, shift):
    """a3, a4, a6 = 0 (mod p) makes (0, 0) singular mod p, so p | disc; a
    random a1, a2 makes it a node or a cusp, a scaling by p^k makes the
    model non-minimal, and a shift moves the point."""
    a3, a4, a6 = (p * x for x in a346)
    try:
        e = WeierstrassModel(*a12, a3, a4, a6)
    except ValueError:
        return
    e = apply_transform(e, Transform(Fraction(1, p**k), *shift))
    assert e.is_integral() and e.disc % p == 0
    assert_c4_read_matches_the_loop(e, [(p, valuation(e.disc, p))])


def test_split_test_runs_on_the_translated_model():
    # The singular point of 11a1 mod 11 is not at the origin; deciding split
    # multiplicative reduction before recentering gives the wrong answer.
    r = tate_algorithm(WeierstrassModel(0, -1, 1, -10, -20), 11)
    assert r.split is True and r.c == 5
    # and a genuinely nonsplit case keeps c = 2 at even n
    r2 = tate_algorithm(WeierstrassModel(1, 1, 0, 2, 0), 2)
    assert r2.split is False and r2.c == 2


def test_kodaira_string_shapes():
    import re

    for (coeffs, p), (kodaira, n, *_rest) in FROZEN:
        match = re.fullmatch(r"I(\d+)\*?", kodaira)
        if match:
            assert int(match.group(1)) == n


def test_additive_reduction_has_n_zero():
    for (coeffs, p), (kodaira, n, *_rest) in FROZEN:
        if kodaira in ("II", "III", "IV", "II*", "III*", "IV*"):
            assert n == 0


def test_conductors_frozen():
    expected = {
        (0, -1, 1, -10, -20): 11,
        (1, 4, 0, 1, 0): 15,
        (0, 1, 0, -1, 0): 20,
        (1, 1, 0, 2, 0): 206,
        (0, 0, 0, -1, 0): 32,
        (0, 0, 0, 0, 1): 36,
        (0, 31, 0, 240, 0): 240,
        (1, -1, 0, -2, -1): 49,
        (0, 0, 1, 0, -7): 27,
    }
    for coeffs, n in expected.items():
        assert conductor(WeierstrassModel(*coeffs)) == n


def test_conductor_of_rescaled_model():
    # a non-minimal rational model reduces to the same conductor
    assert conductor(WeierstrassModel(0, 0, 0, Fraction(-1, 16), 0)) == 32
    assert conductor(WeierstrassModel(0, -31, 0, 240, 0)) == 15


def test_conductor_takes_the_factorization_of_the_integral_discriminant():
    """Given |disc| of the integral model as a Factorization, conductor reads
    the same value without factoring; any other n is refused."""
    e11 = WeierstrassModel(0, -1, 1, -10, -20)
    rescaled = apply_transform(e11, Transform(Fraction(1, 2), 0, 0, 0))  # integral, not minimal
    models = [
        (e11, 11),
        (rescaled, 11),
        (WeierstrassModel(0, 0, 0, Fraction(-1, 16), 0), 32),
        (WeierstrassModel(0, -31, 0, 240, 0), 15),
    ]
    for e, n in models:
        integral = e.integral_model()[0]
        with mock.patch.object(tate, "factor", side_effect=AssertionError("factored")):
            assert conductor(e, factor(abs(integral.disc))) == n
        # the model's own |disc|, off by a factor, and the minimal one of e11
        for wrong in {abs(e.disc.numerator), 2 * abs(integral.disc), 11**5} - {abs(integral.disc)}:
            with pytest.raises(ValueError, match="discriminant"):
                conductor(e, factor(wrong))
    assert rescaled.is_integral() and abs(rescaled.disc) == 2**12 * 11**5


def test_eight_p_twist_normalization():
    # the square root of p -+ 16/32 must be taken = 1 (mod 4); the other
    # sign inflates the 2-part of the conductor from 8 to 16
    good = tate_algorithm(WeierstrassModel(0, 5, 0, -4, 0), 2)
    assert (good.kodaira, good.f) == ("I1*", 3)
    bad = tate_algorithm(WeierstrassModel(0, -5, 0, -4, 0), 2)
    assert bad.f == 4
    assert conductor(WeierstrassModel(0, 5, 0, -4, 0)) == 328  # 8 * 41
    for m, a4 in ((-3, -8), (9, -8), (-11, 8)):
        r = tate_algorithm(WeierstrassModel(0, m, 0, a4, 0), 2)
        assert (r.kodaira, r.f) == ("III*", 3)


def test_neumann_setzer_twist_normalization():
    # same rule for p = m^2 + 4: m = 3 must be twisted to -3
    assert conductor(WeierstrassModel(0, -3, 0, -1, 0)) == 52
    assert conductor(WeierstrassModel(0, 3, 0, -1, 0)) == 208


def test_validation():
    with pytest.raises(ValueError):
        tate_algorithm(WeierstrassModel(0, 0, 0, Fraction(1, 4), 0), 2)
    with pytest.raises(ValueError):
        tate_algorithm(WeierstrassModel(0, -1, 1, -10, -20), 12)


@pytest.mark.parametrize(
    "coeffs",
    [(0, -1, 1, -10, -20), (1, 4, 0, 1, 0), (0, 3, 0, -1, 0), (1, 1, 0, 2, 0), (0, 0, 1, 0, -7)],
)
def test_local_data_matches_tate_algorithm_at_each_prime(coeffs):
    """The conductor's path skips the primality test, not any of the work."""
    e = WeierstrassModel(*coeffs)
    local = list(tate._local_data(e))
    disc = abs(int(e.disc))
    assert [p for p, _ in local] == [p for p in range(2, disc + 1) if disc % p == 0 and is_prime(p)]
    assert all(res == tate_algorithm(e, p) for p, res in local)


def test_reduction_point_count():
    assert reduction_point_count(WeierstrassModel(1, 4, 0, 1, 0), 2) == 4
    assert reduction_point_count(WeierstrassModel(0, -1, 1, -10, -20), 3) == 5
    with pytest.raises(ValueError):
        reduction_point_count(WeierstrassModel(0, -1, 1, -10, -20), 11)


def test_hasse_bound_check_at_2():
    e = WeierstrassModel(1, 4, 0, 1, 0)
    assert hasse_bound_check_at_2(e, 4)
    assert hasse_bound_check_at_2(e, 2)
    assert not hasse_bound_check_at_2(e, 8)
    with pytest.raises(ValueError):
        hasse_bound_check_at_2(WeierstrassModel(0, 0, 0, -1, 0), 4)


small_coeffs = st.integers(-12, 12)


@settings(max_examples=200, deadline=None)
@given(small_coeffs, small_coeffs, small_coeffs, small_coeffs, small_coeffs)
def test_component_count_relation_on_random_curves(a1, a2, a3, a4, a6):
    try:
        e = WeierstrassModel(a1 % 2, a2, a3, a4, a6)
    except ValueError:
        return
    for p in (2, 3, 5, 7):
        r = tate_algorithm(e, p)
        v = valuation(r.model.disc, p) if r.model.disc % p == 0 else 0
        if v == 0:
            assert (r.kodaira, r.f, r.m, r.c) == ("I0", 0, 1, 1)
        else:
            assert r.f == v - r.m + 1
            assert r.f >= 1
        if p > 3:
            # tame primes: f is at most 2
            assert r.f <= 2
        assert apply_transform(e, r.transform) == r.model


@settings(max_examples=120, deadline=None)
@given(small_coeffs, small_coeffs, small_coeffs)
def test_conductor_is_product_of_local_exponents(a2, a4, a6):
    try:
        e = WeierstrassModel(0, a2, 0, a4, a6)
    except ValueError:
        return
    n = conductor(e)
    m, _ = e.integral_model()
    prod = 1
    from cuspgate.arith import factor

    for p in factor(abs(m.disc)).primes():
        prod *= p ** tate_algorithm(m, p).f
    assert n == prod


PRIMES_TO_97 = [p for p in range(2, 98) if is_prime(p)]


def singular_models(p, rng, count):
    """Integral models singular mod p: a3, a4, a6 = 0 (mod p) puts the
    singular point at the origin, and a shift (r, s, t) moves it; residues
    (a1, a2, r, s, t) cover every singular reduction.  Exhaustive for p <= 5."""
    if p <= 5:
        draws = itertools.product(range(p), repeat=5)
    else:
        draws = (tuple(rng.randrange(p) for _ in range(5)) for _ in range(count))
    for a1, a2, r, s, t in draws:
        a3, a4, a6 = (p * rng.randint(1, 9) for _ in range(3))
        try:
            e = WeierstrassModel(a1, a2, a3, a4, a6)
        except ValueError:
            continue
        yield apply_transform(e, Transform(1, r, s, t))


def cubics(p, rng, count):
    """Every (b, c, d) mod p for p <= 13; else random cubics, half of them
    built with a double or triple root, and lifted off the residues."""
    if p <= 13:
        yield from itertools.product(range(p), repeat=3)
        return
    for i in range(count):
        x, y = rng.randrange(p), rng.randrange(p)
        if i % 4 == 0:
            b, c, d = -(2 * x + y), x * x + 2 * x * y, -x * x * y
        elif i % 4 == 1:
            b, c, d = -3 * x, 3 * x * x, -(x**3)
        else:
            b, c, d = (rng.randrange(p) for _ in range(3))
        yield b + p * rng.randint(-3, 3), c, d + p * rng.randint(-3, 3)


@pytest.mark.parametrize("p", PRIMES_TO_97)
def test_closed_forms_match_the_brute_force_oracle(p):
    rng = random.Random(p)
    for e in singular_models(p, rng, 150):
        a = e.coefficients()
        assert tate._singular_point(a, p) == tate_oracle.singular_point(a, p), e
    for b, c, d in cubics(p, rng, 400):
        assert tate._cubic(b, c, d, p) == tate_oracle.cubic(b, c, d, p), (b, c, d)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11, 97, 101]),
    st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 5)), min_size=5, max_size=5),
    st.tuples(st.integers(-200, 200), st.integers(-200, 200), st.integers(-200, 200)),
)
def test_tate_on_models_with_bad_reduction(p, parts, shift):
    # a_i = m p^k with random k, moved by a random integral shift
    try:
        e = WeierstrassModel(*(m * p**k for m, k in parts))
    except ValueError:
        return
    e = apply_transform(e, Transform(1, *shift))
    r = tate_algorithm(e, p)
    assert r.f == (r.v_disc - r.m + 1 if r.v_disc else 0)
    assert apply_transform(e, r.transform) == r.model
    if p >= 5:
        assert tate_oracle.papadopoulos(e, p) == (r.kodaira, r.v_disc)
    if p <= 97:
        # the same run with the brute-force searches gives the same result
        oracle = {"_singular_point": tate_oracle.singular_point, "_cubic": tate_oracle.cubic}
        with mock.patch.multiple(tate, **oracle):
            assert repr(tate_algorithm(e, p)) == repr(r)


def test_papadopoulos_table_on_the_frozen_rows():
    rows = [(case, want) for case, want in FROZEN if case[1] >= 5]
    assert {want[0] for _, want in rows} >= {"I0*", "I1*", "IV*", "III*", "II*", "III", "I5"}
    for (coeffs, p), (kodaira, _n, _f, _c, _m, v_disc, *_rest) in rows:
        assert tate_oracle.papadopoulos(WeierstrassModel(*coeffs), p) == (kodaira, v_disc)
    with pytest.raises(ValueError):
        tate_oracle.papadopoulos(WeierstrassModel(0, -1, 1, -10, -20), 3)


def test_papadopoulos_table_on_the_search_curves():
    from cuspgate import searches

    runs = [
        searches.search_neumann_setzer(2000),
        searches.search_2p_family(12),
        searches.search_8p_family(1000),
        searches.search_4pq_family(120),
        searches.verify_z2z4_classification(100).hits,
    ]
    checked = 0
    for hit in itertools.chain(*runs):
        if hit.curve is None:
            continue
        for p, r in tate._local_data(hit.curve):
            if p >= 5:
                assert tate_oracle.papadopoulos(hit.curve, p) == (r.kodaira, r.v_disc), (hit, p)
                checked += 1
    assert checked > 100
