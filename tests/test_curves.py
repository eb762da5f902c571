import copy
import dataclasses
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import curves_oracle
from cuspgate import curves
from curves_oracle import double_x, negate, on_curve, scalar_mul, transform_point
from cuspgate.curves import (
    BInvariants,
    INFINITY,
    Point,
    Transform,
    WeierstrassModel,
    _b_invariants,
    _discriminant,
    _rational_cubic_roots,
    apply_transform,
    b_invariants,
    group_law_add,
    two_torsion_structure,
)

E11 = WeierstrassModel(0, -1, 1, -10, -20)
E37 = WeierstrassModel(0, 0, 1, -1, 0)


def test_invariants_frozen():
    assert (E11.b2, E11.b4, E11.b6, E11.b8) == (-4, -20, -79, -21)
    assert (E11.c4, E11.c6) == (496, 20008)
    assert E11.disc == -(11**5)
    assert E11.j_invariant() == Fraction(-122023936, 161051)
    assert E37.disc == 37
    b = b_invariants(E11)
    assert b == BInvariants(-4, -20, -79, -21, -(11**5))
    assert 4 * b.b8 == b.b2 * b.b6 - b.b4**2


def test_singular_models_rejected():
    with pytest.raises(ValueError):
        WeierstrassModel(0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        WeierstrassModel(0, 0, 0, -3, 2)  # (x-1)^2 (x+2)


def test_coefficient_normalization():
    e = WeierstrassModel(Fraction(2, 1), 0, Fraction(1), 0, Fraction(-7, 1))
    assert all(isinstance(a, int) for a in e.coefficients())
    f = WeierstrassModel(0, 0, 0, Fraction(1, 4), Fraction(1, 8))
    assert not f.is_integral()


@pytest.mark.parametrize(
    "coeffs",
    [
        (0, -1, 1, -10, -20),
        (1, 4, 0, 1, 0),
        (0, 0, 0, Fraction(1, 4), Fraction(1, 8)),
        (Fraction(1, 2), Fraction(-3, 7), 5, Fraction(2, 3), Fraction(-9, 11)),
    ],
)
def test_disc_is_computed_once_and_kept(coeffs):
    e = WeierstrassModel(*coeffs)
    assert e.disc == _discriminant(_b_invariants(e.coefficients()))
    assert "disc" in vars(e)
    assert [f.name for f in dataclasses.fields(e)] == ["a1", "a2", "a3", "a4", "a6"]
    copies = (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e), dataclasses.replace(e))
    for other in copies:
        assert other == e and hash(other) == hash(e) and repr(other) == repr(e)
        assert other.disc == e.disc
    moved = dataclasses.replace(e, a6=e.a6 + 1)
    assert moved.disc == _discriminant(_b_invariants(moved.coefficients()))
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.disc = 0


def test_model_construction_checks_stay():
    with pytest.raises(ValueError, match="singular"):
        WeierstrassModel(Fraction(0), 0, 0, Fraction(-3), 2)  # (x-1)^2 (x+2)
    with pytest.raises(TypeError, match="is not int or Fraction"):
        WeierstrassModel(0, 0, 0, 1.0, 1)
    e = WeierstrassModel(Fraction(4, 2), 0, 0, Fraction(-1), Fraction(3, 1))
    assert all(type(a) is int for a in e.coefficients()) and type(e.disc) is int
    assert repr(e) == "WeierstrassModel(a1=2, a2=0, a3=0, a4=-1, a6=3)"
    plain = WeierstrassModel(2, 0, 0, -1, 3)
    assert e == plain and hash(e) == hash(plain)


def test_from_coefficients():
    assert WeierstrassModel.from_coefficients((-1, 1)).coefficients() == (0, 0, 0, -1, 1)
    assert WeierstrassModel.from_coefficients([0, -1, 1, -10, -20]) == E11
    with pytest.raises(ValueError):
        WeierstrassModel.from_coefficients([1, 2, 3])


def test_integral_model():
    f = WeierstrassModel(0, 0, 0, Fraction(1, 4), Fraction(1, 8))
    g, t = f.integral_model()
    assert g.is_integral()
    assert g.j_invariant() == f.j_invariant()
    assert apply_transform(f, t) == g
    e, t0 = E11.integral_model()
    assert e is E11 and t0.is_identity()
    # an integral model gets the one shared identity, not a fresh record
    assert E37.integral_model()[1] is t0


rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
nonzero_rationals = rationals.filter(lambda x: x != 0)
transforms = st.builds(Transform, nonzero_rationals, rationals, rationals, rationals)


small_ints = st.integers(-30, 30)
integral_models = st.tuples(small_ints, small_ints, small_ints, small_ints, small_ints)
rational_models = st.tuples(rationals, rationals, rationals, rationals, rationals)
integral_transforms = st.builds(
    Transform, st.sampled_from([1, 1, -1, 2, -3]), small_ints, small_ints, small_ints
)


def _model(coeffs):
    try:
        return WeierstrassModel(*coeffs)
    except ValueError:
        assume(False)


@settings(max_examples=200)
@given(st.one_of(integral_models, rational_models), st.one_of(integral_transforms, transforms))
def test_apply_transform_matches_fraction_oracle(coeffs, t):
    e = _model(coeffs)
    got = apply_transform(e, t)
    want = curves_oracle.apply_transform(e, t)
    assert got == want
    assert [type(a) for a in got.coefficients()] == [type(a) for a in want.coefficients()]


@settings(max_examples=100)
@given(integral_models, small_ints, small_ints, small_ints)
def test_integral_translation_stays_in_int(coeffs, r, s, t):
    e = _model(coeffs)
    shift = Transform(1, r, s, t)
    assert all(type(v) is int for v in (shift.u, shift.r, shift.s, shift.t))
    assert all(type(a) is int for a in apply_transform(e, shift).coefficients())


def test_transform_fields_parse_as_before():
    t = Transform("1/2", Fraction(4, 2), "3", True)
    assert (t.u, t.r, t.s, t.t) == (Fraction(1, 2), 2, 3, 1)
    assert [type(v) for v in (t.u, t.r, t.s, t.t)] == [Fraction, int, int, int]
    with pytest.raises(ValueError):
        Transform(0, 1, 2, 3)
    with pytest.raises(ValueError):
        Transform("0/5", 1, 2, 3)


@settings(max_examples=120)
@given(transforms)
def test_transform_inverse_roundtrip(t):
    assert t.then(t.inverse()).is_identity()
    assert t.inverse().then(t).is_identity()


@settings(max_examples=80)
@given(transforms, transforms)
def test_transform_composition_matches_sequential(t1, t2):
    e1 = apply_transform(apply_transform(E11, t1), t2)
    e2 = apply_transform(E11, t1.then(t2))
    assert e1 == e2


@settings(max_examples=80)
@given(transforms)
def test_transform_scales_invariants(t):
    e = apply_transform(E11, t)
    u = Fraction(t.u)
    assert Fraction(e.c4) == Fraction(E11.c4) / u**4
    assert Fraction(e.c6) == Fraction(E11.c6) / u**6
    assert Fraction(e.disc) == Fraction(E11.disc) / u**12
    assert e.j_invariant() == E11.j_invariant()


@settings(max_examples=60)
@given(transforms, st.integers(-6, 6))
def test_transform_point_commutes_with_scalar_mul(t, n):
    e = apply_transform(E37, t)
    gen = Point(0, 0)
    moved = transform_point(gen, t)
    assert on_curve(e, moved)
    assert transform_point(scalar_mul(E37, n, gen), t) == scalar_mul(e, n, moved)


def test_group_law_basics():
    P = Point(0, 0)
    assert on_curve(E37, P)
    assert group_law_add(E37, P, INFINITY) == P
    assert group_law_add(E37, INFINITY, P) == P
    assert group_law_add(E37, P, negate(E37, P)) is INFINITY
    twoP = group_law_add(E37, P, P)
    assert twoP == Point(1, 0)
    assert group_law_add(E37, twoP, P) == Point(-1, -1)
    assert on_curve(E37, scalar_mul(E37, 9, P))


@settings(max_examples=40, deadline=None)
@given(st.integers(-12, 12), st.integers(-12, 12))
def test_scalar_mul_is_a_homomorphism(m, n):
    P = Point(0, 0)
    lhs = scalar_mul(E37, m + n, P)
    rhs = group_law_add(E37, scalar_mul(E37, m, P), scalar_mul(E37, n, P))
    assert lhs == rhs if lhs is not INFINITY else rhs is INFINITY


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(2, 30), st.integers(2, 30))
def test_group_law_associative_on_generator_multiples(a, b, c):
    P = Point(0, 0)
    A, B, C = (scalar_mul(E37, k, P) for k in (a, b, c))
    left = group_law_add(E37, group_law_add(E37, A, B), C)
    right = group_law_add(E37, A, group_law_add(E37, B, C))
    assert left == right


def random_curve_through(x, y, a1, a2, a3, a4):
    """Solve for a6 so that (x, y) lies on the curve."""
    a6 = y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x
    return WeierstrassModel(a1, a2, a3, a4, a6), Point(x, y)


@settings(max_examples=150)
@given(
    st.integers(-20, 20),
    st.integers(-20, 20),
    st.integers(-3, 3),
    st.integers(-5, 5),
    st.integers(-3, 3),
    st.integers(-20, 20),
)
def test_double_x_matches_group_law(x, y, a1, a2, a3, a4):
    try:
        e, P = random_curve_through(x, y, a1, a2, a3, a4)
    except ValueError:
        return  # the interpolated curve came out singular
    if 2 * y + a1 * x + a3 == 0:
        with pytest.raises(ValueError):
            double_x(e, x)
        return
    doubled = group_law_add(e, P, P)
    assert double_x(e, x) == Fraction(doubled.x)


def test_double_x_rejects_two_torsion():
    e = WeierstrassModel(0, 0, 0, -1, 0)  # y^2 = x^3 - x
    for x in (-1, 0, 1):
        with pytest.raises(ValueError):
            double_x(e, x)
    assert double_x(e, 2) == Fraction(25, 24)


def test_two_torsion_structure():
    full = two_torsion_structure(WeierstrassModel(0, 0, 0, -1, 0))
    assert full.label == "Z/2 x Z/2" and full.roots == (-1, 0, 1)
    one = two_torsion_structure(WeierstrassModel(0, 0, 0, 1, 0))
    assert one.label == "Z/2" and one.roots == (0,)
    none = two_torsion_structure(WeierstrassModel(0, 0, 0, 0, -2))
    assert none.label == "trivial" and none.roots == ()
    # full model with a1, a3: roots of the completed-square cubic
    anchor = two_torsion_structure(WeierstrassModel(0, 23, 0, 120, 0))
    assert anchor.label == "Z/2 x Z/2" and anchor.roots == (-15, -8, 0)
    e11 = two_torsion_structure(E11)
    assert e11.label == "trivial"


def test_two_torsion_points_die_under_doubling():
    e = WeierstrassModel(0, 0, 0, -1, 0)
    for x in (-1, 0, 1):
        P = Point(x, 0)
        assert on_curve(e, P)
        assert group_law_add(e, P, P) is INFINITY


nonzero_ints = st.integers(-40, 40).filter(lambda x: x != 0)


@settings(max_examples=300)
@given(nonzero_ints, st.integers(-300, 300), st.integers(-300, 300), st.integers(-300, 300))
def test_rational_cubic_roots_match_fraction_oracle(c3, c2, c1, c0):
    assert _rational_cubic_roots(c3, c2, c1, c0) == curves_oracle.rational_cubic_roots(c3, c2, c1, c0)


def _times_linear(poly, p, q):
    """poly * (q x - p), coefficients in descending order."""
    return [a * q - b * p for a, b in zip(poly + [0], [0] + poly)]


linear_factors = st.tuples(st.integers(-12, 12), st.integers(1, 6))


@settings(max_examples=80, deadline=None)
@given(st.lists(linear_factors, min_size=3, max_size=3), nonzero_ints)
def test_rational_cubic_roots_of_split_cubics(linear, scale):
    poly = [scale]
    for p, q in linear:
        poly = _times_linear(poly, p, q)
    got = _rational_cubic_roots(*poly)
    assert got == curves_oracle.rational_cubic_roots(*poly)
    assert got == sorted({Fraction(p, q) for p, q in linear})


@settings(max_examples=80, deadline=None)
@given(linear_factors, st.integers(1, 50), nonzero_ints)
def test_rational_cubic_roots_with_an_irreducible_quadratic(linear, k, scale):
    poly = _times_linear([scale, 0, scale * k], *linear)  # scale (x^2 + k)(q x - p)
    got = _rational_cubic_roots(*poly)
    assert got == curves_oracle.rational_cubic_roots(*poly)
    assert got == [Fraction(*linear)]


@settings(max_examples=200, deadline=None)
@given(linear_factors, st.integers(-30, 30), st.integers(-30, 30), nonzero_ints)
def test_rational_cubic_roots_near_the_critical_points(linear, u, v, scale):
    """(q x - p)(x^2 + u x + v): roots on both sides of, and next to, the
    critical points where the bisection pieces meet."""
    poly = _times_linear([scale, scale * u, scale * v], *linear)
    assert _rational_cubic_roots(*poly) == curves_oracle.rational_cubic_roots(*poly)


def test_two_torsion_of_huge_roots_within_budget():
    """The root finder factors nothing, so 300-digit roots are found at once
    (the CLI tests take the huge coefficients with no root)."""
    start = time.perf_counter()
    n = 10**300 + 7
    full = two_torsion_structure(WeierstrassModel(0, 0, 0, -n * n, 0))  # y^2 = x^3 - n^2 x
    assert full.roots == (-n, 0, n)
    # 5 (3x - n)(3x + 2)^2: a rational simple root and a rational double root
    poly = _times_linear(_times_linear(_times_linear([5], n, 3), -2, 3), -2, 3)
    assert _rational_cubic_roots(*poly) == [Fraction(-2, 3), Fraction(n, 3)]
    assert time.perf_counter() - start < 2


def test_root_finder_evaluates_the_cubic_logarithmically_often(monkeypatch):
    """4000-digit cubics whose roots sit where Newton's method crawls: at the
    inflection, at a double root, beside the critical points.  Bisection
    evaluates each such cubic more than 13,000 times per part."""
    calls = []
    part_root = curves._part_root

    def counting(g, dg, lo, hi, convex):
        return part_root(lambda x: calls.append(x) or g(x), dg, lo, hi, convex)

    monkeypatch.setattr(curves, "_part_root", counting)
    s = 10**4000
    cube = [1, 3 * s, 3 * s * s, s**3]  # (x + s)^3
    # (x - s)^2 (x + s)
    double = _times_linear(_times_linear(_times_linear([1], s, 1), s, 1), -s, 1)
    cases = [
        (cube[:3] + [cube[3] + 1], [-s - 1]),
        (cube[:3] + [cube[3] + 2], []),
        (double, [-s, s]),
        (double[:3] + [double[3] - 1], []),
        (_times_linear(_times_linear(_times_linear([1], s, 1), s + 1, 1), -7, 1), [-7, s, s + 1]),
        (
            _times_linear(_times_linear(_times_linear([3], s, 1), -s * s, 7), 5, 2),
            [Fraction(-s * s, 7), Fraction(5, 2), s],
        ),
    ]
    for poly, roots in cases:
        calls.clear()
        assert _rational_cubic_roots(*poly) == roots
        assert len(calls) < 200


huge = st.integers(-(10**300), 10**300)


@settings(max_examples=150, deadline=None)
@given(huge.filter(lambda x: x != 0), huge, huge, huge)
def test_rational_cubic_roots_match_bisection_on_huge_coefficients(c3, c2, c1, c0):
    want = curves_oracle.bisected_cubic_roots(c3, c2, c1, c0)
    assert _rational_cubic_roots(c3, c2, c1, c0) == want


@settings(max_examples=150, deadline=None)
@given(huge, st.integers(-3, 3), st.integers(-(10**300), 10**300), st.integers(1, 6), nonzero_ints)
def test_rational_cubic_roots_match_bisection_near_double_roots(r, dr, t, q, scale):
    """(x - r)(x - r - dr)(q x - t) plus -1, 0 or 1: a double or near-double
    root, where Newton's method is slowest, next to a root of any size."""
    poly = _times_linear(_times_linear(_times_linear([scale], r, 1), r + dr, 1), t, q)
    for shift in (-1, 0, 1):
        shifted = poly[:3] + [poly[3] + shift]
        assert _rational_cubic_roots(*shifted) == curves_oracle.bisected_cubic_roots(*shifted)
