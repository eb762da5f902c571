"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line (visible under ``pytest -s`` / on
failure) and enforces its own wall-clock budget, so a run of this file
doubles as the go/no-go checklist for the whole package.
"""

import itertools
import math
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from cuspgate.arith import factor, is_prime, num, valuation
from cuspgate.atkin_lehner import sign_divisor
from cuspgate.cusps import (
    CuspDivisor,
    EtaVector,
    SquarefreeLevel,
    cuspidal_group_structure,
    divisor_order,
    is_principal,
    lambda_inverse,
    ogg_order,
)
from cuspgate.curves import INFINITY, Point, WeierstrassModel, group_law_add
from cuspgate.eta import divisor_of_eta_quotient, ligozat_check
from cuspgate.gates import KNOWN_ODD_NONSEMISTABLE, gate_nonsemistable, gate_squarefree
from cuspgate.searches import search_2p_family, search_neumann_setzer, verify_z2z4_classification
from cuspgate.tate import conductor, tate_algorithm
import cusps_oracle
from curves_oracle import double_x
from lattice_oracle import group_structure


class budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        assert self.elapsed < self.limit, f"budget {self.limit}s exceeded: {self.elapsed:.1f}s"
        return False


def test_criterion_01_closed_form_orders_match_lattice():
    """Every sign-pattern divisor order agrees with the closed form, N <= 210."""
    with budget(30):
        checked = 0
        for n in range(2, 211):
            if not factor(n).is_squarefree():
                continue
            level = SquarefreeLevel.of(n)
            for b in itertools.product((1, -1), repeat=level.t):
                if all(s == 1 for s in b):
                    continue  # excluded on both sides: the divisor has degree 2^t
                eps = {p: -s for p, s in zip(level.primes, b)}
                w = sign_divisor(level, eps)
                assert divisor_order(w) == ogg_order(level, b), (n, b)
                checked += 1
    print(f"PASS criterion 1: {checked} sign-pattern orders match at all square-free N <= 210")


def test_criterion_02_group_structures():
    assert cuspidal_group_structure(SquarefreeLevel.of(11)) == (5,)
    assert cuspidal_group_structure(SquarefreeLevel.of(67)) == (11,)
    print("PASS criterion 2: cuspidal groups at N = 11, 67 are Z/5, Z/11")


def test_criterion_02b_group_structures_at_many_primes():
    """Levels with 3 to 6 primes finish, 1634 = 2*19*43 and 30030 among them;
    each structure is a divisor chain whose exponent is the lcm of the
    orders of the generators P_d - P_1."""
    levels = (858, 910, 1122, 1302, 1326, 1410, 1430, 1634, 1794, 1806, 2002, 2145, 2170, 2310, 30030)
    with budget(2) as clock:
        structures = {n: cuspidal_group_structure(SquarefreeLevel.of(n)) for n in levels}
        for n, struct in structures.items():
            assert all(b % a == 0 for a, b in zip(struct, struct[1:])), n
            level = SquarefreeLevel.of(n)
            exponent = 1
            for d in level.divisors[1:]:
                order = divisor_order(CuspDivisor.from_map(level, {d: 1, 1: -1}))
                exponent = exponent * order // math.gcd(exponent, order)
            assert struct[-1] == exponent, n
    assert structures[1634] == (3, 21, 6930, 6930, 83160)
    assert structures[858] == (2, 2, 10, 840, 840, 840, 840, 840, 10080, 20160)
    print(f"PASS criterion 2b: {len(levels)} cuspidal groups with 3 to 6 primes in {clock.elapsed:.2f}s")


def test_criterion_02c_group_structures_at_seven_primes():
    """The declared domain ends at 7 primes: 510510, 570570 and the odd
    4849845 finish under a quarter-second budget together and match the
    former Smith reduction mod D on the generic congruence rows; 8 primes
    are refused."""
    levels = [SquarefreeLevel.of(n) for n in (510510, 570570, 4849845)]
    with budget(0.25) as clock:
        structures = [cuspidal_group_structure(level) for level in levels]
    for level, struct in zip(levels, structures):
        assert struct == group_structure(*cusps_oracle.congruence_rows(level)), level.n
    with pytest.raises(ValueError, match="at most 7 primes"):
        cuspidal_group_structure(SquarefreeLevel.of(9699690))
    print(f"PASS criterion 2c: cuspidal groups at 510510, 570570 and 4849845 in {clock.elapsed:.2f}s")


def test_criterion_03_eta_acceptance_equals_principality():
    """Modularity-criterion verdicts match the lattice three-condition test."""
    rng = random.Random(20240811)
    levels = [11, 14, 15, 30, 105]
    with budget(60):
        accepted = rejected = 0
        for n in levels:
            level = SquarefreeLevel.of(n)
            size = 1 << level.t
            vectors = []
            for _ in range(120):  # raw random integer exponents
                vectors.append(tuple(Fraction(rng.randint(-24, 24)) for _ in range(size)))
            for _ in range(40):  # rational exponents exercise the integrality condition
                vectors.append(
                    tuple(Fraction(rng.randint(-24, 24), rng.choice((1, 2, 3, 4))) for _ in range(size))
                )
            for _ in range(40):  # repaired: scale a degree-0 divisor to its order
                coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(size - 1)]
                coeffs.append(-sum(coeffs, Fraction(0)))
                w = CuspDivisor(level, tuple(coeffs))
                reps = divisor_order(w) * w
                vectors.append(lambda_inverse(reps).coeffs)
            for coeffs in vectors:
                v = EtaVector(level, coeffs)
                w = divisor_of_eta_quotient(v)
                lattice_ok = w.is_integral() and w.degree() == 0 and is_principal(w)
                assert ligozat_check(v).ok == lattice_ok, (n, coeffs)
                accepted += lattice_ok
                rejected += not lattice_ok
        assert accepted and rejected, "both verdicts must occur for the check to mean anything"
    print(f"PASS criterion 3: eta acceptance == principality on {accepted + rejected} vectors "
          f"({accepted} accepted) across levels {levels}")


def test_criterion_04_2p_orders_and_gate():
    """(1 - w_2)(1 +- w_p)P_1 orders and the p mod 16 gate, all p < 10^4."""
    with budget(10):
        count = 0
        for p in range(3, 10_000, 2):
            if not is_prime(p):
                continue
            level = SquarefreeLevel.of(2 * p)
            for sgn in (1, -1):
                w = sign_divisor(level, {2: 1, p: -sgn})
                order = divisor_order(w)
                exact = num(Fraction(p + sgn, 24))
                printed = num(Fraction(p + sgn, 8))
                assert order == exact, (p, sgn)
                assert printed % order == 0, (p, sgn)
                assert printed % 2 == order % 2, (p, sgn)
            assert gate_squarefree(2 * p).passed == (p % 16 in (5, 7, 13)), p
            count += 1
    print(f"PASS criterion 4: orders, divisibility, parity, and gate verified for {count} primes")


def test_criterion_05_two_torsion_reduction_table():
    """y^2 = x(x+a)(x+b) reduction rows at p = 2, 200 samples per row."""
    rng = random.Random(95)
    with budget(60):
        done = 0
        while done < 200:  # row 1: gamma = 1 free, or gamma = 0 with v2(a - b) = 1
            a = rng.randrange(1, 600, 2) * rng.choice((1, -1))
            if rng.random() < 0.5:
                b = 2 * rng.randrange(1, 300, 2) * rng.choice((1, -1))
            else:
                b = a - 2 * rng.randrange(1, 300, 2)
                if valuation(a - b, 2) != 1:
                    continue
            if a == b or b == 0:
                continue
            r = tate_algorithm(WeierstrassModel(0, a + b, 0, a * b, 0), 2)
            assert r.kodaira == "III", (a, b, r.kodaira)
            assert r.f == r.v_disc - 1, (a, b)
            done += 1
        done = 0
        while done < 200:  # row 2: s1 = s2, a = 3 (mod 4), gamma in [2, 8]
            s = rng.choice((1, -1))
            a = rng.randrange(3, 600, 4) if s > 0 else -rng.randrange(1, 600, 4)
            gamma = rng.randrange(2, 9)
            b = s * (1 << gamma) * rng.randrange(1, 100, 2)
            r = tate_algorithm(WeierstrassModel(0, a + b, 0, a * b, 0), 2)
            assert r.kodaira == f"I{2 * (gamma - 2)}*", (a, b, r.kodaira)
            assert r.f == 4, (a, b)
            done += 1
        done = 0
        while done < 200:  # row 3: s1 = -s2, a = 1 (mod 4), gamma = 3
            s = rng.choice((1, -1))
            a = rng.randrange(1, 600, 4) if s > 0 else -rng.randrange(3, 600, 4)
            b = -s * 8 * rng.randrange(1, 100, 2)
            r = tate_algorithm(WeierstrassModel(0, a + b, 0, a * b, 0), 2)
            assert r.kodaira == "III*", (a, b, r.kodaira)
            assert r.f == 3, (a, b)
            done += 1
    print("PASS criterion 5: all three reduction-table rows hold on 200 samples each")


def test_criterion_06_conductor_exponent_relation():
    """f = v(disc_min) - m + 1 across a corpus of curves and primes."""
    rng = random.Random(6)
    corpus = [
        WeierstrassModel(0, -1, 1, -10, -20),
        WeierstrassModel(1, -1, 0, -2, -1),
        WeierstrassModel(0, 0, 1, 0, -7),
        WeierstrassModel(0, 0, 0, -1, 0),
        WeierstrassModel(0, 0, 0, 0, 1),
        WeierstrassModel(0, 31, 0, 240, 0),
        WeierstrassModel(0, -31, 0, 240, 0),
    ]
    while len(corpus) < 120:
        try:
            corpus.append(
                WeierstrassModel(
                    rng.randint(0, 1),
                    rng.randint(-8, 8),
                    rng.randint(0, 1),
                    rng.randint(-10, 10),
                    rng.randint(-10, 10),
                )
            )
        except ValueError:
            pass
    with budget(30):
        rows = 0
        for e in corpus:
            for p in factor(abs(e.disc)).primes():
                r = tate_algorithm(e, p)
                v_min = valuation(r.model.disc, p) if r.model.disc % p == 0 else 0
                if v_min == 0:
                    assert (r.f, r.m, r.kodaira) == (0, 1, "I0"), (e, p)
                else:
                    assert r.f == v_min - r.m + 1, (e, p)
                rows += 1
    print(f"PASS criterion 6: f = v(disc) - m + 1 on {rows} (curve, prime) pairs")


def test_criterion_07_anchor_conductors():
    with budget(10):
        assert conductor(WeierstrassModel(1, 4, 0, 1, 0)) == 15
        hits = {h.params_dict()["m"]: h for h in search_neumann_setzer(60)}
        assert set(hits) == {1, 3, 5, 7}
        for m, h in hits.items():
            assert h.conductor == 4 * (m * m + 4) == conductor(h.curve)
    print("PASS criterion 7: conductor 15 anchor and 4(m^2+4) for m = 1, 3, 5, 7")


def test_criterion_08_z2z4_classification():
    with budget(10):
        report = verify_z2z4_classification(10_000)
        assert report.conductors == (15, 21)
        assert report.two_prime_case_empty
        primitive = [h.params_dict()["c"] for h in report.hits if "primitive" in h.tags]
        assert primitive == [1, 3, 5]
    print(f"PASS criterion 8: bound-10^4 sweep -> conductors {{15, 21}}, "
          f"no primitive two-prime hit ({len(report.hits)} raw hits)")


def test_criterion_09_duplication_formula():
    """double_x against chord-tangent doubling on 500 sampled points."""
    rng = random.Random(9)
    with budget(10):
        done = 0
        while done < 500:
            x, y = rng.randint(-25, 25), rng.randint(-25, 25)
            a1, a2, a3, a4 = (rng.randint(-4, 4) for _ in range(4))
            a6 = y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x
            try:
                e = WeierstrassModel(a1, a2, a3, a4, a6)
            except ValueError:
                continue
            if 2 * y + a1 * x + a3 == 0:
                with pytest.raises(ValueError):
                    double_x(e, x)
            else:
                doubled = group_law_add(e, Point(x, y), Point(x, y))
                assert double_x(e, x) == Fraction(doubled.x), (e, x, y)
            done += 1
        e = WeierstrassModel(0, 0, 0, -1, 0)
        for x in (-1, 0, 1):
            assert group_law_add(e, Point(x, 0), Point(x, 0)) is INFINITY
            with pytest.raises(ValueError):
                double_x(e, x)
    print("PASS criterion 9: duplication formula matches the group law on 500 points")


def test_criterion_10_2p_search_reproducibility():
    with budget(10):
        hits = search_2p_family(20)
        rows = {(h.params_dict()["k"], h.params_dict()["m"], h.params_dict()["p"]) for h in hits}
        assert {(3, 1, 7), (5, 3, 23)} <= rows
        cmd = [sys.executable, "-m", "cuspgate.cli", "search", "--family", "2p", "--bound", "20"]
        first = subprocess.run(cmd, capture_output=True).stdout
        second = subprocess.run(cmd, capture_output=True).stdout
        assert first == second and first
        csv_cmd = cmd + ["--csv"]
        assert subprocess.run(csv_cmd, capture_output=True).stdout == subprocess.run(
            csv_cmd, capture_output=True
        ).stdout
    print(f"PASS criterion 10: 2p search finds the anchors among {len(hits)} hits; "
          "serialized reruns are byte-identical")


def test_criterion_11_nonsemistable_whitelist():
    for n in KNOWN_ODD_NONSEMISTABLE:
        verdict = gate_nonsemistable(n)
        assert verdict.passed, n
        assert verdict.data_dict()["known_odd_congruence"] == 1
    assert KNOWN_ODD_NONSEMISTABLE == (27, 32, 36, 49, 243)
    print("PASS criterion 11: every known odd-congruence non-semistable level passes the gate")
