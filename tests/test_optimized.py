"""Invariant checks are explicit raises, so `python -O` keeps them."""

import subprocess
import sys

_SCRIPT = """
import sys
from fractions import Fraction
from cuspgate import curves, cusps, gates, searches, tate
from cuspgate.arith import Factorization, is_prime
from cuspgate.curves import WeierstrassModel
from cuspgate.searches import _assert_z2z4_torsion

def outcome(fn, *args):
    try:
        fn(*args)
    except (ValueError, TypeError, AssertionError) as exc:
        return type(exc).__name__
    return "returned"

assert False, "unreachable under -O"
print(sys.flags.optimize)
print(outcome(Factorization, 12, ((2, 1), (3, 1))))
print(outcome(Factorization, 9, ((9, 1),)))
print(outcome(_assert_z2z4_torsion, WeierstrassModel(1, 4, 0, 1, 0), 1, 5))
print(outcome(_assert_z2z4_torsion, WeierstrassModel(1, 4, 0, 1, 0), 1, 3))
print(outcome(_assert_z2z4_torsion, WeierstrassModel(0, -1, 1, -10, -20), 1, 5))
L11 = cusps.SquarefreeLevel.of(11)
w = cusps.CuspDivisor(L11, (Fraction(1), Fraction(-1)))
print(outcome(gates.gate_pq_refined, 3, 11))
print(outcome(cusps.divisor_order, w))
print(outcome(cusps.CuspDivisor, L11, (Fraction(1),)))
print(outcome(cusps.CuspDivisor, L11, (1, -1)))
print(outcome(w.__add__, cusps.CuspDivisor.zero(cusps.SquarefreeLevel.of(13))))
print(outcome(w.__sub__, cusps.CuspDivisor.zero(cusps.SquarefreeLevel.of(13))))
gates.num = lambda r: 2  # every cusp order even, though 3 = 11 = 3 (mod 8)
print(outcome(gates.gate_pq_refined, 3, 11))
print(outcome(tate._exact, 7, 2, 1))
# an I1* model at 2, v(disc) = 8, passed with v = 4: no chain step is allowed
i1_star = WeierstrassModel(0, 5, 0, -4, 0)
print(outcome(tate._in_star, i1_star.coefficients(), 2, 4))
print(outcome(tate.tate_algorithm, WeierstrassModel(0, -1, 1, -10, -20), 12))
print(outcome(Factorization._of_proven_primes, 12, ((2, 1), (5, 1))))
searches.PrimeSieve.prime_power = lambda sieve, n: (3, 1)  # u = 3 and v = 11 both "powers of 3"
print(outcome(searches._scan_4pq, 3, 4, 11, 8))
print(outcome(is_prime, 3317044064679887385961981))
tate._singular_point = lambda a, p: (0, 0)  # 11a1's singular point mod 11 is (5, 5)
print(outcome(tate.tate_algorithm, WeierstrassModel(0, -1, 1, -10, -20), 11))
e11 = WeierstrassModel(0, -1, 1, -10, -20)
print(outcome(curves.b_invariants, e11))
curves._b_invariants = lambda a: (1, 1, 1, 1)  # 4 b8 = 4, but b2 b6 - b4^2 = 0
print(outcome(curves.b_invariants, e11))
"""


def test_checks_still_raise_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _SCRIPT], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "1",
        "ValueError",  # product mismatch
        "ValueError",  # 9 is not prime
        "returned",  # the c = 1 hit is a real Z/2 x Z/4
        "AssertionError",  # beta = 3 gives (1, 1), no point of order 4
        "AssertionError",  # 11a1 has no full 2-torsion
        "returned",  # the refined gate at 33
        "returned",  # the order of P_1 - P_11 at level 11
        "ValueError",  # one coefficient for the two cusps of X0(11)
        "TypeError",  # int coefficients
        "ValueError",  # a level-11 divisor plus a level-13 divisor
        "ValueError",  # the same, subtracted
        "AssertionError",  # the pq gate's class and parity disagree
        "AssertionError",  # 7 is not divisible by 2
        "AssertionError",  # an I_n* chain longer than v(disc) - 4 allows
        "ValueError",  # 12 is not prime
        "ValueError",  # proven primes whose product is not n
        "AssertionError",  # 4pq's u and v powers of one prime
        "ValueError",  # psi_13: past the proven primality bound
        "AssertionError",  # Tate's loop handed a point that is not singular
        "returned",  # the b-invariants of 11a1
        "AssertionError",  # b-invariants that break 4 b8 = b2 b6 - b4^2
    ]
