"""Invariant checks are explicit raises, so `python -O` keeps them."""

import subprocess
import sys

_SCRIPT = """
import sys
from cuspgate.arith import Factorization
from cuspgate.curves import WeierstrassModel
from cuspgate.searches import _assert_z2z4_torsion

def outcome(fn, *args):
    try:
        fn(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc).__name__
    return "returned"

assert False, "unreachable under -O"
print(sys.flags.optimize)
print(outcome(Factorization, 12, ((2, 1), (3, 1))))
print(outcome(Factorization, 9, ((9, 1),)))
print(outcome(_assert_z2z4_torsion, WeierstrassModel(1, 4, 0, 1, 0), 1, 5))
print(outcome(_assert_z2z4_torsion, WeierstrassModel(1, 4, 0, 1, 0), 1, 3))
print(outcome(_assert_z2z4_torsion, WeierstrassModel(0, -1, 1, -10, -20), 1, 5))
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
    ]
