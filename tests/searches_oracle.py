"""The 8p scan by primes, kept as a test oracle.

`searches._scan_8p` enumerates odd square roots m and tests only
p = m^2 - shift for primality.  This is the form it replaced: every odd p in
the range is tested for primality, then each case's p + shift for being an
odd square.  The hits are built the same way, in the same order.
"""

from __future__ import annotations

from cuspgate.arith import is_prime, is_square
from cuspgate.curves import WeierstrassModel
from cuspgate.searches import _8P_CASES, SearchHit
from cuspgate.tate import conductor


def scan_8p_by_primes(plo: int, phi: int) -> list[SearchHit]:
    hits = []
    for p in range(plo | 1, phi, 2):
        if not is_prime(p):
            continue
        for case, shift, a4 in _8P_CASES:
            target = p + shift
            if target <= 0:
                continue
            sq, m = is_square(target)
            if not sq or m % 2 == 0:
                continue
            mstar = m if m % 4 == 1 else -m
            e = WeierstrassModel(0, mstar, 0, a4, 0)
            hits.append(
                SearchHit(
                    "8p",
                    (("case", case), ("m", mstar), ("p", p)),
                    curve=e,
                    conductor=conductor(e),
                )
            )
    return hits
