"""Earlier forms of the scans, kept as test oracles.

`searches._scan_2p` tries only the k that can hit: every k < 6 and the odd
k >= 7.  `scan_2p_every_k` is the full walk over every k <= k_max, with
each conductor from plain `conductor(e)`.

`searches._scan_8p` enumerates odd square roots m and tests only
p = m^2 - shift for primality.  `scan_8p_by_primes` is the form it replaced:
every odd p in the range is tested for primality, then each case's p + shift
for being an odd square.

`searches._scan_4pq` and `searches._scan_z2z4` read every factorization from
one smallest-prime-factor sieve per piece, and z2z4 skips each c with three
or more primes before listing divisors.  `scan_4pq_by_factoring` and
`scan_z2z4_by_factoring` are the forms they replaced: `arith.factor` on every
candidate, and every odd c tried.

Each oracle builds its hits the same way as the library, in the same order.

`DOMAINS` writes out each family's bound domain, the rows of
`searches.FAMILIES` less the search function, for the tests of the CLI and
the library to check the messages against.
"""

from __future__ import annotations

import math

from cuspgate.arith import factor, is_prime, is_square
from cuspgate.curves import WeierstrassModel
from cuspgate.searches import _8P_CASES, SearchHit, _assert_z2z4_torsion, _ivorra_window
from cuspgate.tate import conductor

# (family, the name of its bound, the least bound, the largest bound), sorted
DOMAINS = (
    ("2p", "k_max", 3, 38),
    ("4pq", "bound", 11, 2 * 10**6),
    ("8p", "p_max", 37, 5 * 10**10),
    ("neumann-setzer", "bound", 5, 5 * 10**11),
    ("z2z4", "bound", 21, 5 * 10**5),
)


def scan_2p_every_k(k_max: int) -> list[SearchHit]:
    hits = []
    for k in range(1, k_max + 1):
        for m in range(1, math.isqrt(2**k) + 1, 2):
            p = 2**k - m * m
            if p < 2 or p % 16 != 7 or not is_prime(p):
                continue
            if p < 29:
                tags = ("small-p-exception",)
            elif _ivorra_window(k, p):
                tags = ("in-window",)
            else:
                tags = ("outside-window",)
            params = (("k", k), ("m", m), ("p", p))
            if k >= 6:
                mstar = m if m % 4 == 1 else -m
                e = WeierstrassModel(1, (mstar - 1) // 4, 0, 2 ** (k - 6), 0)
                hits.append(SearchHit("2p", params + (("m_curve", mstar),), tags, e, conductor(e)))
            else:
                hits.append(SearchHit("2p", params, tags + ("parameter-only",)))
    return hits


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


def _odd_prime_power(n: int) -> tuple[int, int] | None:
    if n < 3 or n % 2 == 0:
        return None
    pairs = factor(n).pairs
    if len(pairs) != 1:
        return None
    return pairs[0]


def scan_4pq_by_factoring(lo: int, hi: int, bound: int, difference: int) -> list[SearchHit]:
    hits = []
    for u in range(lo | 1, hi, 2):
        pu = _odd_prime_power(u)
        if pu is None:
            continue
        v = u + difference
        if v > bound:
            continue
        qv = _odd_prime_power(v)
        if qv is None:
            continue
        (p, alpha), (q, beta) = pu, qv
        assert p != q
        for s in (1, -1):
            params = (("alpha", alpha), ("beta", beta), ("difference", difference))
            params += (("p", p), ("q", q), ("s", s), ("u", u), ("v", v))
            e = WeierstrassModel(0, -s * (u + v), 0, u * v, 0)
            hits.append(SearchHit("4pq", params, curve=e, conductor=conductor(e)))
    return hits


def scan_z2z4_by_factoring(clo: int, chi: int) -> list[SearchHit]:
    hits = []
    for c in range(clo | 1, chi, 2):
        a4 = c * c
        fac_c = factor(c)
        for a in factor(a4).divisors():
            b = a4 // a
            k = a + 16 * b
            if k % 4 != 1:
                continue
            sq1, alpha = is_square(k - 8 * c)
            sq2, beta = is_square(k + 8 * c)
            if not (sq1 and sq2) or alpha == 0:
                continue
            if len({p for p in factor(c * alpha * beta).primes() if p != 2}) > 2:
                continue
            a2 = (k - 1) // 4
            e = WeierstrassModel(1, a2, 0, a4, 0)
            _assert_z2z4_torsion(e, c, beta)
            tags = [("unit", "prime-power", "two-prime")[len(fac_c.pairs)]]
            if math.gcd(c, alpha * beta) == 1:
                tags.append("primitive")
            params = (("a2", a2), ("a4", a4), ("alpha", alpha), ("beta", beta), ("c", c))
            hits.append(SearchHit("z2z4", params, tuple(tags), e, conductor(e)))
    return hits
