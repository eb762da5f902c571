"""Diophantine scans for the curve families attached to odd modular degree.

Every scan is a plain enumeration over an integer range, and `_run_scan`
runs all five.  With `jobs` > 1 it cuts the range into 16 equal-width
pieces per process and submits the last piece first: in every family a
value costs more the further along the range it lies (2p's k = k_max tries
about as many m as all smaller k together), so the costly pieces start
early and the cheap ones fill in behind them.  The pieces' hits are
concatenated in range order, so the output is byte-identical to the
single-process run.

The 8p scan enumerates square roots: for each case it walks the odd m with
p = m^2 - shift in its range and tests only those p for primality, then
sorts the hits by (p, case).

The 4pq and z2z4 scans factor every number they read, so each piece builds
one `arith.PrimeSieve` (a smallest-prime-factor table) over that range and
factors by table lookups: for 4pq, u and v up to min(hi + difference,
bound); for z2z4, c < chi and alpha, beta <= 4 chi + 1, since
beta^2 <= 16c^2 + 8c + 1.  z2z4 also prunes before listing the divisors of
c^2: every prime of an odd c is an odd prime of c * alpha * beta, which a
hit keeps to two, so a c with three or more primes is skipped.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .arith import Factorization, PrimeSieve, is_prime, is_square
from .curves import INFINITY, Point, WeierstrassModel, group_law_add, two_torsion_structure
from .tate import conductor as _conductor


@dataclass(frozen=True)
class SearchHit:
    family: str
    params: tuple[tuple[str, int], ...]
    tags: tuple[str, ...] = ()
    curve: WeierstrassModel | None = None
    conductor: int | None = None

    def params_dict(self) -> dict[str, int]:
        return dict(self.params)


def _hit(family: str, params: tuple, curve: WeierstrassModel | None, tags=()) -> SearchHit:
    """A hit with its curve's conductor (none for a parameter-only hit)."""
    cond = None if curve is None else _conductor(curve)
    return SearchHit(family, params, tuple(tags), curve, cond)


def _twist(m: int) -> int:
    """+-m normalized to 1 mod 4: the quadratic twist each family reports."""
    return m if m % 4 == 1 else -m


# enough pieces per process that the last ones to finish are short
_PIECES_PER_JOB = 16


def _chunks(lo: int, hi: int, pieces: int) -> list[tuple[int, int]]:
    """[lo, hi) cut into at most `pieces` pieces whose widths differ by <= 1."""
    n = min(pieces, hi - lo)
    cuts = [lo + i * (hi - lo) // n for i in range(n + 1)] if n > 0 else []
    return list(zip(cuts, cuts[1:]))


def _run_scan(worker, lo: int, hi: int, jobs: int, *args) -> list[SearchHit]:
    """worker(a, b, *args) over [lo, hi), serially or in pieces across
    processes, with the hits in range order either way."""
    # more processes than CPUs only adds start-up cost, and an unbounded
    # count can exhaust the machine's process table
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        return worker(lo, hi, *args)
    # imported here so that only a parallel run pays for multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pieces = _chunks(lo, hi, jobs * _PIECES_PER_JOB)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        # the last piece costs the most, so it goes first
        futures = [pool.submit(worker, a, b, *args) for a, b in reversed(pieces)]
        return [h for fut in reversed(futures) for h in fut.result()]


# -- prime + 4 = square family ------------------------------------------------


def _scan_neumann_setzer(lo: int, hi: int) -> list[SearchHit]:
    hits = []
    for m in range(lo | 1, hi, 2):
        p = m * m + 4
        if not is_prime(p):
            continue
        # the twist with m = 1 (mod 4) is the one of conductor 4p
        mstar = _twist(m)
        e = WeierstrassModel(0, mstar, 0, -1, 0)
        hits.append(_hit("neumann-setzer", (("m", m), ("m_curve", mstar), ("p", p)), e))
    return hits


def search_neumann_setzer(bound: int, *, jobs: int = 1) -> list[SearchHit]:
    """Odd m with m^2 + 4 = p prime up to `bound`; curves y^2 = x^3 + m x^2 - x
    of conductor 4p."""
    if bound < 5:
        raise ValueError("bound must be at least 5")
    return _run_scan(_scan_neumann_setzer, 1, math.isqrt(bound - 4) + 1, jobs)


# -- conductor 2p from 2^k - m^2 ----------------------------------------------


def _ivorra_window(k: int, p: int) -> bool:
    if p < 2**96:
        return k >= 7 and 2**k < 2**18 * p * p
    return k >= 7 and 2 ** (k - 435) < p**10


def _scan_2p(klo: int, khi: int) -> list[SearchHit]:
    hits = []
    for k in range(klo, khi):
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
                mstar = _twist(m)
                curve = WeierstrassModel(1, (mstar - 1) // 4, 0, 2 ** (k - 6), 0)
                hits.append(_hit("2p", params + (("m_curve", mstar),), curve, tags))
            else:
                hits.append(_hit("2p", params, None, tags + ("parameter-only",)))
    return hits


def search_2p_family(k_max: int, *, jobs: int = 1) -> list[SearchHit]:
    """Solutions of 2^k - m^2 = p with p = 7 (mod 16) prime, k <= k_max.

    For k >= 6 the associated curve y^2 + xy = x^3 + ((m*-1)/4) x^2 + 2^(k-6) x
    (m* = +-m normalized to 1 mod 4) is attached and its conductor 2p verified;
    smaller k are reported parameter-only.  Tags record the position of k
    relative to the effective window (exact integer comparisons, no floats).
    """
    if k_max < 3:
        raise ValueError("k_max must be at least 3")
    return _run_scan(_scan_2p, 1, k_max + 1, jobs)


# -- conductor 8p from p -+ 16/32 ----------------------------------------------


_8P_CASES = (
    (1, -16, -4),  # p - 16 = m^2, curve y^2 = x^3 + m x^2 - 4x
    (2, -32, -8),  # p - 32 = m^2, curve y^2 = x^3 + m x^2 - 8x
    (3, 32, 8),  # p + 32 = m^2, curve y^2 = x^3 + m x^2 + 8x
)


def _scan_8p(plo: int, phi: int) -> list[SearchHit]:
    # enumerate the square roots: p = m^2 - shift for odd m, plo <= p < phi
    found = []
    for case, shift, a4 in _8P_CASES:
        mlo = math.isqrt(max(plo + shift, 1) - 1) + 1
        mhi = math.isqrt(max(phi + shift - 1, 0))
        for m in range(mlo | 1, mhi + 1, 2):
            p = m * m - shift
            if is_prime(p):
                found.append((p, case, m, a4))
    hits = []
    for p, case, m, a4 in sorted(found):
        mstar = _twist(m)
        e = WeierstrassModel(0, mstar, 0, a4, 0)
        hits.append(_hit("8p", (("case", case), ("m", mstar), ("p", p)), e))
    return hits


def search_8p_family(p_max: int, *, jobs: int = 1) -> list[SearchHit]:
    """Primes 31 < p <= p_max with p - 16, p - 32 or p + 32 an odd square.

    Each match carries the quadratic-twist-normalized model (m = 1 mod 4) of
    conductor 8p; a prime can hit more than one case (p = 41 hits two).
    """
    if p_max < 37:
        raise ValueError("p_max must be at least 37")
    return _run_scan(_scan_8p, 32, p_max + 1, jobs)


# -- conductor 2^a pq from prime powers 8 apart --------------------------------


def _odd_prime_power(n: int, sieve: PrimeSieve) -> tuple[int, int] | None:
    if n < 3 or n % 2 == 0:
        return None
    pairs = sieve.pairs(n)
    if len(pairs) != 1:
        return None
    return pairs[0]


def _scan_4pq(lo: int, hi: int, bound: int, difference: int) -> list[SearchHit]:
    # u < hi <= bound + 1, and v = u + difference is read only up to bound
    sieve = PrimeSieve(min(hi + difference, bound))
    hits = []
    for u in range(lo | 1, hi, 2):
        pu = _odd_prime_power(u, sieve)
        if pu is None:
            continue
        v = u + difference
        if v > bound:
            continue
        qv = _odd_prime_power(v, sieve)
        if qv is None:
            continue
        (p, alpha), (q, beta) = pu, qv
        if p == q:  # powers of one odd prime cannot differ by 4 or 8
            raise AssertionError(f"{u} and {v} are powers of the same prime {p}")
        for s in (1, -1):
            params = (("alpha", alpha), ("beta", beta), ("difference", difference))
            params += (("p", p), ("q", q), ("s", s), ("u", u), ("v", v))
            hits.append(_hit("4pq", params, WeierstrassModel(0, -s * (u + v), 0, u * v, 0)))
    return hits


def search_4pq_family(bound: int, *, difference: int = 8, jobs: int = 1) -> list[SearchHit]:
    """Pairs of odd prime powers p^alpha < q^beta, both <= bound, that differ
    by 8 (or by 4 with difference=4), with the two models
    y^2 = x(x - s*u)(x - s*v), s = +-1, and their conductors 2^a * p * q."""
    if bound < 11:
        raise ValueError("bound must be at least 11")
    if difference not in (4, 8):
        raise ValueError("difference must be 4 or 8")
    return _run_scan(_scan_4pq, 3, bound + 1, jobs, bound, difference)


# -- Z/2 x Z/4 exhaustion ------------------------------------------------------


def _scan_z2z4(clo: int, chi: int) -> list[SearchHit]:
    # c < chi, and alpha, beta <= 4c + 1 since beta^2 <= 16c^2 + 8c + 1
    sieve = PrimeSieve(4 * chi + 1)
    hits = []
    for c in range(clo | 1, chi, 2):
        pairs_c = sieve.pairs(c)
        if len(pairs_c) > 2:
            # each prime of odd c is an odd prime of c * alpha * beta, and a
            # hit has at most two of those: no need to try the divisors
            continue
        a4 = c * c
        for a in _square_divisors(c, pairs_c):
            b = a4 // a
            k = a + 16 * b
            if k % 4 != 1:
                continue
            sq1, alpha = is_square(k - 8 * c)
            sq2, beta = is_square(k + 8 * c)
            if not (sq1 and sq2) or alpha == 0:
                continue
            if len(_odd_support(pairs_c, alpha, beta, sieve)) > 2:
                continue
            a2 = (k - 1) // 4
            e = WeierstrassModel(1, a2, 0, a4, 0)
            _assert_z2z4_torsion(e, c, beta)
            # a4 = c^2 has the primes of c: none, one or two
            tags = [("unit", "prime-power", "two-prime")[len(pairs_c)]]
            if math.gcd(c, alpha * beta) == 1:
                # a shared factor of c and alpha*beta means the hit is a
                # repackaging of a smaller one (non-minimal model); only
                # primitive hits are genuinely new curves
                tags.append("primitive")
            params = (("a2", a2), ("a4", a4), ("alpha", alpha), ("beta", beta), ("c", c))
            hits.append(_hit("z2z4", params, e, tags))
    return hits


def _square_divisors(c: int, pairs_c: tuple) -> list[int]:
    """The divisors of c^2, ascending, from the prime pairs of c."""
    pairs = tuple((p, 2 * e) for p, e in pairs_c)
    return Factorization._of_proven_primes(c * c, pairs).divisors()


def _odd_support(pairs_c: tuple, alpha: int, beta: int, sieve: PrimeSieve) -> set[int]:
    """The odd primes of c * alpha * beta, from the prime pairs of c and the
    sieve's factorizations of alpha and beta: the same set as
    factor(c * alpha * beta) gives."""
    pairs = (*pairs_c, *sieve.pairs(alpha), *sieve.pairs(beta))
    return {p for p, _ in pairs if p != 2}


def _assert_z2z4_torsion(e: WeierstrassModel, c: int, beta: int) -> None:
    """The hit really does carry Z/2 x Z/4: full 2-torsion plus a rational
    point of order 4 sitting over (0, 0).  Raises AssertionError otherwise."""
    if two_torsion_structure(e).label != "Z/2 x Z/2":
        raise AssertionError(f"{e} lacks full rational 2-torsion")
    q = Point(c, c * (beta - 1) // 2)
    double = group_law_add(e, q, q)
    if double != Point(0, 0) or group_law_add(e, double, double) is not INFINITY:
        raise AssertionError(f"{q} is not a point of order 4 over (0, 0) on {e}")


@dataclass(frozen=True)
class Z2Z4Report:
    bound: int
    hits: tuple[SearchHit, ...]
    conductors: tuple[int, ...]  # sorted, deduplicated
    two_prime_case_empty: bool  # no *primitive* hit with two-prime a4


def verify_z2z4_classification(bound: int, *, jobs: int = 1) -> Z2Z4Report:
    """Exhaust curves y^2 + xy = x^3 + a2 x^2 + c^2 x (c odd, up to `bound`)
    with torsion containing Z/2 x Z/4 and odd discriminant supported on at
    most two odd primes, and report their conductors.

    Expected outcome (pinned by the tests): every conductor is 15 or 21, the
    primitive hits are exactly c in {1, 3, 5}, and no primitive hit has a4
    divisible by two odd primes.  Imprimitive hits (gcd(c, alpha*beta) > 1)
    do occur -- they are larger models of the same curves and are reported
    with their conductors, which stay inside {15, 21}.
    """
    if bound < 21:
        raise ValueError("bound must be at least 21")
    hits = _run_scan(_scan_z2z4, 1, bound + 1, jobs)
    conductors = tuple(sorted({h.conductor for h in hits}))
    empty = not any("two-prime" in h.tags and "primitive" in h.tags for h in hits)
    return Z2Z4Report(bound, tuple(hits), conductors, empty)
