"""Diophantine scans for the curve families attached to odd modular degree.

Every scan is a plain enumeration over an integer range, and `_run_scan`
runs all five.  With `jobs` > 1 it cuts the range into 4 equal-width
pieces per process, so each family counts its range in units of about
equal cost.  2p counts the (k, odd m) pairs it tries, not k: one k tries
about as many m as all smaller k together.  It tries only k < 6 and the odd
k, since no even k >= 6 can hit (`_2p_blocks`).  8p counts the r with p in
[r^2, (r + 1)^2), not p: each case tries one m per two r, but only one per
about 4 sqrt(p) values of p.  Pieces are submitted last first, since a 4pq
or z2z4 piece builds a sieve up to its upper end, and their hits are
concatenated in range order, so the output is byte-identical to the
single-process run.

The process pool outlives the call.  The first parallel scan starts it,
later scans with the same (CPU-clamped) job count reuse its workers, and a
scan with another count shuts it down before starting one of the new size.
Parallel scans from several threads take turns on it.  It belongs to the
process that started it: a process forked from that one starts its own
pool and leaves the inherited one alone.  A pool whose worker died is
dropped after its scan raises `BrokenProcessPool`, so the next scan starts
afresh, and an `atexit` hook shuts the pool down while the interpreter is
still whole.

The 8p scan enumerates square roots: for each case it walks the odd m with
p = m^2 - shift in its range and tests only those p for primality, then
sorts the hits by (p, case).

The 4pq and z2z4 scans read every number of their range, so each piece
builds one `arith.PrimeSieve` (a smallest-prime-factor table) over that
range: for 4pq, u and v up to min(hi + difference, bound); for z2z4,
c < chi and alpha, beta <= 4 chi + 1, since beta^2 <= 16c^2 + 8c + 1.
4pq only asks whether an odd u or v is a prime power, and
`PrimeSieve.prime_power` answers by dividing out the smallest prime the
table holds, listing no pairs.  z2z4 factors by table lookups, and prunes
before listing the divisors of c^2: every prime of an odd c is an odd
prime of c * alpha * beta, which a hit keeps to two, so a c with three or
more primes is skipped.

No scan factors a discriminant.  Each hit's |disc| is a closed form in
primes the scan has already proven, by `is_prime` or by its sieve, and
`_hit` hands that factorization to `tate.conductor`:

    neumann-setzer  2^4 p
    2p (odd k >= 7) 2^(2k - 12) p
    8p              2^8 p in case 1, 2^10 p in cases 2 and 3
    4pq             2^10 (difference 8) or 2^8 (difference 4) times p^(2 alpha) q^(2 beta)
    z2z4            c^4 alpha^2 beta^2, the primes of c, alpha and beta merged

The product of the pairs is checked against the model's own discriminant,
so a wrong closed form raises ValueError, also under `python -O`.
"""

from __future__ import annotations

import atexit
import math
import os
import threading
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


def _hit(family: str, params: tuple, curve: WeierstrassModel, pairs: tuple, tags=()) -> SearchHit:
    """A hit with its curve's conductor.  `pairs` are the prime-power pairs
    of |disc| of the integral model, with primes the scan has proven; the
    product check raises ValueError if they are not its factorization."""
    disc = Factorization._of_proven_primes(abs(curve.disc), pairs)
    return SearchHit(family, params, tuple(tags), curve, _conductor(curve, disc))


def _check_bound(family: str, value: int) -> None:
    """Refuse a bound outside its family's row of FAMILIES, before any work."""
    _, name, least, most = FAMILIES[family]
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    if value > most:
        raise ValueError(f"{name} must be at most {most}")


def _twist(m: int) -> int:
    """+-m normalized to 1 mod 4: the quadratic twist each family reports."""
    return m if m % 4 == 1 else -m


# enough pieces per process that the last ones to finish are short, and few
# enough that each one's work outweighs its round trip through the pool
_PIECES_PER_JOB = 4


def _chunks(lo: int, hi: int, pieces: int) -> list[tuple[int, int]]:
    """[lo, hi) cut into at most `pieces` pieces whose widths differ by <= 1."""
    n = min(pieces, hi - lo)
    cuts = [lo + i * (hi - lo) // n for i in range(n + 1)] if n > 0 else []
    return list(zip(cuts, cuts[1:]))


# this process's pool as ((pid, jobs), executor), or None before the first
# parallel scan; a parallel scan holds the lock from taking the pool to its
# last result, so another thread's scan cannot retire the pool under it
_POOL = None
_POOL_LOCK = threading.Lock()


def _pool(jobs: int):
    """The pool of `jobs` workers that this process keeps, started on first use."""
    global _POOL
    key = (os.getpid(), jobs)
    if _POOL is None or _POOL[0] != key:
        # the old pool's threads must be gone before new workers fork
        _retire_pool()
        # imported here so that only a parallel run pays for multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        _POOL = (key, ProcessPoolExecutor(max_workers=jobs))
    return _POOL[1]


def _retire_pool() -> None:
    """Shut this process's pool down and forget it.  A pool inherited across
    fork belongs to the parent, so it is only forgotten."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None and pool[0][0] == os.getpid():
        pool[1].shutdown()


# before module teardown: an executor collected after `multiprocessing` is
# torn down makes its weakref callback fail on stderr
atexit.register(_retire_pool)


def _run_scan(worker, lo: int, hi: int, jobs: int, *args) -> list[SearchHit]:
    """worker(a, b, *args) over [lo, hi), serially or in pieces across
    processes, with the hits in range order either way."""
    # more processes than CPUs only adds start-up cost, and an unbounded
    # count can exhaust the machine's process table
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        return worker(lo, hi, *args)
    from concurrent.futures.process import BrokenProcessPool

    pieces = _chunks(lo, hi, jobs * _PIECES_PER_JOB)
    futures = []
    with _POOL_LOCK:
        pool = _pool(jobs)
        try:
            # the last piece costs the most, so it goes first
            futures = [pool.submit(worker, a, b, *args) for a, b in reversed(pieces)]
            return [h for fut in reversed(futures) for h in fut.result()]
        except BrokenProcessPool:
            _retire_pool()
            raise
        finally:
            # after a piece fails, the pieces not yet started are not wanted
            for fut in futures:
                fut.cancel()


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
        params = (("m", m), ("m_curve", mstar), ("p", p))
        hits.append(_hit("neumann-setzer", params, e, ((2, 4), (p, 1))))
    return hits


def search_neumann_setzer(bound: int, *, jobs: int = 1) -> list[SearchHit]:
    """Odd m with m^2 + 4 = p prime up to `bound`; curves y^2 = x^3 + m x^2 - x
    of conductor 4p."""
    _check_bound("neumann-setzer", bound)
    return _run_scan(_scan_neumann_setzer, 1, math.isqrt(bound - 4) + 1, jobs)


# -- conductor 2p from 2^k - m^2 ----------------------------------------------


def _ivorra_window(k: int, p: int) -> bool:
    if p < 2**96:
        return k >= 7 and 2**k < 2**18 * p * p
    return k >= 7 and 2 ** (k - 435) < p**10


def _2p_blocks(k_max: int) -> list[tuple[int, int]]:
    """(k, the number of odd m with m^2 <= 2^k) for the k <= k_max that can
    hit: k < 6 and the odd k.  At k = 2j, 2^k - m^2 = (2^j - m)(2^j + m) with
    m < 2^j is prime only at m = 2^j - 1, where p = 2^(j+1) - 1 is 15 (mod 16)
    for j >= 3: no even k >= 6 passes the p = 7 (mod 16) test."""
    return [(k, (math.isqrt(2**k) + 1) // 2) for k in range(1, k_max + 1) if k < 6 or k % 2]


def _scan_2p(lo: int, hi: int, k_max: int) -> list[SearchHit]:
    # index i counts the pairs of _2p_blocks(k_max), in that order: the
    # pairs of one k are base, base + 1, ... with m = 2j + 1
    hits = []
    base = 0
    for k, count in _2p_blocks(k_max):
        jlo, jhi = max(lo - base, 0), min(hi - base, count)
        base += count
        two_k = 2**k
        for m in range(2 * jlo + 1, 2 * jhi, 2):
            p = two_k - m * m
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
                pairs = ((2, 2 * k - 12), (p, 1))
                hits.append(_hit("2p", params + (("m_curve", mstar),), curve, pairs, tags))
            else:
                hits.append(SearchHit("2p", params, tags + ("parameter-only",)))
    return hits


def search_2p_family(k_max: int, *, jobs: int = 1) -> list[SearchHit]:
    """Solutions of 2^k - m^2 = p with p = 7 (mod 16) prime, k <= k_max.

    For k >= 6 the associated curve y^2 + xy = x^3 + ((m*-1)/4) x^2 + 2^(k-6) x
    (m* = +-m normalized to 1 mod 4) is attached and its conductor 2p verified;
    smaller k are reported parameter-only.  Tags record the position of k
    relative to the effective window (exact integer comparisons, no floats).
    Only k < 6 and the odd k are tried: at an even k >= 6, 2^k - m^2 can be
    prime only as 2^(k/2 + 1) - 1, which is 15 (mod 16).
    """
    _check_bound("2p", k_max)
    pairs = sum(count for _, count in _2p_blocks(k_max))
    return _run_scan(_scan_2p, 0, pairs, jobs, k_max)


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
        # |disc| = 16 a4^2 p
        pairs = ((2, 8 if case == 1 else 10), (p, 1))
        hits.append(_hit("8p", (("case", case), ("m", mstar), ("p", p)), e, pairs))
    return hits


def _scan_8p_by_root(rlo: int, rhi: int, p_max: int) -> list[SearchHit]:
    """_scan_8p over the p of [rlo^2, rhi^2) that lie in [32, p_max]."""
    return _scan_8p(max(rlo * rlo, 32), min(rhi * rhi, p_max + 1))


def search_8p_family(p_max: int, *, jobs: int = 1) -> list[SearchHit]:
    """Primes 31 < p <= p_max with p - 16, p - 32 or p + 32 an odd square.

    Each match carries the quadratic-twist-normalized model (m = 1 mod 4) of
    conductor 8p; a prime can hit more than one case (p = 41 hits two).
    """
    _check_bound("8p", p_max)
    return _run_scan(_scan_8p_by_root, 5, math.isqrt(p_max) + 1, jobs, p_max)


# -- conductor 2^a pq from prime powers 8 apart --------------------------------


def _scan_4pq(lo: int, hi: int, bound: int, difference: int) -> list[SearchHit]:
    # u < hi <= bound + 1, and v = u + difference is read only up to bound
    sieve = PrimeSieve(min(hi + difference, bound))
    two = 8 if difference == 4 else 10  # 16 difference^2 = 2^two
    hits = []
    for u in range(lo | 1, hi, 2):
        pu = sieve.prime_power(u)
        if pu is None:
            continue
        v = u + difference
        if v > bound:
            continue
        qv = sieve.prime_power(v)
        if qv is None:
            continue
        (p, alpha), (q, beta) = pu, qv
        if p == q:  # powers of one odd prime cannot differ by 4 or 8
            raise AssertionError(f"{u} and {v} are powers of the same prime {p}")
        # |disc| = 16 (u v difference)^2, and p, q come from the sieve
        pairs = ((2, two), *sorted(((p, 2 * alpha), (q, 2 * beta))))
        for s in (1, -1):
            params = (("alpha", alpha), ("beta", beta), ("difference", difference))
            params += (("p", p), ("q", q), ("s", s), ("u", u), ("v", v))
            e = WeierstrassModel(0, -s * (u + v), 0, u * v, 0)
            hits.append(_hit("4pq", params, e, pairs))
    return hits


def search_4pq_family(bound: int, *, difference: int = 8, jobs: int = 1) -> list[SearchHit]:
    """Pairs of odd prime powers p^alpha < q^beta, both <= bound, that differ
    by 8 (or by 4 with difference=4), with the two models
    y^2 = x(x - s*u)(x - s*v), s = +-1, and their conductors 2^a * p * q."""
    _check_bound("4pq", bound)
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
            pairs = _z2z4_disc_pairs(pairs_c, alpha, beta, sieve)
            hits.append(_hit("z2z4", params, e, pairs, tags))
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


def _z2z4_disc_pairs(pairs_c: tuple, alpha: int, beta: int, sieve: PrimeSieve) -> tuple:
    """The prime-power pairs of c^4 alpha^2 beta^2, |disc| of the hit's
    model, from the prime pairs of c and the sieve's factorizations of alpha
    and beta, shared primes merged: `factor(c^4 alpha^2 beta^2).pairs`."""
    exponents: dict[int, int] = {}
    for pairs, w in ((pairs_c, 4), (sieve.pairs(alpha), 2), (sieve.pairs(beta), 2)):
        for p, e in pairs:
            exponents[p] = exponents.get(p, 0) + w * e
    return tuple(sorted(exponents.items()))


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
    _check_bound("z2z4", bound)
    hits = _run_scan(_scan_z2z4, 1, bound + 1, jobs)
    conductors = tuple(sorted({h.conductor for h in hits}))
    empty = not any("two-prime" in h.tags and "primitive" in h.tags for h in hits)
    return Z2Z4Report(bound, tuple(hits), conductors, empty)


# family -> (search, bound name, least bound, largest bound).  A largest bound
# is the largest round one whose `cuspgate search` run finishes in about 5 s
# with jobs=1 (2 CPUs, Python 3.11), with every sieve under 64 MB.
FAMILIES = {
    "neumann-setzer": (search_neumann_setzer, "bound", 5, 5 * 10**11),
    "2p": (search_2p_family, "k_max", 3, 38),
    "8p": (search_8p_family, "p_max", 37, 5 * 10**10),
    "4pq": (search_4pq_family, "bound", 11, 2 * 10**6),
    "z2z4": (verify_z2z4_classification, "bound", 21, 5 * 10**5),
}
