import concurrent.futures
import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
import threading
import time
import types
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings, strategies as st

from cuspgate.arith import PrimeSieve, factor, is_square
from cuspgate.curves import WeierstrassModel
from cuspgate import searches
from cuspgate.searches import (
    SearchHit,
    search_2p_family,
    search_4pq_family,
    search_8p_family,
    search_neumann_setzer,
    verify_z2z4_classification,
)
from cuspgate.tate import conductor
from searches_oracle import scan_4pq_by_factoring, scan_8p_by_primes, scan_z2z4_by_factoring


@pytest.fixture(autouse=True)
def _no_cached_pool():
    """Each test starts and ends without a cached pool, so a stand-in pool
    never meets a real one left by an earlier test, or the reverse."""
    searches._retire_pool()
    yield
    searches._retire_pool()


def test_neumann_setzer_frozen():
    hits = search_neumann_setzer(60)
    assert [h.params_dict() for h in hits] == [
        {"m": 1, "m_curve": 1, "p": 5},
        {"m": 3, "m_curve": -3, "p": 13},
        {"m": 5, "m_curve": 5, "p": 29},
        {"m": 7, "m_curve": -7, "p": 53},
    ]
    assert [h.conductor for h in hits] == [20, 52, 116, 212]
    for h in hits:
        p = h.params_dict()["p"]
        assert h.conductor == 4 * p
        assert h.params_dict()["m_curve"] % 4 == 1
        assert h.curve.coefficients() == (0, h.params_dict()["m_curve"], 0, -1, 0)
        assert conductor(h.curve) == 4 * p


def test_neumann_setzer_requires_the_twist():
    # the untwisted m = 3 model has conductor 16 * 13, not 4 * 13
    assert conductor(WeierstrassModel(0, 3, 0, -1, 0)) == 208
    (hit,) = [h for h in search_neumann_setzer(20) if h.params_dict()["m"] == 3]
    assert hit.params_dict()["m_curve"] == -3 and hit.conductor == 52


def test_neumann_setzer_larger_sweep():
    hits = search_neumann_setzer(50000)
    ms = [h.params_dict()["m"] for h in hits]
    assert ms[:10] == [1, 3, 5, 7, 13, 15, 17, 27, 33, 35]
    assert len(ms) == 38 and ms[-1] == 217
    for h in hits:
        m, p = h.params_dict()["m"], h.params_dict()["p"]
        assert p == m * m + 4
        assert h.conductor == 4 * p


def test_neumann_setzer_validation():
    with pytest.raises(ValueError):
        search_neumann_setzer(4)


def test_2p_family_frozen():
    hits = search_2p_family(8)
    rows = [(h.params_dict()["k"], h.params_dict()["m"], h.params_dict()["p"]) for h in hits]
    assert rows == [(3, 1, 7), (4, 3, 7), (5, 3, 23), (5, 5, 7), (7, 5, 103), (7, 11, 7)]
    by_row = dict(zip(rows, hits))
    assert by_row[(3, 1, 7)].tags == ("small-p-exception", "parameter-only")
    assert by_row[(5, 3, 23)].tags == ("small-p-exception", "parameter-only")
    big = by_row[(7, 5, 103)]
    assert big.tags == ("in-window",)
    assert big.curve.coefficients() == (1, 1, 0, 2, 0)
    assert big.conductor == 206
    small = by_row[(7, 11, 7)]
    assert small.tags == ("small-p-exception",)
    assert small.conductor == 14
    assert small.params_dict()["m_curve"] == -11


def test_2p_family_window_flags():
    hits = search_2p_family(24)
    for h in hits:
        k, p = h.params_dict()["k"], h.params_dict()["p"]
        assert p % 16 == 7
        if p < 29:
            assert "small-p-exception" in h.tags
        elif k >= 7 and 2**k < 2**18 * p * p:
            assert "in-window" in h.tags
        else:
            assert "outside-window" in h.tags
        if h.curve is not None:
            assert k >= 6
            assert h.conductor == 2 * p or "small-p-exception" in h.tags


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 22), st.lists(st.integers(0, 4000), max_size=6))
def test_2p_pair_index_pieces_join_to_the_whole(k_max, cuts):
    """The 2p range counts (k, m) pairs; any cut of it gives pieces whose
    hits join, in order, into the whole scan's."""
    pairs = sum(searches._odd_roots(k) for k in range(1, k_max + 1))
    assert pairs == sum(len(range(1, math.isqrt(2**k) + 1, 2)) for k in range(1, k_max + 1))
    ends = sorted({0, pairs, *(c % (pairs + 1) for c in cuts)})
    joined = [h for a, b in zip(ends, ends[1:]) for h in searches._scan_2p(a, b, k_max)]
    assert joined == search_2p_family(k_max)


def test_8p_family_frozen():
    hits = search_8p_family(120)
    rows = [(h.params_dict()["case"], h.params_dict()["m"], h.params_dict()["p"]) for h in hits]
    assert rows == [(1, 5, 41), (2, -3, 41), (3, -11, 89), (1, 9, 97), (2, 9, 113)]
    for h in hits:
        p = h.params_dict()["p"]
        assert h.conductor == 8 * p
        assert h.params_dict()["m"] % 4 == 1
    # p = 41 hits two cases at once
    assert [r for r in rows if r[2] == 41] == [(1, 5, 41), (2, -3, 41)]


def test_8p_family_case_shapes():
    for h in search_8p_family(400):
        case, m, p = (h.params_dict()[k] for k in ("case", "m", "p"))
        a4 = {1: -4, 2: -8, 3: 8}[case]
        shift = {1: -16, 2: -32, 3: 32}[case]
        assert m * m == p + shift
        assert h.curve.coefficients() == (0, m, 0, a4, 0)
        assert conductor(h.curve) == 8 * p


@pytest.mark.parametrize("p_max", [37, 38, 41, 120, 5000])
def test_8p_matches_the_prime_loop_oracle(p_max):
    assert search_8p_family(p_max) == scan_8p_by_primes(32, p_max + 1)


def test_8p_parallel_matches_the_prime_loop_oracle():
    assert search_8p_family(5000, jobs=2) == scan_8p_by_primes(32, 5001)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3000), st.integers(0, 300))
def test_8p_chunks_match_the_prime_loop_oracle(lo, width):
    """Any chunk, odd or even ends, gives the oracle's hits in its order."""
    assert searches._scan_8p(lo, lo + width) == scan_8p_by_primes(lo, lo + width)


@settings(max_examples=40, deadline=None)
@given(st.integers(37, 5000), st.lists(st.integers(0, 100), max_size=5))
def test_8p_root_pieces_join_to_the_whole(p_max, cuts):
    """The 8p range counts square roots r of p; any cut of it gives pieces
    whose hits join, in order, into the oracle's over 32 <= p <= p_max."""
    top = math.isqrt(p_max) + 1
    ends = sorted({5, top, *(5 + c % (top - 4) for c in cuts)})
    joined = [h for a, b in zip(ends, ends[1:]) for h in searches._scan_8p_by_root(a, b, p_max)]
    assert joined == scan_8p_by_primes(32, p_max + 1)


def test_4pq_family_frozen():
    hits = search_4pq_family(30)
    rows = {
        (h.params_dict()["u"], h.params_dict()["v"], h.params_dict()["s"]): h.conductor
        for h in hits
    }
    assert rows == {
        (3, 11, 1): 528,
        (3, 11, -1): 264,
        (5, 13, 1): 520,
        (5, 13, -1): 1040,
        (9, 17, 1): 408,
        (9, 17, -1): 816,
        (11, 19, 1): 3344,
        (11, 19, -1): 1672,
        (17, 25, 1): 680,
        (17, 25, -1): 1360,
        (19, 27, 1): 912,
        (19, 27, -1): 456,
    }
    for h in hits:
        d = h.params_dict()
        assert d["v"] - d["u"] == 8
        assert d["p"] ** d["alpha"] == d["u"] and d["q"] ** d["beta"] == d["v"]
        assert h.conductor in (8 * d["p"] * d["q"], 16 * d["p"] * d["q"])
        assert h.curve.coefficients() == (0, -d["s"] * (d["u"] + d["v"]), 0, d["u"] * d["v"], 0)


def test_4pq_difference_4():
    hits = search_4pq_family(30, difference=4)
    rows = {(h.params_dict()["u"], h.params_dict()["v"]) for h in hits}
    assert (3, 7) in rows and (5, 9) in rows and (23, 27) in rows
    for h in hits:
        assert h.params_dict()["difference"] == 4
        assert h.params_dict()["p"] != h.params_dict()["q"]


@pytest.mark.parametrize("bound", [11, 12, 30, 97, 1000, 6000])
@pytest.mark.parametrize("difference", [4, 8])
def test_4pq_matches_the_factoring_oracle(bound, difference):
    hits = search_4pq_family(bound, difference=difference)
    assert hits == scan_4pq_by_factoring(3, bound + 1, bound, difference)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3000), st.integers(0, 300), st.integers(0, 50), st.sampled_from([4, 8]))
def test_4pq_chunks_match_the_factoring_oracle(lo, width, slack, difference):
    """Any piece of a scan up to any bound >= its last u gives the oracle's hits."""
    hi = lo + width
    bound = max(hi - 1 + slack, 1)
    assert searches._scan_4pq(lo, hi, bound, difference) == scan_4pq_by_factoring(
        lo, hi, bound, difference
    )


def test_4pq_validation():
    with pytest.raises(ValueError):
        search_4pq_family(30, difference=6)
    with pytest.raises(ValueError):
        search_4pq_family(5)


def test_z2z4_frozen():
    report = verify_z2z4_classification(50)
    assert report.bound == 50
    assert report.conductors == (15, 21)
    assert report.two_prime_case_empty
    rows = [
        (h.params_dict()["c"], h.tags, h.conductor) for h in report.hits
    ]
    assert rows == [
        (1, ("unit", "primitive"), 15),
        (3, ("prime-power", "primitive"), 21),
        (5, ("prime-power", "primitive"), 15),
        (9, ("prime-power",), 15),
        (25, ("prime-power",), 15),
        (27, ("prime-power",), 21),
        (45, ("two-prime",), 15),
    ]


def test_z2z4_primitive_hits_are_the_three_curves():
    report = verify_z2z4_classification(2000)
    primitive = [h for h in report.hits if "primitive" in h.tags]
    assert [h.params_dict()["c"] for h in primitive] == [1, 3, 5]
    assert [h.curve.coefficients() for h in primitive] == [
        (1, 4, 0, 1, 0),
        (1, 6, 0, 9, 0),
        (1, 10, 0, 25, 0),
    ]
    assert report.conductors == (15, 21)
    # imprimitive hits repackage the same curves: same conductor set
    assert {h.conductor for h in report.hits} == {15, 21}


def test_z2z4_two_prime_hits_are_never_primitive():
    report = verify_z2z4_classification(200)
    two_prime = [h for h in report.hits if "two-prime" in h.tags]
    assert two_prime, "the c = 45 repackaging should appear"
    for h in two_prime:
        assert "primitive" not in h.tags
    assert report.two_prime_case_empty


@pytest.mark.parametrize("bound", [21, 600, 2500, 10_000])
def test_z2z4_matches_the_factoring_oracle(bound):
    hits = verify_z2z4_classification(bound).hits
    assert list(hits) == scan_z2z4_by_factoring(1, bound + 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3000), st.integers(0, 300))
def test_z2z4_chunks_match_the_factoring_oracle(lo, width):
    assert searches._scan_z2z4(lo, lo + width) == scan_z2z4_by_factoring(lo, lo + width)


def test_z2z4_prune_skips_only_c_with_three_primes(monkeypatch):
    """The c whose divisors are never listed are exactly the odd c with three
    or more primes, and the unpruned oracle finds no hit at any of them."""
    listed = []

    def spy(c, pairs_c):
        listed.append(c)
        return square_divisors(c, pairs_c)

    square_divisors = searches._square_divisors
    monkeypatch.setattr(searches, "_square_divisors", spy)
    hits = searches._scan_z2z4(1, 3001)
    skipped = set(range(1, 3001, 2)) - set(listed)
    assert skipped == {c for c in range(1, 3001, 2) if len(factor(c).pairs) >= 3}
    assert min(skipped) == 105 and len(skipped) > 100
    oracle = scan_z2z4_by_factoring(1, 3001)
    assert not skipped & {h.params_dict()["c"] for h in oracle}
    assert hits == oracle


def test_z2z4_at_thirty_thousand_is_within_budget():
    start = time.perf_counter()
    report = verify_z2z4_classification(30_000)
    elapsed = time.perf_counter() - start
    assert report.conductors == (15, 21)
    assert elapsed < 2.5, f"took {elapsed:.2f} s"


def test_z2z4_support_matches_factoring_the_product():
    rng = random.Random(600)
    sieve = PrimeSieve(4 * 601 + 1)
    for c in range(1, 601, 2):
        pairs = [(rng.randint(1, 500), rng.randint(1, 500)) for _ in range(3)]
        for a in factor(c * c).divisors():  # every square pair the scan meets
            k = a + 16 * (c * c // a)
            (sq1, alpha), (sq2, beta) = is_square(k - 8 * c), is_square(k + 8 * c)
            if sq1 and sq2 and alpha:
                pairs.append((alpha, beta))
        for alpha, beta in pairs:
            want = {p for p in factor(c * alpha * beta).primes() if p != 2}
            assert searches._odd_support(factor(c).pairs, alpha, beta, sieve) == want


def test_z2z4_torsion_check_rejects_wrong_curves():
    searches._assert_z2z4_torsion(WeierstrassModel(1, 4, 0, 1, 0), 1, 5)  # the c = 1 hit
    with pytest.raises(AssertionError):
        searches._assert_z2z4_torsion(WeierstrassModel(1, 4, 0, 1, 0), 1, 3)  # (1, 1)
    with pytest.raises(AssertionError):
        searches._assert_z2z4_torsion(WeierstrassModel(0, -1, 1, -10, -20), 1, 5)


def test_z2z4_validation():
    with pytest.raises(ValueError):
        verify_z2z4_classification(10)


def test_parallel_runs_match_serial():
    assert search_8p_family(200, jobs=3) == search_8p_family(200)
    assert search_2p_family(16, jobs=2) == search_2p_family(16)
    assert search_neumann_setzer(500, jobs=4) == search_neumann_setzer(500)
    assert search_4pq_family(40, jobs=2) == search_4pq_family(40)
    assert verify_z2z4_classification(120, jobs=4) == verify_z2z4_classification(120)


def test_search_hit_helpers():
    hit = SearchHit("demo", (("a", 1), ("b", 2)))
    assert hit.params_dict() == {"a": 1, "b": 2}
    assert hit.tags == () and hit.curve is None and hit.conductor is None


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs inline."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut

    def shutdown(self, wait=True):
        pass


def _inline_pool(monkeypatch, cpus):
    _InlinePool.sizes = []
    monkeypatch.setattr(searches.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)


@pytest.mark.parametrize("cpus, expected", [(None, None), (1, None), (2, 2), (4, 4)])
def test_run_scan_clamps_jobs_to_cpu_count(monkeypatch, cpus, expected):
    """A huge job count never reaches the pool: it is cut to the CPU count,
    and to a serial run when there is a single CPU (or none reported).  The
    one pool of that size serves both calls."""
    _inline_pool(monkeypatch, cpus)
    chunks = []

    def worker(a, b):
        chunks.append((a, b))
        return [(a, b)]

    for _ in range(2):
        chunks.clear()
        out = searches._run_scan(worker, 0, 100, 10**6)
        assert len(chunks) == (1 if expected is None else expected * searches._PIECES_PER_JOB)
        assert out == sorted(chunks) and out[0][0] == 0 and out[-1][1] == 100
    assert _InlinePool.sizes == ([] if expected is None else [expected])


@settings(max_examples=200, deadline=None)
@given(st.integers(-50, 50), st.integers(-3, 400), st.integers(1, 70))
def test_chunks_cover_the_range_in_near_equal_widths(lo, width, pieces):
    chunks = searches._chunks(lo, lo + width, pieces)
    assert [i for a, b in chunks for i in range(a, b)] == list(range(lo, lo + width))
    assert len(chunks) == min(pieces, max(width, 0))
    widths = [b - a for a, b in chunks]
    assert not widths or max(widths) - min(widths) <= 1


@pytest.mark.parametrize("lo, hi", [(0, 100), (1, 25), (3, 6001), (7, 9), (5, 5)])
@pytest.mark.parametrize("cpus", [2, 3])
def test_run_scan_submits_the_last_piece_first(monkeypatch, lo, hi, cpus):
    """The pieces go to the pool last first and come back in range order,
    on the pool's first call and on a later one."""
    _inline_pool(monkeypatch, cpus)
    submitted = []

    def worker(a, b, tag):
        submitted.append((a, b))
        return [(i, tag) for i in range(a, b)]

    for tag in ("x", "y"):
        submitted.clear()
        out = searches._run_scan(worker, lo, hi, cpus, tag)
        assert submitted == searches._chunks(lo, hi, cpus * searches._PIECES_PER_JOB)[::-1]
        assert out == [(i, tag) for i in range(lo, hi)]
    assert _InlinePool.sizes == [cpus]


def test_parallel_scans_from_two_threads_take_turns(monkeypatch):
    """A scan waits while another thread's scan holds the pool, so it can
    never retire a pool that scan is still using."""
    _inline_pool(monkeypatch, 4)
    out = []
    with searches._POOL_LOCK:
        t = threading.Thread(target=lambda: out.append(searches._run_scan(_piece, 0, 100, 2)))
        t.start()
        t.join(0.2)
        assert t.is_alive() and _InlinePool.sizes == []
    t.join(60)
    assert out == [list(range(100))] and _InlinePool.sizes == [2]


def test_pieces_match_serial_for_z2z4_and_2p(monkeypatch):
    _inline_pool(monkeypatch, 2)
    assert verify_z2z4_classification(600, jobs=2) == verify_z2z4_classification(600)
    assert search_2p_family(24, jobs=2) == search_2p_family(24)
    assert _InlinePool.sizes == [2]


# -- the cached process pool ---------------------------------------------------


class _CountingPool(concurrent.futures.ProcessPoolExecutor):
    """A real pool that records each one started and the pools already
    running at that moment."""

    started: list = []

    def __init__(self, max_workers):
        live = [p for p in self.started if not p._shutdown_thread]
        self.started.append(self)
        self.live_at_start = live
        super().__init__(max_workers=max_workers)


def _counting_pool(monkeypatch, cpus):
    _CountingPool.started = []
    monkeypatch.setattr(searches.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)


def _piece(a, b):
    return list(range(a, b))


def _exit_in_first_piece(a, b):
    if a == 0:
        os._exit(3)
    return list(range(a, b))


def _fail_in_first_piece(a, b):
    if a == 0:
        raise AssertionError("piece 0 failed")
    return list(range(a, b))


def test_same_size_calls_share_one_pool(monkeypatch):
    _counting_pool(monkeypatch, 2)
    assert search_8p_family(5000, jobs=2) == scan_8p_by_primes(32, 5001)
    workers = set(searches._POOL[1]._processes)
    assert searches._run_scan(_piece, 0, 100, 2) == list(range(100))
    (pool,) = _CountingPool.started
    assert searches._POOL == ((os.getpid(), 2), pool)
    assert set(pool._processes) == workers and len(workers) == 2


@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_a_new_size_retires_the_old_pool_first(monkeypatch):
    """Before the 3-process pool forks, the 2-process pool has shut down and
    its threads are gone: every fork happens with this test's threads alone
    (Python 3.12 warns about a fork with live threads, an error here)."""
    _counting_pool(monkeypatch, 3)
    threads_at_fork = []
    fork = os.fork

    def counting_fork():
        threads_at_fork.append(threading.active_count())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    base = threading.active_count()
    assert searches._run_scan(_piece, 0, 100, 2) == list(range(100))
    old_workers = list(_CountingPool.started[0]._processes.values())
    assert searches._run_scan(_piece, 0, 100, 3) == list(range(100))
    old, new = _CountingPool.started
    assert new.live_at_start == [] and old._shutdown_thread
    assert not any(p.is_alive() for p in old_workers)
    assert searches._POOL == ((os.getpid(), 3), new) and len(new._processes) == 3
    if multiprocessing.get_start_method() == "fork":
        assert threads_at_fork == [base] * 5


def test_a_forked_process_never_gets_the_parent_pool(monkeypatch):
    """Under another pid (as after fork) a call starts its own pool, and the
    pool cached by the parent pid is neither served nor shut down."""
    _counting_pool(monkeypatch, 2)
    assert searches._run_scan(_piece, 0, 100, 2) == list(range(100))
    (parent,) = _CountingPool.started
    child_os = types.SimpleNamespace(cpu_count=lambda: 2, getpid=lambda: os.getpid() + 1)
    monkeypatch.setattr(searches, "os", child_os)
    try:
        assert searches._run_scan(_piece, 0, 100, 2) == list(range(100))
        assert len(_CountingPool.started) == 2
        assert searches._POOL == ((os.getpid() + 1, 2), _CountingPool.started[1])
        assert not parent._shutdown_thread
        assert parent.submit(sum, [1, 2]).result(timeout=60) == 3
    finally:
        searches._retire_pool()  # the pool of the faked pid
        parent.shutdown()


def test_a_dead_worker_breaks_only_its_call(monkeypatch):
    _counting_pool(monkeypatch, 2)
    with pytest.raises(BrokenProcessPool):
        searches._run_scan(_exit_in_first_piece, 0, 100, 2)
    assert searches._POOL is None and _CountingPool.started[0]._shutdown_thread
    assert searches._run_scan(_piece, 0, 100, 2) == list(range(100))
    assert len(_CountingPool.started) == 2


def test_a_failed_piece_leaves_the_pool_usable(monkeypatch):
    _counting_pool(monkeypatch, 2)
    with pytest.raises(AssertionError, match="piece 0 failed"):
        searches._run_scan(_fail_in_first_piece, 0, 100, 2)
    assert searches._run_scan(_piece, 0, 100, 2) == list(range(100))
    (pool,) = _CountingPool.started
    assert searches._POOL == ((os.getpid(), 2), pool)


_EXIT_AFTER_FREEZE = """
import gc, json, os
os.cpu_count = lambda: 2
from cuspgate import searches
assert searches.search_8p_family(5000, jobs=2)
gc.freeze()
print(json.dumps(sorted(searches._POOL[1]._processes)))
"""


def test_exit_with_a_frozen_pool_is_clean():
    """A process that froze the collector with the pool alive (as a benchmark
    worker does) exits 0, writes nothing to stderr and leaves no worker."""
    proc = subprocess.run(
        [sys.executable, "-c", _EXIT_AFTER_FREEZE], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    pids = json.loads(proc.stdout)
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
