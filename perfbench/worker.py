"""One fresh benchmark process: set up, run timed rounds, then check.

run.py starts this script and reads its stdout, one JSON object a line:
first ``{"ready": t}`` with t on the shared monotonic clock once set-up is
done (interpreter start, ``import cuspgate``, inputs, warm-up), then the
raw measurements, or with ``--probe`` the calibration time right after
set-up.  Each round's outputs are compared with
the first ones as the round ends; the checks run after the last timed
round, and peak memory is read before they start.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import workloads
from workloads import OpFailed

# untraced rounds in a traced run: the per-search and per-subcommand times
# and the untraced side of the tracing overhead are medians over these
TRACE_UNTRACED_ROUNDS = 3
# The speed at which the machine runs Python drifts by up to a third for
# minutes at a time, so the rounds time a calibration task this often, in
# between ops; run.py scales the run's times by it (see README.md).
CALIBRATE_EVERY_S = 0.4
TIME_LIMIT = "OpFailed: time limit"


def _on_alarm(signum, frame):
    raise OpFailed("time limit")


def calibration_s() -> float:
    """Seconds for a fixed piece of pure-Python work that never touches
    cuspgate (small fractions, modular powers, a dict): how fast the
    machine runs Python at this moment.  9 to 14 ms on the reference
    machine, as its speed drifts."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(1, 1300):
        x = Fraction(i, 7) * Fraction(3, i + 2) + Fraction(i % 5, 11)
        acc = (acc + x.numerator * pow(i, 3, 1009)) % 1000003
        table[i] = [d for d in (2, 3, 5, 7, 11, 13) if i % d == 0]
    return time.perf_counter() - t0


def run_rounds(wl, rounds: int, *, jobs: int | None = None, tracer=None) -> dict:
    """Run whole rounds.  Only a completed op's seconds are a latency sample;
    a failed op counts in ``failures``.  Between ops, every
    CALIBRATE_EVERY_S, the calibration task is timed; a round's time leaves
    that out.  Each op's first output is kept for the checks, and every
    later output is compared with it as its round ends and then dropped, so
    besides the first outputs the benchmark holds one round's at most."""
    ops = wl.ops(jobs)
    limit = wl.time_limit
    clock = time.perf_counter
    round_s, op_s, failures, first, errors, calibration = [], [], [], {}, [], []
    last_calibration = float("-inf")  # the first op is preceded by one
    for i in range(rounds):
        out = {}
        start = clock()
        calibrating = 0.0
        for op in ops:
            if clock() - last_calibration >= CALIBRATE_EVERY_S:
                c0 = clock()
                calibration.append(calibration_s())
                last_calibration = clock()
                calibrating += last_calibration - c0
            t0 = clock()
            try:
                if limit:
                    signal.setitimer(signal.ITIMER_REAL, limit)
                try:
                    result = op.run()
                finally:
                    if limit:
                        signal.setitimer(signal.ITIMER_REAL, 0)
            except (OpFailed, ValueError, ArithmeticError, AssertionError, subprocess.TimeoutExpired) as exc:
                failures.append([op.label, f"{type(exc).__name__}: {exc}"])
                if tracer is not None:
                    tracer.abandon_open_spans()
            else:
                op_s.append([op.kind, op.label, clock() - t0])
                out[op.label] = result
        round_s.append(clock() - start - calibrating)
        result = None
        errors += merge_outputs(first, out, f"round {i}")
        del out
        # the first outputs kept for the checks are the benchmark's, not the
        # program's: keep them out of the cyclic collector's later passes
        gc.freeze()
    return {
        "round_s": round_s,
        "op_s": op_s,
        "calibration_s": calibration,
        "attempted": rounds * len(ops),
        "failures": failures,
        "first": first,
        "errors": errors,
    }


def merge_outputs(first: dict, out: dict, where: str) -> list[str]:
    """Add ``out``'s ops that ``first`` lacks; return an error for each op
    whose output differs from the one already in ``first``."""
    errs = []
    for label, result in out.items():
        if label not in first:
            first[label] = result
        elif result != first[label]:
            errs.append(f"op {label}: {where} output differs from an earlier one")
    return errs


def latency_samples(wl, op_s: list) -> list[float]:
    """Every completed op's seconds, or with ``wl.latency_by_op`` each op's
    median seconds over the rounds."""
    if not wl.latency_by_op:
        return [seconds for _, _, seconds in op_s]
    by_op: dict[str, list[float]] = {}
    for _, label, seconds in op_s:
        by_op.setdefault(label, []).append(seconds)
    return [statistics.median(xs) for xs in by_op.values()]


def failure_errors(wl, failures: list) -> list[str]:
    """An error for each op that failed, unless the workload expects it to
    run into its time limit and it did.  An expected failure that no longer
    happens is no error: that op's outputs go through the checks like any
    other's."""
    errs = {}
    for label, reason in failures:
        if label not in wl.may_fail or reason != TIME_LIMIT:
            errs.setdefault(label, f"op {label} failed: {reason}")
    return list(errs.values())


def import_ms(samples: int = 7) -> float:
    """Median of (fresh ``import cuspgate.cli``) minus (bare interpreter
    start), from interleaved runs."""
    diffs = []
    for _ in range(samples):
        times = []
        for code in ("pass", "import cuspgate.cli"):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True)
            times.append(time.perf_counter() - t0)
        diffs.append(1000 * (times[1] - times[0]))
    return statistics.median(diffs)


def peak_rss_kb(workload: str) -> int:
    """The worker's own peak, or for scan-par and cli the largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if workload == "cli":
        return child
    if workload == "scan-par":
        return max(own, child)
    return own


def _public(run: dict) -> dict:
    return {k: v for k, v in run.items() if k not in ("first", "errors")}


def measure(wl, args) -> dict:
    run = run_rounds(wl, args.rounds)
    rss = peak_rss_kb(wl.name)
    first = run["first"]
    errs = run["errors"] + failure_errors(wl, run["failures"]) + wl.check(first)
    if wl.name == "scan-par":
        serial_run = run_rounds(wl, 1, jobs=1)
        serial = serial_run["first"]
        errs += failure_errors(wl, serial_run["failures"])
        errs += [f"{f}: jobs=2 hits differ from jobs=1" for f in first if first[f] != serial.get(f)]
    return {**_public(run), "latency_s": latency_samples(wl, run["op_s"]), "peak_rss_kb": rss, "errors": errs}


def measure_traced(wl, args) -> dict:
    """TRACE_UNTRACED_ROUNDS untraced rounds, for scan workloads as many at
    the other jobs value, then one traced round."""
    from tracing import LayerTracer

    untraced = run_rounds(wl, TRACE_UNTRACED_ROUNDS)
    other = None
    if wl.name in ("scan", "scan-par"):
        other = run_rounds(wl, TRACE_UNTRACED_ROUNDS, jobs=3 - wl.jobs)
    root = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory(prefix=".perfbench-spool-", dir=root) as spool:
        tracer = LayerTracer(Path(spool))
        tracer.install()
        wl.tracer = tracer
        try:
            traced = run_rounds(wl, 1, tracer=tracer)
        finally:
            tracer.uninstall()
            wl.tracer = None
        children = tracer.collect_children()
    runs = [untraced, traced] + ([other] if other else [])
    first, errs = {}, []
    for r in runs:
        errs += r["errors"] + merge_outputs(first, r["first"], "a traced or other-jobs run")
    failures = [f for r in runs for f in r["failures"]]
    errs += failure_errors(wl, failures) + wl.check(first)
    hits = {}
    if wl.name in ("scan", "scan-par"):
        hits = {f: len(getattr(out, "hits", out)) for f, out in first.items()}
    return {
        "untraced": _public(untraced),
        "traced": _public(traced),
        "other_jobs": None if other is None else _public(other),
        "attempted": sum(r["attempted"] for r in runs),
        "failures": failures,
        "hits": hits,
        "tables": tracer.tables(),
        "traced_children": children,
        "import_ms": import_ms(),
        "errors": errs,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--rounds", type=int, default=2)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true", help="set up, report ready, calibrate, exit")
    args = ap.parse_args(argv)

    wl = workloads.make(args.workload, args.seed, args.size)
    if wl.time_limit:
        signal.signal(signal.SIGALRM, _on_alarm)
    wl.setup()
    gc.freeze()
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if args.probe:
        print(json.dumps({"calibration_s": statistics.median(calibration_s() for _ in range(3))}))
        return 0
    result = measure_traced(wl, args) if args.trace else measure(wl, args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
