"""cuspgate benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; cuspgate is imported from ./src.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, measured untraced; with --trace 1 they are the per-layer
ones from a traced run, with the untraced and traced round times that give
the tracing overhead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
SOURCE_ROOT = HERE.parent / "src"
# set-up probes before and as many after the measuring worker, whose own
# set-up is one more sample: 13 in all
SETUP_PROBES_EACH_SIDE = 6
WORKER_TIMEOUT_S = 150
# The median time of worker.calibration_s on the reference machine.  A run's
# times are scaled by this over the run's own median calibration time, so
# they read as times on the reference machine at its usual speed.
REFERENCE_CALIBRATION_S = 0.011

# The named functions whose self time and call count the traced run reports.
LAYER_FUNCTIONS = (
    "arith.factor",
    "arith.is_prime",
    "curves.apply_transform",
    "tate.tate_algorithm",
    "tate.conductor",
    "lattice.row_hnf",
    "lattice.smith_normal_form",
    "lattice.lattice_index",
    "cusps.cuspidal_group_structure",
    "cusps.divisor_order",
    "cusps.lambda_inverse",
    "eta.divisor_of_eta_quotient",
    "eta.ligozat_check",
    "atkin_lehner.admissible_sign_assignments",
    "atkin_lehner.sign_divisor",
    "gates.gate_squarefree",
    "gates.gate_nonsemistable",
    "gates.gate_pq_refined",
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for layer in LAYERS:
        spec += [(f"{layer}.self_s", "s", "lower"), (f"{layer}.calls", "count", "lower")]
    for fn in LAYER_FUNCTIONS:
        spec += [(f"{fn}.self_s", "s", "lower"), (f"{fn}.calls", "count", "lower")]
    for family in workloads.FAMILIES:
        spec += [
            (f"searches.{family}.wall_s", "s", "lower"),
            (f"searches.{family}.jobs1_s", "s", "lower"),
            (f"searches.{family}.jobs2_s", "s", "lower"),
            (f"searches.{family}.speedup_x", "x", "higher"),
            (f"searches.{family}.hits", "count", "higher"),
        ]
    spec.append(("cli.import_ms", "ms", "lower"))
    spec += [(f"cli.{sub}.p50_ms", "ms", "lower") for sub in workloads.CLI_SUBCOMMANDS]
    spec += [
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.overhead_x", "x", "lower"),
    ]
    return spec


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    xs = sorted(values)
    k = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def child_env() -> dict:
    """The environment for workers and the processes they start: cuspgate
    is imported from this checkout's src directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SOURCE_ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(args, extra: list[str]) -> tuple[float, dict | None]:
    """Start a worker; return its set-up seconds and its result line."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        *extra,
    ]
    start = time.monotonic()
    # its own session, so that on a timeout its pool workers and queries go too
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=child_env(), start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    setup_s = lines[0]["ready"] - start
    return setup_s, (lines[1] if len(lines) > 1 else None)


def probe(args) -> tuple[float, float]:
    """One set-up time, and the calibration time the probe took right after."""
    setup_s, res = spawn(args, ["--probe"])
    return setup_s, res["calibration_s"]


def end_to_end(args, rounds: int) -> tuple[dict, dict, list[str]]:
    """The end-to-end metrics.  Times are scaled to the reference machine's
    speed: a round or op time by the run's median calibration time, a set-up
    time by the calibration its own process timed right after it."""
    probes = [probe(args) for _ in range(SETUP_PROBES_EACH_SIDE)]
    setup_s, res = spawn(args, ["--rounds", str(rounds)])
    calibration = statistics.median(res["calibration_s"])
    probes.append((setup_s, calibration))
    probes += [probe(args) for _ in range(SETUP_PROBES_EACH_SIDE)]
    op_s = res["latency_s"]
    tail_s, pct = tail(op_s)
    unscaled = {
        "setup_s": statistics.median(s for s, _ in probes),
        "wall_s": statistics.median(res["round_s"]),
        "op_p50_ms": 1000 * statistics.median(op_s),
        "op_tail_ms": 1000 * tail_s,
    }
    scale = REFERENCE_CALIBRATION_S / calibration
    values = {
        "setup_s": statistics.median(REFERENCE_CALIBRATION_S * s / c for s, c in probes),
        "wall_s": scale * unscaled["wall_s"],
        "op_p50_ms": scale * unscaled["op_p50_ms"],
        "op_tail_ms": scale * unscaled["op_tail_ms"],
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }
    notes = [
        f"rounds={rounds} round_s={[round(x, 4) for x in res['round_s']]}",
        f"setup_s samples={[round(s, 4) for s, _ in probes]}",
        f"op_tail_ms is p{pct:.2f} of {len(op_s)} samples",
        f"calibration: median {1000 * calibration:.3f} ms of {len(res['calibration_s'])}; "
        f"round and op times scaled by {scale:.4f}",
        "unscaled: " + json.dumps(unscaled),
    ]
    return values, res, notes


def median_by_kind(run: dict) -> dict[str, float]:
    """Median seconds per op kind (search family, CLI subcommand)."""
    by_kind: dict[str, list[float]] = {}
    for kind, _, seconds in run["op_s"]:
        by_kind.setdefault(kind, []).append(seconds)
    return {kind: statistics.median(xs) for kind, xs in by_kind.items()}


def per_layer(args) -> tuple[dict, dict, list[str]]:
    _, res = spawn(args, ["--trace"])
    values = {name: 0.0 for name, _, _ in per_layer_spec()}
    tables = res["tables"]
    for name, seconds in tables["self_s"].items():
        layer = name.split(".")[0]
        values[f"{layer}.self_s"] += seconds
        values[f"{layer}.calls"] += tables["calls"][name]
        if name in LAYER_FUNCTIONS:
            values[f"{name}.self_s"] = seconds
            values[f"{name}.calls"] = tables["calls"][name]
    untraced, traced = res["untraced"], res["traced"]
    own = median_by_kind(untraced)
    if res["other_jobs"] is not None:
        other = median_by_kind(res["other_jobs"])
        serial, parallel = (other, own) if args.workload == "scan-par" else (own, other)
        for family in workloads.FAMILIES:
            values[f"searches.{family}.wall_s"] = own[family]
            values[f"searches.{family}.jobs1_s"] = serial[family]
            values[f"searches.{family}.jobs2_s"] = parallel[family]
            values[f"searches.{family}.speedup_x"] = serial[family] / parallel[family]
            values[f"searches.{family}.hits"] = res["hits"][family]
    if args.workload == "cli":
        for sub in workloads.CLI_SUBCOMMANDS:
            values[f"cli.{sub}.p50_ms"] = 1000 * own[sub]
    values["cli.import_ms"] = res["import_ms"]
    untraced_s = statistics.median(untraced["round_s"])
    traced_s = traced["round_s"][0]
    values["trace.untraced_wall_s"] = untraced_s
    values["trace.traced_wall_s"] = traced_s
    values["trace.overhead_x"] = traced_s / untraced_s
    notes = [
        f"tracing overhead: traced round {traced_s:.4f} s vs untraced {untraced_s:.4f} s "
        f"(median of {len(untraced['round_s'])})",
        f"traced pool workers merged: {res['traced_children']}",
    ]
    return values, res, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: reduced inputs that finish in seconds, all checks kept")
    args = ap.parse_args(argv)

    if not (SOURCE_ROOT / "cuspgate" / "__init__.py").is_file():
        print(f"error: no cuspgate sources under {SOURCE_ROOT}", file=sys.stderr)
        return 2
    rounds = workloads.rounds_for(args.workload, args.seconds, args.size)
    try:
        if args.trace:
            values, res, notes = per_layer(args)
            units = {name: unit for name, unit, _ in per_layer_spec()}
        else:
            values, res, notes = end_to_end(args, rounds)
            units = dict(END_TO_END)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = res["failures"]
    print(f"workload={args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    for note in notes:
        print(note)
    if failures:
        labels = sorted({label for label, _ in failures})
        print(f"failed ops ({len(failures)}): {', '.join(labels)}")
    for err in res["errors"][:20]:
        print(f"CHECK FAILED: {err}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not res["errors"],
                "attempted": res["attempted"],
                "failed": len(failures),
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
