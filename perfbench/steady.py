"""Steadiness check: run workloads several times and summarise each metric.

    python3 perfbench/steady.py --workloads scan,levels --seeds 1-10

Runs run.py once per (workload, seed), one after another, as the bounds in
BENCHMARK.json are meant for: untraced, at full size and for its
run_seconds.  It prints for each metric its median, quartiles,
interquartile range as a share of the median, and max/min ratio; that
spread is what the bounds are set against.  The raw results go to
perfbench/results/steady-<UTC time>.json together with the Python version,
os.cpu_count(), the git SHA and every seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med if med else 0.0,
        "max_min": max(values) / min(values) if min(values) > 0 else float("inf"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seeds", default="1-5", help="e.g. 1-10 or 3,7,11")
    args = ap.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    record = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "seconds": SPEC["run_seconds"],
        "runs": [],
    }
    ok = True
    for workload in args.workloads.split(","):
        per_metric: dict[str, list[float]] = {}
        shares = set()
        for seed in seeds:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
            ]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            elapsed = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed={seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            record["runs"].append(
                {"workload": workload, "seed": seed, "elapsed_s": elapsed, "result": result}
            )
            ok = ok and result["correct"]
            shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed={seed} elapsed={elapsed:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        print(f"== {workload}: failed/attempted seen: {sorted(shares)}")
        for name, values in per_metric.items():
            s = summarise(values)
            print(f"  {name:42s} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
                  f"iqr/median={s['iqr_share']:.4f} max/min={s['max_min']:.4f}", flush=True)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"steady-{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"results: {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
