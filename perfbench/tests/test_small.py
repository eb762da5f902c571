"""Every workload at its small size, through run.py, with all its checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import run

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_workload(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_spec_matches_code():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.per_layer_spec()
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)


def test_tail_percentile():
    xs = list(range(1, 41))
    assert run.tail(xs) == (30, 75.0)  # ten samples beyond 30
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = _run("scan", 0, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_only_expected_time_limits_may_fail():
    import worker
    import workloads

    levels = workloads.make("levels", 1, "full")
    limit = worker.TIME_LIMIT
    assert worker.failure_errors(levels, [["858", limit], ["858", limit], ["2170", limit]]) == []
    assert worker.failure_errors(levels, [["859", limit]])
    assert worker.failure_errors(levels, [["858", "ValueError: bad level"]])
    assert worker.failure_errors(workloads.make("levels", 1, "small"), [["858", limit]])
    assert worker.failure_errors(workloads.make("scan", 1, "small"), [["2p", "ValueError: x"]])


def test_later_rounds_must_match_the_first():
    import worker

    first = {}
    assert worker.merge_outputs(first, {"a": 1, "b": 2}, "round 0") == []
    assert worker.merge_outputs(first, {"a": 1, "c": 3}, "round 1") == []
    assert worker.merge_outputs(first, {"b": 5}, "round 2") == ["op b: round 2 output differs from an earlier one"]
    assert first == {"a": 1, "b": 2, "c": 3}


def test_latency_samples_by_op():
    import worker
    import workloads

    op_s = [["level", "6", 1.0], ["level", "7", 2.0], ["level", "6", 3.0], ["level", "6", 9.0]]
    assert worker.latency_samples(workloads.make("levels", 1, "small"), op_s) == [3.0, 2.0]
    assert worker.latency_samples(workloads.make("scan", 1, "small"), op_s) == [1.0, 2.0, 3.0, 9.0]
