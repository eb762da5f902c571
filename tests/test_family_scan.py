"""scripts/family_scan.py reads its job count as `cuspgate search` does:
a `--jobs` or `CUSPGATE_JOBS` that is not a positive integer exits 2, and a
bound outside a family's domain exits 1 with one error line."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "family_scan.py"
_spec = importlib.util.spec_from_file_location("family_scan", SCRIPT)
family_scan = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(family_scan)


@pytest.mark.parametrize("bad", ["two", "0", "-1", ""])
def test_bad_env_jobs_exit_2(capsys, monkeypatch, bad):
    monkeypatch.setenv("CUSPGATE_JOBS", bad)
    assert family_scan.main(["ns", "--bound", "60"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "CUSPGATE_JOBS" in err


@pytest.mark.parametrize("bad", ["0", "-3", "two"])
def test_bad_jobs_flag_exits_2(capsys, monkeypatch, bad):
    monkeypatch.delenv("CUSPGATE_JOBS", raising=False)
    with pytest.raises(SystemExit) as exc:
        family_scan.main(["ns", "--bound", "60", "--jobs", bad])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_good_jobs_run(capsys, monkeypatch):
    monkeypatch.setenv("CUSPGATE_JOBS", "1")
    assert family_scan.main(["ns", "--bound", "60"]) == 0
    assert "== ns: 4 hits ==" in capsys.readouterr().out


def test_bad_env_jobs_prints_no_traceback():
    env = dict(os.environ, CUSPGATE_JOBS="two")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "ns"], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and "CUSPGATE_JOBS" in proc.stderr


def test_bound_below_the_domain_exits_1(capsys, monkeypatch):
    monkeypatch.delenv("CUSPGATE_JOBS", raising=False)
    assert family_scan.main(["ns", "--bound", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["family_scan.py: error: ns: bound must be at least 5"]


def test_bound_fails_on_a_later_family(capsys, monkeypatch):
    """--bound applies to every family named: 2p runs at k_max 30, 8p refuses."""
    monkeypatch.delenv("CUSPGATE_JOBS", raising=False)
    assert family_scan.main(["2p", "8p", "--bound", "30"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("== 2p: ")
    assert err.splitlines() == ["family_scan.py: error: 8p: p_max must be at least 37"]


def test_domain_error_prints_no_traceback():
    env = {k: v for k, v in os.environ.items() if k != "CUSPGATE_JOBS"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "ns", "--bound", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and "error:" in proc.stderr
