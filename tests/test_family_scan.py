"""scripts/family_scan.py reads its job count as `cuspgate search` does:
a `--jobs` or `CUSPGATE_JOBS` that is not a positive integer exits 2."""

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
