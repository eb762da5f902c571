"""scripts/cusp_group_table.py and scripts/gate_survey.py print what the
library computes, and refuse a level below 1 or an empty range as a usage
error."""

import csv
import importlib.util
import io
import math
from pathlib import Path

import pytest

from cuspgate.arith import factor
from cuspgate.cusps import SquarefreeLevel, cuspidal_group_structure
from cuspgate.gates import KNOWN_ODD_NONSEMISTABLE, gate_nonsemistable, gate_squarefree

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cusp_group_table = load("cusp_group_table")
gate_survey = load("gate_survey")


def test_cusp_group_table_csv_matches_the_library(capsys):
    assert cusp_group_table.main(["--csv", "--max-level", "120"]) == 0
    out = capsys.readouterr().out
    assert "\r" not in out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["level", "num_primes", "invariants", "order"]
    expected = []
    for n in range(2, 121):
        if factor(n).is_squarefree():
            level = SquarefreeLevel.of(n)
            invs = cuspidal_group_structure(level)
            expected.append([str(n), str(level.t), ";".join(map(str, invs)), str(math.prod(invs))])
    assert rows[1:] == expected


def test_gate_survey_pass_list_matches_the_gates(capsys):
    assert gate_survey.main(["--max-level", "200"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    passing = [int(n) for n, shape, *_ in lines if shape == "pass"]
    expected = [
        n
        for n in range(2, 201)
        if (factor(n).is_squarefree() and gate_squarefree(n).passed)
        or (n in KNOWN_ODD_NONSEMISTABLE and gate_nonsemistable(n).passed)
    ]
    assert expected and passing == expected


@pytest.mark.parametrize("script", [cusp_group_table, gate_survey], ids=["cusp_group_table", "gate_survey"])
@pytest.mark.parametrize("min_level", ["0", "-5"])
def test_level_below_1_is_a_usage_error(capsys, script, min_level):
    with pytest.raises(SystemExit) as exc:
        script.main(["--min-level", min_level, "--max-level", "10"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1].endswith(": error: --min-level must be at least 1")


@pytest.mark.parametrize("script", [cusp_group_table, gate_survey], ids=["cusp_group_table", "gate_survey"])
@pytest.mark.parametrize("min_level, max_level", [("10", "5"), ("2", "1")])
def test_max_level_below_min_level_is_a_usage_error(capsys, script, min_level, max_level):
    with pytest.raises(SystemExit) as exc:
        script.main(["--min-level", min_level, "--max-level", max_level])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1].endswith(": error: --max-level must be at least --min-level")


@pytest.mark.parametrize("script", [cusp_group_table, gate_survey], ids=["cusp_group_table", "gate_survey"])
def test_a_one_level_range_is_accepted(capsys, script):
    assert script.main(["--min-level", "11", "--max-level", "11"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].split()[0] == "11"
