"""`cuspgate survey` in the place of the deleted level-range scripts.

Each former script lives on as one field of a survey record and the library
function behind it: `scripts/cusp_group_table.py` as `cusp_group`
(`cusps.cuspidal_group_structure`) and `scripts/gate_survey.py` as `gate`
(`gates.gate_squarefree` and `gates.gate_nonsemistable`). A level below 1 or
an empty range is refused with exit 1 and one `error:` line before that
function runs; the scripts exited 2 on the same ranges."""

import json

import pytest

from cuspgate import cusps, gates
from cuspgate.cli import main

SCRIPTS = {
    "cusp_group_table": ("cusp_group", [(cusps, "cuspidal_group_structure")]),
    "gate_survey": ("gate", [(gates, "gate_squarefree"), (gates, "gate_nonsemistable")]),
}
SUBCOMMAND = {"cusp_group": "cusp-group", "gate": "gate"}


def survey(capsys, min_level, max_level):
    code = main(["survey", "--min-level", min_level, "--max-level", max_level])
    out, err = capsys.readouterr()
    return code, out, err


def refuse_calls(monkeypatch, script):
    for module, name in SCRIPTS[script][1]:

        def refuse(*args, _name=name):
            raise AssertionError(f"{_name} ran")

        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("script", list(SCRIPTS), ids=list(SCRIPTS))
@pytest.mark.parametrize("min_level", ["0", "-5"])
def test_level_below_1_is_a_usage_error(capsys, monkeypatch, script, min_level):
    refuse_calls(monkeypatch, script)
    assert survey(capsys, min_level, "10") == (1, "", "error: --min-level must be at least 1\n")


@pytest.mark.parametrize("script", list(SCRIPTS), ids=list(SCRIPTS))
@pytest.mark.parametrize("min_level, max_level", [("10", "5"), ("2", "1")])
def test_max_level_below_min_level_is_a_usage_error(capsys, monkeypatch, script, min_level, max_level):
    refuse_calls(monkeypatch, script)
    assert survey(capsys, min_level, max_level) == (
        1,
        "",
        "error: --max-level must be at least --min-level\n",
    )


@pytest.mark.parametrize("script", list(SCRIPTS), ids=list(SCRIPTS))
def test_a_one_level_range_is_accepted(capsys, script):
    field = SCRIPTS[script][0]
    code, out, err = survey(capsys, "11", "11")
    assert (code, err) == (0, "")
    records = json.loads(out)["result"]
    assert [r["level"] for r in records] == [11]
    assert main([SUBCOMMAND[field], "--level", "11"]) == 0
    assert records[0][field] == json.loads(capsys.readouterr().out)["result"]
