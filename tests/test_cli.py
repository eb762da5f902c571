import argparse
import json
import math
import os
import subprocess
import sys
import time

import pytest

from cuspgate import cli, gates, searches
from cuspgate.arith import factor
from cuspgate.cli import main
from cuspgate.curves import WeierstrassModel
from cuspgate.cusps import SquarefreeLevel, cuspidal_group_structure
from cuspgate.gates import KNOWN_ODD_NONSEMISTABLE, gate_nonsemistable, gate_squarefree
from cuspgate.tate import conductor
from searches_oracle import DOMAINS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_cusp_group(capsys):
    doc = run_json(capsys, "cusp-group", "--level", "11")
    assert doc["subcommand"] == "cusp-group"
    assert doc["input"]["level"] == 11
    assert doc["result"]["invariants"] == [5]
    assert doc["result"]["order"] == 5


@pytest.mark.parametrize("level", [858, 2310])
def test_cusp_group_many_primes(capsys, level):
    doc = run_json(capsys, "cusp-group", "--level", str(level))
    invariants = doc["result"]["invariants"]
    assert all(b % a == 0 for a, b in zip(invariants, invariants[1:]))


def test_cusp_order_signs(capsys):
    doc = run_json(capsys, "cusp-order", "--level", "14", "--signs", "+-")
    assert doc["result"]["order"] == 3
    doc = run_json(capsys, "cusp-order", "--level", "17", "--signs", "-")
    assert doc["result"]["order"] == 4


def test_cusp_order_divisor(capsys):
    doc = run_json(capsys, "cusp-order", "--level", "11", "--divisor", "1,-1")
    assert doc["result"]["order"] == 5
    assert doc["result"]["principal"] is False
    doc5 = run_json(capsys, "cusp-order", "--level", "11", "--divisor", "5,-5")
    assert doc5["result"]["order"] == 1
    assert doc5["result"]["principal"] is True


def test_cusp_order_projection(capsys):
    doc = run_json(
        capsys, "cusp-order", "--level", "14", "--divisor", "1,0,-1,0", "--project-2-old"
    )
    assert doc["result"]["projected_level"] == 7
    assert doc["result"]["projected_coefficients"] == [["1", "1"], ["7", "-1"]]


def test_cusp_order_projection_at_level_2_names_the_projection(capsys):
    code, out, err = run_cli(
        capsys, "cusp-order", "--level", "2", "--divisor", "1,-1", "--project-2-old"
    )
    assert (code, out, err) == (1, "", "error: 2-old projection needs an even level above 2\n")


def test_cusp_order_flag_conflicts(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cusp-order", "--level", "14", "--signs", "+-", "--divisor", "1,0,0,-1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["cusp-order", "--level", "14"])
    capsys.readouterr()


def test_eta_check(capsys):
    doc = run_json(capsys, "eta-check", "--level", "15", "--exponents", "1,-1,-1,1")
    assert doc["result"]["ok"] is False
    assert doc["result"]["failed_conditions"] == [2, 3]
    ok = run_json(capsys, "eta-check", "--level", "11", "--exponents", "24,-24")
    assert ok["result"]["ok"] is True


def test_eta_divisor(capsys):
    doc = run_json(capsys, "eta-divisor", "--level", "11", "--exponents", "2,-2")
    assert doc["result"]["coefficients"] == [["1", "5/6"], ["11", "-5/6"]]


def test_al_fixed(capsys):
    doc = run_json(capsys, "al-fixed", "--level", "15", "--r", "3")
    assert doc["result"]["fixed_points"] is False
    doc5 = run_json(capsys, "al-fixed", "--level", "15", "--r", "5")
    assert doc5["result"]["fixed_points"] is True


def test_al_signs(capsys):
    doc = run_json(capsys, "al-signs", "--level", "14")
    assert doc["result"]["count"] == 1
    assert doc["result"]["assignments"] == [[
        {"prime": 2, "sign": 1},
        {"prime": 7, "sign": -1},
    ]]
    lit = run_json(capsys, "al-signs", "--level", "105")
    assert lit["result"]["count"] == 2
    strict = run_json(capsys, "al-signs", "--level", "105", "--composite-rule")
    assert strict["result"]["count"] == 1
    empty = run_json(capsys, "al-signs", "--level", "6")
    assert empty["result"]["count"] == 0


def test_al_signs_within_budget(capsys):
    """The declared domain ends at 13 primes: the first 13 primes answer
    with the composite rule well inside two seconds; the first 14, and the
    first 25, which factor through the gcd screen alone, exit 1 at once."""
    start = time.perf_counter()
    doc = run_json(capsys, "al-signs", "--level", "304250263527210", "--composite-rule")
    assert doc["result"]["count"] == 2048
    assert time.perf_counter() - start < 2
    first_25 = 1
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        first_25 *= p
    for level in (13082761331670030, first_25):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "al-signs", "--level", str(level))
        assert code == 1 and out == "" and "at most 13 primes" in err
        assert time.perf_counter() - start < 1


def test_gate_dispatch(capsys):
    sf = run_json(capsys, "gate", "--level", "14")
    assert sf["result"]["gate"] == "squarefree"
    assert sf["result"]["passed"] is True
    ns = run_json(capsys, "gate", "--level", "36")
    assert ns["result"]["gate"] == "nonsemistable"
    assert ns["result"]["passed"] is True
    assert ns["result"]["data"] == {"known_odd_congruence": 1, "odd_part": 9, "two_part": 4}
    bad = run_json(capsys, "gate", "--level", "30")
    assert bad["result"]["passed"] is False


def test_gate_at_a_strong_pseudoprime_to_the_first_twelve_bases(capsys):
    # 318665857834031151167461 = 399165290221 * 798330580441 passes
    # Miller-Rabin on every base up to 37; it is no prime level
    doc = run_json(capsys, "gate", "--level", "318665857834031151167461")
    assert doc["result"]["gate"] == "squarefree"
    assert doc["result"]["passed"] is False
    assert doc["result"]["data"] == {
        "p": 399165290221,
        "p_mod_8": 5,
        "q": 798330580441,
        "q_mod_8": 1,
    }
    assert "prime level" not in doc["result"]["reasons"][0]


def test_gate_pq(capsys):
    doc = run_json(capsys, "gate-pq", "--p", "3", "--q", "11")
    assert doc["result"]["passed"] is True
    assert doc["result"]["data"]["order_minus_plus"] == 1


def survey(capsys, lo, hi) -> list:
    return run_json(capsys, "survey", "--min-level", str(lo), "--max-level", str(hi))["result"]


def test_survey_groups_match_the_library(capsys):
    records = survey(capsys, 2, 120)
    assert [r["level"] for r in records] == list(range(2, 121))
    for r in records:
        n = r["level"]
        if factor(n).is_squarefree():
            invs = cuspidal_group_structure(SquarefreeLevel.of(n))
            assert r["cusp_group"] == {"invariants": list(invs), "order": math.prod(invs)}
        else:
            assert r["cusp_group"] is None


def test_survey_pass_list_matches_the_gates(capsys):
    passing = [r["level"] for r in survey(capsys, 2, 200) if r["gate"]["passed"]]
    expected = [
        n
        for n in range(2, 201)
        if (gate_squarefree(n) if factor(n).is_squarefree() else gate_nonsemistable(n)).passed
    ]
    assert expected and passing == expected
    # non-square-free levels off the whitelist are surveyed too
    assert any(not factor(n).is_squarefree() and n not in KNOWN_ODD_NONSEMISTABLE for n in passing)


def test_survey_records_are_the_gate_and_cusp_group_results(capsys):
    """One dispatch rule: each record holds what `gate` and `cusp-group` print
    for its level, and null where `cusp-group` refuses the level."""
    records = survey(capsys, 1, 300)
    assert [r["level"] for r in records] == list(range(1, 301))
    for r in records:
        level = str(r["level"])
        assert r["gate"] == run_json(capsys, "gate", "--level", level)["result"]
        code, out, _ = run_cli(capsys, "cusp-group", "--level", level)
        assert r["cusp_group"] == (json.loads(out)["result"] if code == 0 else None)


def test_survey_one_level_range(capsys):
    doc = run_json(capsys, "survey", "--min-level", "11", "--max-level", "11")
    assert doc["input"] == {"max_level": 11, "min_level": 11, "subcommand": "survey"}
    assert [r["level"] for r in doc["result"]] == [11]


@pytest.mark.parametrize(
    "min_level, max_level, message",
    [
        ("0", "10", "--min-level must be at least 1"),
        ("-5", "10", "--min-level must be at least 1"),
        ("10", "5", "--max-level must be at least --min-level"),
        ("2", "1", "--max-level must be at least --min-level"),
        ("9699690", "9699690", "group structure is limited to levels with at most 7 primes"),
    ],
    ids=["0", "-5", "10-5", "2-1", "8-primes"],
)
def test_survey_domain_errors_exit_1(capsys, min_level, max_level, message):
    code, out, err = run_cli(capsys, "survey", "--min-level", min_level, "--max-level", max_level)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def _count_factor_calls(monkeypatch) -> list:
    """Route every module's binding of `arith.factor` through one recorder."""
    calls = []

    def counted(n):
        calls.append(n)
        return factor(n)

    for name, module in list(sys.modules.items()):
        if name.startswith("cuspgate") and getattr(module, "factor", None) is factor:
            monkeypatch.setattr(module, "factor", counted)
    return calls


@pytest.mark.parametrize("lo, hi", [(1, 300), (9_000_000, 9_000_200)])
def test_survey_factors_each_level_once(capsys, monkeypatch, lo, hi):
    """One factor(n) per level, and p - 1 and p + 1 for each prime p of a
    square-free level >= 2, whose cuspidal group needs D's prime powers."""
    want = []
    for n in range(lo, hi + 1):
        fac = factor(n)
        want.append(n)
        if n >= 2 and fac.is_squarefree():
            want += [m for p in fac.primes() for m in (p - 1, p + 1)]
    calls = _count_factor_calls(monkeypatch)
    survey(capsys, lo, hi)
    assert sorted(calls) == sorted(want)


@pytest.mark.parametrize("level", [1, 2, 11, 12, 30, 510510, 9_000_000])
def test_gate_factors_its_level_once(capsys, monkeypatch, level):
    calls = _count_factor_calls(monkeypatch)
    run_json(capsys, "gate", "--level", str(level))
    assert calls == [level]


def test_survey_over_the_cap_exits_1_before_any_level(capsys, monkeypatch):
    def refuse(level):
        # the survey passes each level as its Factorization
        raise AssertionError(f"gated level {getattr(level, 'n', level)}")

    monkeypatch.setattr(gates, "gate_squarefree", refuse)
    monkeypatch.setattr(gates, "gate_nonsemistable", refuse)
    for lo, hi in [(2, 10_002), (9_000_000, 9_010_000), (1, 10**30)]:
        code, out, err = run_cli(capsys, "survey", "--min-level", str(lo), "--max-level", str(hi))
        assert (code, out) == (1, "")
        assert err == f"error: a survey covers at most 10000 levels, got {hi - lo + 1}\n"
    # a range at the cap passes the check and reaches the patched gates
    with pytest.raises(AssertionError, match="gated level 1"):
        main(["survey", "--min-level", "1", "--max-level", "10000"])


def test_tate(capsys):
    doc = run_json(capsys, "tate", "--curve", "0,-1,1,-10,-20", "--p", "11")
    res = doc["result"]
    assert res["kodaira"] == "I5"
    assert res["n"] == 5 and res["f"] == 1 and res["c"] == 5
    assert res["split"] is True and res["minimal"] is True
    assert res["minimal_model"] == [0, 14, 11, 55, 0]
    assert res["transform"] == [1, 5, 0, 5]


def test_conductor(capsys):
    doc = run_json(capsys, "conductor", "--curve", "0,31,0,240,0")
    assert doc["result"]["conductor"] == 240
    assert doc["result"]["local"] == [
        {"f": 4, "kodaira": "I4*", "p": 2},
        {"f": 1, "kodaira": "I2", "p": 3},
        {"f": 1, "kodaira": "I2", "p": 5},
    ]
    for coeffs in [
        (0, -1, 1, -10, -20),
        (1, 4, 0, 1, 0),
        (1, 1, 0, 2, 0),
        (0, 0, 0, 0, 1),
        (1, -1, 0, -2, -1),
        (0, 0, 1, 0, -7),
    ]:
        doc = run_json(capsys, "conductor", "--curve", ",".join(map(str, coeffs)))
        assert doc["result"]["conductor"] == conductor(WeierstrassModel(*coeffs))


@pytest.mark.parametrize(
    "argv",
    [
        ["conductor", "--curve", "-5,-14,-8,-10,-13"],
        ["curve-transform", "--curve", "0,-1,1,-10,-20", "--u", "-1/2", "--t", "-3"],
        ["cusp-order", "--level", "15", "--signs", "-+"],
        ["tate", "--curve", "-1,0,-1,-2,-1", "--p", "2"],
    ],
)
def test_values_that_start_with_a_minus_take_either_form(capsys, argv):
    spaced = run_json(capsys, *argv)
    joined = [f"{a}={b}" for a, b in zip(argv[1::2], argv[2::2])]
    assert run_json(capsys, argv[0], *joined) == spaced


def test_torsion2(capsys):
    doc = run_json(capsys, "torsion2", "--curve", "0,23,0,120,0")
    assert doc["result"]["label"] == "Z/2 x Z/2"
    assert doc["result"]["roots"] == ["-15", "-8", "0"]


@pytest.mark.parametrize(
    "curve",
    [
        "0,0,0,1,1000000000000000000000000000057",
        "0,0,0,1e300,1e-300",
        "0,0,0,1e1000,1e-1000",
        "0,0,0,1e4300,1e-4300",
        "0,0,0,-1e4300,1e4300",
    ],
)
def test_torsion2_huge_coefficients_within_budget(capsys, curve):
    start = time.perf_counter()
    doc = run_json(capsys, "torsion2", "--curve", curve)
    assert doc["result"] == {"label": "trivial", "roots": []}
    assert time.perf_counter() - start < 2


def test_curve_transform(capsys):
    doc = run_json(
        capsys, "curve-transform", "--curve", "0,-1,1,-10,-20", "--u", "1/2"
    )
    assert doc["result"]["model"] == [0, -4, 8, -160, -1280]
    assert doc["result"]["discriminant"] == "-659664896"


def test_big_integers_become_strings(capsys):
    doc = run_json(
        capsys, "curve-transform", "--curve", "0,-1,1,-10,-20", "--u", "1/1000"
    )
    a6 = doc["result"]["model"][4]
    assert isinstance(a6, str) and int(a6) == -20 * 1000**6


def test_big_integers_in_the_input_block_become_strings(capsys):
    # 2^53 + 1 is the least integer that a double-precision JSON reader rounds
    doc = run_json(capsys, "gate", "--level", str(2**53 + 1))
    assert doc["input"]["level"] == "9007199254740993"
    assert run_json(capsys, "gate", "--level", str(2**53 - 1))["input"]["level"] == 2**53 - 1
    # 2^53 + 5 is prime, and 11a1 has good reduction there
    doc = run_json(capsys, "tate", "--curve", "0,-1,1,-10,-20", "--p", str(2**53 + 5))
    assert doc["input"]["p"] == doc["result"]["p"] == "9007199254740997"
    assert doc["result"]["kodaira"] == "I0"


def test_search_json(capsys):
    doc = run_json(capsys, "search", "--family", "neumann-setzer", "--bound", "60")
    hits = doc["result"]
    assert [h["params"]["m"] for h in hits] == [1, 3, 5, 7]
    assert hits[1]["conductor"] == 52
    assert hits[1]["curve"] == [0, -3, 0, -1, 0]


def test_search_z2z4_report(capsys):
    doc = run_json(capsys, "search", "--family", "z2z4", "--bound", "50")
    res = doc["result"]
    assert res["conductors"] == [15, 21]
    assert res["two_prime_case_empty"] is True
    assert len(res["hits"]) == 7


def test_search_csv(capsys):
    code, out, err = run_cli(
        capsys, "search", "--family", "neumann-setzer", "--bound", "60", "--csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,params,tags,curve,conductor"
    assert len(lines) == 5
    assert lines[1].startswith("neumann-setzer,")
    assert "m=3;m_curve=-3;p=13" in lines[2]


def test_search_4pq_difference_4(capsys):
    doc = run_json(capsys, "search", "--family", "4pq", "--bound", "200", "--difference", "4")
    hits = searches.search_4pq_family(200, difference=4)
    assert hits != searches.search_4pq_family(200)
    assert doc["input"]["difference"] == 4
    assert [(h["params"], h["curve"], h["conductor"]) for h in doc["result"]] == [
        (dict(h.params), list(h.curve.coefficients()), h.conductor) for h in hits
    ]


def test_search_difference_outside_4pq_exits_1(capsys):
    argv = ["search", "--family", "neumann-setzer", "--bound", "30", "--difference", "4"]
    assert run_cli(capsys, *argv) == (1, "", "error: --difference applies only to --family 4pq\n")


def test_reruns_are_byte_identical(capsys):
    first = run_cli(capsys, "search", "--family", "2p", "--bound", "12")
    second = run_cli(capsys, "search", "--family", "2p", "--bound", "12")
    assert first == second
    a = run_cli(capsys, "tate", "--curve", "0,31,0,240,0", "--p", "2")
    b = run_cli(capsys, "tate", "--curve", "0,31,0,240,0", "--p", "2")
    assert a == b
    c = run_cli(capsys, "survey", "--min-level", "1", "--max-level", "400")
    d = run_cli(capsys, "survey", "--min-level", "1", "--max-level", "400")
    assert c[0] == 0 and c == d


def test_jobs_flag_and_env(capsys, monkeypatch):
    # the input echo records the resolved job count; results must not vary
    serial = run_json(capsys, "search", "--family", "8p", "--bound", "120")
    parallel = run_json(capsys, "search", "--family", "8p", "--bound", "120", "--jobs", "3")
    assert serial["input"]["jobs"] == 1 and parallel["input"]["jobs"] == 3
    assert serial["result"] == parallel["result"]
    # the job count comes from --jobs alone: CUSPGATE_JOBS=0 changes no
    # exit code and no byte of output, of a search or of any other query
    queries = [["gate", "--level", "11"], ["search", "--family", "8p", "--bound", "120"]]
    monkeypatch.delenv("CUSPGATE_JOBS", raising=False)
    unset = [run_cli(capsys, *argv) for argv in queries]
    monkeypatch.setenv("CUSPGATE_JOBS", "0")
    for argv, expected in zip(queries, unset):
        assert expected[0] == 0
        assert run_cli(capsys, *argv) == expected
    assert json.loads(unset[1][1])["input"]["jobs"] == 1


def test_jobs_must_be_positive(capsys):
    for bad in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--family", "8p", "--bound", "120", "--jobs", bad])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


def test_output_keys_are_sorted(capsys):
    code, out, _ = run_cli(capsys, "gate", "--level", "14")
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_domain_errors_exit_1(capsys):
    code, out, err = run_cli(capsys, "cusp-order", "--level", "12", "--signs", "+-")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "square-free" in err
    code2, _, err2 = run_cli(capsys, "tate", "--curve", "0,0,0,0,0", "--p", "2")
    assert code2 == 1 and "singular" in err2
    # u = 10^700 gives a6 = 1/10^4200, past Python's int-to-string limit
    code3, out3, err3 = run_cli(capsys, "curve-transform", "--curve", "0,0,0,1,1", "--u", "1e700")
    assert code3 == 1 and out3 == "" and err3.startswith("error:")
    code4, _, err4 = run_cli(capsys, "curve-transform", "--curve", "0,0,0,1,1", "--u", "1/0")
    assert code4 == 1 and err4.startswith("error: cannot parse transform")


def test_search_families_match_the_pinned_domains():
    """`searches.FAMILIES` holds the pinned domains, and `--family` offers
    its families, sorted."""
    assert [(f, *row[1:]) for f, row in sorted(searches.FAMILIES.items())] == list(DOMAINS)
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (family,) = [a for a in sub.choices["search"]._actions if a.dest == "family"]
    assert list(family.choices) == sorted(searches.FAMILIES)


@pytest.mark.parametrize(
    "family, bound, message",
    [(f, str(least - 1), f"{name} must be at least {least}") for f, name, least, _ in DOMAINS],
)
def test_search_bound_below_the_domain_exits_1(capsys, family, bound, message):
    code, out, err = run_cli(capsys, "search", "--family", family, "--bound", bound)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "family, bound, message",
    [(f, str(most + 1), f"{name} must be at most {most}") for f, name, _, most in DOMAINS],
)
def test_search_bound_above_the_domain_exits_1(capsys, family, bound, message):
    code, out, err = run_cli(capsys, "search", "--family", family, "--bound", bound)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        main(["search", "--family", "nope", "--bound", "10"])
    assert exc2.value.code == 2
    capsys.readouterr()


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cuspgate.cli", "cusp-group", "--level", "15"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["invariants"] == [2, 4]


def test_parallel_search_exits_cleanly():
    """The process pool a parallel search leaves running is shut down at
    exit without a word on stderr."""
    proc = subprocess.run(
        [sys.executable, "-m", "cuspgate.cli", "search", "--family", "8p", "--bound", "5000", "--jobs", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["input"]["jobs"] == 2


def test_closed_stdout_exits_1_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cuspgate.cli", "cusp-group", "--level", "15"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.parametrize(
    "argv",
    [
        ["curve-transform", "--curve", "0,0,0,1,1", "--u", "1e20000000"],
        ["curve-transform", "--curve", "0,0,0,1,1e20000000"],
        ["tate", "--curve", "0,0,0,1,1E-20_000_000", "--p", "2"],
        ["eta-check", "--level", "11", "--exponents", "1e4301,-1"],
    ],
)
def test_huge_decimal_exponents_are_refused_before_parsing(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: cannot parse") and "exceeds 4300" in err


# the product of the 25 primes up to 97: it factors at once, and has 2^25 divisors
FIRST_25_PRIMES = 2305567963945518424753102147331756070


@pytest.mark.parametrize(
    "argv",
    [
        ["eta-check", "--exponents", "1,-1"],
        ["eta-divisor", "--exponents", "1,-1"],
        ["cusp-order", "--divisor", "1,-1"],
    ],
)
def test_vector_length_is_checked_without_the_divisors(capsys, monkeypatch, argv):
    """A vector of the wrong length is refused from the prime count alone;
    building the 2^25 divisors to count them would take gigabytes."""

    def no_divisors(level):
        raise AssertionError(f"built the divisors of {level.n}")

    monkeypatch.setattr(SquarefreeLevel, "divisors", property(no_divisors))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], "--level", str(FIRST_25_PRIMES), *argv[1:])
    assert code == 1 and out == ""
    assert "needs 33554432 comma-separated entries, got 2" in err
    assert time.perf_counter() - start < 1


def _record(sub: str, inputs: str, result: str) -> str:
    """The exact stdout of one query: `inputs` and `result` are the indented
    bodies of the two blocks, one key per line."""
    return (
        f'{{\n  "input": {{\n{inputs}    "subcommand": "{sub}"\n  }},\n'
        f'  "result": {{\n{result}  }},\n  "subcommand": "{sub}",\n  "version": "0.1.0"\n}}\n'
    )


def _pairs(*pairs: tuple[str, str]) -> str:
    return ",\n".join(
        f'      [\n        "{d}",\n        "{c}"\n      ]' for d, c in pairs
    )


# stdout and exit codes of divisor queries, taken from the Fraction-backed
# vectors: the integer form must print the same bytes
PINNED_DIVISOR_QUERIES = [
    (["cusp-order", "--level", "15", "--divisor", "1/2,0,0,-1/2"], 1, ""),
    (["cusp-order", "--level", "30", "--divisor", "2/4,-1/2,0,0,0,0,0,0"], 1, ""),
    (["cusp-order", "--level", "14", "--divisor", "1/2,0,-1/2,0", "--project-2-old"], 1, ""),
    (
        ["cusp-order", "--level", "30", "--divisor", "1,0,0,0,0,0,0,-1"],
        0,
        _record(
            "cusp-order",
            '    "divisor": "1,0,0,0,0,0,0,-1",\n    "level": 30,\n'
            '    "project_2_old": false,\n',
            '    "order": 24,\n    "principal": false\n',
        ),
    ),
    (
        ["cusp-order", "--level", "14", "--divisor", "2,0,-1,-1", "--project-2-old"],
        0,
        _record(
            "cusp-order",
            '    "divisor": "2,0,-1,-1",\n    "level": 14,\n    "project_2_old": true,\n',
            '    "order": 1,\n    "principal": true,\n    "projected_coefficients": [\n'
            + _pairs(("1", "2"), ("7", "-2"))
            + '\n    ],\n    "projected_level": 7\n',
        ),
    ),
    (
        ["eta-check", "--level", "11", "--exponents", "1/2,-1/2"],
        0,
        _record(
            "eta-check",
            '    "exponents": "1/2,-1/2",\n    "level": 11,\n',
            '    "failed_conditions": [\n      1,\n      2,\n      3\n    ],\n'
            '    "ok": false\n',
        ),
    ),
    (
        ["eta-check", "--level", "15", "--exponents", "1/3,-2/6,0,0"],
        0,
        _record(
            "eta-check",
            '    "exponents": "1/3,-2/6,0,0",\n    "level": 15,\n',
            '    "failed_conditions": [\n      1,\n      2,\n      3\n    ],\n'
            '    "ok": false\n',
        ),
    ),
    (
        ["eta-divisor", "--level", "11", "--exponents", "2/4,-1/2"],
        0,
        _record(
            "eta-divisor",
            '    "exponents": "2/4,-1/2",\n    "level": 11,\n',
            '    "coefficients": [\n' + _pairs(("1", "5/24"), ("11", "-5/24")) + "\n    ]\n",
        ),
    ),
    (
        ["eta-divisor", "--level", "15", "--exponents", "1/3,-2/6,0,0"],
        0,
        _record(
            "eta-divisor",
            '    "exponents": "1/3,-2/6,0,0",\n    "level": 15,\n',
            '    "coefficients": [\n'
            + _pairs(("1", "5/36"), ("3", "-5/36"), ("5", "1/36"), ("15", "-1/36"))
            + "\n    ]\n",
        ),
    ),
]


@pytest.mark.parametrize(
    "argv, code, out", PINNED_DIVISOR_QUERIES, ids=[" ".join(q[0]) for q in PINNED_DIVISOR_QUERIES]
)
def test_divisor_output_is_pinned(capsys, argv, code, out):
    got_code, got_out, err = run_cli(capsys, *argv)
    assert (got_code, got_out) == (code, out)
    if code == 1:
        assert err == "error: divisor_order expects an integral divisor\n"
