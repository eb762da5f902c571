"""The independent checks on their own: oracles against hand-worked values,
and every check rejecting a corrupted output."""

import copy
import json
from fractions import Fraction

import checks
import pytest


def test_primality_and_factorization_match_brute_force():
    for n in range(1, 3000):
        brute = n > 1 and all(n % d for d in range(2, n))
        assert checks.is_prime(n) == brute
        prod = 1
        for p, e in checks.factorize(n).items():
            assert checks.is_prime(p)
            prod *= p**e
        assert prod == n
    assert checks.primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert checks.is_prime(10**8 + 7) and not checks.is_prime(10**8 + 1)


@pytest.mark.parametrize(
    "n, expected",
    [
        (11, ("squarefree", True)),
        (14, ("squarefree", True)),  # 7 mod 16 = 7
        (34, ("squarefree", False)),  # 17 mod 16 = 1
        (15, ("squarefree", True)),  # 5 = -3 (mod 8), 3 = 3 (mod 4)
        (65, ("squarefree", False)),  # 13 = 1 and 5 = 1 (mod 4)
        (30, ("squarefree", False)),  # three primes
        (27, ("nonsemistable", True)),
        (36, ("nonsemistable", True)),
        (48, ("nonsemistable", False)),  # 2-part 16
        (45, ("nonsemistable", False)),  # two odd primes
        (64, ("nonsemistable", True)),
    ],
)
def test_gate_rules(n, expected):
    assert checks.gate_verdict(n) == expected


def test_closed_forms():
    assert checks.closed_form_order([11], [-1]) == 5
    assert checks.closed_form_order([2, 53], [-1, 1]) == 9  # num(1 * 54 / 24)
    assert checks.cyclic_prime_group(11) == (5,)
    assert checks.cyclic_prime_group(13) == ()
    assert checks.pq_passes(3, 11) and not checks.pq_passes(3, 13)
    assert checks.pq_orders(3, 11)["order_minus_minus"] == 5  # num(2 * 10 / 24)
    assert checks.admissible_signs(30, False) == [(1, 1, -1)]
    assert checks.has_fixed_point(11, 11) and checks.has_fixed_point(11, 1)


def test_level_oracle():
    o11 = checks.LevelOracle(11)
    assert o11.order([-1, 1]) == 5
    assert o11.is_principal([-5, 5]) and not o11.is_principal([-1, 1])
    assert checks.LevelOracle(30).generator_exponent() == 24  # group (2, 4, 24)


def test_curve_formulas():
    assert checks.discriminant(checks.CREMONA["11a1"][0]) == -(11**5)
    assert checks.discriminant(checks.CREMONA["37a1"][0]) == 37
    moved = checks.transform_model((0, 1, 0, 2, 3), Fraction(1, 2), 1, 0, 0)
    assert moved == (0, 16, 0, 112, 448)
    assert checks.discriminant(moved) == -11468800


NS_60 = [
    {"params": {"m": m, "p": m * m + 4}, "tags": [], "curve": None, "conductor": 4 * (m * m + 4)}
    for m in (1, 3, 5, 7)
]


def test_search_checks_reject_corruption():
    assert checks.check_neumann_setzer(60, NS_60) == []
    bad = copy.deepcopy(NS_60)
    bad[2]["conductor"] += 4
    assert checks.check_neumann_setzer(60, bad)
    assert checks.check_neumann_setzer(60, NS_60[:3])
    z = {
        "conductors": [15, 21],
        "hits": [
            {"params": {"c": 1}, "tags": ["unit", "primitive"], "curve": None, "conductor": 15},
            {"params": {"c": 3}, "tags": ["prime-power", "primitive"], "curve": None, "conductor": 21},
            {"params": {"c": 5}, "tags": ["prime-power", "primitive"], "curve": None, "conductor": 15},
            {"params": {"c": 9}, "tags": ["prime-power"], "curve": None, "conductor": 15},
        ],
        "two_prime_case_empty": True,
    }
    assert checks.check_search("z2z4", 30, z) == []
    z["hits"][3]["conductor"] = 33
    assert checks.check_search("z2z4", 30, z)


def _record(sub, result):
    rec = {"input": {}, "result": result, "subcommand": sub, "version": "0.1.0"}
    return json.dumps(rec, indent=2, sort_keys=True) + "\n"


def test_cli_record_checks():
    q = {"sub": "gate", "argv": ["gate", "--level", "14"], "level": 14}
    good = {"data": {}, "gate": "squarefree", "passed": True, "reasons": []}
    assert checks.check_cli_record(q, _record("gate", good)) == []
    assert checks.check_cli_record(q, _record("gate", {**good, "passed": False}))
    unsorted = json.dumps({"version": "0.1.0", "subcommand": "gate", "result": good, "input": {}}, indent=2)
    assert checks.check_cli_record(q, unsorted + "\n")
    q = {"sub": "eta-divisor", "argv": [], "level": 11, "a": 1, "b": 3}
    assert checks.check_cli_record(q, _record("eta-divisor", {"coefficients": [["1", "7/12"], ["11", "17/12"]]})) == []
    assert checks.check_cli_record(q, _record("eta-divisor", {"coefficients": [["1", "7/12"], ["11", "5/12"]]}))


def test_level_check_rejects_corruption():
    import workloads

    out = workloads.level_op(30, (2, 3, 5))
    rec = workloads.level_record(30, out)
    assert checks.check_level(rec) == []
    assert checks.check_level({**rec, "group": (2, 4, 12)})
    assert checks.check_level({**rec, "gate": ("squarefree", True)})
    signs, order, ok, eta_div, ow = rec["signed"][0]
    assert checks.check_level({**rec, "signed": [(signs, order + 1, ok, eta_div, ow)]})
    assert checks.check_level({**rec, "signed": [(signs, 2 * order, ok, eta_div, tuple(2 * c for c in ow))]})
