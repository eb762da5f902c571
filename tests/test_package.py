"""The package API loads lazily, and a CLI query imports only what it runs."""

import importlib
import json
import subprocess
import sys

import pytest

import cuspgate

# the exports, grouped by the submodule that provides them
EXPORTS = {
    "arith": ["Factorization", "factor", "is_prime", "is_square", "num", "valuation"],
    "atkin_lehner": [
        "ALElement",
        "SignAssignment",
        "admissible_sign_assignments",
        "al_fixed_point_exists",
        "sign_divisor",
    ],
    "cusps": [
        "CuspDivisor",
        "DivisorVector",
        "EtaVector",
        "SquarefreeLevel",
        "apply_2_old_projection",
        "cuspidal_group_structure",
        "divisor_order",
        "is_principal",
        "lambda_forward",
        "lambda_inverse",
        "ogg_order",
    ],
    "curves": [
        "BInvariants",
        "INFINITY",
        "Point",
        "Transform",
        "TwoTorsion",
        "WeierstrassModel",
        "apply_transform",
        "b_invariants",
        "group_law_add",
        "two_torsion_structure",
    ],
    "eta": [
        "LigozatVerdict",
        "divisor_of_eta_quotient",
        "ligozat_check",
    ],
    "gates": [
        "GateVerdict",
        "KNOWN_ODD_NONSEMISTABLE",
        "gate_nonsemistable",
        "gate_pq_refined",
        "gate_squarefree",
    ],
    "lattice": [],
    "searches": [
        "SearchHit",
        "Z2Z4Report",
        "search_2p_family",
        "search_4pq_family",
        "search_8p_family",
        "search_neumann_setzer",
        "verify_z2z4_classification",
    ],
    "tate": [
        "TateResult",
        "conductor",
        "tate_algorithm",
    ],
}


def test_all_is_frozen():
    names = [*EXPORTS, *(name for names in EXPORTS.values() for name in names)]
    assert len(names) == 59
    assert cuspgate.__all__ == sorted(names)


def test_every_export_resolves_to_its_module_object():
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"cuspgate.{module_name}")
        assert getattr(cuspgate, module_name) is module
        for name in names:
            value = getattr(cuspgate, name)
            assert value is getattr(module, name)
            namespace = {}
            exec(f"from cuspgate import {name}", namespace)
            assert namespace[name] is value
            # cached on the package after the first access
            assert vars(cuspgate)[name] is value


def test_dir_covers_all():
    assert set(cuspgate.__all__) <= set(dir(cuspgate))
    assert "__version__" in dir(cuspgate)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        cuspgate.no_such_name
    assert not hasattr(cuspgate, "_no_such_private")


_FOOTPRINT = """
import json
import sys

def loaded():
    return {m for m in sys.modules if m.startswith(("cuspgate.", "concurrent.futures", "multiprocessing"))}

import cuspgate.cli
at_import = loaded()
cuspgate.cli.main(sys.argv[1:])
print(json.dumps({"import": sorted(at_import), "query": sorted(loaded() - at_import)}))
"""


def test_cli_import_footprint():
    """`import cuspgate.cli` loads no layer and no process pool; `gate` then
    adds exactly the two layers it runs, and `survey` those two and the
    cuspidal group's."""
    queries = {
        ("gate", "--level", "11"): ["cuspgate.arith", "cuspgate.gates"],
        ("survey", "--min-level", "1", "--max-level", "40"): [
            "cuspgate.arith",
            "cuspgate.cusps",
            "cuspgate.gates",
            "cuspgate.lattice",
        ],
    }
    for argv, layers in queries.items():
        proc = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT, *argv], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        footprint = json.loads(proc.stdout.splitlines()[-1])
        assert footprint == {"import": ["cuspgate.cli"], "query": layers}, argv
