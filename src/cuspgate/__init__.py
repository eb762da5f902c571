"""cuspgate: exact arithmetic for cuspidal divisor groups on X0(N),
eta-quotient modularity, Atkin-Lehner sign bookkeeping, reduction types
and the parity gates they feed.

The package exports load lazily (PEP 562): ``import cuspgate`` loads no
layer, and the first access to an exported name imports the submodule that
provides it and caches the value here, so later lookups are plain attribute
reads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "arith": ("Factorization", "factor", "is_prime", "is_square", "num", "valuation"),
    "atkin_lehner": (
        "ALElement",
        "SignAssignment",
        "admissible_sign_assignments",
        "al_fixed_point_exists",
        "sign_divisor",
    ),
    "cusps": (
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
    ),
    "curves": (
        "INFINITY",
        "BInvariants",
        "Point",
        "Transform",
        "TwoTorsion",
        "WeierstrassModel",
        "apply_transform",
        "b_invariants",
        "group_law_add",
        "two_torsion_structure",
    ),
    "eta": (
        "LigozatVerdict",
        "divisor_of_eta_quotient",
        "ligozat_check",
    ),
    "gates": (
        "KNOWN_ODD_NONSEMISTABLE",
        "GateVerdict",
        "gate_nonsemistable",
        "gate_pq_refined",
        "gate_squarefree",
    ),
    "searches": (
        "SearchHit",
        "Z2Z4Report",
        "search_2p_family",
        "search_4pq_family",
        "search_8p_family",
        "search_neumann_setzer",
        "verify_z2z4_classification",
    ),
    "tate": (
        "TateResult",
        "conductor",
        "tate_algorithm",
    ),
}

# `lattice` is a public submodule that the package exports no name from
_SUBMODULES = (*_EXPORTS, "lattice")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SUBMODULES, *_MODULE_OF])


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
