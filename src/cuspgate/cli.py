"""cuspgate command-line interface.

Every subcommand prints a single JSON record {subcommand, input, result,
version} with sorted keys, so reruns are byte-identical.  Integers of
magnitude >= 2^53 and all exact rationals are rendered as decimal strings
to survive JSON consumers with double-precision ints.  Domain errors
(ValueError from the library) exit 1; usage errors exit 2 (argparse).

Each subcommand imports only the layers it runs, inside its handler, so a
query pays the start-up cost of what it uses: `gate` loads `arith` and
`gates`, `cusp-group` loads `cusps` (and the `lattice` it calls), `survey`
loads those four, and only `search --jobs N` with N > 1 loads
`multiprocessing`.  `gate` and `survey` factor each level once and hand its
`Factorization` to the gate and to the cuspidal group.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .arith import Factorization
    from .curves import WeierstrassModel
    from .cusps import SquarefreeLevel

_BIG = 2**53
# Python's default int-to-string digit limit: a decimal exponent past it
# would build a number with more digits than any result can print
_MAX_EXPONENT = 4300


def _encode(x):
    """Make a value JSON-safe: big ints and all Fractions become strings."""
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x) if abs(x) >= _BIG else x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _encode(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_encode(v) for v in x]
    raise TypeError(f"cannot encode {type(x).__name__}")


def _fraction(text: str, what: str) -> Fraction:
    """One rational from the command line.  A decimal exponent is checked
    before `Fraction` expands it: 1e20000000 would take seconds to build."""
    text = text.strip()
    _, sep, exponent = text.lower().rpartition("e")
    digits = exponent.lstrip("+-").replace("_", "")
    try:
        if sep and digits.isdecimal() and abs(int(exponent)) > _MAX_EXPONENT:
            raise ValueError(f"exponent {exponent} exceeds {_MAX_EXPONENT} in magnitude")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {what}: {exc}") from None


def _parse_fractions(text: str, expected: int, what: str) -> tuple[Fraction, ...]:
    vals = tuple(_fraction(tok, what) for tok in text.split(","))
    if len(vals) != expected:
        raise ValueError(f"{what} needs {expected} comma-separated entries, got {len(vals)}")
    return vals


def _parse_curve(text: str) -> WeierstrassModel:
    from .curves import WeierstrassModel

    toks = text.split(",")
    if len(toks) not in (2, 5):
        raise ValueError("curve must be a1,a2,a3,a4,a6 (or the short a4,a6)")
    return WeierstrassModel.from_coefficients([_fraction(t, "curve") for t in toks])


def _parse_signs(text: str, level: SquarefreeLevel) -> tuple[int, ...]:
    if any(ch not in "+-" for ch in text):
        raise ValueError("signs must be a string over '+' and '-'")
    if len(text) != level.t:
        raise ValueError(f"level {level.n} needs {level.t} signs, got {len(text)}")
    return tuple(1 if ch == "+" else -1 for ch in text)


def _model_list(e: WeierstrassModel | None):
    return None if e is None else list(e.coefficients())


def _divisor_pairs(w) -> list[list]:
    return [[str(d), c] for d, c in zip(w.level.divisors, w.coeffs)]


# -- subcommand handlers -----------------------------------------------------


def _cmd_cusp_order(args) -> dict:
    from .cusps import (
        CuspDivisor,
        SquarefreeLevel,
        apply_2_old_projection,
        divisor_order,
        is_principal,
        ogg_order,
    )

    level = SquarefreeLevel.of(args.level)
    if args.signs is not None:
        if args.project_2_old:
            raise ValueError("--project-2-old needs an explicit --divisor")
        signs = _parse_signs(args.signs, level)
        return {"order": ogg_order(level, signs)}
    coeffs = _parse_fractions(args.divisor, 1 << level.t, "--divisor")
    w = CuspDivisor(level, coeffs)
    if args.project_2_old:
        w = apply_2_old_projection(w)
        return {
            "order": divisor_order(w),
            "principal": is_principal(w),
            "projected_coefficients": _divisor_pairs(w),
            "projected_level": w.level.n,
        }
    return {"order": divisor_order(w), "principal": is_principal(w)}


def _cusp_group(level: int | Factorization) -> dict:
    from .cusps import SquarefreeLevel, cuspidal_group_structure

    invariants = cuspidal_group_structure(SquarefreeLevel.of(level))
    return {"invariants": list(invariants), "order": math.prod(invariants)}


def _cmd_cusp_group(args) -> dict:
    return _cusp_group(args.level)


def _cmd_eta_check(args) -> dict:
    from .cusps import EtaVector, SquarefreeLevel
    from .eta import ligozat_check

    level = SquarefreeLevel.of(args.level)
    r = EtaVector(level, _parse_fractions(args.exponents, 1 << level.t, "--exponents"))
    verdict = ligozat_check(r)
    return {"failed_conditions": list(verdict.failed), "ok": verdict.ok}


def _cmd_eta_divisor(args) -> dict:
    from .cusps import EtaVector, SquarefreeLevel
    from .eta import divisor_of_eta_quotient

    level = SquarefreeLevel.of(args.level)
    r = EtaVector(level, _parse_fractions(args.exponents, 1 << level.t, "--exponents"))
    return {"coefficients": _divisor_pairs(divisor_of_eta_quotient(r))}


def _cmd_al_fixed(args) -> dict:
    from .atkin_lehner import ALElement, al_fixed_point_exists
    from .cusps import SquarefreeLevel

    level = SquarefreeLevel.of(args.level)
    w = ALElement(level, args.r)
    return {"fixed_points": al_fixed_point_exists(w)}


def _cmd_al_signs(args) -> dict:
    from .atkin_lehner import admissible_sign_assignments
    from .cusps import SquarefreeLevel

    level = SquarefreeLevel.of(args.level)
    assignments = admissible_sign_assignments(level, composite_rule=args.composite_rule)
    return {
        "assignments": [
            [{"prime": p, "sign": s} for p, s in zip(level.primes, a.signs)]
            for a in assignments
        ],
        "count": len(assignments),
    }


def _verdict_dict(verdict) -> dict:
    return {"data": dict(verdict.data), "passed": verdict.passed, "reasons": list(verdict.reasons)}


def _gate(fac: Factorization) -> dict:
    from .gates import gate_nonsemistable, gate_squarefree

    if fac.is_squarefree():
        return {"gate": "squarefree", **_verdict_dict(gate_squarefree(fac))}
    return {"gate": "nonsemistable", **_verdict_dict(gate_nonsemistable(fac))}


def _cmd_gate(args) -> dict:
    from .arith import factor_level

    return _gate(factor_level(args.level))


# a level costs about 0.1 ms below 10^4 and 0.2 ms near 10^7, and prints about
# 400 bytes: the cap holds a survey to a few seconds and a few MB
_SURVEY_MAX_LEVELS = 10_000


def _cmd_survey(args) -> list:
    lo, hi = args.min_level, args.max_level
    if lo < 1:
        raise ValueError("--min-level must be at least 1")
    if hi < lo:
        raise ValueError("--max-level must be at least --min-level")
    if hi - lo >= _SURVEY_MAX_LEVELS:
        raise ValueError(f"a survey covers at most {_SURVEY_MAX_LEVELS} levels, got {hi - lo + 1}")
    from .arith import factor

    records = []
    for fac in map(factor, range(lo, hi + 1)):  # the one factorization of each level
        gate = _gate(fac)
        cusp_group = _cusp_group(fac) if fac.n >= 2 and fac.is_squarefree() else None
        records.append({"cusp_group": cusp_group, "gate": gate, "level": fac.n})
    return records


def _cmd_gate_pq(args) -> dict:
    from .gates import gate_pq_refined

    return _verdict_dict(gate_pq_refined(args.p, args.q))


def _hit_dict(h) -> dict:
    return {
        "conductor": h.conductor,
        "curve": _model_list(h.curve),
        "family": h.family,
        "params": dict(h.params),
        "tags": list(h.tags),
    }


def _cmd_search(args):
    from .searches import FAMILIES

    if args.family != "4pq" and args.difference != 8:
        raise ValueError("--difference applies only to --family 4pq")
    extra = {"difference": args.difference} if args.family == "4pq" else {}
    out = FAMILIES[args.family][0](args.bound, jobs=args.jobs, **extra)
    if args.family == "z2z4":
        result = {
            "bound": out.bound,
            "conductors": list(out.conductors),
            "hits": [_hit_dict(h) for h in out.hits],
            "two_prime_case_empty": out.two_prime_case_empty,
        }
        hits = out.hits
    else:
        result = [_hit_dict(h) for h in out]
        hits = out
    if args.csv:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["family", "params", "tags", "curve", "conductor"])
        for h in hits:
            writer.writerow(
                [
                    h.family,
                    ";".join(f"{k}={v}" for k, v in h.params),
                    ";".join(h.tags),
                    "" if h.curve is None else ",".join(str(a) for a in h.curve.coefficients()),
                    "" if h.conductor is None else str(h.conductor),
                ]
            )
        return buf.getvalue()
    return result


def _cmd_tate(args) -> dict:
    from .tate import tate_algorithm

    e = _parse_curve(args.curve)
    if not e.is_integral():
        raise ValueError("tate needs an integral model; clear denominators first")
    res = tate_algorithm(e, args.p)
    return {
        "c": res.c,
        "f": res.f,
        "kodaira": res.kodaira,
        "m": res.m,
        "minimal": res.minimal,
        "minimal_model": _model_list(res.model),
        "n": res.n,
        "p": res.p,
        "split": res.split,
        "transform": [res.transform.u, res.transform.r, res.transform.s, res.transform.t],
        "v_disc": res.v_disc,
    }


def _cmd_conductor(args) -> dict:
    from .tate import _local_data

    local = []
    n = 1
    for p, res in _local_data(_parse_curve(args.curve)):
        n *= p**res.f
        if res.f:
            local.append({"f": res.f, "kodaira": res.kodaira, "p": p})
    return {"conductor": n, "local": local}


def _cmd_torsion2(args) -> dict:
    from .curves import two_torsion_structure

    tor = two_torsion_structure(_parse_curve(args.curve))
    return {"label": tor.label, "roots": [str(r) for r in tor.roots]}


def _cmd_curve_transform(args) -> dict:
    from .curves import Transform, apply_transform

    e = _parse_curve(args.curve)
    t = Transform(*(_fraction(x, "transform") for x in (args.u, args.r, args.s, args.t)))
    out = apply_transform(e, t)
    return {"discriminant": Fraction(out.disc), "model": _model_list(out)}


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse reads a value that starts with '-' (``--curve -5,-14,-8``,
    ``--u -1/2``, ``--signs -+``) as an option and fails with "expected one
    argument".  This parser first joins each such value to the option before
    it, ``--curve=-5,...``, the form argparse accepts.  A value is joined only
    after an option of this parser that takes one, and only if it is no
    option itself; ``--`` keeps its meaning, the end of the options."""

    def parse_known_args(self, args=None, namespace=None):
        joined: list[str] = []
        for tok in sys.argv[1:] if args is None else args:
            prev = self._option_string_actions.get(joined[-1]) if joined else None
            if (
                prev is not None
                and prev.nargs is None
                and tok.startswith("-")
                and tok != "--"
                and tok not in self._option_string_actions
            ):
                joined[-1] += "=" + tok
            else:
                joined.append(tok)
        return super().parse_known_args(joined, namespace)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cuspgate",
        description="cuspidal divisor groups, eta quotients, reduction types "
        "and parity gates for modular degrees",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("cusp-order", _cmd_cusp_order, "order of a degree-zero cuspidal divisor")
    p.add_argument("--level", type=int, required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--signs", help="one of +/- per prime factor, ascending")
    which.add_argument("--divisor", help="comma list of coefficients, divisors ascending")
    p.add_argument("--project-2-old", action="store_true", dest="project_2_old")

    p = add("cusp-group", _cmd_cusp_group, "invariant factors of the cuspidal group")
    p.add_argument("--level", type=int, required=True)

    p = add("eta-check", _cmd_eta_check, "test an eta exponent family for modularity")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--exponents", required=True, help="comma list, divisors ascending")

    p = add("eta-divisor", _cmd_eta_divisor, "cuspidal divisor of an eta quotient")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--exponents", required=True, help="comma list, divisors ascending")

    p = add("al-fixed", _cmd_al_fixed, "does w_r fix a point of X0(N)?")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = add("al-signs", _cmd_al_signs, "sign patterns not excluded at this level")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--composite-rule", action="store_true", dest="composite_rule")

    p = add("gate", _cmd_gate, "parity gate for a level (dispatches on square-freeness)")
    p.add_argument("--level", type=int, required=True)

    p = add("gate-pq", _cmd_gate_pq, "refined gate for odd pq levels")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = add("survey", _cmd_survey, "gate and cuspidal group of every level in a range")
    p.add_argument("--min-level", type=int, required=True)
    p.add_argument("--max-level", type=int, required=True)

    p = add("search", _cmd_search, "run a family scan")
    # searches.FAMILIES, sorted; importing searches here would slow every query
    p.add_argument("--family", choices=("2p", "4pq", "8p", "neumann-setzer", "z2z4"), required=True)
    p.add_argument("--bound", type=int, required=True, help="k_max for 2p, p_max for 8p")
    p.add_argument("--difference", type=int, default=8, help="4pq only: gap 4 or 8")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--csv", action="store_true", help="emit CSV rows instead of JSON")

    p = add("tate", _cmd_tate, "reduction type of an integral model at p")
    p.add_argument("--curve", required=True, help="a1,a2,a3,a4,a6")
    p.add_argument("--p", type=int, required=True)

    p = add("conductor", _cmd_conductor, "conductor with per-prime exponents")
    p.add_argument("--curve", required=True)

    p = add("torsion2", _cmd_torsion2, "rational 2-torsion structure")
    p.add_argument("--curve", required=True)

    p = add("curve-transform", _cmd_curve_transform, "apply (u,r,s,t) to a model")
    p.add_argument("--curve", required=True)
    p.add_argument("--u", default="1")
    p.add_argument("--r", default="0")
    p.add_argument("--s", default="0")
    p.add_argument("--t", default="0")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = args.handler
    try:
        # encoding is inside: a rational too long to print is a domain error
        result = _encode(handler(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not isinstance(result, str):  # CSV mode returns its text as is
        record = {
            "input": _encode(
                {k: v for k, v in sorted(vars(args).items()) if k != "handler" and v is not None}
            ),
            "result": result,
            "subcommand": args.subcommand,
            "version": __version__,
        }
        result = json.dumps(record, indent=2, sort_keys=True) + "\n"
    try:
        sys.stdout.write(result)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`| head`); send what is left to devnull so the
        # interpreter's own flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
