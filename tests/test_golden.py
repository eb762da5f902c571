"""Replay the golden corpora, in-process.

`scripts/make_golden.py` wrote tests/golden/tate.txt: seeded (model, p)
cases and the local data of the family-search curves, one repr a line.  It
also wrote tests/golden/searches.txt: every hit of the five searches at
perfbench's full scan bounds, one repr a line, and tests/golden/cusps.txt:
the cuspidal group of every square-free N < 3000, of 30030 and of 255255.
tests/golden/divisors.txt holds, for every square-free N < 1000 and 30030
and every admissible sign assignment, the sign divisor, its order, the eta
preimage of its multiple by that order, Ligozat's verdict and the
preimage's divisor.  tests/golden/signs.txt holds, for every square-free
N < 1000, 30030 and 9699690, the admissible sign assignments without and
with the composite rule and the r whose w_r fixes a point.  Every line must
come out byte-identical; the first that differs is named.
"""

import ast
import dataclasses
import itertools
import math
import re
import time
from fractions import Fraction
from pathlib import Path

from cuspgate import searches
from cuspgate.atkin_lehner import ALElement, admissible_sign_assignments, al_fixed_point_exists, sign_divisor
from cuspgate.cusps import SquarefreeLevel, cuspidal_group_structure, divisor_order, lambda_inverse
from cuspgate.curves import Transform, WeierstrassModel, apply_transform
from cuspgate.eta import divisor_of_eta_quotient, ligozat_check
from cuspgate.tate import _local_data, conductor, tate_algorithm

GOLDEN = Path(__file__).resolve().parent / "golden" / "tate.txt"
SEARCHES = GOLDEN.with_name("searches.txt")
CUSPS = GOLDEN.with_name("cusps.txt")
DIVISORS = GOLDEN.with_name("divisors.txt")
SIGNS = GOLDEN.with_name("signs.txt")


def _replay(line: str) -> str:
    kind, coeffs, *rest = line.split("\t")
    e = WeierstrassModel(*ast.literal_eval(coeffs))
    if kind == "tate":
        p, _ = rest
        return "\t".join((kind, coeffs, p, repr(tate_algorithm(e, int(p)))))
    assert kind == "local", kind
    return "\t".join((kind, coeffs, repr(list(_local_data(e)))))


def test_golden_tate_corpus_replays_unchanged():
    lines = GOLDEN.read_text().splitlines()
    kinds = {line.split("\t", 1)[0] for line in lines}
    assert len(lines) > 1000 and kinds == {"tate", "local"}
    start = time.perf_counter()
    for number, line in enumerate(lines, 1):
        got = _replay(line)
        assert got == line, f"{GOLDEN.name} line {number} differs:\nwant {line}\ngot  {got}"
    assert time.perf_counter() - start < 5


def _search_lines(name: str, bound: str, kwargs: str) -> list[str]:
    found = getattr(searches, name)(int(bound), jobs=1, **ast.literal_eval(kwargs))
    reprs = [repr(hit) for hit in getattr(found, "hits", found)]
    if dataclasses.is_dataclass(found):  # the z2z4 report, less its hits
        reprs.append(repr(dataclasses.replace(found, hits=())))
    return ["\t".join(("search", name, bound, kwargs, r)) for r in reprs]


def test_golden_search_corpus_replays_unchanged():
    lines = SEARCHES.read_text().splitlines()
    assert len(lines) > 2000 and {line.split("\t", 1)[0] for line in lines} == {"search"}
    start = time.perf_counter()
    got = []
    # one run per (function, bound, keyword arguments), in the file's order
    for key, _ in itertools.groupby(lines, key=lambda line: tuple(line.split("\t")[1:4])):
        got += _search_lines(*key)
    for number, (want, have) in enumerate(itertools.zip_longest(lines, got), 1):
        assert have == want, f"{SEARCHES.name} line {number} differs:\nwant {want}\ngot  {have}"
    assert time.perf_counter() - start < 5


def test_golden_cusp_corpus_replays_unchanged():
    lines = CUSPS.read_text().splitlines()
    assert len(lines) == 1825 and lines[-1].startswith("255255\t")
    start = time.perf_counter()
    for number, line in enumerate(lines, 1):
        n = line.split("\t", 1)[0]
        got = f"{n}\t{cuspidal_group_structure(SquarefreeLevel.of(int(n)))!r}"
        assert got == line, f"{CUSPS.name} line {number} differs:\nwant {line}\ngot  {got}"
    assert time.perf_counter() - start < 5


def _divisor(v, level) -> str:
    """Class name and coefficients; the level must be the line's."""
    assert v.level == level and all(type(c) is Fraction for c in v.coeffs)
    return f"{type(v).__name__}[{' '.join(map(str, v.coeffs))}]"


def _divisor_lines(n: int) -> list[str]:
    level = SquarefreeLevel.of(n)
    lines = []
    for a in admissible_sign_assignments(level):
        w = sign_divisor(level, {p: -b for p, b in zip(level.primes, a.signs)})
        order = divisor_order(w)
        u = lambda_inverse(order * w)
        fields = (_divisor(w, level), repr(order), _divisor(u, level),
                  repr(ligozat_check(u)), _divisor(divisor_of_eta_quotient(u), level))
        lines.append("\t".join((str(n), repr(a.signs)) + fields))
    return lines


def test_golden_divisor_corpus_replays_unchanged():
    lines = DIVISORS.read_text().splitlines()
    assert len(lines) == 669 and lines[-1].startswith("30030\t")
    start = time.perf_counter()
    got = []
    # every admissible assignment of each level, in the file's order
    for n, _ in itertools.groupby(lines, key=lambda line: line.split("\t", 1)[0]):
        got += _divisor_lines(int(n))
    for number, (want, have) in enumerate(itertools.zip_longest(lines, got), 1):
        assert have == want, f"{DIVISORS.name} line {number} differs:\nwant {want}\ngot  {have}"
    assert time.perf_counter() - start < 5


def test_golden_sign_corpus_replays_unchanged():
    lines = SIGNS.read_text().splitlines()
    assert len(lines) == 609 and lines[-1].startswith("9699690\t")
    start = time.perf_counter()
    for number, line in enumerate(lines, 1):
        level = SquarefreeLevel.of(int(line.split("\t", 1)[0]))
        plain, composite = (tuple(a.signs for a in admissible_sign_assignments(level, composite_rule=rule))
                            for rule in (False, True))
        fixed = tuple(r for r in level.divisors if al_fixed_point_exists(ALElement(level, r)))
        got = f"{level.n}\t{plain!r}\t{composite!r}\t{fixed!r}"
        assert got == line, f"{SIGNS.name} line {number} differs:\nwant {line}\ngot  {got}"
    assert time.perf_counter() - start < 5


def _corpus_curves() -> list[tuple]:
    """The distinct curves of the local lines and of the search hits."""
    curves = {}
    for line in GOLDEN.read_text().splitlines():
        kind, coeffs, *_ = line.split("\t")
        if kind == "local":
            curves[ast.literal_eval(coeffs)] = None
    model = re.compile(r"curve=WeierstrassModel\(" + ", ".join(rf"a{i}=(-?\d+)" for i in (1, 2, 3, 4, 6)))
    for match in model.finditer(SEARCHES.read_text()):
        curves[tuple(map(int, match.groups()))] = None
    return list(curves)


def test_conductor_is_the_product_of_the_local_exponents_on_the_corpus():
    curves = [WeierstrassModel(*coeffs) for coeffs in _corpus_curves()]
    assert len(curves) > 2000
    # and one model with denominators: 11a1 with x and y scaled by 1/4, 1/8
    rational = apply_transform(WeierstrassModel(0, -1, 1, -10, -20), Transform(2, 0, 0, 0))
    assert not rational.is_integral() and rational.a6 == Fraction(-20, 64)
    for e in curves + [rational]:
        assert conductor(e) == math.prod(p**res.f for p, res in _local_data(e)), e
    assert conductor(rational) == 11
