"""Compare the golden corpora in tests/golden/ with what `scripts/make_golden.py`
writes, in-process.

The script is the only writer of corpus lines, and its module docstring
describes the five files and their line formats.  The four corpora of its
CORPORA table are rebuilt in full; tate.txt, whose cases are seeded random
draws, replays from its own lines through tate_line and local_line.  Every
line must come out byte-identical; the first that differs is named.
"""

import ast
import importlib.util
import itertools
import math
import re
import time
from fractions import Fraction
from pathlib import Path

from cuspgate.curves import Transform, WeierstrassModel, apply_transform
from cuspgate.tate import _local_data, conductor

_spec = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).resolve().parent.parent / "scripts" / "make_golden.py"
)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)
GOLDEN = make_golden.OUT / "tate.txt"
SEARCHES = make_golden.OUT / "searches.txt"


def _assert_rebuilt(name: str, build) -> list[str]:
    """build() gives every line of tests/golden/<name>, within 5 s; returns those lines."""
    want = (make_golden.OUT / name).read_text().splitlines()
    start = time.perf_counter()
    got = build()
    for number, (line, have) in enumerate(itertools.zip_longest(want, got), 1):
        assert have == line, f"{name} line {number} differs:\nwant {line}\ngot  {have}"
    assert time.perf_counter() - start < 5
    return want


def test_golden_tate_corpus_replays_unchanged():
    fields = [line.split("\t") for line in GOLDEN.read_text().splitlines()]
    assert len(fields) > 1000 and {kind for kind, *_ in fields} == {"tate", "local"}
    builders = {"tate": make_golden.tate_line, "local": make_golden.local_line}
    # a tate line holds coefficients, p and a repr; a local line coefficients and a repr
    _assert_rebuilt(GOLDEN.name, lambda: [builders[kind](ast.literal_eval(coeffs), *map(int, p))
                                          for kind, coeffs, *p, _ in fields])


def test_golden_search_corpus_replays_unchanged():
    lines = _assert_rebuilt("searches.txt", make_golden.CORPORA["searches.txt"])
    assert len(lines) > 2000 and {line.split("\t", 1)[0] for line in lines} == {"search"}


def test_golden_cusp_corpus_replays_unchanged():
    lines = _assert_rebuilt("cusps.txt", make_golden.CORPORA["cusps.txt"])
    assert len(lines) == 1825 and lines[-1].startswith("255255\t")


def test_golden_divisor_corpus_replays_unchanged():
    lines = _assert_rebuilt("divisors.txt", make_golden.CORPORA["divisors.txt"])
    assert len(lines) == 669 and lines[-1].startswith("30030\t")


def test_golden_sign_corpus_replays_unchanged():
    lines = _assert_rebuilt("signs.txt", make_golden.CORPORA["signs.txt"])
    assert len(lines) == 609 and lines[-1].startswith("9699690\t")


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
