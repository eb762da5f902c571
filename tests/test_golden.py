"""Replay the golden corpus of Tate's algorithm, in-process.

`scripts/make_golden.py` wrote tests/golden/tate.txt: seeded (model, p)
cases and the local data of the family-search curves, one repr a line.
Every line must come out byte-identical; the first that differs is named.
"""

import ast
import time
from pathlib import Path

from cuspgate.curves import WeierstrassModel
from cuspgate.tate import _local_data, tate_algorithm

GOLDEN = Path(__file__).resolve().parent / "golden" / "tate.txt"


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
