#!/usr/bin/env python3
"""Write the golden corpora to tests/golden/: tate.txt, searches.txt, cusps.txt,
divisors.txt, signs.txt.

    python3 scripts/make_golden.py        # rewrite the five files in tests/golden/
    python3 scripts/make_golden.py DIR    # write them to DIR instead

Each line is tab-separated and ends in one repr.  In tate.txt:

    tate   <(a1, a2, a3, a4, a6)>  <p>  <repr(tate_algorithm(E, p))>
    local  <(a1, a2, a3, a4, a6)>       <repr(list(_local_data(E)))>

In searches.txt, one line per hit, in the order the search returns them:

    search  <function>  <bound>  <keyword arguments>  <repr(hit)>

and for the Z/2 x Z/4 sweep one more line whose repr is its report with
the hits left out.  In cusps.txt, one line per level of CUSP_LEVELS:

    <N>  <repr(cuspidal_group_structure(N))>

In divisors.txt, one line per level of DIVISOR_LEVELS and admissible sign
assignment b of it, the chain of the levels benchmark:

    <N>  <b>  <w>  <repr(n)>  <u>  <repr(ligozat_check(u))>  <divisor_of_eta_quotient(u)>

with w = sign_divisor(N, -b), n = divisor_order(w) and u = lambda_inverse(n*w).
A divisor is written as its class name and its coefficients in bit order,
`CuspDivisor[1 -1 -1 1]`: its repr less the level, which is N's, and less
the Fraction wrappers, which the class requires, so the file stays small.

In signs.txt, one line per level of SIGN_LEVELS:

    <N>  <plain>  <composite>  <fixed>

with plain and composite the tuples of `signs` of
admissible_sign_assignments(N) without and with composite_rule, and fixed the
divisors r of N, in bit order, for which al_fixed_point_exists(w_r) holds.

The tate lines are seeded models with bad reduction at p in PRIMES: random
p-adic valuations, I_n* chains up to I10*, and models scaled
by u = 1/p so they are not minimal, each moved by a random integral shift.
The local lines are the curves of the five family searches at SEARCH_BOUNDS.
The search lines are the five searches at perfbench's full scan bounds,
with jobs=1, and 4pq at difference 8 and at difference 4 (SEARCH_CORPUS).
The cusps lines are every square-free N < 3000, then 30030 and 255255.
The divisors lines are every square-free N < 1000, then 30030.
The signs lines are every square-free N < 1000, then 30030 and 9699690.

This script is the only writer of corpus lines: one builder per line kind
(tate_line, local_line, search_lines, cusp_line, divisor_lines, sign_line).
`tests/test_golden.py` loads it by path, rebuilds the four corpora of the
CORPORA table in full and compares them with the committed files; tate.txt,
whose cases are seeded random draws, it replays from its own lines through
tate_line and local_line.  The corpus is written once from a tree whose
output is trusted; a change that alters a line regenerates it and says
which lines changed and why.
"""

import dataclasses
import random
import sys
from fractions import Fraction
from pathlib import Path

from cuspgate import searches
from cuspgate.arith import factor
from cuspgate.atkin_lehner import ALElement, admissible_sign_assignments, al_fixed_point_exists, sign_divisor
from cuspgate.cusps import SquarefreeLevel, cuspidal_group_structure, divisor_order, lambda_inverse
from cuspgate.curves import Transform, WeierstrassModel, apply_transform
from cuspgate.eta import divisor_of_eta_quotient, ligozat_check
from cuspgate.tate import _local_data, tate_algorithm

PRIMES = (2, 3, 5, 7, 11, 13, 97, 101, 10007)
SEED = 20070703
COUNT = 960
SEARCH_BOUNDS = {
    "search_neumann_setzer": 5_000,
    "search_2p_family": 12,
    "search_8p_family": 1_000,
    "search_4pq_family": 120,
    "verify_z2z4_classification": 100,
}
# perfbench's full scan bounds (perfbench/workloads.py SCAN_BOUNDS["full"])
SEARCH_CORPUS = (
    ("search_neumann_setzer", 100_000_000, {}),
    ("search_2p_family", 24, {}),
    ("search_8p_family", 180_000, {}),
    ("search_4pq_family", 6_000, {"difference": 8}),
    ("search_4pq_family", 6_000, {"difference": 4}),
    ("verify_z2z4_classification", 2_500, {}),
)
CUSP_LEVELS = [n for n in range(2, 3000) if factor(n).is_squarefree()] + [30030, 255255]
DIVISOR_LEVELS = [n for n in CUSP_LEVELS if n < 1000] + [30030]
SIGN_LEVELS = DIVISOR_LEVELS + [9699690]
OUT = Path(__file__).resolve().parent.parent / "tests" / "golden"


def _random_model(rng, p):
    """a_i = m p^k with random m and k; a few are I_n* chains instead:
    y^2 = x^3 + p m x^2 + p^j m' x has v(a2) = 1 and v(a4) = j."""
    if rng.random() < 0.2:
        j = rng.randint(2, 7)
        coeffs = [0, p * rng.choice((-3, -1, 1, 2, 5)), 0, p**j * rng.choice((-7, -1, 1, 3)), 0]
    else:
        top = 5 if p < 100 else 2
        coeffs = [rng.randint(-9, 9) * p ** rng.randint(0, top) for _ in range(5)]
    if rng.random() < 0.15:  # u = 1/p: the same curve, not minimal at p
        coeffs = [a * p**w for a, w in zip(coeffs, (1, 2, 3, 4, 6))]
    return coeffs


def tate_cases(rng, count):
    """(coefficients, p) with bad reduction at p, `count` of them."""
    cases = []
    while len(cases) < count:
        p = rng.choice(PRIMES)
        try:
            e = WeierstrassModel(*_random_model(rng, p))
        except ValueError:  # singular
            continue
        shift = Transform(1, *(rng.randint(-99, 99) for _ in range(3)))
        e = apply_transform(e, shift)
        if e.disc % p == 0:
            cases.append((e.coefficients(), p))
    return cases


def search_curves():
    """The distinct curves of the five searches at SEARCH_BOUNDS, in order."""
    curves = []
    for name, bound in SEARCH_BOUNDS.items():
        found = getattr(searches, name)(bound)
        for hit in getattr(found, "hits", found):
            if hit.curve is not None and hit.curve.coefficients() not in curves:
                curves.append(hit.curve.coefficients())
    return curves


def tate_line(coeffs, p) -> str:
    """The tate line of the model with these coefficients at p."""
    return f"tate\t{coeffs!r}\t{p}\t{tate_algorithm(WeierstrassModel(*coeffs), p)!r}"


def local_line(coeffs) -> str:
    """The local line of the model with these coefficients."""
    return f"local\t{coeffs!r}\t{list(_local_data(WeierstrassModel(*coeffs)))!r}"


def search_lines(name, bound, kwargs) -> list[str]:
    """One line per hit of searches.<name>(bound, **kwargs), run with jobs=1."""
    found = getattr(searches, name)(bound, jobs=1, **kwargs)
    reprs = [repr(hit) for hit in getattr(found, "hits", found)]
    if dataclasses.is_dataclass(found):  # the z2z4 report, less its hits
        reprs.append(repr(dataclasses.replace(found, hits=())))
    return [f"search\t{name}\t{bound}\t{kwargs!r}\t{r}" for r in reprs]


def cusp_line(n) -> str:
    """N and its cuspidal group."""
    return f"{n}\t{cuspidal_group_structure(SquarefreeLevel.of(n))!r}"


def _divisor(v, level) -> str:
    """Class name and coefficients; the level must be the line's and every
    coefficient a Fraction."""
    if v.level != level or not all(type(c) is Fraction for c in v.coeffs):
        raise AssertionError(f"{v!r} is not a divisor at level {level.n} with Fraction coefficients")
    return f"{type(v).__name__}[{' '.join(map(str, v.coeffs))}]"


def divisor_lines(n) -> list[str]:
    """One line per admissible sign assignment of N: the sign divisor, its
    order, its eta preimage, Ligozat's verdict, and the preimage's divisor."""
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


def sign_line(n) -> str:
    """The admissible sign assignments of N without and with the composite
    rule, and the r whose w_r fixes a point."""
    level = SquarefreeLevel.of(n)
    plain, composite = (tuple(a.signs for a in admissible_sign_assignments(level, composite_rule=rule))
                        for rule in (False, True))
    fixed = tuple(r for r in level.divisors if al_fixed_point_exists(ALElement(level, r)))
    return f"{n}\t{plain!r}\t{composite!r}\t{fixed!r}"


# The corpora whose inputs are fixed lists: file name -> every line, in order.
CORPORA = {
    "searches.txt": lambda: [line for case in SEARCH_CORPUS for line in search_lines(*case)],
    "cusps.txt": lambda: [cusp_line(n) for n in CUSP_LEVELS],
    "divisors.txt": lambda: [line for n in DIVISOR_LEVELS for line in divisor_lines(n)],
    "signs.txt": lambda: [sign_line(n) for n in SIGN_LEVELS],
}


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")
    print(f"{path}: {len(lines)} lines, {path.stat().st_size} bytes")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out = Path(argv[0]) if argv else OUT
    out.mkdir(parents=True, exist_ok=True)
    tate = [tate_line(coeffs, p) for coeffs, p in tate_cases(random.Random(SEED), COUNT)]
    _write(out / "tate.txt", tate + [local_line(coeffs) for coeffs in search_curves()])
    for name, build in CORPORA.items():
        _write(out / name, build())
    return 0


if __name__ == "__main__":
    sys.exit(main())
