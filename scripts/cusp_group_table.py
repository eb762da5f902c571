#!/usr/bin/env python3
"""Tabulate cuspidal group structures for square-free levels.

Typical run:

    python3 scripts/cusp_group_table.py --max-level 120
    python3 scripts/cusp_group_table.py --max-level 210 --only-odd --csv

Levels whose group has odd order are flagged; those are the interesting
ones when hunting for odd congruence numbers.
"""

import argparse
import csv
import math
import sys
import time

from cuspgate.arith import factor
from cuspgate.cusps import SquarefreeLevel, cuspidal_group_structure


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-level", type=int, default=120)
    ap.add_argument("--min-level", type=int, default=2)
    ap.add_argument("--only-odd", action="store_true",
                    help="print only levels whose cuspidal group has odd order")
    ap.add_argument("--csv", action="store_true", help="CSV instead of aligned text")
    args = ap.parse_args(argv)
    if args.min_level < 1:
        ap.error("--min-level must be at least 1")
    if args.max_level < args.min_level:
        ap.error("--max-level must be at least --min-level")

    rows = []
    t0 = time.monotonic()
    for n in range(args.min_level, args.max_level + 1):
        fac = factor(n)
        if not fac.is_squarefree() or n == 1:
            continue
        level = SquarefreeLevel.of(n)
        invs = cuspidal_group_structure(level)
        order = math.prod(invs) if invs else 1
        if args.only_odd and order % 2 == 0:
            continue
        rows.append((n, level.t, invs, order))
    elapsed = time.monotonic() - t0

    if args.csv:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(["level", "num_primes", "invariants", "order"])
        for n, t, invs, order in rows:
            w.writerow([n, t, ";".join(map(str, invs)), order])
    else:
        print(f"{'N':>5}  {'t':>2}  {'|C(N)|':>12}  invariant factors")
        for n, t, invs, order in rows:
            shape = " x ".join(f"Z/{d}" for d in invs) if invs else "trivial"
            odd = "  (odd)" if order % 2 else ""
            print(f"{n:>5}  {t:>2}  {order:>12}  {shape}{odd}")
        print(f"\n{len(rows)} levels in {elapsed:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
