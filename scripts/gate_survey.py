#!/usr/bin/env python3
"""Survey the odd-congruence gates over a range of levels.

    python3 scripts/gate_survey.py --max-level 500
    python3 scripts/gate_survey.py --max-level 5000 --passing-only

Counts how often each failure reason fires and lists the survivors.
Square-free levels go through gate_squarefree; the handful of known
non-semistable levels go through gate_nonsemistable; everything else is
skipped (no gate implemented).
"""

import argparse
import sys
from collections import Counter

from cuspgate.arith import factor
from cuspgate.gates import KNOWN_ODD_NONSEMISTABLE, gate_nonsemistable, gate_squarefree


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min-level", type=int, default=2)
    ap.add_argument("--max-level", type=int, default=500)
    ap.add_argument("--passing-only", action="store_true")
    args = ap.parse_args(argv)
    if args.min_level < 1:
        ap.error("--min-level must be at least 1")
    if args.max_level < args.min_level:
        ap.error("--max-level must be at least --min-level")

    reasons = Counter()
    passing = []
    skipped = 0
    for n in range(args.min_level, args.max_level + 1):
        if factor(n).is_squarefree() and n > 1:
            verdict = gate_squarefree(n)
        elif n in KNOWN_ODD_NONSEMISTABLE:
            verdict = gate_nonsemistable(n)
        else:
            skipped += 1
            continue
        if verdict.passed:
            passing.append(n)
        else:
            reasons.update(verdict.reasons)
        if args.passing_only and not verdict.passed:
            continue
        shape = "pass" if verdict.passed else "fail: " + "; ".join(verdict.reasons)
        data = " ".join(f"{k}={v}" for k, v in sorted(verdict.data_dict().items()))
        print(f"{n:>6}  {shape:<60} {data}")

    total = args.max_level - args.min_level + 1
    print(f"\n{len(passing)} of {total - skipped} gated levels pass "
          f"({skipped} skipped: non-square-free, not whitelisted)", file=sys.stderr)
    if reasons:
        print("failure reasons:", file=sys.stderr)
        for reason, count in reasons.most_common():
            print(f"  {count:>6}  {reason}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
