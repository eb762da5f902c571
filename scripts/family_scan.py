#!/usr/bin/env python3
"""Run the diophantine family searches and summarize what they find.

    python3 scripts/family_scan.py                 # all families, default bounds
    python3 scripts/family_scan.py ns 2p --jobs 4  # just two families, parallel

Bounds are deliberately modest by default; crank them up per family with
--bound once you know what you are waiting for.  The z2z4 family prints
its classification verdict (conductor set + whether any primitive hit
uses two odd primes) instead of raw rows.
"""

import argparse
import os
import sys
import time

from cuspgate.cli import _positive_int
from cuspgate.searches import (
    search_2p_family,
    search_4pq_family,
    search_8p_family,
    search_neumann_setzer,
    verify_z2z4_classification,
)

DEFAULT_BOUNDS = {"ns": 2000, "2p": 24, "8p": 2000, "4pq": 60, "z2z4": 10_000}
RUNNERS = {
    "ns": search_neumann_setzer,
    "2p": search_2p_family,
    "8p": search_8p_family,
    "4pq": search_4pq_family,
    "z2z4": verify_z2z4_classification,
}


def show_hits(name, hits, limit):
    print(f"== {name}: {len(hits)} hits ==")
    for h in hits[:limit]:
        params = " ".join(f"{k}={v}" for k, v in h.params)
        tag = f"  [{','.join(h.tags)}]" if h.tags else ""
        cond = h.conductor if h.conductor is not None else "-"
        print(f"  {params:<40} N={cond}{tag}")
    if len(hits) > limit:
        print(f"  ... {len(hits) - limit} more (raise --show to see them)")


def main(argv=None) -> int:
    try:
        default_jobs = _positive_int(os.environ.get("CUSPGATE_JOBS", "1"))
    except argparse.ArgumentTypeError as exc:
        print(f"family_scan.py: error: CUSPGATE_JOBS: {exc}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("families", nargs="*", default=sorted(RUNNERS),
                    help="subset of families to run (default: all)")
    ap.add_argument("--bound", type=int, default=None,
                    help="override the per-family default bound for every family run")
    ap.add_argument("--jobs", type=_positive_int, default=default_jobs)
    ap.add_argument("--show", type=int, default=12, help="max rows to print per family")
    args = ap.parse_args(argv)
    unknown = set(args.families) - set(RUNNERS)
    if unknown:
        ap.error(f"unknown families: {', '.join(sorted(unknown))} "
                 f"(choose from {', '.join(sorted(RUNNERS))})")

    for name in args.families or sorted(RUNNERS):
        bound = args.bound if args.bound is not None else DEFAULT_BOUNDS[name]
        t0 = time.monotonic()
        try:
            out = RUNNERS[name](bound, jobs=args.jobs)
        except ValueError as exc:  # a bound outside the family's domain
            print(f"family_scan.py: error: {name}: {exc}", file=sys.stderr)
            return 1
        dt = time.monotonic() - t0
        if name == "z2z4":
            print(f"== z2z4: bound {out.bound}, {len(out.hits)} raw hits ==")
            print(f"  conductor set: {set(out.conductors)}")
            print(f"  primitive two-odd-prime case empty: {out.two_prime_case_empty}")
            prim = sorted(h.params_dict()['c'] for h in out.hits if 'primitive' in h.tags)
            print(f"  primitive hits at c = {prim}")
        else:
            show_hits(name, out, args.show)
        print(f"  ({dt:.2f}s, bound {bound})\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
