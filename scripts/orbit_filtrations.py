#!/usr/bin/env python3
"""Adapted-filtration search experiment: for every orbit at each rank,
build the standard representative, run the subspace-lattice search, and
report the closure depth at which the unique verified filtration appears.

This documents that the default closure depth (4) is ample for small
ranks. With the x-cyclic spans of v among the seeds, every orbit up to
n = 2 resolves at depth 0, and every orbit up to n = 5 within depth 2:
at n = 5, (3,2 | ∅), (2,2,1 | ∅), (3,1 | 1) and (2,1,1 | 1) need two
rounds, and (5 | ∅) needs none.
"""

import argparse
import sys
import time

from exoticcone.bipartitions import enumerate_Q
from exoticcone.errors import FiltrationNotFound
from exoticcone.orbits import adapted_filtration, representative, verify_adapted


def depth_needed(pair, max_depth):
    for depth in range(max_depth + 1):
        try:
            return depth, adapted_filtration(pair, closure_depth=depth)
        except FiltrationNotFound:
            continue
    return None, None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-rank", type=int, default=4)
    parser.add_argument("--max-depth", type=int, default=4)
    args = parser.parse_args()

    worst = 0
    for n in range(1, args.max_rank + 1):
        print(f"rank n={n}:")
        for b in enumerate_Q(n):
            pair = representative(b)
            start = time.monotonic()
            depth, filt = depth_needed(pair, args.max_depth)
            elapsed = time.monotonic() - start
            label = f"{b.mu}|{b.nu}"
            if depth is None:
                print(f"  {label:<24} NOT FOUND within depth {args.max_depth}")
                worst = -1
                continue
            ok = verify_adapted(filt, pair, b)
            print(
                f"  {label:<24} depth={depth} verified={ok} ({elapsed:.2f}s)"
            )
            if not ok:
                worst = -1
            elif worst >= 0:
                worst = max(worst, depth)
    if worst >= 0:
        print(f"max depth needed: {worst}")
    return 0 if worst >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
