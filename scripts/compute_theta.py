#!/usr/bin/env python3
"""Compute exact 3AP-free permutation counts over a range of n.

Results go into a b-file cache that every other command can consume; its
"#provenance n tag" comment lines record where each value came from.
Values already in the cache are not recomputed, and a run that computes
nothing new leaves the cache as it is. The last line says which:
`cache written to C` or `cache unchanged: C`.

Usage examples:
  python scripts/compute_theta.py --max 16
  python scripts/compute_theta.py --min 12 --max 18 --cache out/theta_cache.txt
"""

import argparse
import sys
import time
from pathlib import Path

from apfree import cli, load_table, save_table, theta


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min", type=int, default=1)
    parser.add_argument("--max", type=int, default=16)
    parser.add_argument("--cache", default="out/theta_cache.txt")
    args = parser.parse_args()
    if args.min < 1:
        parser.error(f"--min must be >= 1, got {args.min}")
    if args.max < args.min:
        parser.error(f"--max must be >= --min, got {args.max} < {args.min}")

    cache = Path(args.cache)
    tbl = load_table(cache)

    wrote = False
    for n in range(args.min, args.max + 1):
        started = time.monotonic()
        known = n in tbl
        value = theta(n, tbl)
        elapsed = time.monotonic() - started
        tag = tbl.provenance(n) if known else "computed now"
        if not known:
            save_table(tbl, cache)
            wrote = True
        print(f"n={n}: {value}  [{tag}, {elapsed:.2f}s]")

    # The cache is saved after each new value, so an interrupted run keeps
    # what it computed; write it here only when there is none yet.
    if not cache.exists():
        save_table(tbl, cache)
        wrote = True
    print(f"cache written to {cache}" if wrote else f"cache unchanged: {cache}")
    return 0


if __name__ == "__main__":
    sys.exit(cli.run(main))
