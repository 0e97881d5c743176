#!/usr/bin/env python3
"""End-to-end reproduction run.

Computes counts up to a desk-scale ceiling, sweeps every inequality
check, emits the default separation certificate and the figure data
file, and, when a published A003407 b-file is supplied, also reproduces
the wider-gap certificate and the liminf/limsup envelope from the large
tabulated values.

Outputs land in --outdir (default out/): theta_cache.txt,
certificate_default.txt, certificate_wide.txt (with --bfile), and
theta_roots.dat.

Usage:
  python scripts/reproduce.py
  python scripts/reproduce.py --bfile data/b003407.txt --max-count 16
"""

import argparse
import sys
from pathlib import Path

from apfree import cli


def run(label, argv):
    print(f"\n== {label}: apfree {' '.join(argv)}")
    code = cli.main(argv)
    print(f"== exit {code}")
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-count", type=int, default=14,
                        help="compute exact counts up to this n (default 14)")
    parser.add_argument("--bfile", default=None,
                        help="published A003407 b-file for the large-n steps")
    parser.add_argument("--outdir", default="out")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cache = str(outdir / "theta_cache.txt")

    worst = 0
    for n in range(1, args.max_count + 1):
        worst = max(worst, run(f"count n={n}",
                               ["count", str(n), "--cache", cache]))

    if args.bfile:
        worst = max(worst, run("ingest published values",
                               ["ingest", args.bfile, "--cache", cache]))

    worst = max(worst, run("inequality sweep", ["verify", "--cache", cache]))
    worst = max(worst, run("default separation",
                           ["separate", "--cache", cache,
                            "--out", str(outdir / "certificate_default.txt")]))
    worst = max(worst, run("subsequence analysis", ["analyze", "--m", "1",
                                                    "--cache", cache]))

    fig_max = "200" if args.bfile else str(args.max_count)
    worst = max(worst, run("figure data",
                           ["emit-figure", "--max", fig_max, "--cache", cache,
                            "--out", str(outdir / "theta_roots.dat")]))

    if args.bfile:
        worst = max(worst, run("wider-gap separation",
                               ["separate", "--low", "1,7", "--high", "81,1",
                                "--digits", "5", "--cache", cache,
                                "--out", str(outdir / "certificate_wide.txt")]))

    print(f"\nall artifacts in {outdir}/; worst exit status {worst}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
