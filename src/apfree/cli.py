"""Command-line front end.

Exit status: 0 when the requested work succeeded and every mathematical
check passed, 1 when a mathematical check failed (a violated inequality,
a found 3AP, a non-separating certificate, a value conflict), 2 for
usage and I/O errors. Output is deterministic: identical invocations
against identical cache state print identical bytes.

`main(argv)` may be called any number of times in one process, as
`scripts/reproduce.py` does. The argument parser is built on the first
call, not at import, and reused by every later call; parsing leaves no
state in it, so each call sees only its own argv.
"""

from __future__ import annotations

import argparse
import collections
import functools
import sys
from pathlib import Path

from . import counting, dataio, doubling, growth, perm
from .errors import ApfreeError, ConflictError, ConstructionViolation
from .table import PROVENANCE_COMPUTED, ThetaTable


def _assemble_table(cache=None, bfile=None) -> ThetaTable:
    tbl = ThetaTable()
    if cache is not None:
        dataio.load_table(cache, tbl)
    if bfile is not None:
        dataio.ingest_bfile(bfile, tbl)
    return tbl


def _parse_mt(text: str) -> tuple[int, int]:
    try:
        m_str, t_str = text.split(",")
        m, t = int(m_str), int(t_str)
    except ValueError:
        raise ApfreeError(f"expected 'm,t' with integers, got {text!r}") from None
    return m, t


def cmd_count(args) -> int:
    if args.jobs < 1:
        raise ApfreeError(f"--jobs must be >= 1, got {args.jobs}")
    counting._check_count_args(args.n)
    tbl = _assemble_table(cache=args.cache)
    if args.oracle:
        value = counting.count_oracle(args.n)
    else:
        value = counting.count_dp(args.n)
    if tbl.insert(args.n, value, PROVENANCE_COMPUTED) and args.cache is not None:
        dataio.save_table(tbl, args.cache)
    print(value)
    return 0


def cmd_check(args) -> int:
    p = perm.parse_oneline(args.perm)
    witness = perm.find_3ap(p)
    if witness is None:
        print("FREE")
        return 0
    i, j, k = witness
    v = p.values
    print(f"3AP at ({i},{j},{k}): {v[i - 1]} {v[j - 1]} {v[k - 1]}")
    return 1


_ORDER_FLAGS = {"even-first": doubling.EVEN_BLOCK_FIRST,
                "odd-first": doubling.ODD_BLOCK_FIRST}


def cmd_double(args) -> int:
    a = perm.parse_oneline(args.a)
    b = perm.parse_oneline(args.b)
    order = _ORDER_FLAGS[args.order]
    combine = doubling.double_odd if args.odd else doubling.double
    print(perm.format_oneline(combine(a, b, order)))
    return 0


def cmd_verify(args) -> int:
    if args.max is not None and args.max < 1:
        raise ApfreeError(f"--max must be >= 1, got {args.max}")
    tbl = _assemble_table(cache=args.cache, bfile=args.bfile)
    max_n = args.max if args.max is not None else (max(tbl.available()) if len(tbl) else 0)
    present = tbl.available(max_n)
    reports = [growth.check_global_bounds(n, tbl) for n in present]
    halves = ({n for n in present if 2 * n <= max_n}
              | {n // 2 for n in present if n % 2 == 0})
    for k in sorted(halves):
        if k in tbl and 2 * k in tbl:
            reports.append(growth.check_sandwich(k, tbl))
        else:
            missing = k if k not in tbl else 2 * k
            reports.append(growth.CheckReport(
                f"sandwich k={k}", "skip", detail=f"theta({missing}) unavailable"))
    for n in present:
        if n < 3:
            continue
        if (n + 1) // 2 in tbl and n // 2 in tbl:
            reports.append(growth.check_halving(n, tbl))
        else:
            reports.append(growth.CheckReport(
                f"halving n={n}", "skip", detail="half-size value unavailable"))
    odd_parts = sorted({n >> ((n & -n).bit_length() - 1) for n in present})
    reports.extend(growth.monotone_report(m, tbl, max_n) for m in odd_parts)
    lines = [f"{r.name}: {r.status.upper()}" + (f"  {r.detail}" if r.detail else "")
             for r in reports]
    values = [tbl.value(n) for n in present]
    nondecreasing = all(a <= b for a, b in zip(values, values[1:]))
    lines.append(f"note: counts nondecreasing over available n <= {max_n}: "
                 f"{'yes' if nondecreasing else 'no'} (informational, not a check)")
    tally = collections.Counter(r.status for r in reports)
    lines.append(f"summary: {tally['pass']} passed, {tally['fail']} failed, "
                 f"{tally['skip']} skipped")
    print("\n".join(lines))
    return 1 if tally["fail"] else 0


def cmd_separate(args) -> int:
    tbl = _assemble_table(cache=args.cache, bfile=args.bfile)
    m_low, t_low = _parse_mt(args.low)
    m_high, t_high = _parse_mt(args.high)
    cert = growth.separate(m_low, t_low, m_high, t_high, tbl)
    text = growth.certificate_text(cert, digits=args.digits)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0 if cert.separated else 1


def cmd_analyze(args) -> int:
    tbl = _assemble_table(cache=args.cache, bfile=args.bfile)
    m, digits = args.m, args.digits
    lines = []
    points = growth.doubling_points(m, tbl)
    if not points:
        raise ApfreeError(f"no values available for any n = {m} * 2^t")
    for t, n in points:
        point = growth.subsequence_point(m, t, tbl, digits).text
        bracket = growth.limit_bracket(m, t, tbl)
        lower = bracket.lower_decimal(digits).text
        upper = bracket.upper_decimal(digits).text
        lines.append(f"point m={m} t={t} n={n}: theta(n)^(1/n) = {point} "
                     f"[{tbl.provenance(n)}]")
        lines.append(f"  limit({m}) >= {lower}  limit({m}) <= {upper}")
    # The best bracket is the last point's (the largest n), rendered above.
    lines.append(f"best bracket (from n={n}): {lower} <= limit({m}) <= {upper}")
    for k in growth._REFERENCE_NS:
        if k in tbl:
            root = growth.limit_bracket(k, 0, tbl).lower_decimal(min(digits, 6))
            lines.append(f"reference (2*theta({k}))^(1/{k}) = {root.text}")
    if growth.LIMINF_POINT in tbl and growth.LIMSUP_POINT in tbl:
        liminf = growth.limit_bracket(growth.LIMINF_POINT, 0, tbl)
        limsup = growth.limit_bracket(growth.LIMSUP_POINT, 0, tbl)
        lines.append(f"envelope: liminf >= {liminf.lower_decimal(min(digits, 5)).text}, "
                     f"limsup <= {limsup.upper_decimal(min(digits, 5)).text}")
    print("\n".join(lines))
    return 0


def cmd_emit_figure(args) -> int:
    if args.max < 1:
        raise ApfreeError(f"--max must be >= 1, got {args.max}")
    tbl = _assemble_table(cache=args.cache, bfile=args.bfile)
    dataio.emit_figure_data(tbl, args.max, sys.stdout if args.out is None else args.out,
                            digits=args.digits)
    return 0


def cmd_ingest(args) -> int:
    tbl = _assemble_table(cache=args.cache)
    result = dataio.ingest_bfile(args.bfile, tbl)
    lines = [f"ingested {len(result.added)} new entries, "
             f"{len(result.matched)} matched existing, {len(result.skipped)} skipped"]
    if args.cache is not None:
        dataio.save_table(tbl, args.cache)
        lines.append(f"cache written to {args.cache}")
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apfree",
        description="Exact counting and growth analysis of 3AP-free permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count 3AP-free permutations of {1..n}")
    p.add_argument("n", type=int)
    p.add_argument("--oracle", action="store_true",
                   help="use the oracle instead, which decides all n! "
                        "arrangements by value triples, inserting each value "
                        "into the relative order of the smaller ones and "
                        "dropping every completion of an order with a triple "
                        "out of order (n <= 10)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="checked (N >= 1) and otherwise unused: the subset DP "
                        "runs in one process. Kept until the benchmark drops "
                        "its count-jobs workload")
    p.add_argument("--cache", default=None, metavar="PATH")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("check", help="test one permutation for a 3AP")
    p.add_argument("perm", help="comma-separated one-line notation, e.g. 4,2,1,3")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("double", help="combine two 3AP-free permutations")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--order", choices=sorted(_ORDER_FLAGS), default="even-first")
    p.add_argument("--odd", action="store_true",
                   help="odd-length variant; b must be one longer than a")
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("verify", help="run every applicable inequality check")
    p.add_argument("--max", type=int, default=None, metavar="N")
    p.add_argument("--cache", default=None, metavar="PATH")
    p.add_argument("--bfile", default=None, metavar="PATH")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("separate",
                       help="emit an exact certificate that two limits differ")
    p.add_argument("--low", default="1,6", metavar="m,t",
                   help="index and doubling step for the lower bound (default 1,6)")
    p.add_argument("--high", default="75,0", metavar="m,t",
                   help="index and doubling step for the upper bound (default 75,0)")
    p.add_argument("--digits", type=int, default=growth.DISPLAY_DIGITS_DEFAULT)
    p.add_argument("--cache", default=None, metavar="PATH")
    p.add_argument("--bfile", default=None, metavar="PATH")
    p.add_argument("--out", default=None, metavar="CERT")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("analyze", help="subsequence points and limit brackets")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--digits", type=int, default=growth.DISPLAY_DIGITS_DEFAULT)
    p.add_argument("--cache", default=None, metavar="PATH")
    p.add_argument("--bfile", default=None, metavar="PATH")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("emit-figure", help="write n, theta(n)^(1/n) data rows")
    p.add_argument("--max", type=int, default=200, metavar="N")
    p.add_argument("--digits", type=int, default=dataio.FIGURE_DIGITS_DEFAULT)
    p.add_argument("--out", default=None, metavar="PATH")
    p.add_argument("--cache", default=None, metavar="PATH")
    p.add_argument("--bfile", default=None, metavar="PATH")
    p.set_defaults(func=cmd_emit_figure)

    p = sub.add_parser("ingest", help="merge a b-file into the count cache")
    p.add_argument("bfile")
    p.add_argument("--cache", default=None, metavar="PATH")
    p.set_defaults(func=cmd_ingest)

    return parser


# One parser per process, built on first use: building it takes tens of
# times longer than a parse, and a parse does not change it.
_parser = functools.cache(build_parser)


def run(command, *args) -> int:
    """command(*args), or the exit status of the error it raises, printed
    to stderr: 1 for a failed mathematical check, 2 for usage and I/O.
    Any other exception propagates."""
    try:
        return command(*args)
    except (ConflictError, ConstructionViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ApfreeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return run(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
