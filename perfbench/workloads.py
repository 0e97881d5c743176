"""Seeded operation lists for the benchmark workloads.

Every workload is closed loop with one client: the next operation starts
when the previous one returns. An operation is a tuple (target, args):
target "cli" runs apfree.cli.main(args); any other target names a public
function "module.function" of the package, called with args. The same
workload and seed always give the same list, byte for byte (see
serialize). Nothing here imports apfree; expected() gives each
operation's reference answer from reference.py.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import reference

WORK = Path("perfbench_out") / "work"
LADDER_CACHE = str(WORK / "count-ladder" / "cache.txt")
WARM_CACHE = str(WORK / "certify-queries" / "cache.txt")
INGEST_CACHE = str(WORK / "certify-queries" / "ingest.txt")
BFILE = str(Path("perfbench") / "data" / "theta.txt")

LADDER = tuple(range(10, 17))
JOBS_LADDER = (14, 15, 16)
JOBS_WORKERS = 2
ORACLE_NS = (8, 9)
VERIFIED_NS = (12, 13)
PERM_LENGTHS = (64, 1000)
PERMS_PER_KIND = 12
DOUBLE_PAIRS = 60
WARM_NS = tuple(range(1, 17))
ORDERS = ("even_block_first", "odd_block_first")
ORDER_FLAGS = {"even_block_first": "even-first", "odd_block_first": "odd-first"}

# certify-queries: request kind -> count per pass (100 in all).
QUERY_MIX = {"separate": 52, "analyze": 12, "verify": 10, "emit-figure": 4,
             "check": 8, "double": 10, "ingest": 4}
SEPARATE_DIGITS = (11, 200)
HEADLINE = ((1, 6), (75, 0))
SEPARATE_ROUNDS = 2
HEADLINE_REPEATS = 20
HEADLINE_JITTER = 3
ANALYZE_MS = (1, 3, 5, 7)
ANALYZE_DIGITS = (11, 50)
VERIFY_MAX = (1, 75)
CHECK_LENGTHS = (8, 64)


def point(n: int) -> tuple[int, int]:
    """(m, t) with m odd and n = m * 2^t."""
    t = (n & -n).bit_length() - 1
    return n >> t, t


def stratified(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k integers from lo..hi, one drawn from each of k equal strata, shuffled.

    Keeps every seed's mix of small and large parameters the same shape,
    so a run's latency quantiles do not swing with the seed.
    """
    width = (hi - lo + 1) / k
    out = [lo + int((i + rng.random()) * width) for i in range(k)]
    rng.shuffle(out)
    return out


def random_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


def free_perm(rng: random.Random, n: int, pool: dict[int, list]) -> tuple[int, ...]:
    """A 3AP-free permutation of 1..n, built by recursive doubling from
    enumerated small ones: evens from a free perm of n//2, odds from one
    of n - n//2, the two blocks in random order."""
    if n in pool:
        return rng.choice(pool[n])
    a = free_perm(rng, n // 2, pool)
    b = free_perm(rng, n - n // 2, pool)
    return reference.doubled(a, b, rng.random() < 0.5)


def small_pool() -> dict[int, list]:
    return {k: reference.free_perms(k) for k in range(1, 8)}


def oneline(values) -> str:
    return ",".join(map(str, values))


def separate_argv(low: tuple[int, int], high: tuple[int, int], digits: int) -> tuple:
    return ("separate", "--low", "%d,%d" % low, "--high", "%d,%d" % high,
            "--digits", str(digits), "--cache", WARM_CACHE)


def analyze_argv(m: int, digits: int) -> tuple:
    return ("analyze", "--m", str(m), "--digits", str(digits), "--cache", WARM_CACHE)


def verify_argv(n: int) -> tuple:
    return ("verify", "--max", str(n), "--cache", WARM_CACHE)


EMIT_ARGV = ("emit-figure", "--max", "16", "--cache", WARM_CACHE)
INGEST_ARGV = ("ingest", BFILE, "--cache", INGEST_CACHE)


def golden_requests() -> list[tuple]:
    """Every certify-queries request whose answer data/golden.json pins."""
    reqs = [analyze_argv(m, d) for m in ANALYZE_MS
            for d in range(ANALYZE_DIGITS[0], ANALYZE_DIGITS[1] + 1)]
    reqs += [verify_argv(n) for n in range(VERIFY_MAX[0], VERIFY_MAX[1] + 1)]
    return reqs + [EMIT_ARGV, INGEST_ARGV]


def count_ladder(rng: random.Random) -> list:
    ns = list(LADDER)
    rng.shuffle(ns)
    return [("cli", ("count", str(n), "--cache", LADDER_CACHE)) for n in ns]


def count_jobs(rng: random.Random) -> list:
    ns = list(JOBS_LADDER)
    rng.shuffle(ns)
    return [("cli", ("count", str(n), "--jobs", str(JOBS_WORKERS))) for n in ns]


def crosscheck(rng: random.Random) -> list:
    pool = small_pool()
    ops = [("counting.count_oracle", (n,)) for n in ORACLE_NS]
    ops += [("counting.count_verified", (n,)) for n in VERIFIED_NS]
    perms = [random_perm(rng, n) for n in stratified(rng, *PERM_LENGTHS, PERMS_PER_KIND)]
    perms += [free_perm(rng, n, pool) for n in stratified(rng, *PERM_LENGTHS, PERMS_PER_KIND)]
    for p in perms:
        ops.append(("perm.find_3ap", (p,)))
        ops.append(("perm.is_3ap_free", (p,)))
    for k in stratified(rng, 3, 7, DOUBLE_PAIRS):
        ops.append(("doubling.double",
                    (rng.choice(pool[k]), rng.choice(pool[k]), rng.choice(ORDERS))))
    for k in stratified(rng, 3, 6, DOUBLE_PAIRS):
        ops.append(("doubling.double_odd",
                    (rng.choice(pool[k]), rng.choice(pool[k + 1]), rng.choice(ORDERS))))
    rng.shuffle(ops)
    return ops


def certify_queries(rng: random.Random) -> list:
    pool = small_pool()
    ops = []
    # Every point with n <= 16 is the heavier end of SEPARATE_ROUNDS pairs,
    # with a seeded lighter partner and orientation; all of these fail to
    # separate (exit 1) and cost a few milliseconds. The headline pair
    # (n = 64 against n = 75), the one that separates, is asked for at
    # HEADLINE_REPEATS digit counts spread evenly over the range: these are
    # the costly requests, and there are enough of them that op_tail_ms
    # always falls among them rather than on the seeded pairs.
    small = [point(n) for n in WARM_NS]
    pairs = []
    for _ in range(SEPARATE_ROUNDS):
        for i, p in enumerate(small):
            partner = small[rng.randrange(i)] if i else small[1]
            pairs.append((p, partner) if rng.random() < 0.5 else (partner, p))
    for (low, high), digits in zip(pairs, stratified(rng, *SEPARATE_DIGITS, len(pairs))):
        ops.append(("cli", separate_argv(low, high, digits)))
    lo, hi = SEPARATE_DIGITS
    step = (hi - lo) / (HEADLINE_REPEATS - 1)
    for i in range(HEADLINE_REPEATS):
        digits = round(lo + i * step) + rng.randint(-HEADLINE_JITTER, HEADLINE_JITTER)
        ops.append(("cli", separate_argv(*HEADLINE, min(hi, max(lo, digits)))))
    # m = 1 reaches n = 64, so it is the costly one; each m gets low, middle
    # and high digit counts alike.
    for m in ANALYZE_MS:
        for digits in stratified(rng, *ANALYZE_DIGITS, QUERY_MIX["analyze"] // len(ANALYZE_MS)):
            ops.append(("cli", analyze_argv(m, digits)))
    for n in stratified(rng, *VERIFY_MAX, QUERY_MIX["verify"]):
        ops.append(("cli", verify_argv(n)))
    ops += [("cli", EMIT_ARGV)] * QUERY_MIX["emit-figure"]
    for i, n in enumerate(stratified(rng, *CHECK_LENGTHS, QUERY_MIX["check"])):
        p = free_perm(rng, n, pool) if i % 2 else random_perm(rng, n)
        ops.append(("cli", ("check", oneline(p))))
    for i, kk in enumerate(stratified(rng, 3, 6, QUERY_MIX["double"])):
        odd = i % 2 == 1
        argv = ("double", oneline(rng.choice(pool[kk])),
                oneline(rng.choice(pool[kk + 1 if odd else kk])),
                "--order", ORDER_FLAGS[rng.choice(ORDERS)])
        ops.append(("cli", argv + (("--odd",) if odd else ())))
    ops += [("cli", INGEST_ARGV)] * QUERY_MIX["ingest"]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "count-ladder": count_ladder,
    "count-jobs": count_jobs,
    "crosscheck": crosscheck,
    "certify-queries": certify_queries,
}

PARAMS = {
    "count-ladder": {"ladder": list(LADDER), "workers": 1, "cache": "empty at pass start"},
    "count-jobs": {"ladder": list(JOBS_LADDER), "workers": JOBS_WORKERS},
    "crosscheck": {"oracle_n": list(ORACLE_NS), "verified_n": list(VERIFIED_NS),
                   "perm_lengths": list(PERM_LENGTHS), "perms_per_kind": PERMS_PER_KIND,
                   "double_pairs": DOUBLE_PAIRS, "workers": 1},
    "certify-queries": {"mix": QUERY_MIX, "warm_cache_n": [WARM_NS[0], WARM_NS[-1]],
                        "workers": 1},
}


def build(name: str, seed: int) -> list:
    """The workload's operation list for this seed."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


def serialize(ops: list) -> str:
    return json.dumps(ops, separators=(",", ":"))


def prepare(name: str) -> None:
    """Files a workload's operations expect before its first pass: for
    certify-queries, the warm cache, theta(1..16) from the reference file."""
    (WORK / name).mkdir(parents=True, exist_ok=True)
    if name == "certify-queries":
        with open(WARM_CACHE, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{n} {reference.THETA[n]}\n" for n in WARM_NS)


def before_pass(name: str) -> None:
    if name == "count-ladder":
        for path in (LADDER_CACHE, LADDER_CACHE + ".provenance"):
            Path(path).unlink(missing_ok=True)


def before_op(op) -> None:
    """Ingest always starts from a fresh copy of the warm cache."""
    target, args = op
    if target == "cli" and args[0] == "ingest":
        shutil.copyfile(WARM_CACHE, INGEST_CACHE)
        Path(INGEST_CACHE + ".provenance").unlink(missing_ok=True)


def golden_key(args) -> str:
    return " ".join(args)


def expected(op, golden: dict):
    """Reference answer: (exit status, stdout sha256) for CLI requests, the
    plain return value (ints, tuples, None, bools) for function calls."""
    target, args = op
    theta = reference.THETA
    if target == "cli":
        cmd = args[0]
        if cmd == "count":
            status, text = 0, f"{theta[int(args[1])]}\n"
        elif cmd == "separate":
            low = tuple(map(int, args[2].split(",")))
            high = tuple(map(int, args[4].split(",")))
            status, text = reference.certificate(low, high, int(args[6]))
        elif cmd == "check":
            status, text = reference.check_text(tuple(map(int, args[1].split(","))))
        elif cmd == "double":
            a = tuple(map(int, args[1].split(",")))
            b = tuple(map(int, args[2].split(",")))
            status, text = 0, oneline(reference.doubled(a, b, args[4] == "even-first")) + "\n"
        else:
            return tuple(golden[golden_key(args)])
        return status, reference.digest(text)
    if target in ("counting.count_oracle", "counting.count_verified"):
        return theta[args[0]]
    if target == "perm.find_3ap":
        return reference.find_3ap(args[0])
    if target == "perm.is_3ap_free":
        return reference.find_3ap(args[0]) is None
    if target in ("doubling.double", "doubling.double_odd"):
        a, b, order = args
        return reference.doubled(a, b, order == "even_block_first")
    raise ValueError(f"no reference for {target}")


def materialize(ops: list, permutation) -> list:
    """Call arguments for each operation, with raw value tuples turned into
    the package's Permutation objects (`permutation` is that class)."""
    out = []
    for target, args in ops:
        if target.startswith(("perm.", "doubling.")):
            args = tuple(permutation(a) if isinstance(a, tuple) else a for a in args)
        out.append(args)
    return out
