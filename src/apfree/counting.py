"""Exact counting of 3AP-free permutations.

Three independent routes are provided. The subset DP is the default: it
sums path counts over the *sets* of values placed so far and reaches
n = 64 from first principles. The backtracker builds permutations left
to right and never extends a prefix with a value that would close a 3AP
as the rightmost element, so every sequence it completes is 3AP-free by
construction and none is missed; `free_permutations` yields those
sequences and `count_pruned` counts them. The oracle enumerates all n!
permutations and filters with the quadratic 3AP test; it is the ground
truth for small n. Tests compare the three routes, which share no
legality code.

The backtracker's pruning state is a bitmask of still-placeable values.
Once a pair (u at position i, w at position j > i) exists, the value
2w - u is dead for every later position, so the allowed set only shrinks
along a search path and can be passed down functionally. Branches whose
allowed set is already smaller than the number of open positions are
abandoned early; this does not change the count, since such branches
admit no completion.

That prune fires exactly when some unplaced value is dead, so on every
surviving path the allowed set equals the unplaced set, and the number
of ways to finish a prefix depends only on which values it holds, not
on their order. The DP exploits this: placing v after the set P is legal
iff no u in P has 2v - u still unplaced, and the number of legal
orderings of P is the sum over its legal last values.

`count_dp(n, node_budget)` and `count_pruned(n, node_budget)` take
nothing else: both run in one process, and the optional budget is a
global cap on work (DP states expanded, or permutations counted) whose
exhaustion raises ResourceLimitExceeded, so a count is exact or absent.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from . import dataio
from .errors import OracleRangeExceeded, ResourceLimitExceeded, ValueUnavailable
from .perm import values_3ap_free
from .table import PROVENANCE_COMPUTED, ThetaTable

ORACLE_CEILING_DEFAULT = 10

POLICY_LOOKUP_ONLY = "lookup_only"
POLICY_COMPUTE_IF_MISSING = "compute_if_missing"


def _check_count_args(n: int, node_budget: Optional[int]) -> None:
    """Reject n < 1 and a negative node budget with ValueError."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node_budget must be >= 0, got {node_budget}")


def count_oracle(n: int, ceiling: int = ORACLE_CEILING_DEFAULT) -> int:
    """Count by enumerating all n! permutations and filtering.

    Deliberately brute force; serves as the independent cross-check for
    the other two routes. Raises OracleRangeExceeded for n above `ceiling`
    (default 10) to stop accidental factorial blowups.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > ceiling:
        raise OracleRangeExceeded(
            f"oracle ceiling is {ceiling}, asked for n={n}; "
            f"raise `ceiling` explicitly if you really want this"
        )
    return sum(1 for p in itertools.permutations(range(1, n + 1))
               if values_3ap_free(p))


def _blocked_mask(n: int, prefix: tuple[int, ...], v: int) -> int:
    """Values that placing v after `prefix` kills for all later positions."""
    fm = 0
    for u in prefix:
        w = 2 * v - u
        if 0 < w <= n:
            fm |= 1 << w
    return fm


def _enumerate_free(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every 3AP-free permutation of {1, ..., n} in lexicographic order.

    `extend` yields the completions of `prefix`, where `allowed` is the
    bitmask of values that may still follow it.
    """

    def extend(prefix: tuple[int, ...], allowed: int) -> Iterator[tuple[int, ...]]:
        t = len(prefix)
        if t == n:
            yield prefix
            return
        need = n - t - 1
        m = allowed
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            child = (allowed ^ b) & ~_blocked_mask(n, prefix, v)
            if child.bit_count() >= need:
                yield from extend(prefix + (v,), child)

    return extend((), (1 << (n + 1)) - 2)


def free_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every 3AP-free permutation of {1, ..., n} in lexicographic order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _enumerate_free(n)


def count_pruned(n: int, node_budget: Optional[int] = None) -> int:
    """Exact count of 3AP-free permutations of {1, ..., n} by backtracking.

    Counts what `free_permutations` yields. node_budget, if set, must be
    >= 0 and caps the number of permutations counted; exhausting it is a
    hard ResourceLimitExceeded, never a truncated count.
    """
    _check_count_args(n, node_budget)
    total = 0
    for _ in _enumerate_free(n):
        total += 1
        if node_budget is not None and total > node_budget:
            raise ResourceLimitExceeded(
                f"node budget of {node_budget} permutations exhausted")
    return total


def count_verified(n: int) -> int:
    """Diagnostic mode: enumerate accepted sequences and re-test each one.

    Confirms that the pruning is sound, i.e. everything the counter
    accepts is genuinely 3AP-free. Only sensible for small n.
    """
    total = 0
    for p in free_permutations(n):
        if not values_3ap_free(p):
            raise AssertionError(f"counter accepted a sequence with a 3AP: {p}")
        total += 1
    return total


def _dp_levels(n: int) -> Iterator[dict[int, int]]:
    """Yield level k = {P: legal orderings of P} over k-sets P, k = 0..n.

    P is a bitmask with bit v set for each placed value v. Its reflection
    R (bit n+1-u for each u in P) shifted left by 2v-n-1 is the set
    {2v-u : u in P}, the values that placing v after P would kill, so
    placing v is legal iff that set misses every unplaced value.
    """
    full = (1 << (n + 1)) - 2
    width = n + 2
    offset = n + 3  # shift = 2v - n - 1, where b = 1 << v has bit_length v + 1
    level = {0: 1}
    yield level
    for _ in range(n):
        nxt: dict[int, int] = {}
        get = nxt.get
        for placed, paths in level.items():
            refl = int(format(placed, f"0{width}b")[::-1], 2)
            unplaced = full ^ placed
            m = unplaced
            while m:
                b = m & -m
                m ^= b
                shift = 2 * b.bit_length() - offset
                killed = refl << shift if shift >= 0 else refl >> -shift
                if not killed & unplaced:
                    key = placed | b
                    nxt[key] = get(key, 0) + paths
        level = nxt
        yield level


def count_dp(n: int, node_budget: Optional[int] = None) -> int:
    """Exact count of 3AP-free permutations of {1, ..., n} by subset DP.

    Sums path counts over placed-value sets level by level, holding only
    the level being expanded and the one being built. node_budget, if
    set, must be >= 0 and caps the total number of states expanded;
    exhausting it is a hard ResourceLimitExceeded, never a truncated count.
    """
    _check_count_args(n, node_budget)
    levels = _dp_levels(n)
    expanded = 0
    for _ in range(n):
        expanded += len(next(levels))
        if node_budget is not None and expanded > node_budget:
            raise ResourceLimitExceeded(
                f"node budget of {node_budget} DP states exhausted")
    return sum(next(levels).values())


def _record_computed(tbl: ThetaTable, n: int, value: int) -> None:
    """Insert a computed count, then save the table to its cache path if
    it has one and the entry is new. A disagreeing entry raises
    ConflictError before anything is written."""
    if tbl.insert(n, value, PROVENANCE_COMPUTED) and tbl.cache_path is not None:
        dataio.save_table(tbl, tbl.cache_path)


def theta(n: int, tbl: ThetaTable, policy: str = POLICY_LOOKUP_ONLY) -> int:
    """Exact count for n from the table, optionally computing on a miss.

    Under compute_if_missing the subset DP runs, the result is
    stored with provenance "computed", and the table is persisted to its
    cache path when it has one.
    """
    if policy not in (POLICY_LOOKUP_ONLY, POLICY_COMPUTE_IF_MISSING):
        raise ValueError(f"unknown policy {policy!r}")
    e = tbl.entry(n)
    if e is not None:
        return e.value
    if policy == POLICY_LOOKUP_ONLY:
        raise ValueUnavailable(f"no count for n={n} and policy is lookup_only")
    value = count_dp(n)
    _record_computed(tbl, n, value)
    return value
