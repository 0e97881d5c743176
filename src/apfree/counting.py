"""Exact counting of 3AP-free permutations.

Three independent routes are provided. The subset DP is the default: it
sums path counts over the *sets* of values placed so far and recomputes
the builtin theta(64) and theta(75) from first principles. The
backtracker builds permutations left to right and never extends a prefix
with a value that would close a 3AP as the rightmost element, so every
sequence it completes is 3AP-free by construction and none is missed;
`free_permutations` yields those sequences and `count_pruned` counts
them. The oracle decides all n! arrangements against the value triples
x < y < z with x + z = 2y, asking whether y sits between x and z; it
gives positions to the values in increasing order and tests each triple
once, when z gets its position, so a triple already out of order
rejects the whole block of arrangements that complete the placed values
with one test. It is the ground truth for small n. Tests compare the
three routes, which share no legality code.

The backtracker keeps its kill masks in one integer, a slot of n+1 bits
per value w with bit 2w - u for each u in the prefix: placing w next
would put w between u and 2w - u, killing that value for good. Placing v
is legal iff slot v misses the values unplaced after it, since a killed
value leaves no completion. A child ORs in spray[v], so the unplaced set
fixes all below a node, and with ceil(n/2) values left a per-call table
gives its completions, an empty entry for a dead set.

So every surviving prefix kills no unplaced value, and the number of
ways to finish a prefix depends only on which values it holds, not
on their order. The DP exploits this: placing v after the set P is legal
iff no u in P has 2v - u still unplaced, and f(P), the number of legal
orderings of P, is the sum over its legal last values. Three more facts
make it fast.

Reversal. Let U = [n] minus P. An ordering of U completes P iff no y in
it has some x before it (in P or earlier in the ordering) and 2y - x
after it. Read backwards, the same ordering has no y with some z before
it and 2y - z after it or in P, which is exactly a legal ordering of U
placed from scratch. So the completions of P are f(U) in number, and
theta(n) is the sum of f(P) * f(U) over the k-sets P, for every k. The
DP builds levels 0..ceil(n/2) only and takes k = floor(n/2), looking
each complement up in level ceil(n/2).

Dead states. Call P dead when it has no completion, and split when it
holds the ends a and a+3d of a four-term AP but neither middle value. A
split P is dead: a precedes both middles, so a+2d must come before a+d,
and a+3d precedes both, so a+d must come before a+2d. A split set has
no unsplit legal child, since placing a+d kills a+2d and vice versa.
So every legal parent of an unsplit set is unsplit, and when placing v
splits an unsplit parent, v is an end of the AP. The DP drops exactly
those children, in whatever order it reaches them, so it keeps the
reachable unsplit sets, each with its unpruned count. The meet loses
nothing: if P or its complement is split, f(P) * f([n] minus P) is 0,
as each factor counts the completions of the other set. At n = 24 the
unpruned levels 0..12 hold 27,066 states, 659 of them live, and the DP
keeps 1,636, as 822 keys (next paragraph).

Mirrors. x -> n+1-x keeps a permutation 3AP-free, so P and its mirror
R(P) = {n+1-u : u in P} have the same f, and one is dead iff the other
is. Each level keeps one key per mirror pair, the smaller bitmask.

On one core of a 2-vCPU Intel Xeon with Python 3.11.7, theta(64) takes
0.4 s at 16 MB peak RSS and theta(75) 0.7 s at 16 MB; the full-depth
DP without pruning took 414 s and 472 MB for theta(64).
"""

from __future__ import annotations

import collections
from typing import Iterator

from .errors import OracleRangeExceeded
from .perm import values_3ap_free
from .table import PROVENANCE_COMPUTED, ThetaTable

ORACLE_CEILING_DEFAULT = 10


def _check_count_args(n: int) -> None:
    """Reject n < 1 with ValueError."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def count_oracle(n: int, ceiling: int = ORACLE_CEILING_DEFAULT) -> int:
    """Count by deciding all n! arrangements against the value triples.

    The independent cross-check for the other two routes: it uses
    nothing but the definition of a 3AP. It fills a position list q,
    where q[v] is the position of value v (values and positions both
    0-based). Inversion is a bijection on S_n, so counting the qualifying
    q counts the 3AP-free permutations. An arrangement has a 3AP iff, for
    some value triple x < y < z with x + z = 2y, y sits strictly between
    x and z, i.e. (q[x] < q[y]) == (q[y] < q[z]). `place` gives value z
    each free position in turn and tests the triples (z - 2d, z - d, z),
    whose smaller values are already placed, so a failed triple rejects
    all (n - z - 1)! arrangements that complete q[0..z] with one test.
    Raises OracleRangeExceeded for n above `ceiling` (default 10) to stop
    accidental factorial blowups.
    """
    _check_count_args(n)
    if n > ceiling:
        raise OracleRangeExceeded(
            f"oracle ceiling is {ceiling}, asked for n={n}; "
            f"raise `ceiling` explicitly if you really want this"
        )
    q = [0] * n

    def place(z: int, free: tuple[int, ...]) -> int:
        if z == n:
            return 1
        total = 0
        for i, p in enumerate(free):
            for d in range(1, z // 2 + 1):
                y = q[z - d]
                if (q[z - 2 * d] < y) == (y < p):
                    break
            else:
                q[z] = p
                total += place(z + 1, free[:i] + free[i + 1:])
        return total

    return place(0, tuple(range(n)))


def free_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every 3AP-free permutation of {1, ..., n} in lexicographic order.

    `level` chains one lazy step per value placed, up to floor(n/2); each
    prefix is joined to the completions of the rest. n is checked at once.
    """
    _check_count_args(n)
    spray = [sum(1 << w * (n + 1) + 2 * w - v for w in range(v // 2 + 1, (n + v) // 2 + 1))
             for v in range(n + 1)]
    level = [((), (1 << n + 1) - 2, 0)]
    for _ in range(n // 2):
        level = ((prefix + (v,), rest, child) for prefix, unplaced, kill in level
                 for v, rest, child in _children(unplaced, kill, spray))
    table = {0: ((),)}
    return (prefix + s for prefix, unplaced, kill in level
            for s in _completions(unplaced, kill, spray, table))


def _children(unplaced: int, kill: int, spray: list[int]) -> list[tuple[int, int, int]]:
    """(v, the values unplaced after v, the child's kill) for each legal v, low to high."""
    stride = len(spray)
    children = []
    m = unplaced
    while m:
        b = m & -m
        m ^= b
        v = b.bit_length() - 1
        if not kill >> v * stride & (rest := unplaced ^ b):
            children.append((v, rest, kill | spray[v]))
    return children


def _completions(unplaced: int, kill: int, spray: list[int], table: dict) -> tuple:
    """The legal orderings of `unplaced`, lexicographic, stored in `table` on first use."""
    if unplaced not in table:
        table[unplaced] = tuple((v,) + s for v, rest, child in _children(unplaced, kill, spray)
                                for s in _completions(rest, child, spray, table))
    return table[unplaced]


def count_pruned(n: int) -> int:
    """Exact count of 3AP-free permutations of {1, ..., n} by backtracking:
    the number of sequences `free_permutations` yields."""
    return sum(1 for _ in free_permutations(n))


def count_verified(n: int) -> int:
    """Diagnostic mode: enumerate accepted sequences and re-test each one.

    Confirms that the pruning is sound, i.e. everything the counter
    accepts is genuinely 3AP-free, with perm's bitset test, which shares
    no code with the backtracker. Only sensible for small n.
    """
    total = 0
    for p in free_permutations(n):
        if not values_3ap_free(p):
            raise AssertionError(f"counter accepted a sequence with a 3AP: {p}")
        total += 1
    return total


def _dp_levels(n: int) -> Iterator[tuple[dict[int, int], dict[int, int]]]:
    """Yield (level k, reflections) for k = 0..ceil(n/2).

    Level k maps the smaller key P of each mirror pair of k-sets to its
    legal orderings, and the reflections map P to R(P), bit n+1-u for
    each u in P; a child P | 1 << v has R | 1 << (n+1-v). R shifted left
    by 2v-n-1 is {2v-u : u in P}, the values that placing v after P
    would kill, so placing v is legal iff that set misses every unplaced
    value. Expanding P stands for R(P) too, whose children mirror P's:
    a child's paths go to the smaller of it and its mirror, a self-mirror
    child gets them from both P and R(P), and a self-mirror P skips the
    children whose mirror is smaller, which the same step reaches.

    A child new to its level is kept unless placing v split it (module
    docstring): `ends[v]` pairs the mask of v+d, v+2d and v+3d with the
    bit of v+3d for each d != 0, and the child is split at v iff the
    parent holds v+3d but neither middle value. Every legal parent of a
    kept state is kept, so its count is unpruned.
    """
    full = (1 << (n + 1)) - 2
    offset = n + 3  # shift = 2v - n - 1, where b = 1 << v has bit_length v + 1
    ends = [[(1 << v + d | 1 << v + 2 * d | 1 << v + 3 * d, 1 << v + 3 * d)
             for d in range(-((v - 1) // 3), (n - v) // 3 + 1) if d]
            for v in range(n + 1)]
    level = {0: 1}
    refls = {0: 0}
    yield level, refls
    for _ in range((n + 1) // 2):
        nxt: dict[int, int] = {}
        nrefls: dict[int, int] = {}
        for placed, paths in level.items():
            refl = refls[placed]
            symmetric = refl == placed
            unplaced = full ^ placed
            m = unplaced
            while m:
                b = m & -m
                m ^= b
                shift = 2 * b.bit_length() - offset
                if (refl << shift if shift >= 0 else refl >> -shift) & unplaced:
                    continue
                v = b.bit_length() - 1
                key = placed | b
                mirror = refl | 1 << (n + 1 - v)
                gain = paths
                if mirror < key:
                    if symmetric:
                        continue
                    key, mirror = mirror, key
                elif mirror == key and not symmetric:
                    gain = 2 * paths
                if key in nxt:
                    nxt[key] += gain
                else:
                    for mask, end in ends[v]:
                        if placed & mask == end:
                            break
                    else:
                        nxt[key] = gain
                        nrefls[key] = mirror
        level, refls = nxt, nrefls
        yield level, refls


def count_dp(n: int) -> int:
    """Exact count of 3AP-free permutations of {1, ..., n} by subset DP.

    Meets in the middle: theta(n) is the sum of f(P) * f([n] minus P)
    over the k-sets P, k = floor(n/2), where f is a state's path count
    and a complement missing from level ceil(n/2) is dead. R maps P's
    complement to R(P)'s, so P and R(P) add the same term: a key counts
    twice unless it is its own mirror, and its complement's key is the
    smaller of full ^ P and full ^ R(P).
    """
    _check_count_args(n)
    levels = collections.deque(_dp_levels(n), maxlen=2)
    (half, half_refls), (top, _) = levels[-1 - n % 2], levels[-1]
    full = (1 << (n + 1)) - 2
    total = 0
    for placed, paths in half.items():
        refl = half_refls[placed]
        if refl != placed:
            paths *= 2
        total += paths * top.get(min(full ^ placed, full ^ refl), 0)
    return total


def theta(n: int, tbl: ThetaTable) -> int:
    """Exact count for n from the table, computing it on a miss.

    A miss runs the subset DP and stores the result with provenance
    "computed"; it writes no file, so a caller that holds a cache path
    saves the table itself. `tbl.value(n)` is the lookup that never
    computes.
    """
    value = tbl.get(n)
    if value is None:
        value = count_dp(n)
        tbl.insert(n, value, PROVENANCE_COMPUTED)
    return value
