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
inserts the values in increasing order into the relative order of those
before them and tests each triple once, when z is inserted, so a triple
already out of order rejects every arrangement that completes that order
with one test. It is the ground truth for small n. Tests compare the
three routes, which share no legality code.

The backtracker keeps its kill masks in one integer, a slot of n+2 bits
per value w with bit 2w - u for each u in the prefix: placing w next
would put w between u and 2w - u, killing that value for good. Placing v
is legal iff slot v misses the values unplaced after it, since a killed
value leaves no completion. Bit n+1 of each slot is a guard, so after
masking every slot with the unplaced set, one subtraction borrows the
guard away from exactly the slots that kill nothing, and one multiply
gathers those clean guards into the set of legal values. A child ORs in
spray[v], so the kill is fixed by the unplaced set, and so is all below
a node. The walk therefore expands each set once, not each ordering,
for floor(n/2) steps. A per-call table gives the completions of a set,
an empty entry for a dead one; by the reversal below, the orderings of
a live half's placed set X are the completions of X placed after the
rest, read backwards, from the same table. Each such prefix is joined
to the completions of the rest.

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
about 0.25 s at 15 MB peak RSS and theta(75) about 0.45 s at 15 MB; the
full-depth DP without pruning took 414 s and 472 MB for theta(64).
"""

from __future__ import annotations

import collections
from itertools import islice
from typing import Iterator

from .errors import OracleRangeExceeded
from .perm import _first_3ap_lane
from .table import PROVENANCE_COMPUTED, ThetaTable

ORACLE_CEILING_DEFAULT = 10


def _check_count_args(n: int) -> None:
    """Reject n < 1 with ValueError."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def count_oracle(n: int, ceiling: int = ORACLE_CEILING_DEFAULT) -> int:
    """Count by deciding all n! arrangements against the value triples.

    The independent cross-check for the other two routes: it uses
    nothing but the definition of a 3AP. An arrangement has a 3AP iff,
    for some value triple x < y < z with x + z = 2y, y sits strictly
    between x and z. `_insert` adds the values 0..n-1 in increasing
    order, each into one of the slots of the relative order of the
    values before it, so each arrangement is built once, as its final
    order. Inserting z tests the triples (z - 2d, z - d, z), whose
    smaller values are already ordered, so a failed triple rejects every
    completion of that order with one test, and the oracle visits one
    node per 3AP-free order of 0..z-1, z <= n.
    Raises OracleRangeExceeded for n above `ceiling` (default 10) to stop
    accidental factorial blowups.
    """
    _check_count_args(n)
    if n > ceiling:
        raise OracleRangeExceeded(
            f"oracle ceiling is {ceiling}, asked for n={n}; "
            f"raise `ceiling` explicitly if you really want this"
        )
    return _insert(0, n, ())


def _insert(z: int, n: int, order: tuple[int, ...]) -> int:
    """The 3AP-free orders of 0..n-1 that keep 0..z-1 in `order`, their
    left-to-right order. q[v] is the rank of v, and slot s puts z after
    the values ranked below s."""
    if z == n:
        return 1
    q = sorted(range(z), key=order.__getitem__)
    total = 0
    for s in range(z + 1):
        for d in range(1, z // 2 + 1):
            y = q[z - d]
            if (q[z - 2 * d] < y) == (y < s):
                break
        else:
            total += _insert(z + 1, n, order[:s] + (z,) + order[s:])
    return total


def free_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every 3AP-free permutation of {1, ..., n} in lexicographic order.

    The first half is computed at the call, n check included. Each step
    maps the unplaced sets it reaches to their kill, so a set is expanded
    once however many orderings reach it. After floor(n/2) steps a set U
    with no completion is dropped. For each other U, the prefixes are the
    completions x of the placed set X after U, reversed (module
    docstring), from the same table. `pairs` keeps each x as the table's
    tuple, unreversed, so at even n, where X is also a live rest, prefixes
    and completions share tuples. It is sorted by x reversed, and `_join`
    yields the permutations from it.
    """
    _check_count_args(n)
    masks = _kill_masks(n)
    spray = masks[0]
    full = (1 << n + 1) - 2
    level = {full: 0}
    for _ in range(n // 2):
        level = {rest: child for unplaced, kill in level.items()
                 for _, rest, child in _children(unplaced, kill, masks)}
    table = {0: ((),)}
    pairs = []
    for unplaced, kill in level.items():
        tails = _completions(unplaced, kill, masks, table)
        if tails:
            back = 0
            for u in range(1, n + 1):
                if unplaced >> u & 1:
                    back |= spray[u]
            pairs += ((x, tails) for x in _completions(full ^ unplaced, back, masks, table))
    pairs.sort(key=lambda pair: pair[0][::-1])
    return _join(pairs)


def _join(pairs: list) -> Iterator[tuple[int, ...]]:
    """Yield x reversed + tail for each (x, tails) pair and each tail, in order."""
    for x, tails in pairs:
        prefix = x[::-1]
        for s in tails:
            yield prefix + s


def _kill_masks(n: int) -> tuple[list[int], int, int, int, int]:
    """(spray, rep, guard, gather, top) for kill slots of n+2 bits.

    spray[v] has bit 2w - v in slot w for each w that placing v makes a
    middle; rep has bit 0 of every slot, guard bit n+1; gather has bit
    j * (n+1) for j = 0..n; top = (n+1)**2 is the bit where `_children`
    collects slot 0's guard.
    """
    stride = n + 2
    spray = [sum(1 << w * stride + 2 * w - v for w in range(v // 2 + 1, (n + v) // 2 + 1))
             for v in range(n + 1)]
    rep = sum(1 << w * stride for w in range(n + 1))
    gather = sum(1 << j * (n + 1) for j in range(n + 1))
    return spray, rep, rep << n + 1, gather, (n + 1) ** 2


def _children(unplaced: int, kill: int, masks: tuple) -> list[tuple[int, int, int]]:
    """(v, the values unplaced after v, the child's kill) for each legal v, low to high.

    `x` is `kill` with every slot masked by `unplaced`. Setting the guard
    and subtracting 1 in every slot borrows the guard away exactly from the
    empty slots, and no borrow leaves its slot, so `clean` keeps the guard
    bit of each slot w that kills nothing, at w * (n+2) + n+1. Times
    `gather`, the term for j = n - w puts it at (n+1)**2 + w; all partial
    products land on distinct bits, so nothing carries. Slot v is tested
    against `unplaced`, not `unplaced` less v: bit v of slot v would need
    2v - u = v for some placed u, so u = v, which is unplaced.
    """
    spray, rep, guard, gather, top = masks
    x = kill & unplaced * rep
    clean = guard & ~((x | guard) - rep)
    legal = (clean * gather >> top) & unplaced
    children = []
    while legal:
        b = legal & -legal
        legal ^= b
        v = b.bit_length() - 1
        children.append((v, unplaced ^ b, kill | spray[v]))
    return children


def _completions(unplaced: int, kill: int, masks: tuple, table: dict) -> tuple:
    """The legal orderings of `unplaced`, lexicographic, stored in `table` on first use."""
    if unplaced not in table:
        table[unplaced] = tuple((v,) + s for v, rest, child in _children(unplaced, kill, masks)
                                for s in _completions(rest, child, masks, table))
    return table[unplaced]


def count_pruned(n: int) -> int:
    """Exact count of 3AP-free permutations of {1, ..., n} by backtracking:
    the number of sequences `free_permutations` yields."""
    return sum(1 for _ in free_permutations(n))


def count_verified(n: int) -> int:
    """Diagnostic mode: enumerate accepted sequences and re-test each one.

    Confirms that the pruning is sound, i.e. everything the counter
    accepts is genuinely 3AP-free, with perm's batch test, which shares
    no code with the backtracker, on 1,024 sequences at a time. Only
    sensible for small n; past n = 63 a sum 2 v_j reaches bit 7 of its
    byte lane, which the batch test reads as its flag.
    """
    if n > 63:
        raise ValueError(f"count_verified needs n <= 63, got {n}")
    walk = free_permutations(n)
    total = 0
    while blob := b"".join(map(bytes, islice(walk, 1024))):
        lane = _first_3ap_lane(blob, n)
        if lane >= 0:
            raise AssertionError("counter accepted a sequence with a 3AP: "
                                 f"{tuple(blob[lane * n:(lane + 1) * n])}")
        total += len(blob) // n
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
