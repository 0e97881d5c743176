"""Permutations in one-line notation and the 3AP test.

A permutation of {1, ..., n} contains a 3AP if some values x, y, z with
x + z = 2y appear at strictly increasing positions i < j < k. Permutations
with no such triple are called 3AP-free. Both the reversal and the value
complement v -> n+1-v preserve 3AP-freeness, since x + z = 2y holds exactly
when (n+1-x) + (n+1-z) = 2(n+1-y).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import NotAPermutation


class APWitness(NamedTuple):
    """1-based positions i < j < k whose values satisfy v_i + v_k = 2 v_j."""

    i: int
    j: int
    k: int


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n}, stored as the tuple of its values.

    Instances are immutable and validated on construction; use ``validate``
    to build one from untrusted input.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        n = len(self.values)
        if n == 0:
            raise NotAPermutation("empty sequence")
        seen = [False] * (n + 1)
        for v in self.values:
            if not isinstance(v, int) or v < 1 or v > n:
                raise NotAPermutation(f"value {v!r} outside 1..{n}")
            if seen[v]:
                raise NotAPermutation(f"duplicate value {v}")
            seen[v] = True

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __str__(self) -> str:
        return format_oneline(self)


def validate(values: Iterable[int]) -> Permutation:
    """Build a Permutation, raising NotAPermutation for invalid input."""
    return Permutation(tuple(values))


def parse_oneline(text: str) -> Permutation:
    """Parse comma-separated one-line notation, e.g. "4,2,1,3".

    Whitespace is rejected rather than stripped, so shell arguments never
    need quoting.
    """
    if not text or any(c not in "0123456789," for c in text):
        raise NotAPermutation(f"not comma-separated integers: {text!r}")
    try:
        values = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise NotAPermutation(f"not comma-separated integers: {text!r}") from None
    return validate(values)


def format_oneline(p: Permutation) -> str:
    return ",".join(str(v) for v in p.values)


def _scan_3ap(values: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """1-based positions (i, j, k) of the lexicographically smallest 3AP in
    a raw value sequence, assumed to be a valid permutation, or None.

    The witness locator for sequences that `values_3ap_free` rejects; it
    stays apart from that test because one walk that does both jobs loses
    the test's early exit and ran over 15 times slower on random
    permutations (ROADMAP, "Quality of design"). For a fixed pair of
    positions (i, j) the completing value 2 v_j - v_i is unique, so
    scanning i, then j, in increasing order and returning the first hit
    yields the smallest witness under (i, j, k) ordering.
    pos[n + w] is the 0-based position of value w, or -1 for any w in
    2-n..2n-1 outside 1..n; its stride-2 slice `row` then maps v to the
    position of 2v - v_i, so the inner loop needs no range test.
    """
    n = len(values)
    pos = [-1] * (3 * n + 1)
    for idx, v in enumerate(values):
        pos[n + v] = idx
    for i in range(n - 2):
        vi = values[i]
        row = pos[n - vi:3 * n + 1 - vi:2]
        for j in range(i + 1, n - 1):
            k = row[values[j]]
            if k > j:
                return i + 1, j + 1, k + 1
    return None


def values_3ap_free(values: Sequence[int]) -> bool:
    """3AP test on a raw value sequence, assumed to be a valid permutation.

    Walks the values left to right with two bitmasks: `after`, the values
    not yet seen, and `refl`, with bit 2n-x for each value x already seen.
    For the value y at the current position, `refl` shifted right by
    2(n-y) has bit 2y-x for each seen x with x < 2y, so a 3AP with middle
    y exists iff that set meets `after`. That is n big-int steps in place
    of a scan over position pairs.
    """
    n = len(values)
    after = (1 << (n + 1)) - 2
    refl = 0
    for y in values:
        after ^= 1 << y
        if refl >> 2 * (n - y) & after:
            return False
        refl |= 1 << 2 * n - y
    return True


def find_3ap(p: Permutation) -> Optional[APWitness]:
    """Return the lexicographically smallest 3AP witness, or None if 3AP-free."""
    if values_3ap_free(p.values):
        return None
    return APWitness(*_scan_3ap(p.values))


def is_3ap_free(p: Permutation) -> bool:
    """True iff the permutation contains no 3AP."""
    return values_3ap_free(p.values)


def reverse(p: Permutation) -> Permutation:
    """The reversed permutation (v_n, ..., v_1)."""
    return Permutation(p.values[::-1])


def complement(p: Permutation) -> Permutation:
    """The value complement (n+1-v_1, ..., n+1-v_n)."""
    n = len(p.values)
    return Permutation(tuple(n + 1 - v for v in p.values))
