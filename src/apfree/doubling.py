"""Combining maps that build large 3AP-free permutations from small ones.

Given 3AP-free permutations a and b of {1, ..., k}, the even block
(2a_1, ..., 2a_k) and the odd block (2b_1 - 1, ..., 2b_k - 1) concatenated
in either order form a 3AP-free permutation of {1, ..., 2k}: a progression
with endpoints of mixed parity has an odd sum, and one with endpoints in
the same block needs its middle value either inside that block (pulling
back to a 3AP in a or b) or in the other block, which lies entirely
outside the endpoints' position range.

The odd-length variant places n even values from a permutation of
{1, ..., n} and n+1 odd values from a permutation of {1, ..., n+1}. The
same parity argument applies, but since this map is not part of the
package's trusted core it re-checks every output and fails loudly rather
than ever returning an unverified witness.
"""

from __future__ import annotations

from .errors import ConstructionViolation, InputNot3APFree, LengthMismatch
from .perm import Permutation, is_3ap_free

EVEN_BLOCK_FIRST = "even_block_first"
ODD_BLOCK_FIRST = "odd_block_first"
ORDERS = (EVEN_BLOCK_FIRST, ODD_BLOCK_FIRST)


def _combine(a: Permutation, b: Permutation, order: str, extra: int) -> Permutation:
    """Check `order`, |b| = |a| + extra and both inputs, then concatenate
    the even block (2a_1, 2a_2, ...) and the odd block (2b_1 - 1, ...) in
    the given order. Inputs are re-checked: the guarantee on the output is
    conditional on 3AP-free inputs, so trusting callers here could forge
    witnesses."""
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {order!r}")
    if len(b) != len(a) + extra:
        raise LengthMismatch(f"b must have length {len(a) + extra} to pair "
                             f"with a of length {len(a)}, got {len(b)}")
    for p, label in ((a, "a"), (b, "b")):
        if not is_3ap_free(p):
            raise InputNot3APFree(f"input {label} contains a 3AP: {p}")
    evens = tuple(2 * v for v in a.values)
    odds = tuple(2 * v - 1 for v in b.values)
    return Permutation(evens + odds if order == EVEN_BLOCK_FIRST else odds + evens)


def double(a: Permutation, b: Permutation,
           order: str = EVEN_BLOCK_FIRST) -> Permutation:
    """Combine two 3AP-free permutations of {1, ..., k} into one of {1, ..., 2k}.

    a supplies the even values (doubled), b the odd values (doubled minus
    one); `order` picks which block comes first.
    """
    return _combine(a, b, order, 0)


def double_odd(a: Permutation, b: Permutation,
               order: str = EVEN_BLOCK_FIRST) -> Permutation:
    """Odd-length analogue: |a| = n evens and |b| = n+1 odds give 2n+1 values.

    The output is verified to be 3AP-free; a failure raises
    ConstructionViolation instead of returning a bad witness.
    """
    result = _combine(a, b, order, 1)
    if not is_3ap_free(result):
        raise ConstructionViolation(
            f"odd doubling of {a} and {b} produced a 3AP: {result}"
        )
    return result
