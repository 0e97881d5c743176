"""Integer nth roots and decimal root rendering with exact brackets.

Every decimal printed by this package comes from integer arithmetic: the
scaled approximation of R^(1/r) is an integer nth root, and its quality is
certified by comparing integer powers, never by floating point. The integer
root is a guess, one exact check, then one descent from above. A float
seeds the guess, which climbs a ladder of precisions that roughly doubles
at each level, with one Newton step per level on a power truncated to that
level's precision. One exact t**(r-1) and the binomial bound (t+1)**r -
t**r >= r*t**(r-1) check the guess t; a guess that fails starts a Newton
descent from above that stops at the floor root, so the guess sets only
how long the root takes, never its value.
"""

from __future__ import annotations

import math
from typing import NamedTuple

ROUND_FLOOR = "floor"
ROUND_NEAREST = "nearest"

# The lowest level of the guess's ladder holds at most this many root bits,
# well within what a double's 53-bit mantissa gets right.
_SEED_BITS = 40


def nth_root_floor(x: int, r: int) -> int:
    """Largest integer t with t**r <= x: a guess, one exact check, then a
    Newton descent from above if the check fails.

    `_root_guess` gives t. With q = t**(r-1) and p = q*t, both exact, t
    is the floor root when p <= x and (t+1)**r > x, which holds whenever
    x - p < r*q, since (t+1)**r - t**r >= r*t**(r-1); only when that
    test fails is (t+1)**r computed. Any other t moves above the root: if
    p <= x, to the smaller of 1 << bits, as the root has at most `bits`
    bits, and t + d with d = (x - p) // (r*q) + 1, as (t+d)**r >= p +
    d*r*q > x. While p = t**r > x, Newton steps to ((r-1)*t + x*t // p)
    // r, where x*t // p is x // t**(r-1). By AM-GM, (r-1)*t + x/t**(r-1)
    >= r * x**(1/r), and the floors keep the step at or above the floor
    root, while p > x makes it drop below t. So the descent stops at the
    floor root: a wrong guess costs time, never a wrong root.
    """
    if r < 1:
        raise ValueError(f"root degree must be >= 1, got {r}")
    if x < 0:
        raise ValueError(f"radicand must be >= 0, got {x}")
    if r == 1 or x in (0, 1):
        return x
    t = _root_guess(x, r)
    q = t ** (r - 1)
    p = q * t
    if p <= x:
        if x - p < r * q or (t + 1) ** r > x:
            return t
        bits = -(-x.bit_length() // r)
        t = min(t + (x - p) // (r * q) + 1, 1 << bits)
        p = t ** r
    while p > x:
        t = ((r - 1) * t + x * t // p) // r
        p = t ** r
    return t


def _root_guess(x: int, r: int) -> int:
    """An estimate, at least 1, of the floor rth root of x >= 2 for r >= 2.

    The root is below 2**bits. Level b approximates the root scaled by
    2**(b - bits), which is the root of x * 2**(r*(b - bits)); the top
    level is b = bits + guard, so it carries guard bits below the root's
    units, and each lower level holds about half as many bits plus half
    the guard. A float gives the lowest level, and each level above it
    takes the level below shifted into place and one Newton step,
    ((r-1)*g + X // g**(r-1)) // r, with g**(r-1) truncated to b + guard
    bits. guard = r.bit_length() + 4 absorbs the truncation, which grows
    with r, and the step's quadratic error, so one step per level keeps
    the top level within about a unit of its root.
    """
    bits = -(-x.bit_length() // r)
    guard = r.bit_length() + 4
    levels = [bits + guard]
    while levels[-1] > max(_SEED_BITS, guard + 2):
        levels.append((levels[-1] + guard + 1) // 2)
    b = levels.pop()
    # x = top * 2**drop + rest with top below 2**53; the scaled root of
    # top * 2**(a*r + c) is 2**a * (top * 2**c)**(1/r), with 0 <= c < r.
    drop = max(x.bit_length() - 53, 0)
    a, c = divmod(drop + r * (b - bits), r)
    g = int(math.ldexp(2.0 ** ((math.log2(x >> drop) + c) / r), a))
    for level in reversed(levels):
        g <<= level - b
        b = level
        m, e = _truncated_power(g, r - 1, b + guard)
        shift = r * (b - bits) - e  # X // (m * 2**e) is (x << shift) // m
        g = ((r - 1) * g + (x << shift if shift >= 0 else x >> -shift) // m) // r
    return max(g >> guard, 1)


def _truncated_power(g: int, k: int, prec: int) -> tuple[int, int]:
    """(m, e) with m * 2**e <= g**k, by binary powering that keeps only
    the top `prec` bits of each product and counts the dropped bits in e.

    Each cut loses less than a factor 1 - 2**(1 - prec). A cut in the
    product is not raised again, and one in the jth square reaches the
    result raised to at most k / 2**j, so m * 2**e is within a factor
    (1 - 2**(1 - prec))**(2*k) of g**k.
    """
    m, e, base_e = 1, 0, 0
    while True:
        if k & 1:
            m *= g
            e += base_e
            cut = max(m.bit_length() - prec, 0)
            m >>= cut
            e += cut
        k >>= 1
        if not k:
            return m, e
        g *= g
        base_e *= 2
        cut = max(g.bit_length() - prec, 0)
        g >>= cut
        base_e += cut


def decimal_text(v: int) -> str:
    """str(v) for a non-negative int, also past the interpreter's limit on
    int/str conversion (4300 digits by default): such a value is split at
    a power of ten into halves that are each converted the same way."""
    try:
        return str(v)
    except ValueError:
        pass
    k = v.bit_length() * 3 // 20  # about half the decimal digits of v
    hi, lo = divmod(v, 10 ** k)
    return decimal_text(hi) + decimal_text(lo).zfill(k)


class DecimalRoot(NamedTuple):
    """A decimal approximation of radicand**(1/degree) to `digits` places.

    `scaled` is the integer approximation of the root times 10**digits,
    obtained either by truncation (ROUND_FLOOR) or by rounding half up
    (ROUND_NEAREST).
    """

    radicand: int
    degree: int
    digits: int
    scaled: int
    mode: str = ROUND_FLOOR

    @property
    def text(self) -> str:
        """Render as a plain decimal string, e.g. "2.27953231299"."""
        s = decimal_text(self.scaled)
        if len(s) <= self.digits:
            s = "0" * (self.digits - len(s) + 1) + s
        return s[: len(s) - self.digits] + "." + s[len(s) - self.digits:]

    def bracket_holds(self) -> bool:
        """Re-certify the approximation by pure integer power comparison.

        Floor mode: scaled**r <= R*10**(r*d) < (scaled+1)**r.
        Nearest mode: the root lies within half an ulp, checked as
        max(2*scaled - 1, 0)**r <= 2**r * R*10**(r*d) <= (2*scaled + 1)**r;
        the clamp keeps an even r from turning (-1)**r into 1 at scaled 0.
        """
        target = self.radicand * 10 ** (self.degree * self.digits)
        if self.mode == ROUND_FLOOR:
            return self.scaled ** self.degree <= target < (self.scaled + 1) ** self.degree
        doubled = target << self.degree
        lo = max(2 * self.scaled - 1, 0)
        hi = 2 * self.scaled + 1
        return lo ** self.degree <= doubled <= hi ** self.degree

    def ulp_bracket_holds(self) -> bool:
        """Weaker certificate valid in both modes: root within one ulp.

        (scaled-1)**r <= R*10**(r*d) <= (scaled+1)**r.
        """
        target = self.radicand * 10 ** (self.degree * self.digits)
        lo = max(self.scaled - 1, 0)
        return lo ** self.degree <= target <= (self.scaled + 1) ** self.degree


def decimal_nth_root(radicand: int, degree: int, digits: int,
                     mode: str = ROUND_FLOOR) -> DecimalRoot:
    """Compute radicand**(1/degree) to `digits` decimal places, exactly.

    Both modes halve t = floor(2*root): t is odd exactly when the root's
    fraction is at least 1/2, so t >> 1 truncates and (t + 1) >> 1 rounds
    half up. The radicand of t, 2**r * radicand * 10**(r*digits), is built
    as radicand * 5**(r*digits) shifted left by r*(digits + 1) bits: the
    power of 5 is about 30% shorter than the power of 10, and costs about
    half as much to compute.
    """
    if degree < 1:
        raise ValueError(f"root degree must be >= 1, got {degree}")
    if radicand < 0:
        raise ValueError(f"radicand must be >= 0, got {radicand}")
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    if mode not in (ROUND_FLOOR, ROUND_NEAREST):
        raise ValueError(f"unknown rounding mode {mode!r}")
    twice = nth_root_floor((radicand * 5 ** (degree * digits)) << (degree * (digits + 1)), degree)
    scaled = (twice + (mode == ROUND_NEAREST)) >> 1
    return DecimalRoot(radicand, degree, digits, scaled, mode)
