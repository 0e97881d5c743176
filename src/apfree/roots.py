"""Integer nth roots and decimal root rendering with exact brackets.

Every decimal printed by this package comes from integer arithmetic: the
scaled approximation of R^(1/r) is an integer nth root, and its quality is
certified by comparing integers, never by floating point. A root is a
guess, one certificate, then one descent from above. A float seeds the
guess, which climbs a ladder of precisions that roughly doubles at each
level, with one Newton step per level on a power truncated to that level's
precision. The guess t is the floor root of x when t**r <= x < t**r +
r*t**(r-1), since (t+1)**r - t**r >= r*t**(r-1). Every truncated power
comes from one bracket, `_power_bracket`, which powers left to right,
keeps the top bits of each step, and bounds the power from both sides.

`nth_root_floor` runs that test exactly: t**(r-1) and t**r are computed
in full. `decimal_nth_root` roots 2**r * R * 10**(r*d), which is R * 5**(r*d)
shifted left by r*(d+1) bits. From degree 2 up, when that radicand would
have more than `_EXACT_BITS` bits, it is not built: 5**(r*d) and
t**(r-1) are bracketed between m * 2**e and hi * 2**e at about t's own
precision, and t is returned when the brackets decide the test for both
ends of the radicand's bracket. When they cannot, and for every shorter
radicand or degree 1, the radicand is built and `nth_root_floor`
decides. A guess that fails its exact test starts a Newton descent from
above that stops at the floor root, so the guess sets only how long the
root takes, never its value.
"""

from __future__ import annotations

import math
from typing import NamedTuple

ROUND_FLOOR = "floor"
ROUND_NEAREST = "nearest"

# The lowest level of the guess's ladder holds at most this many root bits,
# well within what a double's 53-bit mantissa gets right.
_SEED_BITS = 40

# decimal_nth_root certifies a radicand longer than this from brackets at
# about the root's precision; a shorter one is built and rooted exactly,
# which costs no more there (the two meet at 6,000 to 8,000 bits for
# degrees 8 to 512).
_EXACT_BITS = 8192


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


def _certifies_floor_root(t: int, r: int, lo: int, hi: int, s: int) -> bool:
    """True only if t is the floor rth root of every x with lo * 2**s <= x
    <= hi * 2**s, decided from t**(r-1) bracketed at about t's precision.

    With m * 2**e <= t**(r-1) <= top * 2**e from `_power_bracket`, one
    left-to-right power cut to t's bit length plus a guard, the test is
    top*t <= (lo * 2**s) >> e and (hi * 2**s) >> e < (t+r)*m. The first
    gives t**r <= top * 2**e * t <= lo * 2**s <= x; the second gives
    x <= hi * 2**s < (t+r) * m * 2**e <= t**r + r*t**(r-1) <= (t+1)**r.
    False says only that the bracket could not decide.
    """
    m, top, e = _power_bracket(t, r - 1, t.bit_length() + 2 * r.bit_length() + 32)
    p = m * t  # top*t and (t+r)*m are p plus a short product each
    return p + (top - m) * t <= _shifted(lo, s - e) and _shifted(hi, s - e) - p < r * m


def _shifted(v: int, n: int) -> int:
    """floor(v * 2**n) for v >= 0 and any integer n."""
    return v << n if n >= 0 else v >> -n


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
        m, _, e = _power_bracket(g, r - 1, b + guard)
        shift = r * (b - bits) - e  # X // (m * 2**e) is (x << shift) // m
        g = ((r - 1) * g + _shifted(x, shift) // m) // r
    return max(g >> guard, 1)


def _power_bracket(g: int, k: int, prec: int) -> tuple[int, int, int]:
    """(m, hi, e) with m * 2**e <= g**k <= hi * 2**e, for prec >=
    k.bit_length() + 3, by binary powering from the top bit of k.

    Each step squares m, multiplies it by g on a 1 bit, and keeps the top
    `prec` bits: the cut is added to e after e is doubled. A cut loses
    less than a factor 1 - 2**(1 - prec), and one made at step j is
    squared at every later step, so with L + 1 the bit length of k the
    cuts' exponents sum to at most 2**(L+1) - 1 < 2*k, and m * 2**e is
    within a factor (1 - 2**(1 - prec))**(2*k) of g**k. A cut doubles at
    every later square, so e = 0 exactly when m = g**k, and then hi = m.
    Otherwise, with y = 4*k / 2**prec <= 1/2, Bernoulli's inequality
    gives g**k <= m * 2**e / (1 - y) <= m * 2**e * (1 + 2*y), and
    hi = m + (8*k*m >> prec) + 1 exceeds m * (1 + 2*y).
    """
    m, e = 1, 0
    for i in range(k.bit_length() - 1, -1, -1):
        m *= m
        if k >> i & 1:
            m *= g
        cut = max(m.bit_length() - prec, 0)
        m >>= cut
        e = 2 * e + cut
    return m, (m + (8 * k * m >> prec) + 1 if e else m), e


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


def decimal_nth_root(radicand: int, degree: int, digits: int,
                     mode: str = ROUND_FLOOR) -> DecimalRoot:
    """Compute radicand**(1/degree) to `digits` decimal places, exactly.

    Both modes halve t = floor(2*root): t is odd exactly when the root's
    fraction is at least 1/2, so t >> 1 truncates and (t + 1) >> 1 rounds
    half up. t is the floor rth root of 2**r * radicand * 10**(r*digits),
    which is radicand * 5**(r*digits) shifted left by r*(digits + 1) bits.
    When that radicand would have more than `_EXACT_BITS` bits and r is at
    least 2, it is not built: 5**(r*digits) is bracketed at about the
    root's precision, the guess is taken from the bracket's lower end, and
    `_certifies_floor_root` tests it against both ends. Only when that
    bracket cannot decide, and for every shorter radicand or degree 1, is
    the exact radicand built and passed to `nth_root_floor`.
    """
    if degree < 1:
        raise ValueError(f"root degree must be >= 1, got {degree}")
    if radicand < 0:
        raise ValueError(f"radicand must be >= 0, got {radicand}")
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    if mode not in (ROUND_FLOOR, ROUND_NEAREST):
        raise ValueError(f"unknown rounding mode {mode!r}")
    twice = _doubled_root(radicand, degree, digits)
    scaled = (twice + (mode == ROUND_NEAREST)) >> 1
    return DecimalRoot(radicand, degree, digits, scaled, mode)


def _doubled_root(radicand: int, r: int, digits: int) -> int:
    """floor(2 * radicand**(1/r) * 10**digits), the floor rth root of
    radicand * 5**n * 2**shift with n = r*digits and shift = r*(digits+1)."""
    n, shift = r * digits, r * (digits + 1)
    # 5**n has about n * log2(5) < n * 7/3 bits.
    bits = radicand.bit_length() + shift + n * 7 // 3
    if r >= 2 and radicand and bits > _EXACT_BITS:  # `_root_guess` takes r >= 2
        lo, hi, e = _power_bracket(5, n, bits // r + 2 * n.bit_length() + 40)
        t = _root_guess((radicand * lo) << (e + shift), r)
        if _certifies_floor_root(t, r, radicand * lo, radicand * hi, e + shift):
            return t
    return nth_root_floor((radicand * 5 ** n) << shift, r)
