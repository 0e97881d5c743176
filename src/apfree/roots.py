"""Integer nth roots and decimal root rendering with exact brackets.

Every decimal printed by this package comes from integer arithmetic: the
scaled approximation of R^(1/r) is an integer nth root, and its quality is
certified by comparing integer powers, never by floating point. The integer
root comes from Newton's method, started from a guess built out of a root
of half the precision; the guess sets only how long Newton takes. Each
Newton step costs one full power, which also decides when to stop.
"""

from __future__ import annotations

from dataclasses import dataclass

ROUND_FLOOR = "floor"
ROUND_NEAREST = "nearest"


def nth_root_floor(x: int, r: int) -> int:
    """Largest integer g with g**r <= x, by Newton iteration from above.

    The starting guess comes from a root of half the precision. Let
    y_k = x >> (r*k). Shifts 0 = k_0 < k_1 < ... < k_m each halve the bit
    length of the root of y_k, down to y_{k_m}, which has 1..r bits and
    so has root 1. Going back up, the floor root h of y_{k_i} gives the
    guess (h + 1) << (k_i - k_{i-1}) for y_{k_{i-1}}, and Newton turns it
    into that level's floor root. The guess is above the true root,
    because (h + 1)**r > y_{k_i} means
    (h + 1)**r >= y_{k_i} + 1 > y_{k_{i-1}} / 2**(r*(k_i - k_{i-1})).
    It is also within a factor 1 + 1/h of the root, so each level takes
    a few Newton steps; a power-of-two guess can be twice the root,
    and then Newton, which shrinks an overshoot by about (r-1)/r per
    step, takes about r steps. Each level stops at its first iterate g
    with g**r <= x; `_root_from_above` shows why that g is the floor
    root, so no guess can make the result inexact.
    """
    if r < 1:
        raise ValueError(f"root degree must be >= 1, got {r}")
    if x < 0:
        raise ValueError(f"radicand must be >= 0, got {x}")
    if r == 1 or x in (0, 1):
        return x
    shifts = [0]
    bits = (x.bit_length() + r - 1) // r
    while bits > 1:
        shifts.append(shifts[-1] + bits // 2)
        bits -= bits // 2
    # Starting with h = 0 at the deepest shift gives that level the guess 1,
    # which is its root.
    h, k = 0, shifts[-1]
    for j in reversed(shifts):
        h = _root_from_above(x >> (r * j), r, (h + 1) << (k - j))
        k = j
    return h


def _root_from_above(x: int, r: int, g: int) -> int:
    """Floor rth root of x >= 1 by Newton's method from a guess g >= 1.

    While p = g**r > x, step to ((r-1)*g + x*g // p) // r, where x*g // p
    is x // g**(r-1). By AM-GM, (r-1)*g + x/g**(r-1) >= r * x**(1/r), and
    the floors keep the step at or above the floor root; g**r > x makes it
    drop below g. So the first g with g**r <= x is the floor root. A guess
    that starts at or below the root walks up instead.
    """
    p = g ** r
    if p <= x:
        while (g + 1) ** r <= x:
            g += 1
        return g
    while p > x:
        g = ((r - 1) * g + x * g // p) // r
        p = g ** r
    return g


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


@dataclass(frozen=True)
class DecimalRoot:
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
    half up.
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    if mode not in (ROUND_FLOOR, ROUND_NEAREST):
        raise ValueError(f"unknown rounding mode {mode!r}")
    target = radicand * 10 ** (degree * digits)
    twice = nth_root_floor(target << degree, degree)
    scaled = (twice + (mode == ROUND_NEAREST)) >> 1
    return DecimalRoot(radicand, degree, digits, scaled, mode)
