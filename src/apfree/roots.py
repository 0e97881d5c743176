"""Integer nth roots and decimal root rendering with exact brackets.

Every decimal printed by this package comes from integer arithmetic: the
scaled approximation of R^(1/r) is an integer nth root, and its quality is
certified by comparing integer powers, never by floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

ROUND_FLOOR = "floor"
ROUND_NEAREST = "nearest"


def nth_root_floor(x: int, r: int) -> int:
    """Largest integer g with g**r <= x, by Newton iteration from above."""
    if r < 1:
        raise ValueError(f"root degree must be >= 1, got {r}")
    if x < 0:
        raise ValueError(f"radicand must be >= 0, got {x}")
    if r == 1 or x in (0, 1):
        return x
    # Start from a power of two guaranteed to be >= the true root.
    g = 1 << ((x.bit_length() + r - 1) // r + 1)
    while True:
        t = ((r - 1) * g + x // g ** (r - 1)) // r
        if t >= g:
            break
        g = t
    while g ** r > x:
        g -= 1
    while (g + 1) ** r <= x:
        g += 1
    return g


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
        s = str(self.scaled)
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
    """Compute radicand**(1/degree) to `digits` decimal places, exactly."""
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    if mode not in (ROUND_FLOOR, ROUND_NEAREST):
        raise ValueError(f"unknown rounding mode {mode!r}")
    target = radicand * 10 ** (degree * digits)
    scaled = nth_root_floor(target, degree)
    if mode == ROUND_NEAREST:
        # Round up when the true root is at or above the midpoint, i.e.
        # when 2**r * target >= (2*scaled + 1)**r.
        if (target << degree) >= (2 * scaled + 1) ** degree:
            scaled += 1
    return DecimalRoot(radicand, degree, digits, scaled, mode)
