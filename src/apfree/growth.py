"""Growth-rate analysis of the 3AP-free permutation counts.

For each fixed m, the counts along n = m * 2^t satisfy the two-sided
doubling inequality 2*theta(k)^2 <= theta(2k) <= 21*theta(k)^2, which
makes the root sequence theta(m*2^t)^(1/(m*2^t)) strictly increasing and
bounded, hence convergent to a limit depending on m. Any single point
brackets that limit:

    (2*theta(n))^(1/n)  <=  limit_m  <=  (21*theta(n))^(1/n),   n = m*2^t.

Separating two such limits therefore reduces to comparing one lower
bracket against another's upper bracket, an inequality between nth roots
of integers that cross-exponentiation turns into a finite comparison of
two (large) integers. Everything that decides a verdict in this module
is integer arithmetic; decimals are rendering only. A certificate
written here is checked by scripts/check_certificate.py alone, which
shares no code with this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .roots import (ROUND_FLOOR, ROUND_NEAREST, DecimalRoot, decimal_nth_root,
                    decimal_text)
from .table import ThetaTable

DISPLAY_DIGITS_DEFAULT = 11

LOWER_FACTOR = 2
UPPER_FACTOR = 21


def global_theta_bounds(n: int) -> tuple[int, int]:
    """Universal bounds: 2^(n-1) <= count(n) <= floor((n+1)/2)! * ceil((n+1)/2)!."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1 << (n - 1), math.factorial((n + 1) // 2) * math.factorial((n + 2) // 2)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one exact inequality check."""

    name: str
    status: str  # "pass" | "fail" | "skip"
    numbers: tuple[int, ...] = ()
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _inequality(name: str, *chain: int) -> CheckReport:
    """Report on chain[0] <= chain[1] <= ...: it passes iff the chain is
    nondecreasing, and its numbers are the chain."""
    status = "pass" if chain == tuple(sorted(chain)) else "fail"
    return CheckReport(name, status, chain, " <= ".join(map(str, chain)))


def check_sandwich(k: int, tbl: ThetaTable) -> CheckReport:
    """2*theta(k)^2 <= theta(2k) <= 21*theta(k)^2, decided on exact integers."""
    square = tbl.value(k) ** 2
    return _inequality(f"sandwich k={k}", LOWER_FACTOR * square, tbl.value(2 * k),
                       UPPER_FACTOR * square)


def check_halving(n: int, tbl: ThetaTable) -> CheckReport:
    """theta(n) <= 21 * theta(ceil(n/2)) * theta(floor(n/2)) for n >= 3."""
    if n < 3:
        raise ValueError(f"halving bound applies for n >= 3, got {n}")
    return _inequality(f"halving n={n}", tbl.value(n),
                       UPPER_FACTOR * tbl.value((n + 1) // 2) * tbl.value(n // 2))


def check_global_bounds(n: int, tbl: ThetaTable) -> CheckReport:
    """2^(n-1) <= theta(n) <= floor((n+1)/2)! * ceil((n+1)/2)!."""
    tn = tbl.value(n)
    lo, hi = global_theta_bounds(n)
    return _inequality(f"global n={n}", lo, tn, hi)


def subsequence_point(m: int, t: int, tbl: ThetaTable,
                      digits: int = DISPLAY_DIGITS_DEFAULT) -> DecimalRoot:
    """theta(n)^(1/n) for n = m * 2^t (the root's degree), truncated at
    `digits` decimal places."""
    if m < 1 or t < 0:
        raise ValueError(f"need m >= 1 and t >= 0, got m={m}, t={t}")
    n = m << t
    return decimal_nth_root(tbl.value(n), n, digits, ROUND_FLOOR)


@dataclass(frozen=True)
class GrowthBound:
    """Exact two-sided bracket on the doubling-subsequence limit for index m.

    Stored as (radicand, root) pairs: the limit lies between
    lower_radicand^(1/root) and upper_radicand^(1/root). Never held as a
    float; decimals are produced on demand.
    """

    root: int
    lower_radicand: int
    upper_radicand: int

    def lower_decimal(self, digits: int = DISPLAY_DIGITS_DEFAULT) -> DecimalRoot:
        return decimal_nth_root(self.lower_radicand, self.root, digits, ROUND_NEAREST)

    def upper_decimal(self, digits: int = DISPLAY_DIGITS_DEFAULT) -> DecimalRoot:
        return decimal_nth_root(self.upper_radicand, self.root, digits, ROUND_NEAREST)


def limit_bracket(m: int, t: int, tbl: ThetaTable) -> GrowthBound:
    """Bracket the subsequence limit for index m using the point n = m * 2^t."""
    if m < 1 or t < 0:
        raise ValueError(f"need m >= 1 and t >= 0, got m={m}, t={t}")
    n = m << t
    value = tbl.value(n)
    return GrowthBound(n, LOWER_FACTOR * value, UPPER_FACTOR * value)


@dataclass(frozen=True)
class SeparationCertificate:
    """Exact proof that one subsequence limit exceeds another.

    With the lower bracket (A, a) for m_low and the upper bracket (B, b)
    for m_high, A^(1/a) > B^(1/b) holds iff A^b > B^a, since both sides
    exceed 1. lhs and rhs are those two integers in full.
    """

    m_low: int
    t_low: int
    m_high: int
    t_high: int
    lower_bound: GrowthBound
    upper_bound: GrowthBound
    theta_low: int
    theta_high: int
    provenance_low: str
    provenance_high: str
    lhs: int
    rhs: int
    separated: bool


def separate(m_low: int, t_low: int, m_high: int, t_high: int,
             tbl: ThetaTable) -> SeparationCertificate:
    """Attempt to prove limit(m_low) > limit(m_high) by cross-exponentiation."""
    lower = limit_bracket(m_low, t_low, tbl)
    upper = limit_bracket(m_high, t_high, tbl)
    lhs = lower.lower_radicand ** upper.root
    rhs = upper.upper_radicand ** lower.root
    return SeparationCertificate(
        m_low=m_low, t_low=t_low, m_high=m_high, t_high=t_high,
        lower_bound=lower, upper_bound=upper,
        theta_low=tbl.value(lower.root), theta_high=tbl.value(upper.root),
        provenance_low=tbl.provenance(lower.root),
        provenance_high=tbl.provenance(upper.root),
        lhs=lhs, rhs=rhs, separated=lhs > rhs,
    )


def certificate_text(cert: SeparationCertificate,
                     digits: int = DISPLAY_DIGITS_DEFAULT) -> str:
    """Serialize a certificate as a self-contained key/value document.

    Every integer appears in full decimal, so an independent checker can
    re-derive lhs and rhs and confirm the verdict with big-integer
    arithmetic alone. lhs and rhs grow with n_low * n_high and can pass
    the interpreter's int/str digit limit, so they go through
    `roots.decimal_text`.
    """
    lines = [
        "separation-certificate v1",
        f"m_low: {cert.m_low}",
        f"t_low: {cert.t_low}",
        f"n_low: {cert.lower_bound.root}",
        f"theta_low: {cert.theta_low}",
        f"theta_low_provenance: {cert.provenance_low}",
        f"lower_radicand: {cert.lower_bound.lower_radicand}",
        f"lower_root: {cert.lower_bound.root}",
        f"lower_decimal: {cert.lower_bound.lower_decimal(digits).text}",
        f"m_high: {cert.m_high}",
        f"t_high: {cert.t_high}",
        f"n_high: {cert.upper_bound.root}",
        f"theta_high: {cert.theta_high}",
        f"theta_high_provenance: {cert.provenance_high}",
        f"upper_radicand: {cert.upper_bound.upper_radicand}",
        f"upper_root: {cert.upper_bound.root}",
        f"upper_decimal: {cert.upper_bound.upper_decimal(digits).text}",
        f"lhs: {decimal_text(cert.lhs)}",
        f"rhs: {decimal_text(cert.rhs)}",
        f"separated: {'true' if cert.separated else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def doubling_points(m: int, tbl: ThetaTable,
                    max_n: Optional[int] = None) -> list[tuple[int, int]]:
    """(t, n) for each n = m * 2^t in the table, in increasing order, up
    to max_n (default: the table's largest n)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    limit = max_n if max_n is not None else (max(tbl.available()) if len(tbl) else 0)
    points = []
    t = 0
    while m << t <= limit:
        if m << t in tbl:
            points.append((t, m << t))
        t += 1
    return points


def monotone_report(m: int, tbl: ThetaTable,
                    max_n: Optional[int] = None) -> CheckReport:
    """Check the doubling subsequence for index m on all available steps.

    For each consecutive pair n = m * 2^t, 2n both present, verifies in
    exact integers that the sequence strictly increases
    (theta(2n) > theta(n)^2) and that `check_sandwich(n)` passes; these
    are the (2n)-th powers of the root-form statements, so no roots are
    taken.
    """
    points = doubling_points(m, tbl, max_n)
    steps = [(t1, n1) for (t1, n1) in points if n1 * 2 in tbl and
             (max_n is None or n1 * 2 <= max_n)]
    if len(points) < 2 or not steps:
        return CheckReport(
            name=f"monotone m={m}",
            status="skip",
            detail="insufficient data: need two consecutive points",
        )
    details = []
    ok = True
    for t1, n1 in steps:
        a = tbl.value(n1)
        b = tbl.value(2 * n1)
        sandwich = check_sandwich(n1, tbl)
        step_ok = b > a * a and sandwich.passed
        ok = ok and step_ok
        details.append(f"t={t1}->{t1 + 1}: {sandwich.detail} and {b} > {a * a}: "
                       f"{'ok' if step_ok else 'VIOLATED'}")
    return CheckReport(
        name=f"monotone m={m}",
        status="pass" if ok else "fail",
        detail="; ".join(details),
    )


# The points `analyze` quotes: the lower bracket at each k in _REFERENCE_NS,
# and the envelope from the brackets at LIMINF_POINT and LIMSUP_POINT.
_REFERENCE_NS = (10, 16)
LIMINF_POINT = 160
LIMSUP_POINT = 128
