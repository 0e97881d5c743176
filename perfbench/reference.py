"""Reference answers for the benchmark, independent of the apfree package.

Nothing here imports apfree. Exact counts come from the published values in
data/theta.txt; 3AP witnesses, doublings and separation certificates are
recomputed from their definitions; outputs of requests whose text is not
rederived here (analyze, verify, emit-figure, ingest) are pinned by
data/golden.json, a digest table made by make_golden.py.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
THETA_FILE = DATA / "theta.txt"
GOLDEN_FILE = DATA / "golden.json"

LOWER_FACTOR = 2
UPPER_FACTOR = 21


def load_theta() -> dict[int, int]:
    """n -> theta(n) from the reference b-file ("n value" lines, '#' comments)."""
    theta = {}
    for line in THETA_FILE.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            n, value = line.split()
            theta[int(n)] = int(value)
    return theta


THETA = load_theta()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict[str, list]:
    """Request key -> [exit status, stdout sha256]."""
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


@functools.lru_cache(maxsize=None)
def find_3ap(values: tuple) -> tuple[int, int, int] | None:
    """Smallest 1-based (i, j, k) with v_i + v_k = 2 v_j, or None.

    Walks endpoint pairs (i, k) and looks up where their midpoint value
    sits, a different route from the package's middle-position scan.
    """
    n = len(values)
    pos = {v: idx for idx, v in enumerate(values)}
    for i in range(n - 2):
        vi = values[i]
        best = None
        for k in range(i + 2, n):
            s = vi + values[k]
            if s % 2 == 0:
                j = pos[s // 2]
                if i < j < k and (best is None or j < best[0]):
                    best = (j, k)
        if best is not None:
            return (i + 1, best[0] + 1, best[1] + 1)
    return None


def free_perms(k: int) -> list[tuple[int, ...]]:
    """All 3AP-free permutations of 1..k, lexicographic, by backtracking."""
    out = []

    def extend(prefix, rest, closing):
        # closing: values that would end a 3AP if placed next.
        if not rest:
            out.append(prefix)
            return
        for v in sorted(rest - closing):
            extend(prefix + (v,), rest - {v},
                   closing | {2 * v - u for u in prefix})

    extend((), frozenset(range(1, k + 1)), frozenset())
    return out


def doubled(a, b, even_first: bool = True) -> tuple[int, ...]:
    """Even block 2a followed (or preceded) by odd block 2b - 1."""
    evens = tuple(2 * v for v in a)
    odds = tuple(2 * v - 1 for v in b)
    return evens + odds if even_first else odds + evens


def iroot(x: int, r: int) -> int:
    """Floor of the r-th root of x >= 0, by integer Newton steps from above."""
    if x < 2 or r == 1:
        return x
    g = 1 << -(-x.bit_length() // r)
    while True:
        t = ((r - 1) * g + x // g ** (r - 1)) // r
        if t >= g:
            return g
        g = t


def decimal_root(radicand: int, r: int, digits: int) -> str:
    """radicand^(1/r) rounded half up to `digits` places, as text."""
    target = radicand * 10 ** (r * digits)
    s = iroot(target, r)
    if (target << r) >= (2 * s + 1) ** r:
        s += 1
    text = str(s).rjust(digits + 1, "0")
    return text[:-digits] + "." + text[-digits:]


def cached_provenance(n: int) -> str:
    """Provenance the CLI reports for n against the warm benchmark cache:
    builtin values stay builtin, the rest load as ingested (no sidecar)."""
    return "builtin" if n <= 11 or n in (64, 75) else "ingested"


def certificate(low: tuple[int, int], high: tuple[int, int],
                digits: int) -> tuple[int, str]:
    """Expected (exit status, stdout) of `separate` against the warm cache."""
    (m_lo, t_lo), (m_hi, t_hi) = low, high
    n_lo, n_hi = m_lo << t_lo, m_hi << t_hi
    lo_rad = LOWER_FACTOR * THETA[n_lo]
    hi_rad = UPPER_FACTOR * THETA[n_hi]
    lhs, rhs = lo_rad ** n_hi, hi_rad ** n_lo
    fields = [
        ("m_low", m_lo), ("t_low", t_lo), ("n_low", n_lo),
        ("theta_low", THETA[n_lo]),
        ("theta_low_provenance", cached_provenance(n_lo)),
        ("lower_radicand", lo_rad), ("lower_root", n_lo),
        ("lower_decimal", decimal_root(lo_rad, n_lo, digits)),
        ("m_high", m_hi), ("t_high", t_hi), ("n_high", n_hi),
        ("theta_high", THETA[n_hi]),
        ("theta_high_provenance", cached_provenance(n_hi)),
        ("upper_radicand", hi_rad), ("upper_root", n_hi),
        ("upper_decimal", decimal_root(hi_rad, n_hi, digits)),
        ("lhs", lhs), ("rhs", rhs),
        ("separated", "true" if lhs > rhs else "false"),
    ]
    text = "separation-certificate v1\n" + "".join(
        f"{key}: {value}\n" for key, value in fields)
    return (0 if lhs > rhs else 1), text


def check_text(values) -> tuple[int, str]:
    """Expected (exit status, stdout) of `check`."""
    w = find_3ap(values)
    if w is None:
        return 0, "FREE\n"
    i, j, k = w
    return 1, f"3AP at ({i},{j},{k}): {values[i - 1]} {values[j - 1]} {values[k - 1]}\n"
