"""Provenance-tagged table of exact 3AP-free permutation counts.

The table maps n to the exact count of 3AP-free permutations of {1, ..., n}.
Every entry is an arbitrary-precision integer tagged with where it came
from: shipped with the package (builtin), produced by the counter in this
process (computed), or read from an external data file (ingested). The
shipped values are one mapping, `BUILTINS` (n -> value): every table
starts from it, and `ThetaTable.merge`, the one way in, refuses a
"builtin" entry it does not hold, whatever the entry's route.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .errors import ConflictError, ValueUnavailable

PROVENANCE_BUILTIN = "builtin"
PROVENANCE_COMPUTED = "computed"
PROVENANCE_INGESTED = "ingested"
PROVENANCES = (PROVENANCE_BUILTIN, PROVENANCE_COMPUTED, PROVENANCE_INGESTED)

# Published exact counts shipped with the package, n -> value: n = 1..11,
# plus the two large reference values of the default separation certificate.
BUILTINS = {
    1: 1, 2: 2, 3: 4, 4: 10, 5: 20, 6: 48, 7: 104, 8: 282, 9: 496, 10: 1066, 11: 2460,
    64: 39911512393313043466768,
    75: 30235147387260979648843264,
}


class ThetaEntry(NamedTuple):
    value: int
    provenance: str


class ThetaTable:
    """Mapping n -> exact count, with provenance.

    Past the builtins, entries enter only through `merge`, all or none:
    an entry that disagrees with one already held raises ConflictError,
    and one that matches keeps the provenance already held.
    """

    def __init__(self, include_builtins: bool = True):
        builtins = BUILTINS if include_builtins else {}
        self.entries: dict[int, ThetaEntry] = {
            n: ThetaEntry(v, PROVENANCE_BUILTIN) for n, v in builtins.items()}

    def __contains__(self, n: int) -> bool:
        return n in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, n: int) -> Optional[int]:
        e = self.entries.get(n)
        return None if e is None else e.value

    def value(self, n: int) -> int:
        """Exact count for n, raising ValueUnavailable if absent."""
        e = self.entries.get(n)
        if e is None:
            raise ValueUnavailable(f"no count for n={n} in table")
        return e.value

    def provenance(self, n: int) -> str:
        e = self.entries.get(n)
        if e is None:
            raise ValueUnavailable(f"no count for n={n} in table")
        return e.provenance

    def insert(self, n: int, value: int, provenance: str) -> bool:
        """Add one entry. Returns True if new, False if it matched an
        existing entry; raises as merge does."""
        return bool(self.merge([(n, value, provenance)]))

    def merge(self, entries: Iterable[tuple[int, int, str]]) -> list[int]:
        """Add (n, value, provenance) entries, all or none, and return the
        n of the new ones in input order.

        The whole batch is checked first: a bad n, value or provenance, or
        a "builtin" entry not in `BUILTINS`, raises ValueError. Then an
        entry that disagrees with one already held, or with an earlier one
        in the batch, raises ConflictError. An entry that matches one
        already held keeps the held provenance and is not returned.
        """
        entries = list(entries)
        for n, value, provenance in entries:
            if n < 1:
                raise ValueError(f"table keys are positive integers, got n={n}")
            if value < 0:
                raise ValueError(f"counts are nonnegative, got {value} for n={n}")
            if provenance not in PROVENANCES:
                raise ValueError(f"unknown provenance {provenance!r}")
        forged = [n for n, v, p in entries if p == PROVENANCE_BUILTIN and BUILTINS.get(n) != v]
        if forged:
            raise ValueError(f"builtin tags for n={forged} whose values the package does not ship")
        staged: dict[int, ThetaEntry] = {}
        for n, value, provenance in entries:
            existing = self.entries.get(n, staged.get(n))
            if existing is None:
                staged[n] = ThetaEntry(value, provenance)
            elif existing.value != value:
                raise ConflictError(
                    f"n={n}: new value {value} ({provenance}) disagrees with "
                    f"existing {existing.value} ({existing.provenance})"
                )
        self.entries.update(staged)
        return list(staged)

    def available(self, max_n: Optional[int] = None) -> list[int]:
        """Sorted keys, optionally restricted to n <= max_n."""
        ns = sorted(self.entries)
        if max_n is not None:
            ns = [n for n in ns if n <= max_n]
        return ns

    def items_sorted(self) -> list[tuple[int, ThetaEntry]]:
        return sorted(self.entries.items())
