"""Provenance-tagged table of exact 3AP-free permutation counts.

The table maps n to the exact count of 3AP-free permutations of {1, ..., n}.
Every entry is an arbitrary-precision integer tagged with where it came
from: shipped with the package (builtin), produced by the counter in this
process (computed), or read from an external data file (ingested).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import ConflictError, ValueUnavailable

PROVENANCE_BUILTIN = "builtin"
PROVENANCE_COMPUTED = "computed"
PROVENANCE_INGESTED = "ingested"
PROVENANCES = (PROVENANCE_BUILTIN, PROVENANCE_COMPUTED, PROVENANCE_INGESTED)

# Published exact counts shipped with the package: n = 1..11, plus the two
# large reference values used by the default separation certificate.
BUILTIN_SMALL = (1, 2, 4, 10, 20, 48, 104, 282, 496, 1066, 2460)
BUILTIN_LARGE = {
    64: 39911512393313043466768,
    75: 30235147387260979648843264,
}


class ThetaEntry(NamedTuple):
    value: int
    provenance: str


class ThetaTable:
    """Mapping n -> exact count, with provenance and optional cache path.

    Mutation is insert-only: an insert that disagrees with an existing
    entry raises ConflictError, and a matching re-insert is a no-op that
    keeps the original provenance. The cache path is used by callers that
    persist the table; the table itself never touches the filesystem.
    """

    def __init__(self, include_builtins: bool = True, cache_path=None):
        self.entries: dict[int, ThetaEntry] = {}
        self.cache_path = cache_path
        if include_builtins:
            for i, v in enumerate(BUILTIN_SMALL, start=1):
                self.entries[i] = ThetaEntry(v, PROVENANCE_BUILTIN)
            for n, v in BUILTIN_LARGE.items():
                self.entries[n] = ThetaEntry(v, PROVENANCE_BUILTIN)

    def __contains__(self, n: int) -> bool:
        return n in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, n: int) -> Optional[ThetaEntry]:
        return self.entries.get(n)

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
        """Add an entry. Returns True if new, False if it matched an
        existing entry; raises as check_insert does."""
        if not self.check_insert(n, value, provenance):
            return False
        self.entries[n] = ThetaEntry(value, provenance)
        return True

    def check_insert(self, n: int, value: int, provenance: str) -> bool:
        """Whether insert would add the entry (False: it matches one
        already held), without adding it. Raises ValueError for a bad
        entry and ConflictError for one that disagrees with the table."""
        if n < 1:
            raise ValueError(f"table keys are positive integers, got n={n}")
        if value < 0:
            raise ValueError(f"counts are nonnegative, got {value} for n={n}")
        if provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {provenance!r}")
        existing = self.entries.get(n)
        if existing is not None:
            if existing.value != value:
                raise ConflictError(
                    f"n={n}: new value {value} ({provenance}) disagrees with "
                    f"existing {existing.value} ({existing.provenance})"
                )
            return False
        return True

    def available(self, max_n: Optional[int] = None) -> list[int]:
        """Sorted keys, optionally restricted to n <= max_n."""
        ns = sorted(self.entries)
        if max_n is not None:
            ns = [n for n in ns if n <= max_n]
        return ns

    def items_sorted(self) -> list[tuple[int, ThetaEntry]]:
        return sorted(self.entries.items())
