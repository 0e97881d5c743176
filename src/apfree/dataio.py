"""Reading and writing the package's on-disk formats.

Three formats, all plain UTF-8 text with LF line endings:

  * b-file: one "n value" pair per line, single space, n strictly
    ascending, '#' comment lines allowed. This is the OEIS b-file
    convention, and the persistent count cache deliberately uses the
    same grammar so caches and published data files interchange.
  * provenance sidecar: "<cache>.provenance", lines "n tag".
  * figure data: lines "n root", where root is theta(n)^(1/n) rounded
    to a fixed number of decimal places, loadable by any two-column
    space-separated plot reader.

No network access anywhere; external sequence data is always a local
file supplied by the caller.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, TextIO, Union

try:
    import fcntl
except ImportError:  # not POSIX
    fcntl = None

from .errors import ConflictError, ParseError, ValueUnavailable
from .growth import global_theta_bounds
from .roots import ROUND_NEAREST, decimal_nth_root
from .table import PROVENANCE_INGESTED, PROVENANCES, ThetaTable

Source = Union[str, Path, TextIO, Iterable[str]]

FIGURE_DIGITS_DEFAULT = 6


class BFileEntry(NamedTuple):
    n: int
    value: int


def _is_integer(token: str) -> bool:
    """Whether token is an integer of the b-file and sidecar grammar:
    ASCII digits after an optional minus sign. int() alone also takes
    "+4", "1_0" and non-ASCII digits."""
    return token.isascii() and token.removeprefix("-").isdigit()


def _iter_lines(source: Source) -> Iterator[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
    else:
        yield from source


def parse_bfile(source: Source) -> list[BFileEntry]:
    """Parse b-file text into entries, enforcing the grammar.

    Raises ParseError with a line number for malformed lines, wrong token
    counts, non-integers, integers too long for int(), negative values,
    or non-ascending n (which also catches duplicates); when the source
    is a path, the message ends with " in {path}".
    """
    where = f" in {source}" if isinstance(source, (str, Path)) else ""
    entries: list[BFileEntry] = []
    last_n = None
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(
                f"expected two tokens, got {len(tokens)}: {line!r}{where}", line=lineno)
        if not (_is_integer(tokens[0]) and _is_integer(tokens[1])):
            raise ParseError(f"non-integer token in {line!r}{where}", line=lineno)
        try:
            n, value = int(tokens[0]), int(tokens[1])
        except ValueError:  # past the interpreter's int/str digit limit
            raise ParseError(
                f"integer token of {max(map(len, tokens))} characters is too long{where}",
                line=lineno) from None
        if n < 0:
            raise ParseError(f"negative index n={n}{where}", line=lineno)
        if value < 0:
            raise ParseError(f"negative value for n={n}{where}", line=lineno)
        if last_n is not None and n <= last_n:
            raise ParseError(
                f"index n={n} not strictly ascending after {last_n}{where}", line=lineno)
        last_n = n
        entries.append(BFileEntry(n, value))
    return entries


class IngestResult(NamedTuple):
    """What an ingestion did: entries accepted into the table (added) or
    already present with the same value (matched), and entries outside
    the table's domain (n = 0), which are skipped."""

    added: tuple[BFileEntry, ...]
    matched: tuple[BFileEntry, ...]
    skipped: tuple[BFileEntry, ...]

    @property
    def accepted(self) -> tuple[BFileEntry, ...]:
        return tuple(sorted(self.added + self.matched))


def ingest_bfile(source: Source, tbl: ThetaTable) -> IngestResult:
    """Merge a b-file into the table with provenance "ingested".

    Published data files start at n = 0; that entry is outside the
    table's domain and is skipped, not an error. Every other value must
    satisfy the universal bounds for its n (a cheap guard against
    transposed digits), or ConflictError is raised before the table is
    touched. The rest goes through `ThetaTable.merge`, so a file with an
    entry that disagrees with the table adds nothing.
    """
    entries = parse_bfile(source)
    skipped = tuple(e for e in entries if e.n == 0)
    entries = [e for e in entries if e.n != 0]
    violation = _bounds_violation(entries)
    if violation is not None:
        raise ConflictError(f"{violation}; refusing to ingest corrupted data")
    new = set(tbl.merge((e.n, e.value, PROVENANCE_INGESTED) for e in entries))
    return IngestResult(tuple(e for e in entries if e.n in new),
                        tuple(e for e in entries if e.n not in new), skipped)


def _bounds_violation(entries: list[BFileEntry]) -> Optional[str]:
    """Say how the first entry that breaks the universal bounds for its n
    does so, or None if every entry keeps them."""
    for e in entries:
        lo, hi = global_theta_bounds(e.n)
        if not lo <= e.value <= hi:
            return f"n={e.n}: value {e.value} violates the universal bounds [{lo}, {hi}]"
    return None


def provenance_path(cache_path: Union[str, Path]) -> Path:
    return Path(f"{cache_path}.provenance")


def _lock_path(cache_path: Union[str, Path]) -> Path:
    return Path(f"{cache_path}.lock")


def save_table(tbl: ThetaTable, path: Union[str, Path]) -> None:
    """Merge the cache at `path` into the table, then write the table
    there as a b-file plus a provenance sidecar.

    The merge is load_table into `tbl`, all or none through
    `ThetaTable.merge`: the table gains the entries that another writer
    saved since it was loaded and keeps its own tags for the ones it
    already holds, and a cache that disagrees with the table raises
    ConflictError (a corrupt one ParseError) before anything is added
    or written. Each save holds an exclusive lock on "<cache>.lock" from
    its re-read through both renames, so two processes that load the
    same cache and each add an entry both keep it, however their saves
    interleave, and `load_table` takes the same lock shared, so no reader
    sees the sidecar of one save beside the b-file of another. The lock
    file is left in place: removing it would let a later save lock a new
    file while an earlier one still holds the old. Where fcntl is missing
    (not POSIX), saves and loads run unlocked.

    Each file is written beside its target and renamed over it, the
    sidecar first, so neither is ever left half written. A table only
    gains entries, so a failure between the two renames leaves tags for
    n that the old b-file lacks, which load_table rejects: the cache then
    fails loudly instead of loading with wrong tags. There is no fsync;
    the renames guard against a failed write, not against power loss.
    """
    path = Path(path)
    with open(_lock_path(path), "a") as lock:
        if fcntl is not None:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        if path.exists():
            # Unlocked: a second flock on another open of the lock file
            # would wait for this one.
            _load(path, tbl)
        items = tbl.items_sorted()
        _write_then_rename(provenance_path(path), [f"{n} {e.provenance}\n" for n, e in items])
        _write_then_rename(path, [f"{n} {e.value}\n" for n, e in items])


def _write_then_rename(path: Path, lines: list[str]) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_provenances(path: Path) -> dict[int, str]:
    tags: dict[int, str] = {}
    for lineno, raw in enumerate(_iter_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if not (len(tokens) == 2 and _is_integer(tokens[0]) and tokens[1] in PROVENANCES):
            raise ParseError(f"bad provenance line {line!r} in {path}", line=lineno)
        try:
            tags[int(tokens[0])] = tokens[1]
        except ValueError:  # past the interpreter's int/str digit limit
            raise ParseError(f"index of {len(tokens[0])} characters is too long in {path}",
                             line=lineno) from None
    return tags


def load_table(path: Union[str, Path], tbl: Optional[ThetaTable] = None) -> ThetaTable:
    """Load a cache file into a table (a fresh builtin table by default).

    Entries get their sidecar provenance when the sidecar exists, and
    "ingested" otherwise. A failing load leaves the table untouched: a
    sidecar tag for an n the cache lacks, or a value outside the
    universal bounds for its n, raises ParseError before the table is
    touched, and the entries then go through `ThetaTable.merge`, so a
    value conflicting with one already in the table raises ConflictError
    and adds nothing.

    When "<cache>.lock" exists, the load holds a shared lock on it, so it
    waits for a `save_table` that is between its two renames. The lock
    file is opened read-only and never created: a cache that no save has
    written is read unlocked.
    """
    try:
        lock = open(_lock_path(path), "rb")
    except FileNotFoundError:
        return _load(path, tbl)
    with lock:
        if fcntl is not None:
            fcntl.flock(lock, fcntl.LOCK_SH)  # released when the file closes
        return _load(path, tbl)


def _load(path: Union[str, Path], tbl: Optional[ThetaTable]) -> ThetaTable:
    """`load_table` without the lock."""
    if tbl is None:
        tbl = ThetaTable()
    entries = [e for e in parse_bfile(path) if e.n != 0]
    sidecar = provenance_path(path)
    tags = _read_provenances(sidecar) if sidecar.exists() else {}
    orphans = sorted(set(tags) - {e.n for e in entries})
    if orphans:
        raise ParseError(f"{sidecar}: tags for n={orphans} that {path} does not hold")
    violation = _bounds_violation(entries)
    if violation is not None:
        raise ParseError(f"{path}: {violation}; the cache is corrupt")
    tbl.merge((e.n, e.value, tags.get(e.n, PROVENANCE_INGESTED)) for e in entries)
    return tbl


def emit_figure_data(tbl: ThetaTable, n_max: int, sink: Union[str, Path, TextIO],
                     digits: int = FIGURE_DIGITS_DEFAULT) -> None:
    """Write "n theta(n)^(1/n)" lines for n = 1..n_max, ascending.

    Roots are rounded to nearest at `digits` decimal places via exact
    integer arithmetic. Raises ValueUnavailable naming the first missing
    n; nothing is written in that case.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    rows = []
    for n in range(1, n_max + 1):
        value = tbl.get(n)
        if value is None:
            raise ValueUnavailable(f"no count for n={n}; figure needs all of 1..{n_max}")
        rows.append(f"{n} {decimal_nth_root(value, n, digits, ROUND_NEAREST).text}\n")
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(rows)
    else:
        sink.writelines(rows)
