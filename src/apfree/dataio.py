"""Reading and writing the package's on-disk formats.

Two formats, both plain UTF-8 text with LF line endings:

  * b-file: one "n value" pair per line, single space, n strictly
    ascending, '#' comment lines allowed. This is the OEIS b-file
    convention, and the persistent count cache deliberately uses the
    same grammar so caches and published data files interchange. A
    cache also carries one comment line "#provenance n tag" per entry,
    n >= 1 strictly ascending, which every other b-file reader skips. A
    cache load reads its tag lines in the same one pass as its values.
  * figure data: lines "n root", where root is theta(n)^(1/n) rounded
    to a fixed number of decimal places, loadable by any two-column
    space-separated plot reader.

No network access anywhere; external sequence data is always a local
file supplied by the caller.
"""

from __future__ import annotations

import errno
import os
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, TextIO, Union

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
    """Whether token is an integer of the b-file and tag-line grammar:
    ASCII digits after an optional minus sign. int() alone also takes
    "+4", "1_0" and non-ASCII digits."""
    return token.isascii() and token.removeprefix("-").isdigit()


def parse_bfile(source: Source) -> list[BFileEntry]:
    """Parse b-file text into entries, enforcing the grammar.

    Raises ParseError with a line number for malformed lines, wrong token
    counts, non-integers, integers too long for int(), negative values,
    or non-ascending n (which also catches duplicates); when the source
    is a path, the message ends with " in {path}".
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return _parse_bfile_lines(fh, f" in {source}")
    return _parse_bfile_lines(source, "")


def _int(token: str, lineno: int, where: str) -> int:
    """int(token) for a token of the grammar, or ParseError past the
    interpreter's int/str digit limit."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"integer token of {len(token)} characters is too long{where}",
                         line=lineno) from None


def _parse_bfile_lines(lines: Iterable[str], where: str,
                       tags: Optional[dict[int, str]] = None) -> list[BFileEntry]:
    """The entries of b-file lines, each checked where it stands, so the
    first faulty line is the one reported. Given a `tags` dict, each
    "#provenance n tag" line is checked there too, n >= 1 and strictly
    above the tag line's before, and stored as tags[n] = tag; else it is
    a comment.
    """
    entries: list[BFileEntry] = []
    last_n = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        tokens = line.split()
        if tags is not None and tokens[:1] == ["#provenance"]:
            if not (len(tokens) == 3 and _is_integer(tokens[1]) and tokens[2] in PROVENANCES):
                raise ParseError(f"bad provenance line {line!r}{where}", line=lineno)
            n = _int(tokens[1], lineno, where)
            if n < 1:
                raise ParseError(f"bad provenance line {line!r}{where}", line=lineno)
            if tags and n <= next(reversed(tags)):
                raise ParseError(f"bad provenance line {line!r}, n not strictly ascending,{where}",
                                 line=lineno)
            tags[n] = tokens[2]
            continue
        if not line or line.startswith("#"):
            continue
        if len(tokens) != 2:
            raise ParseError(
                f"expected two tokens, got {len(tokens)}: {line!r}{where}", line=lineno)
        if not (_is_integer(tokens[0]) and _is_integer(tokens[1])):
            raise ParseError(f"non-integer token in {line!r}{where}", line=lineno)
        n, value = _int(tokens[0], lineno, where), _int(tokens[1], lineno, where)
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


def save_table(tbl: ThetaTable, path: Union[str, Path]) -> None:
    """Merge the cache at `path` into the table, then write the table
    there as a b-file whose "#provenance n tag" lines precede its values.
    The first save creates the cache and its directory; an error doing so
    names the cache path, a regular file in it as NotADirectoryError.

    The merge is load_table into `tbl`, all or none through
    `ThetaTable.merge`: the table gains the entries that another writer
    saved since it was loaded and keeps its own tags for the ones it
    already holds, and a cache that disagrees with the table raises
    ConflictError (a corrupt one ParseError) before anything is added
    or written. Each save holds an exclusive lock on "<cache>.lock" from
    its re-read through its rename, so two processes that load the same
    cache and each add an entry both keep it, however their saves
    interleave. The lock file is left in place: removing it would let a
    later save lock a new file while an earlier one still holds the old.
    Where fcntl is missing (not POSIX), saves run unlocked.

    The file is written beside its target and renamed over it, so a
    reader sees the old cache or the new one, never part of either, and
    a failed write leaves the old cache as it was. There is no fsync;
    the rename guards against a failed write, not against power loss.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # name the cache, not the directory
        code = errno.ENOTDIR if isinstance(exc, FileExistsError) else exc.errno
        raise OSError(code, os.strerror(code), str(path)) from exc
    with open(f"{path}.lock", "a") as lock:
        if fcntl is not None:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        load_table(path, tbl)
        items = tbl.items_sorted()
        lines = [f"#provenance {n} {e.provenance}\n" for n, e in items]
        lines += [f"{n} {e.value}\n" for n, e in items]
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(lines)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def load_table(path: Union[str, Path], tbl: Optional[ThetaTable] = None) -> ThetaTable:
    """Load a cache file into a table (a fresh builtin table by default).
    A cache that is not there, file or directory, is empty.

    Entries get the tag of their "#provenance" line, and "ingested" when
    they have none. The file is read once, line by line through one
    open, so the values and the tags come from the same save; a load
    takes no lock, as a save replaces the whole file by one rename. A
    failing load leaves the table untouched. The first malformed line,
    value or tag, raises ParseError, as do a tag for an n the cache
    holds no value for and a value outside the universal bounds for its
    n. The entries then go through `ThetaTable.merge`: a "builtin" tag
    on a value the package does not ship raises ParseError, and a value
    conflicting with one already in the table raises ConflictError.
    """
    if tbl is None:
        tbl = ThetaTable()
    tags: dict[int, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entries = [e for e in _parse_bfile_lines(fh, f" in {path}", tags) if e.n != 0]
    except FileNotFoundError:
        return tbl
    orphans = sorted(tags.keys() - {e.n for e in entries})
    if orphans:
        raise ParseError(f"{path}: provenance tags for n={orphans} that it holds no value for")
    violation = _bounds_violation(entries)
    if violation is not None:
        raise ParseError(f"{path}: {violation}; the cache is corrupt")
    try:  # the parser checked n, value and tag, so only a builtin claim is refused here
        tbl.merge((e.n, e.value, tags.get(e.n, PROVENANCE_INGESTED)) for e in entries)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
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
