import io
import re
import subprocess
import sys
import textwrap
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apfree import (BFileEntry, ConflictError, ParseError, ThetaTable,
                    ValueUnavailable, dataio, emit_figure_data,
                    global_theta_bounds, ingest_bfile, load_table, parse_bfile,
                    save_table)
from apfree.table import (PROVENANCE_BUILTIN, PROVENANCE_COMPUTED,
                          PROVENANCE_INGESTED)
from conftest import COMPUTED_MID, FIXTURE_BFILE, THETA_64, run_cli

needs_flock = pytest.mark.skipif(dataio.fcntl is None, reason="needs POSIX flock")


class TestParseBFile:
    def test_basic(self):
        entries = parse_bfile(io.StringIO("# comment\n1 1\n2 2\n\n3 4\n"))
        assert entries == [BFileEntry(1, 1), BFileEntry(2, 2), BFileEntry(3, 4)]

    def test_accepts_path(self, tmp_path):
        p = tmp_path / "b.txt"
        p.write_text("5 20\n")
        assert parse_bfile(p) == [BFileEntry(5, 20)]

    @pytest.mark.parametrize("text,line", [
        ("1 1\n2 2 3\n", 2),
        ("1 one\n", 1),
        ("1 1\n1 1\n", 2),      # duplicate n
        ("2 2\n1 1\n", 2),      # descending n
        ("-1 1\n", 1),
        ("1 -5\n", 1),
        ("justonetoken\n", 1),
        # int() takes these; the grammar does not.
        ("1 1\n4 1_0\n", 2),
        ("1 1\n5 \u0662\u0660\n", 2),  # Arabic-Indic digits for 20
        ("+1 1\n", 1),
        ("1 +1\n", 1),
        ("1 1\n2 \uff12\n", 2),  # fullwidth 2
    ])
    def test_malformed_lines_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_bfile(io.StringIO(text))
        assert exc.value.line == line

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter has no int/str digit limit")
    def test_token_past_the_int_digit_limit_names_line_and_file(self, tmp_path):
        # int() rejects decimal strings longer than the interpreter
        # converts by default (4300 digits, from Python 3.11 on).
        token = "1" * 5000
        p = tmp_path / "b.txt"
        p.write_text(f"1 1\n2 {token}\n")
        with pytest.raises(ParseError, match=rf"^line 2: .* in {re.escape(str(p))}$") as exc:
            parse_bfile(p)
        assert exc.value.line == 2
        assert token not in str(exc.value)
        assert "integer token of 5000 characters is too long" in str(exc.value)


class TestIngest:
    def test_matching_builtins(self):
        tbl = ThetaTable()
        result = ingest_bfile(io.StringIO("1 1\n2 2\n3 4\n"), tbl)
        assert [e.n for e in result.accepted] == [1, 2, 3]
        assert result.matched == result.accepted
        assert not result.added
        assert tbl.provenance(1) == PROVENANCE_BUILTIN

    def test_large_builtin_matches(self):
        tbl = ThetaTable()
        result = ingest_bfile(io.StringIO(f"64 {THETA_64}\n"), tbl)
        assert len(result.matched) == 1

    def test_conflict_with_builtin(self):
        with pytest.raises(ConflictError):
            ingest_bfile(io.StringIO("4 11\n"), ThetaTable())

    def test_new_entries_get_ingested_provenance(self):
        tbl = ThetaTable()
        result = ingest_bfile(io.StringIO("12 6128\n"), tbl)
        assert result.added == (BFileEntry(12, 6128),)
        assert tbl.value(12) == 6128
        assert tbl.provenance(12) == PROVENANCE_INGESTED

    def test_index_zero_is_skipped(self):
        tbl = ThetaTable()
        result = ingest_bfile(io.StringIO("0 1\n1 1\n"), tbl)
        assert result.skipped == (BFileEntry(0, 1),)
        assert 0 not in tbl

    def test_universal_bounds_guard(self):
        # 1000 is far below 2^11, so a typo like this cannot slip in.
        with pytest.raises(ConflictError):
            ingest_bfile(io.StringIO("12 1000\n"), ThetaTable())
        # And far above the factorial bound.
        with pytest.raises(ConflictError):
            ingest_bfile(io.StringIO("12 99999999999\n"), ThetaTable())

    def test_failed_ingest_commits_nothing(self):
        tbl = ThetaTable()
        before = len(tbl)
        with pytest.raises(ConflictError):
            ingest_bfile(io.StringIO("12 6128\n13 12841\n14 1\n"), tbl)
        assert len(tbl) == before
        assert 12 not in tbl

    def test_new_entry_then_conflict_commits_nothing(self):
        # n ascends, so the conflict is with the builtin theta(64), and the
        # wrong value is inside the universal bounds: merge must refuse it.
        tbl = ThetaTable()
        with pytest.raises(ConflictError, match=r"^n=64: .*disagrees"):
            ingest_bfile(io.StringIO(f"12 6128\n64 {THETA_64 + 1}\n"), tbl)
        assert 12 not in tbl
        assert tbl.value(64) == THETA_64

    def test_ingest_is_idempotent(self):
        tbl = ThetaTable()
        first = ingest_bfile(FIXTURE_BFILE, tbl)
        assert {e.n: e.value for e in first.added} == COMPUTED_MID
        second = ingest_bfile(FIXTURE_BFILE, tbl)
        assert not second.added
        assert len(second.matched) == len(first.added) + len(first.matched)


class TestSaveLoad:
    def test_round_trip_entries_and_provenance(self, tmp_path):
        path = tmp_path / "cache.txt"
        tbl = ThetaTable()
        tbl.insert(12, 6128, PROVENANCE_COMPUTED)
        tbl.insert(13, 12840, PROVENANCE_INGESTED)
        save_table(tbl, path)
        loaded = load_table(path)
        assert loaded.items_sorted() == tbl.items_sorted()
        assert loaded.provenance(12) == PROVENANCE_COMPUTED
        assert loaded.provenance(13) == PROVENANCE_INGESTED
        assert loaded.provenance(1) == PROVENANCE_BUILTIN

    def test_load_empty_file_keeps_builtins(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("")
        loaded = load_table(path)
        assert loaded.items_sorted() == ThetaTable().items_sorted()

    @pytest.mark.parametrize("name", ["c.txt", "nowhere/c.txt"])
    def test_a_cache_that_is_not_there_is_empty(self, tmp_path, name):
        loaded = load_table(tmp_path / name)
        assert loaded.items_sorted() == ThetaTable().items_sorted()
        assert not (tmp_path / name).exists()

    def test_a_cache_that_cannot_be_read_is_an_error(self, tmp_path):
        (tmp_path / "dir").mkdir()
        (tmp_path / "plain").touch()
        for path in (tmp_path / "dir", tmp_path / "plain" / "c.txt",
                     tmp_path / "plain" / "sub" / "c.txt"):
            with pytest.raises(OSError, match=re.escape(str(path))):
                load_table(path)
            with pytest.raises(OSError, match=re.escape(str(path))):
                save_table(ThetaTable(), path)

    def test_load_duplicate_n_is_parse_error(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("12 6128\n12 6128\n")
        with pytest.raises(ParseError):
            load_table(path)

    @pytest.mark.parametrize("text", ["4 11\n", "#provenance 4 computed\n4 11\n",
                                      "#provenance 4 ingested\n4 11\n"],
                             ids=["untagged", "computed", "ingested"])
    def test_load_conflicting_value_is_conflict_error(self, tmp_path, text):
        # Only a "builtin" tag must name a shipped value (else exit 2);
        # any other value that disagrees with the builtins is a conflict.
        path = tmp_path / "cache.txt"
        path.write_text(text)
        with pytest.raises(ConflictError, match="n=4"):
            load_table(path)
        code, out, _ = run_cli(["verify", "--cache", str(path)])
        assert (code, out) == (1, "")

    def test_failed_load_commits_nothing(self, tmp_path):
        # n=12 is new and fine; n=13 conflicts and must stop the load
        # before n=12 is inserted, as a failed ingest does.
        path = tmp_path / "cache.txt"
        path.write_text("12 6128\n13 99999\n")
        tbl = ThetaTable()
        tbl.insert(13, 12840, PROVENANCE_COMPUTED)
        before = tbl.items_sorted()
        with pytest.raises(ConflictError, match="n=13"):
            load_table(path, tbl)
        assert tbl.items_sorted() == before

    def test_load_without_tag_lines_defaults_to_ingested(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("12 6128\n")
        assert load_table(path).provenance(12) == PROVENANCE_INGESTED

    def test_an_old_provenance_sidecar_is_not_read(self, tmp_path):
        # Tags once lived in "<cache>.provenance"; such a file is ignored,
        # malformed or not, and its entries load with the conservative tag.
        path = tmp_path / "cache.txt"
        path.write_text("12 6128\n")
        (tmp_path / "cache.txt.provenance").write_text("12 computed\nx y\n")
        assert load_table(path).provenance(12) == PROVENANCE_INGESTED

    def test_load_rejects_value_outside_universal_bounds(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("20 5\n")
        with pytest.raises(ParseError, match="n=20"):
            load_table(path)
        code, _, err = run_cli(["verify", "--cache", str(path)])
        assert code == 2 and "universal bounds" in err

    def test_load_reports_corruption_before_conflicts(self, tmp_path):
        # The bounds are checked on the whole file before any entry is
        # compared with the table, so a corrupt cache reads as corrupt.
        path = tmp_path / "cache.txt"
        path.write_text("4 11\n12 1000\n")
        tbl = ThetaTable()
        with pytest.raises(ParseError, match="the cache is corrupt"):
            load_table(path, tbl)
        assert tbl.value(4) == 10

    def test_load_rejects_tag_for_an_n_the_cache_lacks(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("#provenance 12 computed\n#provenance 13 computed\n12 6128\n")
        with pytest.raises(ParseError, match=r"n=\[13\]"):
            load_table(path)
        code, _, err = run_cli(["verify", "--cache", str(path)])
        assert code == 2 and "13" in err

    @pytest.mark.parametrize("tags", [
        "#provenance 12 computed\n#provenance x computed\n",
        "#provenance 12 computed\n#provenance 13\n",
        "#provenance 12 computed\n#provenance 13 computed extra\n",
        "#provenance 12 computed\n#provenance 13 guessed\n",
        "#provenance 12 computed\n#provenance +13 computed\n",
        "#provenance 12 computed\n#provenance 1_3 computed\n",
        "#provenance 12 computed\n#provenance \u0661\u0663 computed\n",
        "#provenance 12 computed\n#provenance 12 ingested\n",
        "#provenance 13 computed\n#provenance 12 computed\n",
    ], ids=["non-integer-n", "one-token", "three-tokens", "unknown-tag", "plus-sign",
            "underscore", "non-ascii-digits", "repeated-n", "descending-n"])
    def test_load_names_the_malformed_tag_line(self, tmp_path, tags):
        path = tmp_path / "cache.txt"
        path.write_text(tags + "12 6128\n13 12840\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"^line 2: .*cache\.txt$"):
            load_table(path)
        code, out, err = run_cli(["verify", "--cache", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2: bad provenance line")
        assert str(path) in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter has no int/str digit limit")
    def test_tag_index_past_the_int_digit_limit_names_line_and_file(self, tmp_path):
        path = tmp_path / "cache.txt"
        token = "1" * 5000
        path.write_text(f"#provenance 1 computed\n#provenance {token} computed\n1 1\n2 2\n")
        with pytest.raises(ParseError,
                           match=rf"^line 2: .* in {re.escape(str(path))}$") as exc:
            load_table(path)
        assert exc.value.line == 2
        assert token not in str(exc.value)
        # Tag lines and value lines share one guard, and so one message.
        assert "integer token of 5000 characters is too long" in str(exc.value)

    def test_the_first_faulty_line_is_reported(self, tmp_path):
        # Tag lines are checked where they stand, in the one pass that
        # reads the values, so a bad tag on line 2 wins over a bad value
        # on line 4.
        path = tmp_path / "cache.txt"
        path.write_text("#provenance 12 computed\n#provenance x computed\n12 6128\n13 x\n")
        with pytest.raises(ParseError, match="^line 2: bad provenance line") as exc:
            load_table(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("text,n", [
        ("#provenance 13 builtin\n13 12840\n", 13),
        ("#provenance 5 builtin\n5 21\n", 5),
        (f"#provenance 5 builtin\n#provenance 64 builtin\n5 20\n64 {THETA_64 + 1}\n", 64),
    ], ids=["n-not-shipped", "value-not-shipped", "large-value-not-shipped"])
    def test_a_builtin_tag_must_name_a_shipped_value(self, tmp_path, text, n):
        path = tmp_path / "cache.txt"
        path.write_text(text)
        tbl = ThetaTable()
        before = tbl.items_sorted()
        with pytest.raises(ParseError, match=rf"builtin tags for n=\[{n}\]"):
            load_table(path, tbl)
        assert tbl.items_sorted() == before
        code, out, err = run_cli(["verify", "--cache", str(path)])
        assert (code, out) == (2, "")
        assert "builtin" in err and str(path) in err

    def test_a_builtin_claim_is_refused_before_a_conflict(self, tmp_path):
        # 4 11 disagrees with the builtin theta(4) = 10, but the forged
        # builtin tag on 13 is found first: exit 2, not a conflict's 1.
        path = tmp_path / "cache.txt"
        path.write_text("#provenance 4 computed\n#provenance 13 builtin\n4 11\n13 12840\n")
        with pytest.raises(ParseError, match=r"builtin tags for n=\[13\]"):
            load_table(path)
        code, out, err = run_cli(["verify", "--cache", str(path)])
        assert (code, out) == (2, "")
        assert str(path) in err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_a_tag_line_must_name_n_at_least_one(self, tmp_path, n):
        path = tmp_path / "cache.txt"
        path.write_text(f"#provenance {n} computed\n0 1\n")
        with pytest.raises(ParseError, match="^line 1: bad provenance line") as exc:
            load_table(path)
        assert exc.value.line == 1
        code, out, err = run_cli(["verify", "--cache", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: bad provenance line")

    def test_a_save_is_one_file_and_one_rename(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.txt"
        tbl = ThetaTable(include_builtins=False)
        tbl.insert(12, 6128, PROVENANCE_COMPUTED)
        tbl.insert(13, 12840, PROVENANCE_INGESTED)
        replace, renamed = dataio.os.replace, []

        def counted_replace(src, dst):
            renamed.append(dst)
            replace(src, dst)

        monkeypatch.setattr(dataio.os, "replace", counted_replace)
        save_table(tbl, path)
        assert renamed == [path]
        assert path.read_text() == ("#provenance 12 computed\n#provenance 13 ingested\n"
                                    "12 6128\n13 12840\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.txt", "cache.txt.lock"]

    def test_a_saved_cache_is_a_bfile_and_ingest_ignores_its_tags(self, tmp_path):
        cache, other = tmp_path / "cache.txt", tmp_path / "other.txt"
        tbl = ThetaTable(include_builtins=False)
        tbl.insert(12, 6128, PROVENANCE_COMPUTED)
        tbl.insert(13, 12840, PROVENANCE_INGESTED)
        tbl.insert(14, 29380, PROVENANCE_COMPUTED)
        save_table(tbl, cache)
        assert parse_bfile(cache) == [BFileEntry(n, e.value) for n, e in tbl.items_sorted()]
        code, _, _ = run_cli(["ingest", str(cache), "--cache", str(other)])
        assert code == 0
        ingested = load_table(other)
        assert {n: ingested.provenance(n) for n in (12, 13, 14)} == dict.fromkeys(
            (12, 13, 14), PROVENANCE_INGESTED)

    @pytest.mark.parametrize("failing_step", ["write", "rename"])
    def test_failed_save_leaves_the_old_cache(self, tmp_path, monkeypatch, failing_step):
        path = tmp_path / "cache.txt"
        old = ThetaTable()
        old.insert(12, 6128, PROVENANCE_COMPUTED)
        save_table(old, path)
        before = path.read_bytes()
        new = ThetaTable()
        new.insert(13, 12840, PROVENANCE_COMPUTED)

        class FullDisk:
            """A temporary file that takes one line, then runs out of space."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def writelines(self, lines):
                self.fh.write(lines[0])
                raise OSError("disk full")

        def failing_open(file, mode="r", **kwargs):
            fh = open(file, mode, **kwargs)
            return FullDisk(fh) if str(file).endswith(".tmp") else fh

        def failing_replace(src, dst):
            raise OSError("disk full")

        if failing_step == "write":
            monkeypatch.setattr(dataio, "open", failing_open, raising=False)
        else:
            monkeypatch.setattr(dataio.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            save_table(new, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        loaded = load_table(path)
        assert loaded.items_sorted() == old.items_sorted()
        assert loaded.provenance(12) == PROVENANCE_COMPUTED
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.txt", "cache.txt.lock"]

    def test_concurrent_writers_keep_both_entries(self, tmp_path):
        # Both tables load the same cache before either saves; the second
        # save merges what the first wrote instead of dropping it.
        path = tmp_path / "cache.txt"
        save_table(ThetaTable(), path)
        first, second = load_table(path), load_table(path)
        first.insert(12, 6128, PROVENANCE_COMPUTED)
        second.insert(13, 12840, PROVENANCE_INGESTED)
        save_table(first, path)
        save_table(second, path)
        again = load_table(path)
        assert again.value(12) == 6128 and again.value(13) == 12840
        assert again.provenance(12) == PROVENANCE_COMPUTED
        assert again.provenance(13) == PROVENANCE_INGESTED

    @needs_flock
    def test_a_save_waits_for_the_lock_and_keeps_what_its_holder_wrote(self, tmp_path):
        path, expected = tmp_path / "cache.txt", tmp_path / "expected.txt"
        save_table(ThetaTable(), path)
        saver = subprocess.Popen([sys.executable, "-c", textwrap.dedent("""
            import sys
            from apfree import ThetaTable, save_table
            tbl = ThetaTable()
            tbl.insert(12, 6128, "computed")
            print("saving", flush=True)
            save_table(tbl, sys.argv[1])
        """), str(path)], stdout=subprocess.PIPE, text=True)
        with open(tmp_path / "cache.txt.lock", "a") as lock:
            dataio.fcntl.flock(lock, dataio.fcntl.LOCK_EX)
            assert saver.stdout.readline() == "saving\n"
            time.sleep(0.5)  # an unlocked save finishes well within this
            assert saver.poll() is None
            # What another saver writes between its re-read and its rename.
            path.write_text("#provenance 13 ingested\n13 12840\n")
        assert saver.wait(timeout=60) == 0
        saver.stdout.close()
        merged = ThetaTable()
        merged.insert(12, 6128, PROVENANCE_COMPUTED)
        merged.insert(13, 12840, PROVENANCE_INGESTED)
        save_table(merged, expected)
        assert path.read_bytes() == expected.read_bytes()

    @needs_flock
    def test_two_processes_saving_at_once_lose_no_entry(self, tmp_path):
        path = tmp_path / "cache.txt"
        script = textwrap.dedent("""
            import sys
            from apfree import ThetaTable, global_theta_bounds, save_table
            path, first = sys.argv[1], int(sys.argv[2])
            tbl = ThetaTable(include_builtins=False)
            for n in range(first, first + 20):
                tbl.insert(n, global_theta_bounds(n)[0], "computed")
                save_table(tbl, path)
        """)
        savers = [subprocess.Popen([sys.executable, "-c", script, str(path), str(first)])
                  for first in (17, 37)]
        assert [saver.wait(timeout=120) for saver in savers] == [0, 0]
        tbl = ThetaTable(include_builtins=False)
        load_table(path, tbl)
        assert tbl.available(56) == list(range(17, 57))

    @needs_flock
    def test_loads_during_saves_never_see_half_a_save(self, tmp_path):
        # Loads take no lock: each save replaces the whole cache by one
        # rename, and a load reads it through one open, so every load sees
        # one complete save. A save that wrote in place, or kept its tags
        # in a second file, would let a load find tags for an n it holds
        # no value for, or a half-written line, and raise ParseError.
        path = tmp_path / "cache.txt"
        save_table(ThetaTable(include_builtins=False), path)
        saver = subprocess.Popen([sys.executable, "-c", textwrap.dedent("""
            import sys
            from apfree import ThetaTable, global_theta_bounds, save_table
            tbl = ThetaTable(include_builtins=False)
            for n in range(17, 217):
                tbl.insert(n, global_theta_bounds(n)[0], "computed")
                save_table(tbl, sys.argv[1])
        """), str(path)])
        loads, torn = 0, []
        deadline = time.monotonic() + 120
        while saver.poll() is None and time.monotonic() < deadline:
            try:
                load_table(path, ThetaTable(include_builtins=False))
            except ParseError as exc:
                torn.append(str(exc))
            loads += 1
        assert saver.wait(timeout=60) == 0
        assert loads > 0 and torn == []
        assert load_table(path, ThetaTable(include_builtins=False)).available(216) == \
            list(range(17, 217))

    @needs_flock
    def test_a_load_takes_no_lock(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("12 6128\n")
        assert load_table(path).value(12) == 6128
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.txt"]
        # A save in progress holds the lock; a load still returns at once.
        loaded = []
        with open(tmp_path / "cache.txt.lock", "a") as lock:
            dataio.fcntl.flock(lock, dataio.fcntl.LOCK_EX)
            loader = threading.Thread(target=lambda: loaded.append(load_table(path)))
            loader.start()
            loader.join(timeout=10)
            assert not loader.is_alive()
        assert loaded[0].value(12) == 6128
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.txt", "cache.txt.lock"]

    def test_save_over_a_disagreeing_cache_writes_nothing(self, tmp_path):
        path = tmp_path / "cache.txt"
        other = ThetaTable()
        other.insert(12, 6128, PROVENANCE_COMPUTED)
        save_table(other, path)
        before = path.read_bytes()
        tbl = ThetaTable()
        tbl.insert(12, 6129, PROVENANCE_INGESTED)
        with pytest.raises(ConflictError, match="n=12"):
            save_table(tbl, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.txt", "cache.txt.lock"]

    def test_save_then_reingest_round_trips(self, tmp_path):
        path = tmp_path / "cache.txt"
        tbl = ThetaTable()
        ingest_bfile(FIXTURE_BFILE, tbl)
        save_table(tbl, path)
        again = load_table(path)
        assert again.items_sorted() == tbl.items_sorted()

    @given(st.sets(st.integers(min_value=17, max_value=60), max_size=8).flatmap(
        lambda ns: st.fixed_dictionaries(
            {n: st.integers(*global_theta_bounds(n)) for n in ns})))
    def test_round_trip_random_tables(self, extra):
        import tempfile
        from pathlib import Path
        tbl = ThetaTable()
        for n, v in extra.items():
            tbl.insert(n, v, PROVENANCE_COMPUTED)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cache.txt"
            save_table(tbl, path)
            assert load_table(path).items_sorted() == tbl.items_sorted()


class TestEmitFigureData:
    def test_single_line(self):
        sink = io.StringIO()
        emit_figure_data(ThetaTable(), 1, sink)
        assert sink.getvalue() == "1 1.000000\n"

    def test_known_roots(self):
        sink = io.StringIO()
        emit_figure_data(ThetaTable(), 3, sink)
        assert sink.getvalue().splitlines() == [
            "1 1.000000", "2 1.414214", "3 1.587401",
        ]

    def test_missing_value_names_first_gap(self):
        with pytest.raises(ValueUnavailable) as exc:
            emit_figure_data(ThetaTable(), 12, io.StringIO())
        assert "n=12" in str(exc.value)

    def test_rows_ascend_and_round_trip(self):
        sink = io.StringIO()
        tbl = ThetaTable()
        emit_figure_data(tbl, 11, sink, digits=6)
        rows = [line.split() for line in sink.getvalue().splitlines()]
        assert [int(r[0]) for r in rows] == list(range(1, 12))
        for n_str, root_str in rows:
            n = int(n_str)
            scaled = round(float(root_str) * 10 ** 6)
            # Emitted decimals sit within half an ulp of the true root:
            # (2*scaled - 1)^n <= 2^n * theta(n) * 10^(6n) <= (2*scaled + 1)^n.
            target = tbl.value(n) * 10 ** (6 * n) << n
            assert (2 * scaled - 1) ** n <= target <= (2 * scaled + 1) ** n

    def test_writes_to_path(self, tmp_path):
        out = tmp_path / "fig.dat"
        emit_figure_data(ThetaTable(), 2, out)
        assert out.read_text() == "1 1.000000\n2 1.414214\n"

    def test_rejects_bad_max(self):
        with pytest.raises(ValueError):
            emit_figure_data(ThetaTable(), 0, io.StringIO())
