import hashlib
import runpy
import subprocess
import sys
import textwrap

import pytest

from apfree import ThetaTable, counting, load_table, save_table
from apfree.table import PROVENANCE_COMPUTED, PROVENANCE_INGESTED
from conftest import (COMPUTED_MID, FIXTURE_BFILE, PAPER_SMALL, REPO_ROOT,
                      pow2_newton_root, run_checker, run_cli)

COMPUTE_THETA = REPO_ROOT / "scripts" / "compute_theta.py"


class TestCount:
    def test_prints_the_count(self):
        code, out, _ = run_cli(["count", "6"])
        assert (code, out) == (0, "48\n")

    def test_oracle_flag_agrees(self):
        for n in range(1, 11):
            oracle = run_cli(["count", str(n), "--oracle"])
            assert oracle == (0, f"{PAPER_SMALL[n - 1]}\n", "")
            assert oracle == run_cli(["count", str(n)])

    def test_oracle_ceiling_is_enforced(self):
        code, _, err = run_cli(["count", "11", "--oracle"])
        assert code == 2
        assert "oracle ceiling is 10" in err
        assert "`ceiling`" not in err  # a CLI user has no keyword to raise

    def test_jobs_variants(self):
        baseline = run_cli(["count", "9"])
        for jobs in ("2", "4"):
            assert run_cli(["count", "9", "--jobs", jobs]) == baseline

    def test_cache_write_and_reuse(self, tmp_path):
        cache = str(tmp_path / "cache.txt")
        code, out, _ = run_cli(["count", "12", "--cache", cache])
        assert (code, out) == (0, "6128\n")
        # Second run recomputes and passes the consistency guard.
        code, out, _ = run_cli(["count", "12", "--cache", cache])
        assert (code, out) == (0, "6128\n")

    def test_first_save_creates_the_cache_directory(self, tmp_path):
        cache = tmp_path / "new" / "dir" / "c.txt"
        assert run_cli(["count", "12", "--cache", str(cache)])[:2] == (0, "6128\n")
        assert "#provenance 12 computed\n" in cache.read_text()

    def test_an_unreadable_cache_fails_before_counting(self, tmp_path, monkeypatch):
        (tmp_path / "F").touch()
        cache = tmp_path / "F" / "c.txt"

        def not_called(n):
            raise AssertionError(f"counted theta({n}) before reading the cache")

        monkeypatch.setattr(counting, "count_dp", not_called)
        code, out, err = run_cli(["count", "12", "--cache", str(cache)])
        assert (code, out) == (2, "")
        assert str(cache) in err

    def test_mismatch_against_cache_fails(self, tmp_path):
        cache = tmp_path / "cache.txt"
        tbl = ThetaTable(include_builtins=False)
        tbl.insert(8, 283, PROVENANCE_INGESTED)  # wrong on purpose
        save_table(tbl, cache)
        before = cache.read_bytes()
        code, _, err = run_cli(["count", "8", "--cache", str(cache)])
        assert code == 1
        assert "282" in err and "283" in err
        assert cache.read_bytes() == before

    def test_node_budget(self):
        # The subset DP has no budget, so the flag is not an option.
        code, out, err = run_cli(["count", "10", "--node-budget", "10"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --node-budget 10" in err

    def test_negative_node_budget_is_usage_error(self):
        # A negative budget is as unknown to argparse as any other.
        code, out, err = run_cli(["count", "5", "--node-budget", "-1"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --node-budget -1" in err

    @pytest.mark.parametrize("flags, message", [
        (["--node-budget", "-1"], "unrecognized arguments: --node-budget -1\n"),
        (["--jobs", "0"], "error: --jobs must be >= 1, got 0\n"),
        (["--node-budget", "10"], "unrecognized arguments: --node-budget 10\n"),
    ], ids=["negative-budget", "zero-jobs", "budget"])
    def test_oracle_route_validates_flags(self, flags, message):
        # --jobs is checked on every route, and no route takes a budget.
        code, out, err = run_cli(["count", "5", "--oracle", *flags])
        assert (code, out) == (2, "")
        assert err.endswith(message)


class TestComputeTheta:
    @staticmethod
    def run_script(*args):
        return subprocess.run([sys.executable, str(COMPUTE_THETA), *args],
                              capture_output=True, text=True, timeout=120)

    def test_fills_cache_then_reuses_it(self, tmp_path):
        cache = tmp_path / "ct" / "theta_cache.txt"
        first = self.run_script("--max", "12", "--cache", str(cache))
        assert first.returncode == 0, first.stderr
        tbl = ThetaTable(include_builtins=False)
        load_table(cache, tbl)
        assert tbl.available(12) == list(range(1, 13))
        assert [tbl.value(n) for n in range(1, 12)] == list(PAPER_SMALL)
        assert tbl.value(12) == COMPUTED_MID[12]
        lines = first.stdout.splitlines()
        assert lines[11].startswith("n=12: 6128  [computed now, ")
        assert lines[-1] == f"cache written to {cache}"

        assert "#provenance 12 computed\n" in cache.read_text()
        assert sorted(p.name for p in cache.parent.iterdir()) == [
            "theta_cache.txt", "theta_cache.txt.lock"]

        def stamps():
            return cache.read_bytes(), cache.stat().st_mtime_ns, cache.stat().st_ino

        written = stamps()
        second = self.run_script("--max", "12", "--cache", str(cache))
        assert second.returncode == 0, second.stderr
        lines = second.stdout.splitlines()
        assert "computed now" not in second.stdout
        for n, line in enumerate(lines[:11], start=1):
            assert line.startswith(f"n={n}: {PAPER_SMALL[n - 1]}  [builtin, ")
        assert lines[11].startswith("n=12: 6128  [computed, ")
        # Nothing new was computed, so the cache was not rewritten.
        assert stamps() == written
        assert lines[-1] == f"cache unchanged: {cache}"

    def test_writes_a_cache_when_nothing_is_computed(self, tmp_path):
        cache = tmp_path / "ct" / "theta_cache.txt"
        proc = self.run_script("--max", "5", "--cache", str(cache))
        assert proc.returncode == 0, proc.stderr
        loaded = load_table(cache, ThetaTable(include_builtins=False))
        assert loaded.items_sorted() == ThetaTable().items_sorted()

    def test_interrupted_run_keeps_what_it_computed(self, tmp_path, monkeypatch):
        cache = tmp_path / "ct" / "theta_cache.txt"
        count_dp = counting.count_dp

        def interrupted_at_13(n):
            if n == 13:
                raise RuntimeError("interrupted at n=13")
            return count_dp(n)

        monkeypatch.setattr(counting, "count_dp", interrupted_at_13)
        monkeypatch.setattr(sys, "argv", [str(COMPUTE_THETA), "--max", "13",
                                          "--cache", str(cache)])
        with pytest.raises(RuntimeError, match="interrupted at n=13"):
            runpy.run_path(str(COMPUTE_THETA), run_name="__main__")
        loaded = load_table(cache, ThetaTable(include_builtins=False))
        assert loaded.value(12) == COMPUTED_MID[12] == 6128
        assert loaded.provenance(12) == PROVENANCE_COMPUTED
        assert 13 not in loaded

    @pytest.mark.parametrize("text, code, message", [
        ("1 1\n2 x\n", 2, "error: line 2: non-integer token in '2 x'"),
        ("8 283\n", 1, "error: n=8: new value 283 (ingested) disagrees with existing 282"),
    ], ids=["malformed", "conflict"])
    def test_a_bad_cache_exits_as_apfree_does(self, tmp_path, text, code, message):
        cache = tmp_path / "c.txt"
        cache.write_text(text)
        proc = self.run_script("--max", "3", "--cache", str(cache))
        assert (proc.returncode, proc.stdout) == (code, "")
        assert proc.stderr.startswith(message)
        assert cache.read_text() == text

    @pytest.mark.parametrize("bounds, message", [
        (["--min", "0"], "error: --min must be >= 1, got 0"),
        (["--min", "5", "--max", "3"], "error: --max must be >= --min, got 3 < 5"),
    ], ids=["min-below-one", "max-below-min"])
    def test_bad_range_is_usage_error(self, tmp_path, bounds, message):
        cache = tmp_path / "ct" / "theta_cache.txt"
        proc = self.run_script(*bounds, "--cache", str(cache))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert message in proc.stderr
        assert not cache.parent.exists()


class TestCheck:
    def test_progression_found(self):
        code, out, _ = run_cli(["check", "1,2,3"])
        assert code == 1
        assert out == "3AP at (1,2,3): 1 2 3\n"

    def test_free(self):
        code, out, _ = run_cli(["check", "1,3,2"])
        assert (code, out) == (0, "FREE\n")

    def test_longer_witness(self):
        code, out, _ = run_cli(["check", "2,4,1,3,5"])
        assert code == 1
        assert out.startswith("3AP at (")

    def test_invalid_permutation(self):
        code, _, err = run_cli(["check", "1,1,2"])
        assert code == 2 and "error" in err

    def test_spaces_rejected(self):
        code, _, _ = run_cli(["check", "1, 2"])
        assert code == 2


class TestDouble:
    def test_even_first(self):
        assert run_cli(["double", "2,1", "1,2"])[:2] == (0, "4,2,1,3\n")

    def test_odd_first(self):
        code, out, _ = run_cli(["double", "2,1", "1,2", "--order", "odd-first"])
        assert (code, out) == (0, "1,3,4,2\n")

    def test_odd_variant(self):
        code, out, _ = run_cli(["double", "1", "2,1", "--odd"])
        assert (code, out) == (0, "2,3,1\n")

    def test_input_with_3ap_rejected(self):
        code, _, err = run_cli(["double", "1,2,3", "1,3,2"])
        assert code == 2 and "3AP" in err

    def test_length_mismatch(self):
        code, _, _ = run_cli(["double", "1", "1,2"])
        assert code == 2


class TestVerify:
    def test_builtin_sweep_passes(self):
        code, out, _ = run_cli(["verify", "--max", "11"])
        assert code == 0
        assert "summary: 28 passed, 0 failed, 3 skipped" in out
        assert "sandwich k=5: PASS  800 <= 1066 <= 8400" in out

    def test_skips_are_reported_not_failed(self):
        code, out, _ = run_cli(["verify"])  # default max includes 64 and 75
        assert code == 0
        assert "sandwich k=32: SKIP" in out
        assert "failed" in out.splitlines()[-1]

    def test_violation_fails(self, tmp_path):
        cache = tmp_path / "cache.txt"
        tbl = ThetaTable()
        # Inside the universal bounds for n=12 but above the doubling
        # sandwich, so exactly one check trips.
        tbl.insert(12, 1000000, PROVENANCE_INGESTED)
        save_table(tbl, cache)
        code, out, _ = run_cli(["verify", "--cache", str(cache), "--max", "12"])
        assert code == 1
        assert "sandwich k=6: FAIL" in out

    def test_violated_doubling_step(self, tmp_path):
        # theta(12) = 4000 keeps the universal bounds for n=12 but is below
        # 2*theta(6)^2 = 4608, so the m=3 step from n=6 to n=12 fails.
        bfile = tmp_path / "low12.bfile"
        bfile.write_text("12 4000\n")
        code, out, _ = run_cli(["verify", "--bfile", str(bfile)])
        assert code == 1
        lines = out.splitlines()
        assert ("monotone m=3: FAIL  t=0->1: 32 <= 48 <= 336 and 48 > 16: ok; "
                "t=1->2: 4608 <= 4000 <= 48384 and 4000 > 2304: VIOLATED") in lines
        assert lines[-1] == "summary: 31 passed, 2 failed, 13 skipped"

    def test_max_far_past_the_table_adds_no_work(self):
        # Only the n in the table, and their halves, are visited, so a
        # --max far past the largest n adds nothing but the note's bound.
        def lines(max_n):
            code, out, _ = run_cli(["verify", "--max", max_n])
            return code, [line for line in out.splitlines()
                          if not line.startswith("note:")]
        assert lines("1000000000000") == lines("1000000")

    @pytest.mark.parametrize("args", [["--max", "11"], []],
                             ids=["max-11", "whole-table"])
    def test_summary_tallies_every_check_line(self, args):
        _, out, _ = run_cli(["verify", *args])
        *checks, note, summary = out.splitlines()
        assert note.startswith("note:")
        statuses = [line.split(": ", 1)[1].split()[0] for line in checks]
        assert set(statuses) <= {"PASS", "FAIL", "SKIP"}
        assert summary == (f"summary: {statuses.count('PASS')} passed, "
                           f"{statuses.count('FAIL')} failed, "
                           f"{statuses.count('SKIP')} skipped")

    def test_informational_monotonicity_note(self):
        _, out, _ = run_cli(["verify", "--max", "11"])
        assert "nondecreasing" in out and "informational" in out

    @pytest.mark.parametrize("flag", ["--cache", "--bfile"])
    def test_malformed_file_is_named(self, tmp_path, flag):
        bad = tmp_path / "bad.txt"
        bad.write_text("12 x\n")
        code, out, err = run_cli(["verify", flag, str(bad)])
        assert (code, out) == (2, "")
        assert err == f"error: line 1: non-integer token in '12 x' in {bad}\n"

    @pytest.mark.parametrize("max_n", ["0", "-5"])
    def test_max_below_one_is_usage_error(self, max_n):
        code, out, err = run_cli(["verify", "--max", max_n])
        assert (code, out) == (2, "")
        assert err == f"error: --max must be >= 1, got {max_n}\n"


class TestSeparate:
    def test_default_certificate(self):
        code, out, _ = run_cli(["separate"])
        assert code == 0
        assert "separated: true" in out
        assert "lower_decimal: 2.27953231299" in out
        assert "upper_decimal: 2.27703523933" in out

    def test_out_file(self, tmp_path):
        out_path = tmp_path / "cert.txt"
        code, out, _ = run_cli(["separate", "--out", str(out_path)])
        assert code == 0
        assert out_path.read_text() == out

    def test_a_failed_out_write_prints_nothing(self, tmp_path):
        out_path = tmp_path / "missing" / "cert.txt"
        code, out, err = run_cli(["separate", "--out", str(out_path)])
        assert (code, out) == (2, "")
        assert str(out_path) in err

    def test_non_separating_instance_exits_one(self):
        code, out, _ = run_cli(["separate", "--low", "1,0", "--high", "1,0"])
        assert code == 1
        assert "separated: false" in out

    def test_missing_data_is_usage_error(self):
        code, _, err = run_cli(["separate", "--low", "1,7", "--high", "81,1"])
        assert code == 2 and "n=128" in err

    def test_wide_gap_certificate_past_the_int_str_digit_limit(self, tmp_path):
        # Synthetic counts of realistic size (about 2.3^n) inside the
        # universal bounds; lhs = (2 theta(128))^162 then has more digits
        # than the interpreter converts by default (4300).
        tbl = ThetaTable(include_builtins=False)
        tbl.insert(81, 9 ** 81 // 4 ** 81, PROVENANCE_INGESTED)
        tbl.insert(128, 23 ** 128 // 10 ** 128, PROVENANCE_INGESTED)
        tbl.insert(162, 9 ** 162 // 4 ** 162, PROVENANCE_INGESTED)
        cache = tmp_path / "cache.txt"
        save_table(tbl, cache)
        cert = tmp_path / "cert.txt"
        code, out, err = run_cli(["separate", "--cache", str(cache), "--low", "1,7",
                                  "--high", "81,1", "--out", str(cert)])
        assert (code, err) == (0, "")
        fields = dict(line.split(": ", 1) for line in out.splitlines()[1:])
        assert len(fields["lhs"]) > 4300 and len(fields["rhs"]) > 4300
        code, verdict = run_checker(cert)
        assert code == 0
        assert verdict.startswith("SOUND") and "separated" in verdict

    def test_digits_past_the_int_str_digit_limit(self, tmp_path):
        # 4400 places: each decimal's scaled root has more digits than
        # str() and int() convert by default (4300).
        cert = tmp_path / "cert.txt"
        code, out, err = run_cli(["separate", "--digits", "4400", "--out", str(cert)])
        assert (code, err) == (0, "")
        fields = dict(line.split(": ", 1) for line in out.splitlines()[1:])
        assert fields["lower_decimal"].startswith("2.27953231299")
        assert len(fields["lower_decimal"]) == len(fields["upper_decimal"]) == 4402
        code, verdict = run_checker(cert)
        assert code == 0
        assert verdict.startswith("SOUND") and "separated" in verdict
        # The checker accepts either neighbour of a root within one ulp,
        # so the exact bytes pin the rounding.
        assert hashlib.sha256(cert.read_bytes()).hexdigest() == (
            "6d70cae42b50092495302f29f750c672c02a2cbf87cf95d6efcd567ecced4ee2")

    def test_certificate_at_2000_digits(self, tmp_path):
        # Both roots are past roots._EXACT_BITS, so they come from the
        # bracketed path; the digest pins their bytes to the exact path's.
        cert = tmp_path / "cert.txt"
        code, out, err = run_cli(["separate", "--digits", "2000", "--out", str(cert)])
        assert (code, err) == (0, "")
        assert hashlib.sha256(cert.read_bytes()).hexdigest() == (
            "49785dc5de9ec18d190a0621f8b0bfe269a7f441ab2315134a60df55255e8144")
        code, verdict = run_checker(cert)
        assert code == 0
        assert verdict.startswith("SOUND") and "separated" in verdict

    def test_malformed_mt(self):
        code, _, _ = run_cli(["separate", "--low", "1;6"])
        assert code == 2

    @pytest.mark.parametrize("side, mt", [("--low", "0,1"), ("--high", "3,-1")])
    def test_out_of_range_mt_is_a_usage_error(self, side, mt):
        code, out, err = run_cli(["separate", side, mt])
        m, t = mt.split(",")
        assert (code, out) == (2, "")
        assert err == f"error: need m >= 1 and t >= 0, got m={m}, t={t}\n"

    def test_standalone_checker_accepts_default_certificate(self, tmp_path):
        cert = tmp_path / "cert.txt"
        assert run_cli(["separate", "--out", str(cert)])[0] == 0
        code, out = run_checker(cert)
        assert code == 0
        assert out.startswith("SOUND") and "separated" in out

    def test_headline_certificate_at_200_digits(self, tmp_path):
        cert = tmp_path / "cert.txt"
        code, out, _ = run_cli(["separate", "--digits", "200", "--out", str(cert)])
        assert code == 0
        fields = dict(line.split(": ", 1) for line in out.splitlines()[1:])
        for side in ("lower", "upper"):
            radicand = int(fields[f"{side}_radicand"])
            r = int(fields[f"{side}_root"])
            target = radicand * 10 ** (r * 200)
            scaled = pow2_newton_root(target, r)
            if target << r >= (2 * scaled + 1) ** r:
                scaled += 1  # round to nearest, as the certificate does
            digits = str(scaled)
            assert fields[f"{side}_decimal"] == f"{digits[:-200]}.{digits[-200:]}"
        assert run_checker(cert)[0] == 0

    def test_standalone_checker_rejects_tampering(self, tmp_path):
        cert = tmp_path / "cert.txt"
        run_cli(["separate", "--out", str(cert)])
        text = cert.read_text().replace("theta_high: 3023", "theta_high: 3024")
        cert.write_text(text)
        code, out = run_checker(cert)
        assert code == 2
        assert out.startswith("UNSOUND")

    def test_standalone_checker_flags_non_separation(self, tmp_path):
        cert = tmp_path / "cert.txt"
        run_cli(["separate", "--low", "1,0", "--high", "1,0",
                 "--out", str(cert)])
        code, out = run_checker(cert)
        assert code == 1
        assert "does not separate" in out


class TestAnalyze:
    def test_default_m(self):
        code, out, _ = run_cli(["analyze"])
        assert code == 0
        assert "point m=1 t=6 n=64" in out
        assert "2.27953231299" in out
        assert "reference (2*theta(10))^(1/10) = 2.152181" in out

    def test_with_ingested_fixture(self):
        code, out, _ = run_cli(["analyze", "--m", "1", "--bfile", str(FIXTURE_BFILE)])
        assert code == 0
        assert "point m=1 t=4 n=16" in out
        assert "reference (2*theta(16))^(1/16) = 2.248037" in out

    def test_builtin_table_quotes_one_reference_and_no_envelope(self):
        _, out, _ = run_cli(["analyze"])
        quoted = [line for line in out.splitlines()
                  if line.startswith(("reference", "envelope"))]
        assert quoted == ["reference (2*theta(10))^(1/10) = 2.152181"]

    @pytest.mark.parametrize("digits, envelope", [
        ([], "envelope: liminf >= 2.28747, limsup <= 2.30728"),
        (["--digits", "4"], "envelope: liminf >= 2.2875, limsup <= 2.3073"),
    ], ids=["default-digits", "digits-4"])
    def test_envelope_from_synthetic_large_values(self, tmp_path, digits, envelope):
        # Powers of two stand in for theta(128) and theta(160): the
        # envelope is (2 * 2^190)^(1/160) and (21 * 2^150)^(1/128).
        bfile = tmp_path / "large.bfile"
        bfile.write_text(f"128 {2 ** 150}\n160 {2 ** 190}\n")
        code, out, _ = run_cli(["analyze", "--bfile", str(bfile), *digits])
        assert code == 0
        assert [line for line in out.splitlines()
                if line.startswith("envelope")] == [envelope]

    def test_no_points_is_an_error(self):
        code, _, _ = run_cli(["analyze", "--m", "13"])  # 13*2^t never present
        assert code == 2

    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_nonpositive_m_is_a_usage_error(self, m):
        # In a subprocess with a timeout, so a point walk that never ends
        # fails the test instead of hanging the suite.
        proc = subprocess.run([sys.executable, "-m", "apfree", "analyze", "--m", m],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "m must be >= 1" in proc.stderr


class TestEmitFigure:
    def test_stdout_rows(self):
        code, out, _ = run_cli(["emit-figure", "--max", "3"])
        assert code == 0
        assert out == "1 1.000000\n2 1.414214\n3 1.587401\n"

    def test_out_file(self, tmp_path):
        path = tmp_path / "roots.dat"
        code, _, _ = run_cli(["emit-figure", "--max", "11", "--out", str(path)])
        assert code == 0
        assert len(path.read_text().splitlines()) == 11

    def test_gap_is_usage_error(self):
        code, _, err = run_cli(["emit-figure", "--max", "12"])
        assert code == 2 and "n=12" in err

    def test_fixture_extends_range(self):
        code, out, _ = run_cli(["emit-figure", "--max", "16",
                                "--bfile", str(FIXTURE_BFILE)])
        assert code == 0
        assert len(out.splitlines()) == 16

    def test_max_below_one_is_usage_error(self):
        code, out, err = run_cli(["emit-figure", "--max", "0"])
        assert (code, out) == (2, "")
        assert err == "error: --max must be >= 1, got 0\n"


class TestIngest:
    def test_ingest_fixture(self, tmp_path):
        cache = str(tmp_path / "cache.txt")
        code, out, _ = run_cli(["ingest", str(FIXTURE_BFILE), "--cache", cache])
        assert code == 0
        assert "ingested 5 new entries, 13 matched existing, 1 skipped" in out
        code, out, _ = run_cli(["verify", "--cache", cache, "--max", "16"])
        assert code == 0
        assert "sandwich k=8: PASS" in out

    def test_a_failed_cache_write_prints_nothing(self, tmp_path):
        (tmp_path / "plain").touch()
        cache = tmp_path / "plain" / "cache.txt"
        code, out, err = run_cli(["ingest", str(FIXTURE_BFILE), "--cache", str(cache)])
        assert (code, out) == (2, "")
        assert str(cache) in err

    def test_conflict_exits_one(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("4 11\n")
        code, _, err = run_cli(["ingest", str(bad)])
        assert code == 1 and "disagrees" in err

    def test_missing_file_is_usage_error(self):
        code, _, _ = run_cli(["ingest", "no-such-file.txt"])
        assert code == 2

    def test_malformed_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3\n")
        code, _, err = run_cli(["ingest", str(bad)])
        assert code == 2 and "line 1" in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter has no int/str digit limit")
    def test_token_past_the_int_digit_limit_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 " + "1" * 5000 + "\n")
        code, out, err = run_cli(["ingest", str(bad)])
        assert code == 2 and out == ""
        assert err.startswith("error: line 1: ") and str(bad) in err
        assert "Exceeds the limit" not in err and "1" * 100 not in err


class TestCacheTags:
    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter has no int/str digit limit")
    def test_index_past_the_int_digit_limit_is_usage_error(self, tmp_path):
        cache = tmp_path / "cache.txt"
        cache.write_text("#provenance " + "1" * 5000 + " computed\n1 1\n2 2\n")
        code, out, err = run_cli(["verify", "--cache", str(cache)])
        assert code == 2 and out == ""
        assert err.startswith("error: line 1: ") and str(cache) in err
        assert "Exceeds the limit" not in err and "1" * 100 not in err


class TestHarness:
    def test_unknown_flag_is_usage_error(self):
        code, _, _ = run_cli(["count", "6", "--sideways"])
        assert code == 2

    def test_missing_subcommand_is_usage_error(self):
        code, _, _ = run_cli([])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--max", "11"],
        ["separate"],
        ["analyze", "--m", "3"],
        ["emit-figure", "--max", "5"],
    ])
    def test_output_is_deterministic(self, argv):
        assert run_cli(argv) == run_cli(argv)

    def test_repeated_calls_leak_no_parser_state(self, monkeypatch):
        # One process, one parser: each request must behave as it does in a
        # fresh interpreter. COLUMNS fixes the help width on both sides.
        monkeypatch.setenv("COLUMNS", "80")
        oracle_calls = []
        real_oracle = counting.count_oracle
        monkeypatch.setattr(counting, "count_oracle",
                            lambda n: oracle_calls.append(n) or real_oracle(n))
        sequence = [
            ["count", "5", "--oracle"],
            ["count", "5"],
            ["separate", "--digits", "50"],
            ["separate"],
            ["count"],
            ["count", "6"],
            ["--help"],
            ["--help"],
        ]
        in_process = [run_cli(argv) for argv in sequence]
        assert oracle_calls == [5]
        assert "lower_decimal: 2.27953231299\n" in in_process[3][1]
        assert in_process[4][0] == 2
        for argv, got in zip(sequence, in_process):
            proc = subprocess.run([sys.executable, "-m", "apfree", *argv],
                                  capture_output=True, text=True)
            assert got == (proc.returncode, proc.stdout, proc.stderr), argv

    def test_parser_is_built_on_first_call_not_at_import(self):
        # A fresh interpreter, since this one imported apfree.cli long ago.
        script = textwrap.dedent("""
            import argparse, contextlib, io
            built = []
            init = argparse.ArgumentParser.__init__
            def counting_init(self, *args, **kwargs):
                built.append(self)
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counting_init
            import apfree.cli
            counts = [len(built)]
            for argv in (["count", "5"], ["check", "1,3,2"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    apfree.cli.main(argv)
                counts.append(len(built))
            print(*counts)
        """)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        at_import, after_first, after_second = map(int, proc.stdout.split())
        assert at_import == 0
        assert after_first > 0  # the top-level parser and its subparsers
        assert after_second == after_first

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "apfree", "count", "6"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "48\n"
