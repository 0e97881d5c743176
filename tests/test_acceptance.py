"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Criteria that need published counts beyond desk scale (n up to 200) read
a user-supplied A003407 b-file and are skipped, with instructions, when
it is absent; everything else runs from builtin and computed values.
"""

import random
import time

import pytest

from apfree import (ThetaTable, certificate_text, check_global_bounds,
                    check_halving, check_sandwich, count_oracle, count_pruned,
                    decimal_nth_root, free_permutations, ingest_bfile,
                    is_3ap_free, limit_bracket, monotone_report, separate,
                    validate, double, double_odd)
from apfree.doubling import EVEN_BLOCK_FIRST, ODD_BLOCK_FIRST
from apfree.roots import ROUND_FLOOR, ROUND_NEAREST
from conftest import (COMPUTED_MID, FIXTURE_BFILE, PAPER_SMALL, THETA_64,
                      THETA_75, bracket_holds, real_bfile_path,
                      requires_real_data, run_checker, run_cli,
                      ulp_bracket_holds)


def report(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


@pytest.fixture(scope="module")
def real_table():
    tbl = ThetaTable()
    path = real_bfile_path()
    if path is not None:
        ingest_bfile(path, tbl)
    return tbl


def test_criterion_01_value_regression():
    started = time.monotonic()
    for n, expected in enumerate(PAPER_SMALL, start=1):
        code, out, _ = run_cli(["count", str(n)])
        assert code == 0
        assert out == f"{expected}\n", f"count {n}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(1, f"value regression n=1..11 in {elapsed:.2f}s")


def test_criterion_02_oracle_equivalence():
    for n in range(1, 10):
        assert count_pruned(n) == count_oracle(n)
    report(2, "pruned counter equals enumeration oracle for n=1..9")


def test_criterion_03_parallel_determinism(real_table):
    runs = [run_cli(["count", "12", "--jobs", jobs]) for jobs in ("1", "4", "8")]
    assert runs[0] == runs[1] == runs[2]
    code, out, _ = runs[0]
    assert code == 0
    value = int(out)
    # Cross-check against ingested data: the published file when present,
    # otherwise the bundled fixture (whose small entries this counter
    # produced; the published file is the independent source).
    if 12 in real_table:
        assert value == real_table.value(12)
        source = "published b-file"
    else:
        fixture = ThetaTable()
        ingest_bfile(FIXTURE_BFILE, fixture)
        assert value == fixture.value(12)
        source = "bundled fixture"
    report(3, f"count 12 identical for jobs 1/4/8, matches {source}")


def test_criterion_04_doubling_exhaustive():
    for k in range(1, 5):
        inputs = [validate(p) for p in free_permutations(k)]
        assert len(inputs) == PAPER_SMALL[k - 1]
        outputs = set()
        for a in inputs:
            for b in inputs:
                for order in (EVEN_BLOCK_FIRST, ODD_BLOCK_FIRST):
                    out = double(a, b, order)
                    assert is_3ap_free(out)
                    outputs.add(out.values)
        assert len(outputs) == 2 * PAPER_SMALL[k - 1] ** 2
    report(4, "doubling outputs 3AP-free and pairwise distinct for k=1..4")


def test_criterion_05_odd_doubling():
    for n in range(1, 5):
        small = [validate(p) for p in free_permutations(n)]
        big = [validate(p) for p in free_permutations(n + 1)]
        for order in (EVEN_BLOCK_FIRST, ODD_BLOCK_FIRST):
            outputs = {double_odd(a, b, order).values
                       for a in small for b in big}
            assert len(outputs) == PAPER_SMALL[n] * PAPER_SMALL[n - 1]
    report(5, "odd doubling self-checks pass, counts equal theta(n+1)*theta(n)")


def test_criterion_06_inequality_sweep(computed_table):
    tbl = computed_table
    failures = []
    for n in range(12, 17):
        assert tbl.value(n) == COMPUTED_MID[n]
    for k in range(1, 9):
        r = check_sandwich(k, tbl)
        if not r.passed:
            failures.append(r)
    for n in range(3, 17):
        r = check_halving(n, tbl)
        if not r.passed:
            failures.append(r)
    for n in tbl.available():
        r = check_global_bounds(n, tbl)
        if not r.passed:
            failures.append(r)
    r = monotone_report(1, tbl, max_n=16)
    if not r.passed:
        failures.append(r)
    assert not failures, [f"{r.name}: {r.detail}" for r in failures]
    report(6, "all sandwich/halving/global checks pass through n=16")


def test_criterion_07_separation_certificate():
    cert = separate(1, 6, 75, 0, ThetaTable())
    assert cert.separated is True
    assert cert.lhs == (2 * THETA_64) ** 75
    assert cert.rhs == (21 * THETA_75) ** 64
    assert cert.lower_bound.lower_decimal(11).text == "2.27953231299"
    assert cert.upper_bound.upper_decimal(11).text == "2.27703523933"
    code, out, _ = run_cli(["separate"])
    assert code == 0
    assert "lower_decimal: 2.27953231299" in out
    assert "upper_decimal: 2.27703523933" in out
    assert "separated: true" in out
    report(7, "default certificate separates with digit-exact decimals")


@requires_real_data
def test_criterion_08_wider_gap(real_table, tmp_path):
    cert = separate(1, 7, 81, 1, real_table)
    assert cert.separated is True
    assert cert.lower_bound.root == 128
    assert cert.upper_bound.root == 162
    assert cert.lower_bound.lower_decimal(5).text == "2.28484"
    assert cert.upper_bound.upper_decimal(5).text == "2.23760"
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(certificate_text(cert), encoding="utf-8")
    assert run_checker(cert_path)[0] == 0
    report(8, "n=128 vs n=162 certificate reproduces 2.28484 > 2.23760")


@requires_real_data
def test_criterion_09_envelope_estimates(real_table):
    assert limit_bracket(160, 0, real_table).lower_decimal(5).text == "2.20499"
    assert limit_bracket(128, 0, real_table).upper_decimal(5).text == "2.32721"
    report(9, "liminf/limsup estimates reproduce 2.20499 and 2.32721")


@requires_real_data
def test_criterion_10_figure_data(real_table, tmp_path):
    path = real_bfile_path()
    out = tmp_path / "roots.dat"
    code, _, _ = run_cli(["emit-figure", "--max", "200",
                          "--bfile", str(path), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 200
    last_n = 0
    for line in lines:
        n_str, root_str = line.split(" ")
        n = int(n_str)
        assert n == last_n + 1
        last_n = n
        whole, frac = root_str.split(".")
        assert len(frac) == 6
        scaled = int(whole + frac)
        # Round-trip within the emitted precision, certified exactly.
        target = real_table.value(n) * 10 ** (6 * n) << n
        assert (2 * scaled - 1) ** n <= target <= (2 * scaled + 1) ** n
    final = float(lines[-1].split(" ")[1])
    assert final > 2.0
    report(10, "figure data emits 200 rows that round-trip exactly")


def test_criterion_11_root_bracket_soundness(computed_table, real_table):
    tbl = ThetaTable()
    for n in computed_table.available():
        tbl.insert(n, computed_table.value(n), computed_table.provenance(n))
    for n in real_table.available():
        if n not in tbl:
            tbl.insert(n, real_table.value(n), real_table.provenance(n))
    rng = random.Random(20260810)
    ns = tbl.available()
    for _ in range(100):
        n = rng.choice(ns)
        digits = rng.randint(1, 12)
        value = tbl.value(n)
        floor_root = decimal_nth_root(value, n, digits, ROUND_FLOOR)
        assert bracket_holds(floor_root)
        nearest_root = decimal_nth_root(value, n, digits, ROUND_NEAREST)
        assert bracket_holds(nearest_root)
        assert ulp_bracket_holds(nearest_root)
    report(11, "100 random decimal roots carry exact power brackets")
