"""The benchmark's own tests.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import contextlib
import importlib.util
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 977)


@pytest.fixture(scope="module")
def pkg():
    return run.load_package()


@pytest.fixture(autouse=True)
def at_root():
    old = os.getcwd()
    os.chdir(ROOT)
    yield
    os.chdir(old)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_operation_list(name):
    for seed in SEEDS:
        assert workloads.serialize(workloads.build(name, seed)) == \
            workloads.serialize(workloads.build(name, seed))
    assert workloads.serialize(workloads.build(name, 1)) != \
        workloads.serialize(workloads.build(name, 2))


def test_count_workloads_cover_their_ladders():
    for seed in SEEDS:
        ladder = [int(args[1]) for _, args in workloads.build("count-ladder", seed)]
        assert sorted(ladder) == list(workloads.LADDER)
        jobs = workloads.build("count-jobs", seed)
        assert sorted(int(args[1]) for _, args in jobs) == list(workloads.JOBS_LADDER)
        assert all(args[2:] == ("--jobs", "2") for _, args in jobs)


def test_certify_mix_and_golden_cover_every_request():
    golden = reference.load_golden()
    assert len(golden) == len(workloads.golden_requests())
    for seed in SEEDS:
        ops = workloads.build("certify-queries", seed)
        kinds = [args[0] for _, args in ops]
        assert {k: kinds.count(k) for k in set(kinds)} == workloads.QUERY_MIX
        statuses = set()
        for op in ops:
            status, _ = workloads.expected(op, golden)
            if op[1][0] == "separate":
                statuses.add(status)
        assert statuses == {0, 1}, "both separating and non-separating pairs"


def test_reference_tools_match_definitions():
    for k in range(1, 8):
        brute = [p for p in itertools.permutations(range(1, k + 1))
                 if not any(p[i] + p[m] == 2 * p[j]
                            for i in range(k) for j in range(i + 1, k) for m in range(j + 1, k))]
        assert reference.free_perms(k) == brute
        assert len(brute) == reference.THETA[k]
    rng = random.Random(5)
    for _ in range(200):
        p = workloads.random_perm(rng, rng.randrange(3, 12))
        triples = [(i + 1, j + 1, m + 1) for i in range(len(p)) for j in range(i + 1, len(p))
                   for m in range(j + 1, len(p)) if p[i] + p[m] == 2 * p[j]]
        assert reference.find_3ap(p) == (min(triples) if triples else None)
    for x, r in [(0, 2), (1, 5), (10**40, 3), (2**200 - 1, 7), (12345678987654321, 2)]:
        g = reference.iroot(x, r)
        assert g ** r <= x < (g + 1) ** r


def test_built_free_permutations_are_free():
    pool = workloads.small_pool()
    rng = random.Random(3)
    for n in (8, 9, 64, 65, 333, 1000):
        p = workloads.free_perm(rng, n, pool)
        assert sorted(p) == list(range(1, n + 1))
        assert reference.find_3ap(p) is None


def test_reference_certificate_passes_standalone_checker(tmp_path):
    spec = importlib.util.spec_from_file_location("check_certificate", run.CHECKER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    for low, high, digits, want in [((1, 6), (75, 0), 11, 0), ((3, 0), (5, 0), 40, 1)]:
        status, text = reference.certificate(low, high, digits)
        assert status == want
        path = tmp_path / "cert.txt"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):
            assert mod.main(["check", str(path)]) == want


def _one_pass(name, pkg, keep, seed):
    workloads.prepare(name)
    ops = [op for op in workloads.build(name, seed) if keep(op)]
    call_args = workloads.materialize(ops, pkg.perm.Permutation)
    golden = reference.load_golden()
    expect = [workloads.expected(op, golden) for op in ops]
    _, _, outcomes, texts = run.run_pass(name, ops, call_args, pkg, keep_text=True)
    return ops, outcomes, expect, texts


@pytest.mark.parametrize("name,keep", [
    ("count-ladder", lambda op: int(op[1][1]) <= 13),
    ("crosscheck", lambda op: op[0] != "counting.count_oracle" or op[1][0] == 8),
    ("certify-queries", lambda op: True),
])
def test_generated_inputs_produce_reference_answers(name, keep, pkg):
    for seed in (1, 2):
        ops, outcomes, expect, texts = _one_pass(name, pkg, keep, seed)
        assert outcomes == expect
        assert run.check_certificates(name, ops, texts, expect) == 0


def test_count_jobs_small_ladder_through_pool(pkg):
    ops = [("cli", ("count", "9", "--jobs", "2"))]
    _, _, outcomes, _ = run.run_pass("count-jobs", ops, [ops[0][1]], pkg)
    assert outcomes == [(0, reference.digest("496\n"))]


def test_wrong_answer_is_counted(pkg):
    ops = [("cli", ("check", "1,2,3")), ("counting.count_oracle", (11,))]
    _, _, outcomes, _ = run.run_pass("crosscheck", ops, [op[1] for op in ops], pkg)
    golden = reference.load_golden()
    assert outcomes[0] == workloads.expected(ops[0], golden)
    assert outcomes[1].startswith("OracleRangeExceeded")


def test_tracer_restores_every_attribute_and_derives_metrics(pkg):
    modules = vars(pkg)
    before = {(m, k): v for m, mod in modules.items() for k, v in vars(mod).items()}
    insert = pkg.table.ThetaTable.__dict__["insert"]
    tracer = spans.Tracer()
    ops = workloads.build("certify-queries", 1)[:30]
    ops += [("counting.count_verified", (7,)), ("cli", ("count", "8", "--jobs", "2"))]
    call_args = workloads.materialize(ops, pkg.perm.Permutation)
    workloads.prepare("certify-queries")
    run.run_pass("certify-queries", ops, call_args, pkg, tracer=tracer)
    after = {(m, k): v for m, mod in modules.items() for k, v in vars(mod).items()}
    assert after == before
    assert pkg.table.ThetaTable.__dict__["insert"] is insert
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "dataio.load_table", "roots.nth_root_floor",
            "counting.free_permutations", "counting.count_pruned"} <= names
    assert all(s[2] >= s[1] for s in tracer.spans)
    metrics = spans.layer_metrics([tracer.spans])
    assert metrics["cli.main.calls"] == sum(op[0] == "cli" for op in ops)
    assert metrics["counting.count_pruned.calls"] == 1
    assert metrics["counting.free_permutations.yield_per_s"] > 0
    assert metrics["counting.pool.worker_cpu_s"] > 0
    assert 0 <= metrics["cli.main.self_s"] <= sum(s[2] - s[1] for s in tracer.spans
                                                   if s[0] == "cli.main")


def test_tail_percentile_rule():
    passes = [[float(i) for i in range(100)] for _ in range(3)]
    value, label = run.tail(passes, 100)
    assert label == "p90" and value == 89.0
    value, label = run.tail([[1.0, 5.0, 2.0], [1.0, 7.0, 2.0], [1.0, 6.0, 2.0]], 3)
    assert (value, label) == (6.0, "max")


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.LAYER_METRICS


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "crosscheck",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
