#!/usr/bin/env python3
"""Run one apfree benchmark workload, check every output, print its metrics.

Usage (from the repository root):
  python3 perfbench/run.py --workload count-ladder --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 25

A run repeats the workload's fixed operation list (one "pass") until
--seconds have gone by, always finishing the pass it started. With
--trace 0 it prints the end-to-end metrics; with --trace 1 it alternates
untraced and traced passes and prints the per-layer metrics. Human-readable
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. --workload all runs every workload
in its own process and prints each one's report. Details: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHECKER = ROOT / "scripts" / "check_certificate.py"
OUT = Path("perfbench_out")
SETUP_PROBES = 25
LAYERS = ("cli", "counting", "perm", "doubling", "table", "dataio", "growth", "roots")

# The metrics BENCHMARK.json gates. op_p50_ms, ops_per_s, fail_frac and
# count_top_s are printed too; perfbench/README.md says why they are not gated.
END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("op_tail_ms", "ms"), ("peak_rss_mb", "MB")]


def environment(name: str, seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"workload": name, "seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), **workloads.PARAMS[name],
            "bfile_present": (ROOT / "data" / "b003407.txt").is_file()}


def setup_probe(name: str, seed: int) -> dict:
    """Time one fresh process that imports apfree and builds the inputs."""
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), name, str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_package() -> types.SimpleNamespace:
    sys.path.insert(0, str(SRC))
    return types.SimpleNamespace(**{m: importlib.import_module(f"apfree.{m}") for m in LAYERS})


def execute(target: str, args, pkg):
    if target == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                status = pkg.cli.main(list(args))
            except SystemExit as exc:  # argparse rejects its input
                status = exc.code
        return status, out.getvalue()
    module, fn = target.split(".")
    return getattr(getattr(pkg, module), fn)(*args)


def normalize(target: str, result):
    """Outcome in the form workloads.expected() gives answers."""
    if target == "cli":
        status, text = result
        return status, reference.digest(text)
    if target == "perm.find_3ap":
        return None if result is None else tuple(result)
    if target.startswith("doubling."):
        return result.values
    return result


def run_pass(name, ops, call_args, pkg, tracer=None, keep_text=False):
    """One pass over the operation list: wall time, per-op latencies,
    outcomes, and (if keep_text) each CLI op's stdout."""
    workloads.before_pass(name)
    latencies, outcomes, texts = [], [], []
    if tracer is not None:
        tracer.install(pkg)
    try:
        start = time.perf_counter()
        for idx, (op, args) in enumerate(zip(ops, call_args)):
            workloads.before_op(op)
            if tracer is not None:
                tracer.op = idx
            t0 = time.perf_counter()
            try:
                result = execute(op[0], args, pkg)
            except Exception as exc:  # a failed operation is counted, not fatal
                result = exc
            latencies.append(time.perf_counter() - t0)
            if isinstance(result, Exception):
                outcomes.append(f"{type(result).__name__}: {result}")
                texts.append(None)
                continue
            outcomes.append(normalize(op[0], result))
            texts.append(result[1] if keep_text and op[0] == "cli" else None)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    return wall, latencies, outcomes, texts


def check_certificates(name, ops, texts, expect) -> int:
    """Re-check every emitted certificate with the standalone checker.
    Returns how many did not get the exit status their verdict implies."""
    spec = importlib.util.spec_from_file_location("check_certificate", CHECKER)
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    bad = 0
    for idx, (op, text) in enumerate(zip(ops, texts)):
        if op[0] != "cli" or op[1][0] != "separate" or text is None:
            continue
        path = OUT / "work" / name / f"cert-{idx}.txt"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = checker.main(["check_certificate.py", str(path)])
            except SystemExit as exc:
                code = exc.code
        path.unlink()
        bad += code != expect[idx][0]
    return bad


def percentile(sorted_values: list[float], q: int) -> float:
    """Nearest-rank q-th percentile."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(passes: list[list[float]], n_ops: int) -> tuple[float, str]:
    """Highest whole percentile with at least ten of one pass's operations
    beyond it, over all passes' latencies; the slowest operation (median
    over passes) when a pass has ten operations or fewer."""
    if n_ops > 10:
        q = 100 * (n_ops - 10) // n_ops
        return percentile(sorted(x for p in passes for x in p), q), f"p{q}"
    return statistics.median(max(p) for p in passes), "max"


def spread(values: list[float]) -> float:
    """Distance between first and third quartile (0 below two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    env = environment(name, seed)
    probes = []
    pkg = load_package()
    workloads.prepare(name)
    ops = workloads.build(name, seed)
    call_args = workloads.materialize(ops, pkg.perm.Permutation)
    golden = reference.load_golden()
    expect = [workloads.expected(op, golden) for op in ops]

    untraced, traced_walls, traced_spans = [], [], []
    attempted = failed = 0
    cert_texts = None
    start = time.perf_counter()
    while True:
        use_trace = trace and len(untraced) > len(traced_walls)
        tracer = spans.Tracer() if use_trace else None
        wall, lat, outcomes, texts = run_pass(name, ops, call_args, pkg, tracer,
                                              keep_text=cert_texts is None)
        if cert_texts is None:
            cert_texts = texts
        attempted += len(ops)
        failed += sum(got != want for got, want in zip(outcomes, expect))
        if use_trace:
            traced_walls.append(wall)
            traced_spans.append(tracer.spans)
        else:
            untraced.append((wall, lat))
        # Set-up probes are spread over the run, between passes, so a slow
        # spell of the machine does not hit all of them.
        done = min(1.0, (time.perf_counter() - start) / seconds)
        while len(probes) < SETUP_PROBES * done:
            probes.append(setup_probe(name, seed))
        if done == 1.0 and (not trace or traced_walls):
            break
    failed += check_certificates(name, ops, cert_texts, expect)

    setup = [p["import_s"] + p["inputs_s"] for p in probes]
    walls = [w for w, _ in untraced]
    lat_passes = [lat for _, lat in untraced]
    op_tail, tail_label = tail(lat_passes, len(ops))
    pooled = [x for lat in lat_passes for x in lat]
    info = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh processes, "
                    f"IQR {spread(setup):.4f}"),
        "run_s": (statistics.median(walls), "s",
                  f"median of {len(walls)} passes of {len(ops)} ops, IQR {spread(walls):.4f}"),
        "ops_per_s": (len(ops) / statistics.median(walls), "1/s", "ops per pass / run_s"),
        "op_p50_ms": (statistics.median(pooled) * 1000, "ms", f"{len(pooled)} ops"),
        "op_tail_ms": (op_tail * 1000, "ms", f"{tail_label} of {len(pooled)} ops"),
        "fail_frac": (failed / attempted, "ratio", f"{failed} of {attempted} ops"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "max of self and children"),
    }
    top = [i for i, (target, args) in enumerate(ops)
           if target == "cli" and args[:2] == ("count", "16")]
    if top:
        info["count_top_s"] = (statistics.median(lat[top[0]] for lat in lat_passes), "s",
                               f"count 16, median of {len(lat_passes)} passes")
    if trace:
        layer = spans.layer_metrics(traced_spans)
        layer["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        layer["setup.inputs_s"] = statistics.median(p["inputs_s"] for p in probes)
        # Passes alternate untraced, traced; each traced pass is compared with
        # the untraced pass just before it, so a slow spell of the machine
        # hits both sides of a pair. Within the untraced passes' own spread
        # the figure is noise, and is marked unresolved.
        overhead = statistics.median(t - u for (u, _), t in zip(untraced, traced_walls))
        noise = spread(walls)
        state = "resolved" if len(walls) >= 2 and abs(overhead) > noise else "unresolved"
        info["trace.overhead_s"] = (overhead, "s", f"median of {len(traced_walls)} adjacent "
                                    f"pass pairs, {state}: untraced IQR {noise:.4f}")
        layer["trace.overhead_s"] = overhead
        metrics = {n: {"value": layer[n], "unit": u} for n, u in spans.LAYER_METRICS}
    else:
        metrics = {n: {"value": info[n][0], "unit": u} for n, u in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    record = {"env": env, "info": {k: list(v) for k, v in info.items()}, "result": result}
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if trace:
        (OUT / "results" / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "work"],
             "passes": traced_spans}))

    print("# " + " | ".join(f"{k} {v}" for k, v in env.items()))
    for key, (value, unit, note) in info.items():
        print(f"{key} {value:.6g} {unit}  ({note})")
    if trace:
        for key, m in metrics.items():
            print(f"{key} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    missing = [p for p in (SRC / "apfree" / "__init__.py", CHECKER) if not p.is_file()]
    if missing:
        print(f"error: not a checkout of the apfree repository, missing "
              f"{', '.join(str(p.relative_to(ROOT)) for p in missing)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
