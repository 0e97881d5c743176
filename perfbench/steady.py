#!/usr/bin/env python3
"""Check that the benchmark is steady: run two sets of ten runs of one
commit and compare them metric by metric against the bounds in
BENCHMARK.json.

Usage (from the repository root):
  python3 perfbench/steady.py [--first-seed S]

Each run is `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` for every workload W in BENCHMARK.json and its run_seconds T,
with a different seed for every run, counting up from --first-seed (1);
runs of the workloads are interleaved so slow spells of the machine hit
all of them. For each workload and end-to-end metric it prints both
sets' medians and spreads (quartile distance over median), then a verdict:

  steady      both spreads are below a third of the bound, and the second
              set's median is within the bound of the first set's
  agree       the medians agree within the bound, but a spread is above a
              third of it
  DISAGREE    the second set's median differs from the first, in either
              direction, by more than the bound
  unresolved  a spread is wider than the bound, so the sets cannot show
              agreement

The full table is also written to perfbench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rel_spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(metric: dict, sets: list[list[float]]) -> tuple[str, list, float]:
    bound = metric["bound"]
    spreads = [rel_spread(v) for v in sets]
    medians = [statistics.median(v) for v in sets]
    worst = max(abs(m - medians[0]) / medians[0] for m in medians[1:])
    if max(spreads) > bound:
        return "unresolved", spreads, worst
    if worst > bound:
        return "DISAGREE", spreads, worst
    return ("steady" if max(spreads) < bound / 3 else "agree"), spreads, worst


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    values = {w: [{m["name"]: [] for m in spec["end_to_end"]} for _ in range(SETS)]
              for w in names}
    seed = args.first_seed
    for s in range(SETS):
        for r in range(RUNS):
            for w in names:
                result = run_once(w, seed, spec["run_seconds"])
                if not result["correct"]:
                    print(f"{w} seed {seed}: {result['failed']} failed operations")
                for name, m in result["metrics"].items():
                    values[w][s][name].append(m["value"])
                print(f"set {s + 1} run {r + 1} {w} seed {seed}: " + ", ".join(
                    f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
                seed += 1

    report = []
    print(f"\n{'workload':16} {'metric':12} {'bound':>6}  "
          + "  ".join(f"{'median' + str(i + 1):>12} {'spread' + str(i + 1):>8}"
                      for i in range(SETS)) + "  verdict")
    for w in names:
        for metric in spec["end_to_end"]:
            sets = [values[w][s][metric["name"]] for s in range(SETS)]
            word, spreads, worst = verdict(metric, sets)
            medians = [statistics.median(v) for v in sets]
            report.append({"workload": w, "metric": metric["name"], "bound": metric["bound"],
                           "medians": medians, "spreads": spreads, "worst_change": worst,
                           "verdict": word, "values": sets})
            print(f"{w:16} {metric['name']:12} {metric['bound']:6.3f}  "
                  + "  ".join(f"{m:12.5g} {sp:8.4f}" for m, sp in zip(medians, spreads))
                  + f"  {word}")
    out = ROOT / "perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1))
    return 0 if all(r["verdict"] in ("steady", "agree") for r in report) else 1


if __name__ == "__main__":
    sys.exit(main())
