"""Time one fresh set-up: import apfree (and its CLI), then build a
workload's inputs. Prints {"import_s": ..., "inputs_s": ...}.

Usage: python3 perfbench/probe.py WORKLOAD SEED   (from the repository root)
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

t0 = time.perf_counter()
import apfree  # noqa: E402
import apfree.cli  # noqa: E402,F401
t1 = time.perf_counter()

import json  # noqa: E402

import workloads  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
t2 = time.perf_counter()
ops = workloads.build(name, seed)
workloads.materialize(ops, apfree.perm.Permutation)
workloads.prepare(name)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "inputs_s": t3 - t2}))
