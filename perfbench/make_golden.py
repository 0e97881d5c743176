#!/usr/bin/env python3
"""Write data/golden.json: exit status and stdout sha256 of every
certify-queries request that reference.py does not rederive (analyze,
verify, emit-figure, ingest), run against the warm benchmark cache.

Run from the repository root at a commit whose outputs are trusted:
  python3 perfbench/make_golden.py
The table pins those outputs byte for byte; regenerate it only when the
CLI's output is meant to change.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from apfree import cli  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    workloads.prepare("certify-queries")
    golden = {}
    for argv in workloads.golden_requests():
        workloads.before_op(("cli", argv))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(list(argv))
        golden[workloads.golden_key(argv)] = [status, reference.digest(out.getvalue())]
    lines = [f"{json.dumps(key)}: {json.dumps(golden[key])}" for key in sorted(golden)]
    reference.GOLDEN_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"{len(golden)} requests written to {reference.GOLDEN_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
