"""Shared fixtures and independent reference oracles for the test suite."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from apfree import ThetaTable, count_dp
from apfree.cli import main as cli_main
from apfree.table import PROVENANCE_COMPUTED

TESTS_DIR = Path(__file__).parent
REPO_ROOT = TESTS_DIR.parent

# Published exact counts for n = 1..11; the primary regression target.
PAPER_SMALL = (1, 2, 4, 10, 20, 48, 104, 282, 496, 1066, 2460)

THETA_64 = 39911512393313043466768
THETA_75 = 30235147387260979648843264

# Counts for n = 12..16 produced by the pruned counter, frozen as a
# regression guard. They are validated from several directions: the
# counter agrees with the factorial-enumeration oracle for n <= 10 and
# with the published list for n <= 11, the values satisfy every doubling,
# halving, and universal-bound inequality, and (2*theta(16))^(1/16)
# reproduces the historical growth constant 2.248 printed alongside the
# published small values.
COMPUTED_MID = {12: 6128, 13: 12840, 14: 29380, 15: 74904, 16: 212728}

FIXTURE_BFILE = TESTS_DIR / "data" / "theta_small.bfile"

CHECKER = REPO_ROOT / "scripts" / "check_certificate.py"


def brute_find_3ap(values):
    """Reference 3AP search: scan all C(n,3) index triples in lex order."""
    n = len(values)
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            for k in range(j + 1, n):
                if values[i] + values[k] == 2 * values[j]:
                    return (i + 1, j + 1, k + 1)
    return None


def middle_value_3ap_free(values):
    """Reference O(n^2) 3AP test: for each middle value y and each d >= 1,
    a 3AP exists iff y - d and y + d lie on opposite sides of y."""
    n = len(values)
    pos = [0] * (n + 1)
    for idx, v in enumerate(values):
        pos[v] = idx
    for y in range(2, n):
        py = pos[y]
        for d in range(1, min(y - 1, n - y) + 1):
            if (pos[y - d] < py) != (pos[y + d] < py):
                return False
    return True


def brute_all_witnesses(values):
    n = len(values)
    return [(i + 1, j + 1, k + 1)
            for i in range(n - 2)
            for j in range(i + 1, n - 1)
            for k in range(j + 1, n)
            if values[i] + values[k] == 2 * values[j]]


def pow2_newton_root(x, r):
    """Reference floor rth root by Newton from a power of two above the root.

    An oracle for `nth_root_floor`, which shares none of its method: no
    float seed, no truncated powers and no binomial check, only exact
    Newton steps from 2**(bits + 1) and exact fix-up loops.
    """
    if r == 1 or x in (0, 1):
        return x
    g = 1 << ((x.bit_length() + r - 1) // r + 1)
    while True:
        t = ((r - 1) * g + x // g ** (r - 1)) // r
        if t >= g:
            break
        g = t
    while g ** r > x:
        g -= 1
    while (g + 1) ** r <= x:
        g += 1
    return g


def real_bfile_path():
    """Path to a full published A003407 b-file, when the user supplied one."""
    env = os.environ.get("A003407_BFILE")
    if env:
        p = Path(env)
        if p.exists():
            return p
    p = REPO_ROOT / "data" / "b003407.txt"
    return p if p.exists() else None


requires_real_data = pytest.mark.skipif(
    real_bfile_path() is None,
    reason="needs the published A003407 b-file: download b003407.txt from the "
           "OEIS entry into data/ or point A003407_BFILE at it",
)


@pytest.fixture(scope="session")
def computed_table() -> ThetaTable:
    """Builtin values plus counts for n = 12..16 computed by the subset DP."""
    tbl = ThetaTable()
    for n in range(12, 17):
        tbl.insert(n, count_dp(n), PROVENANCE_COMPUTED)
    return tbl


def run_cli(argv):
    """Run the CLI in-process, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def run_checker(cert_path):
    """Run the standalone certificate checker, returning (exit_code, stdout)."""
    proc = subprocess.run([sys.executable, str(CHECKER), str(cert_path)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout
