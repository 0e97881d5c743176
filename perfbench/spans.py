"""Spans around calls into apfree's public functions, and the per-layer
metrics derived from them.

A Tracer replaces module attributes with timing wrappers for the length of
a traced pass and puts the originals back afterwards, so untraced passes
run the package untouched. Spans are kept in memory as
[name, start, end, parent index, operation id, work counts].
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def _begin(self, name: str, push: bool = True) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        if push:
            self._open.append(idx)
        return idx

    def _end(self, idx: int, work=None, pop: bool = True) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = work
        if pop:
            self._open.pop()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, work=None,
             children_cpu: bool = False) -> None:
        """Time every call of owner.attr as a span called `name`.

        work(args, result) gives the span's work counts; children_cpu adds
        the CPU time of child processes reaped during the call.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            cpu0 = _children_cpu() if children_cpu else 0.0
            idx = self._begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self._end(idx)
                raise
            self._end(idx)
            counts = work(args, result) if work is not None else {}
            if children_cpu:
                counts["child_cpu_s"] = _children_cpu() - cpu0
            self.spans[idx][5] = counts
            return result

        self._patch(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """One span over the life of each returned generator, from its first
        step to its exhaustion or close, counting its yields. The span is
        no other span's parent, so the consumer's calls between steps stay
        under the consumer's own span; its duration includes the consumer's
        work between steps."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            idx = self._begin(name, push=False)
            yields = 0
            try:
                for item in original(*args, **kwargs):
                    yields += 1
                    yield item
            finally:
                self._end(idx, {"yields": yields}, pop=False)

        self._patch(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install(self, apfree_modules) -> None:
        """Wrap each layer's public entry points used by the workloads."""
        m = apfree_modules
        self.wrap(m.cli, "main", "cli.main")
        self.wrap(m.counting, "count_pruned", "counting.count_pruned",
                  work=lambda a, r: {"leaves": r}, children_cpu=True)
        self.wrap(m.counting, "count_oracle", "counting.count_oracle",
                  work=lambda a, r: {"perms": math.factorial(a[0])})
        self.wrap(m.counting, "count_verified", "counting.count_verified")
        self.wrap_generator(m.counting, "free_permutations", "counting.free_permutations")
        self.wrap(m.perm, "find_3ap", "perm.find_3ap")
        self.wrap(m.perm, "parse_oneline", "perm.parse_oneline")
        for owner in (m.perm, m.doubling):
            self.wrap(owner, "is_3ap_free", "perm.is_3ap_free",
                      work=lambda a, r: {"values": len(a[0])})
        self.wrap(m.doubling, "double", "doubling.double")
        self.wrap(m.doubling, "double_odd", "doubling.double_odd")
        self.wrap(m.table.ThetaTable, "insert", "table.ThetaTable.insert")
        self.wrap(m.dataio, "load_table", "dataio.load_table")
        self.wrap(m.dataio, "save_table", "dataio.save_table",
                  work=lambda a, r: {"bytes": _file_bytes(a[1])})
        self.wrap(m.dataio, "ingest_bfile", "dataio.ingest_bfile")
        self.wrap(m.dataio, "emit_figure_data", "dataio.emit_figure_data")
        for fn in ("separate", "certificate_text", "subsequence_point", "monotone_report",
                   "check_global_bounds", "check_sandwich", "check_halving"):
            self.wrap(m.growth, fn, f"growth.{fn}")
        # decimal_nth_root is imported by name into growth and dataio.
        for owner in (m.roots, m.growth, m.dataio):
            self.wrap(owner, "decimal_nth_root", "roots.decimal_nth_root",
                      work=lambda a, r: {"digits": r.digits})
        self.wrap(m.roots, "nth_root_floor", "roots.nth_root_floor",
                  work=lambda a, r: {"bits": a[0].bit_length()})


def _file_bytes(path) -> int:
    sidecar = f"{path}.provenance"
    return os.path.getsize(path) + (os.path.getsize(sidecar) if os.path.exists(sidecar) else 0)


class _Summary:
    """Totals per span name over one set of spans."""

    def __init__(self, spans: list[list]):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.work: dict[tuple[str, str], float] = {}
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _op, _work in spans:
            if parent is not None:
                child_time[parent] += end - start
        for idx, (name, start, end, _parent, _op, work) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + (end - start)
            self.self_time[name] = self.self_time.get(name, 0.0) + (end - start - child_time[idx])
            for key, value in (work or {}).items():
                self.work[name, key] = self.work.get((name, key), 0) + value

    def rate(self, name: str, key: str) -> float:
        busy = self.busy.get(name, 0.0)
        return self.work.get((name, key), 0) / busy if busy else 0.0


# Per-layer metrics: name, unit, value from one pass's _Summary. Counts and
# times are per pass; rates divide work by busy time.
def _calls(name):
    return lambda s: s.calls.get(name, 0)


def _busy(*names):
    return lambda s: sum(s.busy.get(n, 0.0) for n in names)


def _work(name, key):
    return lambda s: s.work.get((name, key), 0)


def _rate(name, key):
    return lambda s: s.rate(name, key)


def _pool_util(s):  # count-jobs runs two workers
    busy = s.busy.get("counting.count_pruned", 0.0)
    cpu = s.work.get(("counting.count_pruned", "child_cpu_s"), 0.0)
    return cpu / (busy * 2) if busy else 0.0


PASS_METRICS = [
    ("counting.count_pruned.calls", "count", _calls("counting.count_pruned")),
    ("counting.count_pruned.busy_s", "s", _busy("counting.count_pruned")),
    ("counting.count_pruned.leaves_per_s", "1/s", _rate("counting.count_pruned", "leaves")),
    ("counting.pool.worker_cpu_s", "s", _work("counting.count_pruned", "child_cpu_s")),
    ("counting.pool.cpu_util", "ratio", _pool_util),
    ("counting.count_oracle.busy_s", "s", _busy("counting.count_oracle")),
    ("counting.count_oracle.perms_per_s", "1/s", _rate("counting.count_oracle", "perms")),
    ("counting.count_verified.busy_s", "s", _busy("counting.count_verified")),
    ("counting.free_permutations.yield_per_s", "1/s",
     _rate("counting.free_permutations", "yields")),
    ("perm.find_3ap.calls", "count", _calls("perm.find_3ap")),
    ("perm.find_3ap.busy_s", "s", _busy("perm.find_3ap")),
    ("perm.is_3ap_free.calls", "count", _calls("perm.is_3ap_free")),
    ("perm.is_3ap_free.busy_s", "s", _busy("perm.is_3ap_free")),
    ("perm.is_3ap_free.values_per_s", "1/s", _rate("perm.is_3ap_free", "values")),
    ("perm.parse_oneline.busy_s", "s", _busy("perm.parse_oneline")),
    ("doubling.double.calls", "count", _calls("doubling.double")),
    ("doubling.double.busy_s", "s", _busy("doubling.double")),
    ("doubling.double_odd.calls", "count", _calls("doubling.double_odd")),
    ("doubling.double_odd.busy_s", "s", _busy("doubling.double_odd")),
    ("table.ThetaTable.insert.calls", "count", _calls("table.ThetaTable.insert")),
    ("table.ThetaTable.insert.busy_s", "s", _busy("table.ThetaTable.insert")),
    ("dataio.load_table.calls", "count", _calls("dataio.load_table")),
    ("dataio.load_table.busy_s", "s", _busy("dataio.load_table")),
    ("dataio.save_table.calls", "count", _calls("dataio.save_table")),
    ("dataio.save_table.busy_s", "s", _busy("dataio.save_table")),
    ("dataio.save_table.bytes", "B", _work("dataio.save_table", "bytes")),
    ("dataio.ingest_bfile.busy_s", "s", _busy("dataio.ingest_bfile")),
    ("dataio.emit_figure_data.busy_s", "s", _busy("dataio.emit_figure_data")),
    ("growth.separate.busy_s", "s", _busy("growth.separate")),
    ("growth.certificate_text.busy_s", "s", _busy("growth.certificate_text")),
    ("growth.subsequence_point.busy_s", "s", _busy("growth.subsequence_point")),
    ("growth.monotone_report.busy_s", "s", _busy("growth.monotone_report")),
    ("growth.check.busy_s", "s", _busy("growth.check_global_bounds", "growth.check_sandwich",
                                       "growth.check_halving")),
    ("roots.decimal_nth_root.calls", "count", _calls("roots.decimal_nth_root")),
    ("roots.decimal_nth_root.busy_s", "s", _busy("roots.decimal_nth_root")),
    ("roots.decimal_nth_root.digits_out", "digits", _work("roots.decimal_nth_root", "digits")),
    ("roots.nth_root_floor.calls", "count", _calls("roots.nth_root_floor")),
    ("roots.nth_root_floor.busy_s", "s", _busy("roots.nth_root_floor")),
    ("roots.nth_root_floor.radicand_bits", "bits", _work("roots.nth_root_floor", "bits")),
    ("cli.main.calls", "count", _calls("cli.main")),
    ("cli.main.self_s", "s", lambda s: s.self_time.get("cli.main", 0.0)),
]

# Filled in by the run, not from spans.
RUN_METRICS = [
    ("setup.import_s", "s"),
    ("setup.inputs_s", "s"),
    ("trace.overhead_s", "s"),
]

LAYER_METRICS = [(name, unit) for name, unit, _ in PASS_METRICS] + RUN_METRICS


def layer_metrics(passes: list[list[list]]) -> dict[str, float]:
    """Median over traced passes (one span list each) of each pass metric."""
    summaries = [_Summary(spans) for spans in passes]
    return {name: statistics.median(fn(s) for s in summaries)
            for name, _unit, fn in PASS_METRICS}
