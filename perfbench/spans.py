"""In-memory spans and counters for the traced (per-layer) benchmark run.

A span records name, start, end and the span that caused it.  The benchmark
cannot see inside the library, so it stages calls from outside: each layer is
called after the memos of the layers below it are warm, and work the layer
repeats internally without a memo (subgroup lattices, left-ideal scans, table
re-checks) is replayed just before the call as a child span.  A layer's self
time is its span's duration minus the durations of its children.

Spans marked ``extra`` are probes the untraced workload does not run (a JSON
round trip, a witness replay); they are reported but left out of
``trace.explained_frac``.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Per-layer metrics every traced run reports, span name -> metric name.
TIMED = {
    "census.build": "census.build_ms",
    "census.label": "census.label_ms",
    "morphisms.aut": "morphisms.aut_ms",
    "enumeration.enumerate": "enumeration.enumerate_ms",
    "enumeration.mult_types": "enumeration.mult_types_ms",
    "enumeration.reduce": "enumeration.reduce_ms",
    "groups.from_table": "groups.from_table_ms",
    "braces.validate": "braces.validate_ms",
    "groups.subgroups": "groups.subgroups_ms",
    "braces.gamma": "braces.gamma_ms",
    "braces.left_ideal": "braces.left_ideal_ms",
    "classify.scan": "classify.scan_ms",
    "classify.verify_witness": "classify.verify_witness_ms",
    "report.descriptor": "report.descriptor_ms",
    "report.render_dot": "report.render_dot_ms",
    "jsonio.serialize": "jsonio.serialize_ms",
    "jsonio.parse": "jsonio.parse_ms",
    "cache.store": "cache.store_ms",
    "cache.load": "cache.load_ms",
    "cli.startup": "cli.startup_ms",
    # Work a staged call repeats whose time is reported under another layer.
    "replay": None,
}

COUNTED = (
    "census.label_calls", "morphisms.aut_elements", "enumeration.ops",
    "enumeration.iso_classes", "groups.subgroups_found", "braces.left_ideal_checks",
    "classify.braces_examined", "jsonio.bytes", "cache.hits", "cache.misses",
    "cache.bytes", "cli.invocations",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, start, end, parent, extra]
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()

    def call(self, name: str, fn, *args, parent: int | None = None,
             extra: bool = False, **kwargs):
        """Run fn(*args) inside a span; returns (span id, result).

        fn is None when a probed name is not public any more: the layer's
        metric is then reported absent, and (None, None) returned, instead of
        failing the run.
        """
        if fn is None:
            self.absent.add(TIMED[name])
            return None, None
        sid = len(self.spans)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        end = time.perf_counter()
        self.spans.append([sid, name, start, end, parent, extra])
        return sid, out

    def add(self, name: str, n: int) -> None:
        self.counts[name] += n

    def self_ms(self) -> tuple[dict[str, float], float]:
        """Self time per metric, and the sum over spans the workload itself runs."""
        child_s: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        per: dict[str, float] = defaultdict(float)
        workload_ms = 0.0
        for sid, name, start, end, _, extra in self.spans:
            metric = TIMED[name]
            if metric is None:
                continue
            ms = (end - start - child_s[sid]) * 1e3
            per[metric] += ms
            if not extra and name != "census.build":
                workload_ms += ms
        return dict(per), workload_ms

    def cost_per_span_s(self, n: int = 2000) -> float:
        """Measured cost of recording one span, for trace.overhead_frac."""
        probe = Tracer()
        start = time.perf_counter()
        for _ in range(n):
            probe.call("census.build", int)
        return (time.perf_counter() - start) / n
