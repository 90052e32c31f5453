"""Per-layer metrics from the traced server's spans and the client's round trips.

A span's layer is its name up to the first dot.  A layer's self time is
its spans' time less the part their child spans cover; both are clipped to
the client's round trip, so per read the layers' self times plus the time
no span covers add up to the whole round trip (``trace.accounted_share``).
"""

from __future__ import annotations

import array
import json
import statistics
from collections import defaultdict
from pathlib import Path

LAYERS = ("aserve", "sql", "relational", "workload", "core", "render", "serving", "journal", "telemetry")

#: per-request metric -> the span names whose union it times
TIMED = {
    "sql.parse_ms": ("sql.parse",),
    "relational.select_ms": ("relational.select",),
    "workload.stats_copy_ms": ("workload.stats_copy",),
    "workload.fold_ms": ("workload.fold",),
    "core.categorize_ms": ("core.categorize",),
    "core.partition_ms": ("core.partition_numeric", "core.partition_categorical"),
    "core.score_ms": ("core.score_all", "core.score_one"),
    "render.render_ms": ("render.render",),
    "serving.categorize_ms": ("serving.categorize",),
    "serving.record_ms": ("serving.record",),
    "serving.publish_ms": ("serving.publish",),
    "journal.append_ms": ("journal.append",),
    "telemetry.emit_ms": ("telemetry.emit",),
}
#: boot-time metric -> the span name whose calls it sums (the traced run boots once)
BOOT = {
    "sql.log_parse_ms": "sql.parse",
    "relational.csv_load_ms": "relational.csv_load",
    "workload.preprocess_ms": "workload.preprocess",
    "warmstart.load_ms": "warmstart.load",
    "warmstart.replay_ms": "warmstart.replay",
    "catalog.open_ms": "catalog.open",
}


def _union(intervals):
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _median(values):
    return statistics.median(values) if values else 0.0


def _load(path):
    meta = json.loads(Path(f"{path}.json").read_text())
    data = array.array("q")
    data.frombytes(Path(path).read_bytes())
    names = meta["names"]
    width = len(meta["fields"])
    by_trace = defaultdict(list)
    for i in range(0, len(data), width):
        name, trace, span, parent, start, end, value = data[i:i + width]
        by_trace[trace].append((names[name], span, parent, start, end, value))
    return by_trace, {trace_id: n for n, trace_id in enumerate(meta["traces"])}, len(data) // width


def _ms(ns):
    return ns / 1e6


def per_layer(path, run, plain):
    """The traced run's per-layer metrics, and any tracing inconsistency."""
    by_trace, numbers, span_count = _load(path)
    problems = []
    per_request = defaultdict(list)
    self_ns = defaultdict(int, dict.fromkeys(LAYERS, 0))
    read_ns = uncovered_ns = 0
    overheads, read_ms = [], []
    counts = defaultdict(int)
    categorized = built = kept = 0
    categories = []

    def spans_of(op):
        return by_trace.get(numbers.get(op.trace_id, -2), [])

    for op in run.reads + run.records:
        for metric, names in TIMED.items():
            intervals = [(s[3], s[4]) for s in spans_of(op) if s[0] in names]
            if intervals:
                per_request[metric].append(_ms(_union(intervals)))

    for op in run.reads:
        if op.status != 200:
            continue
        spans = spans_of(op)
        if not any(s[0] == "serving.categorize" for s in spans):
            problems.append(f"read {op.trace_id} left no serving.categorize span")
            continue
        sent, received = op.sent, op.received
        rt = received - sent
        read_ns += rt
        read_ms.append(_ms(rt))
        clipped = {s[1]: (max(s[3], sent), min(s[4], received)) for s in spans}
        children = defaultdict(list)
        for s in spans:
            children[s[2]].append(clipped[s[1]])
        covered = _union([iv for iv in clipped.values() if iv[1] > iv[0]])
        uncovered_ns += rt - covered
        for s in spans:
            start, end = clipped[s[1]]
            if end <= start:
                continue
            inner = [(max(a, start), min(b, end)) for a, b in children[s[1]]]
            own = (end - start) - _union([iv for iv in inner if iv[1] > iv[0]])
            self_ns[s[0].split(".")[0]] += own
        inside = sum(
            _union([(s[3], s[4]) for s in spans if s[0] == name])
            for name in ("serving.categorize", "render.render")
        )
        overheads.append(_ms(rt - inside))
        for s in spans:
            counts[s[0]] += 1
            if s[0] == "serving.categorize":
                counts["hits" if s[5] else "misses"] += 1
            if s[0] == "relational.select":
                counts["rows_selected"] += s[5]
            if s[0] == "render.render":
                counts["render_bytes"] += s[5]
        if any(s[0] == "core.categorize" for s in spans):
            categorized += 1
            built += sum(1 for s in spans if s[0].startswith("core.partition_"))
            kept += sum(s[5] for s in spans if s[0] == "core.attach")
            categories.append(op.body["category_count"])
    record_spans = [s for op in run.records for s in spans_of(op)]

    boot = by_trace.get(-1, [])
    reads = max(1, len(read_ms))
    metrics = {
        "aserve.overhead_ms": (_median(overheads), "ms"),
        **{metric: (_median(per_request[metric]), "ms") for metric in TIMED},
        **{metric: (_ms(sum(s[4] - s[3] for s in boot if s[0] == name)), "ms")
           for metric, name in BOOT.items()},
        "warmstart.replayed": (sum(s[5] for s in boot if s[0] == "warmstart.replay"), "count"),
        "relational.rows_selected": (
            counts["rows_selected"] / max(1, counts["relational.select"]), "count"
        ),
        "core.partitionings_built": (built / max(1, categorized), "count"),
        "core.partitionings_kept": (kept / max(1, categorized), "count"),
        "core.partitioning_yield": (kept / max(1, built), "ratio"),
        "core.categories": (_median(categories), "count"),
        "render.bytes": (counts["render_bytes"] / reads, "bytes"),
        "serving.cache_hits": (counts["hits"], "count"),
        "serving.cache_misses": (counts["misses"], "count"),
        "serving.publishes": (sum(1 for s in record_spans if s[0] == "serving.publish"), "count"),
        "telemetry.events": (
            sum(1 for op in run.reads + run.records for s in spans_of(op) if s[0] == "telemetry.emit"),
            "count",
        ),
        **{f"self.{layer}_ms": (_ms(self_ns[layer]) / reads, "ms") for layer in LAYERS},
        "trace.uncovered_ms": (_ms(uncovered_ns) / reads, "ms"),
        "trace.uncovered_share": (uncovered_ns / max(1, read_ns), "ratio"),
        "trace.read_mean_ms": (_ms(read_ns) / reads, "ms"),
        "trace.read_p50_ms": (_median(read_ms), "ms"),
        "trace.untraced_read_p50_ms": (
            _median([_ms(op.received - op.sent) for op in plain.reads if op.status == 200]), "ms"
        ),
        "trace.spans": (span_count, "count"),
    }
    accounted = (sum(self_ns.values()) + uncovered_ns) / max(1, read_ns)
    metrics["trace.accounted_share"] = (accounted, "ratio")
    untraced = metrics["trace.untraced_read_p50_ms"][0]
    metrics["trace.overhead_share"] = (
        metrics["trace.read_p50_ms"][0] / untraced - 1 if untraced else 0.0, "ratio"
    )
    if abs(accounted - 1) > 0.001:
        problems.append(f"layer self times plus uncovered time are {accounted:.4f} of the round trips")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, problems
