"""Run the `repro` CLI with spans recorded around each layer's entry points.

Usage::

    python3 perfbench/launcher.py SPANS.bin serve --async ...

Before handing over to ``repro.cli.main`` the launcher wraps the public
functions listed in ``SPANS`` below, so nothing under ``src/`` changes.
Each call becomes one span -- name, start, end, parent span and trace id --
kept in memory as seven integers and written out when the CLI returns:
``SPANS.bin`` holds the integers (native ``array('q')``) and
``SPANS.bin.json`` the span names and trace ids they index.  A request's
trace id is the one the front end allocates (``Catalog.new_trace_id``) and
returns in ``X-Trace-Id``; it follows the request onto the executor thread
with the rest of the request's context.
"""

from __future__ import annotations

import array
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Span name -> (module, qualified attribute, attribute counter or None).
#: The counter maps (result, args) to the span's one integer attribute.
SPANS = {
    "aserve.dispatch": ("repro.serving.aserve", "AsyncFrontEnd._dispatch", None),
    "aserve.write": ("repro.serving.aserve", "AsyncFrontEnd._write_response", None),
    "sql.parse": ("repro.sql.compiler", "parse_query", None),
    "relational.select": (
        "repro.relational.query", "SelectQuery.execute", lambda result, args: len(result)
    ),
    "relational.csv_load": ("repro.relational.csvio", "read_csv", None),
    "workload.preprocess": ("repro.workload.preprocess", "preprocess_workload", None),
    "workload.stats_copy": ("repro.workload.preprocess", "WorkloadStatistics.copy", None),
    "workload.fold": ("repro.workload.preprocess", "WorkloadStatistics.record_query", None),
    "core.categorize": ("repro.core.algorithm", "LevelByLevelCategorizer.categorize", None),
    "core.partition_numeric": ("repro.core.partition.numeric", "NumericPartitioner.partition", None),
    "core.partition_categorical": (
        "repro.core.partition.categorical", "CategoricalPartitioner.partition", None
    ),
    "core.attach": (
        "repro.core.algorithm",
        "LevelByLevelCategorizer._attach_level",
        lambda result, args: sum(1 for p in args[2] if len(p) >= 2),
    ),
    "core.score_all": ("repro.core.cost", "CostModel.one_level_cost_all", None),
    "core.score_one": ("repro.core.cost", "CostModel.one_level_cost_one", None),
    "render.render": (
        "repro.render.treeview", "render_tree", lambda result, args: len(result)
    ),
    "serving.categorize": (
        "repro.serving.service",
        "CategorizationService.categorize",
        lambda result, args: int(result.cached),
    ),
    "serving.record": ("repro.serving.service", "CategorizationService.record_query", None),
    "serving.publish": ("repro.serving.snapshot", "SnapshotStore.publish_pending", None),
    "journal.append": ("repro.serving.journal", "SpillJournal.append", None),
    "warmstart.load": ("repro.serving.warmstart", "load_warm", None),
    "warmstart.replay": (
        "repro.serving.service",
        "CategorizationService.recover_from_journal",
        lambda result, args: result,
    ),
    "catalog.open": ("repro.catalog.catalog", "open_catalog", None),
    "telemetry.emit": ("repro.telemetry.pipeline", "TelemetryPipeline.emit", None),
}
NAMES = list(SPANS)
FIELDS = ("name", "trace", "span", "parent", "start", "end", "value")

_records = array.array("q")
_span_ids = itertools.count(1)
_trace_numbers: dict[str, int] = {}
_trace = contextvars.ContextVar("trace", default=-1)
_parent = contextvars.ContextVar("parent", default=0)


def _spanned(name, function, counter):
    number = NAMES.index(name)

    def finish(span, parent, start, end, result, args):
        value = -1 if counter is None else counter(result, args)
        _records.extend((number, _trace.get(), span, parent, start, end, value))

    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            if name == "aserve.dispatch":
                _trace.set(-1)  # a new request: its trace id is allocated inside
            span, parent = next(_span_ids), _parent.get()
            token = _parent.set(span)
            start = time.monotonic_ns()
            try:
                result = await function(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                _parent.reset(token)
            finish(span, parent, start, end, result, args)
            return result

    else:

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span, parent = next(_span_ids), _parent.get()
            token = _parent.set(span)
            start = time.monotonic_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                _parent.reset(token)
            finish(span, parent, start, end, result, args)
            return result

    return wrapper


def _install():
    importlib.import_module("repro.cli")
    for name, (module_name, qualified, counter) in SPANS.items():
        module = importlib.import_module(module_name)
        owner_name, _, attribute = qualified.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = inspect.getattr_static(owner, attribute)
        original = getattr(owner, attribute)
        wrapped = _spanned(name, original, counter)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        setattr(owner, attribute, wrapped)
        if owner is module:
            # `from module import function` copies: rebind them all.
            for other in list(sys.modules.values()):
                if getattr(other, attribute, None) is original:
                    setattr(other, attribute, wrapped)

    from repro.catalog.catalog import Catalog
    from repro.serving.aserve import AsyncFrontEnd

    allocate = Catalog.new_trace_id

    def new_trace_id(self):
        trace_id = allocate(self)
        _trace.set(_trace_numbers.setdefault(trace_id, len(_trace_numbers)))
        return trace_id

    run_in_executor = AsyncFrontEnd._run

    async def run_with_context(self, fn, /, *args, **kwargs):
        # The executor thread carries on the request's trace and parent span.
        return await run_in_executor(
            self, contextvars.copy_context().run, fn, *args, **kwargs
        )

    Catalog.new_trace_id = new_trace_id
    AsyncFrontEnd._run = run_with_context


def _write(path):
    with open(path, "wb") as handle:
        _records.tofile(handle)
    Path(f"{path}.json").write_text(
        json.dumps({"fields": FIELDS, "names": NAMES, "traces": list(_trace_numbers)})
    )


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    _install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        _write(path)


if __name__ == "__main__":
    sys.exit(main())
