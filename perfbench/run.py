#!/usr/bin/env python3
"""Benchmark `repro serve --async` over HTTP: one closed-loop client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload broad-cold --seed 1 --seconds 20 --trace 0

Workloads (README.md says why each exists):

* ``broad-cold``  held-out log queries broadened as in the paper's §6.2,
  every one distinct, so every read misses the result cache;
* ``narrow-log``  held-out log queries replayed as issued, all distinct;
* ``record-mix``  a warm-started durable server with a telemetry sink,
  alternating a skewed read of a popular query with a ``/record``.

The server boots ``SETUP_BOOTS`` times (``setup_s`` is the median boot);
the last boot serves the measured phase, which runs whole rounds for at
least ``--seconds`` seconds and at least a workload's minimum rounds.  Every
answer is then checked by the benchmark's own oracle (``oracle.py``).
``--trace 1`` runs the workload untraced and then once more under the
span-recording launcher (``launcher.py``) and prints the per-layer
metrics.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import oracle_selftest  # noqa: E402
import spans  # noqa: E402

ROOT = HERE.parent
WORK = HERE / ".work"
TABLE = "ListProperty"

WORKLOADS = ("broad-cold", "narrow-log", "record-mix")
SETUP_BOOTS = 3
BATCH = 64  # `repro serve --batch-size` default: records per epoch publish
STRATA = 50  # a cold-read round is one query from each of 50 result-size bands
MIN_READ_ROUNDS = 3  # 150 reads: more than the 128-entry result cache holds, so every
# run ends with a full cache, and more than 100, so ten lie beyond read_p90_ms
RECORD_ROUNDS = 32  # epochs of 64 records: 2,048 records, 32 inline publishes
PREPARED_RECORDS = 1000  # acknowledged before the record-mix state is killed
POPULAR = 24  # distinct popular queries read per record-mix epoch


# -- the workloads' queries -----------------------------------------------------


def _literal(value):
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(int(value)) if float(value).is_integer() else repr(value)


class Queries:
    """The seed-independent query pools, sized by the benchmark's own counts."""

    def __init__(self, paths):
        rows = oracle.read_rows(paths["homes.csv"])
        self.index = oracle.RowIndex(rows)
        state_of = {row["neighborhood"]: row["state"] for row in rows}
        region = {}  # in this data a region's neighborhoods share one state
        for name, state in state_of.items():
            region.setdefault(state, []).append(name)
        lines = Path(paths["heldout.sql"]).read_text().splitlines()
        held_out = list(dict.fromkeys(line for line in lines if line.strip()))
        self.held_out = held_out
        broad = sorted(
            {sql for sql in (self._broaden(q, state_of, region) for q in held_out) if sql}
        )
        self.narrow = self._sized(held_out)
        self.broad = self._sized(broad)

    @staticmethod
    def _broaden(sql, state_of, region):
        """§6.2: widen neighborhoods to the whole region, keep a 2x price range."""
        conditions = {c[0]: c for c in oracle.parse_conditions(sql)}
        hoods, price = conditions.get("neighborhood"), conditions.get("price")
        if hoods is None or price is None or hoods[1] != "in":
            return None
        names = sorted(region[state_of[sorted(hoods[2])[0]]])
        low, high = price[2], price[3]
        if high is None:
            high = max(3 * low, 1_000_000.0)
        if low is None:
            low = 0.0
        center, width = (low + high) / 2, high - low
        return (
            f"SELECT * FROM {TABLE} WHERE neighborhood IN "
            f"({', '.join(_literal(n) for n in names)}) AND price BETWEEN "
            f"{_literal(max(0.0, center - width))} AND {_literal(center + width)}"
        )

    def _sized(self, sqls):
        return sorted(((self.index.count(sql), sql) for sql in sqls))

    def strata(self, sized, rng):
        """``STRATA`` equal result-size bands, each shuffled by ``rng``."""
        bands = [
            [sql for _, sql in sized[i * len(sized) // STRATA:(i + 1) * len(sized) // STRATA]]
            for i in range(STRATA)
        ]
        for band in bands:
            rng.shuffle(band)
        return bands

    def popular(self):
        """The record-mix read set: evenly spaced broad queries of 100-600 rows."""
        band = [sql for size, sql in self.broad if 100 <= size <= 600]
        step = len(band) / POPULAR
        return [band[int(i * step)] for i in range(POPULAR)]

    def records(self, rng, skip=0):
        """Held-out queries to ``/record``, shuffled by ``rng``."""
        pool = self.held_out[skip:]
        rng.shuffle(pool)
        return pool


def zipf_counts(total, size):
    """``size`` skewed multiplicities (1/k weights, each >= 1) summing to ``total``."""
    weights = [1.0 / k for k in range(1, size + 1)]
    spare = total - size
    shares = [spare * w / sum(weights) for w in weights]
    counts = [1 + int(s) for s in shares]
    order = sorted(range(size), key=lambda k: int(shares[k]) - shares[k])
    for k in order[: total - sum(counts)]:
        counts[k] += 1
    return counts


# -- the server ----------------------------------------------------------------


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """One `repro serve --async` process and a keep-alive client connection."""

    def __init__(self, args, log_path, span_path=None):
        self.port = _free_port()
        if span_path is None:
            program = [sys.executable, "-m", "repro.cli"]
        else:
            program = [sys.executable, str(HERE / "launcher.py"), str(span_path)]
        command = program + ["serve", "--async", "--port", str(self.port), *args]
        self.log = open(log_path, "w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, env=inputs.repro_env(), cwd=ROOT,
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.conn = None
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited {self.proc.returncode} at boot; see {log_path}")
            try:
                self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
                self.conn.request("GET", "/healthz")
                response = self.conn.getresponse()
                response.read()
                if response.status == 200:
                    break
            except OSError:
                self.conn.close()
            if time.perf_counter() - started > 150:
                self.kill()
                raise RuntimeError("server did not answer /healthz within 150 s")
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - started

    def call(self, method, path, payload=None):
        """One request: (status, decoded body, trace id, sent ns, received ns)."""
        body = None if payload is None else json.dumps(payload)
        headers = {} if payload is None else {"Content-Type": "application/json"}
        sent = time.monotonic_ns()
        try:
            self.conn.request(method, path, body, headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            received = time.monotonic_ns()
            self.conn.close()  # reconnects on the next request
            return 0, None, None, sent, received
        received = time.monotonic_ns()
        try:
            decoded = json.loads(data)
        except ValueError:
            decoded = None
        return response.status, decoded, response.getheader("X-Trace-Id"), sent, received

    def health(self):
        status, body, *_ = self.call("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        return body

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def stop(self):
        """Close the client connection, SIGTERM, and return the exit status."""
        self.conn.close()
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            return None
        finally:
            self.log.close()

    def kill(self):
        if self.conn is not None:
            self.conn.close()
        self.proc.kill()
        self.proc.wait()
        self.log.close()


# -- one run -------------------------------------------------------------------

#: One request of the measured phase, as the client saw it.
Op = collections.namedtuple("Op", "sql status body trace_id sent received")


class Run:
    """The operations of one measured phase and what checking them found."""

    def __init__(self):
        self.reads = []  # Op per /categorize
        self.records = []  # Op per /record
        self.problems = []
        self.phase_s = 0.0

    def read(self, server, sql):
        self.reads.append(Op(sql, *server.call("POST", "/categorize", {"sql": sql, "render": True})))

    def record(self, server, sql):
        self.records.append(Op(sql, *server.call("POST", "/record", {"sql": sql})))

    def check(self, condition, problem):
        if not condition:
            self.problems.append(problem)

    @property
    def failed(self):
        return sum(1 for op in self.reads + self.records if op.status != 200)


def _serve_args(paths, extra=()):
    return [
        "--data", str(paths["homes.csv"]),
        "--workload", str(paths["stats.sql"]),
        "--backend", "columnar",
        *extra,
    ]


def prepared_state(paths, queries):
    """The record-mix state: a cold boot, acknowledged records, then SIGKILL."""
    digest = hashlib.sha256(inputs.PINS.read_bytes()).hexdigest()[:12]
    target = WORK / f"prepared-{digest}-{PREPARED_RECORDS}"
    if target.exists():
        return target
    scratch = WORK / f"preparing-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    server = Server(_serve_args(paths, ["--warm-start", str(scratch / "state")]), scratch / "server.log")
    try:
        for sql in queries.held_out[:PREPARED_RECORDS]:
            status, *_ = server.call("POST", "/record", {"sql": sql})
            if status != 200:
                raise RuntimeError(f"/record answered {status} while preparing state")
    finally:
        server.kill()
    os.replace(scratch / "state", target)
    shutil.rmtree(scratch)
    return target


def boot(paths, workload, work, number, prepared=None, span_path=None):
    """Boot the workload's server configuration (fresh state for record-mix)."""
    extra = []
    if workload == "record-mix":
        state = work / f"state-{number}"
        shutil.copytree(prepared, state)
        extra = ["--warm-start", str(state), "--telemetry-sink", str(work / f"sink-{number}" / "events.jsonl")]
    return Server(_serve_args(paths, extra), work / f"server-{number}.log", span_path)


def measure(server, workload, queries, rng, seconds, run):
    """The measured phase: whole rounds until ``seconds`` and the minimum pass."""
    started = time.perf_counter()
    records = queries.records(rng, skip=PREPARED_RECORDS if workload == "record-mix" else 0)
    if workload == "record-mix":
        popular = queries.popular()
        counts = zipf_counts(BATCH, POPULAR)
        rounds = 0
        while rounds < RECORD_ROUNDS or time.perf_counter() - started < seconds:
            rng.shuffle(counts)
            reads = [sql for sql, n in zip(popular, counts) for _ in range(n)]
            rng.shuffle(reads)
            for sql in reads:
                run.read(server, sql)
                run.record(server, records.pop())
            rounds += 1
        run.phase_s = time.perf_counter() - started
        return
    bands = queries.strata(queries.broad if workload == "broad-cold" else queries.narrow, rng)
    rounds = 0
    while rounds < MIN_READ_ROUNDS or time.perf_counter() - started < seconds:
        if rounds == len(bands[0]):
            break  # every pooled query read once; a repeat would hit the cache
        round_ = [band[rounds] for band in bands]
        rng.shuffle(round_)
        for sql in round_:
            run.read(server, sql)
        rounds += 1
    run.phase_s = time.perf_counter() - started
    # The write path after the reads, on the same journal-less server.
    for sql in records[: RECORD_ROUNDS * BATCH]:
        run.record(server, sql)


def expected_hits(run):
    """Cached reads the record-mix sequence predicts: repeats within an epoch."""
    hits, seen = 0, set()
    for position, op in enumerate(run.reads):
        if position % BATCH == 0:
            seen = set()  # the previous pair's record published a new epoch
        hits += op.sql in seen
        seen.add(op.sql)
    return hits


def check(run, workload, queries, before, after, work, number):
    """The oracle and the durability checks, outside every timed span."""
    for op in run.reads:
        if op.status != 200:
            continue
        try:
            oracle.check_read(op.body, queries.index.count(op.sql))
        except oracle.OracleError as exc:
            run.problems.append(f"{op.sql[:80]}...: {exc}")
        if workload != "record-mix":
            run.check(op.body["cached"] is False, f"cold read served from cache: {op.sql[:80]}")
        run.check(op.trace_id == op.body.get("trace_id"), "X-Trace-Id differs from the body's trace_id")
    for op in run.records:
        run.check(op.status != 200 or op.body.get("status") == "recorded", f"/record not acknowledged: {op.body}")
    recorded = sum(1 for op in run.records if op.status == 200)
    run.check(
        after["published"] + after["pending"] + after["spilled"] == after["recorded"],
        f"published + pending + spilled != recorded in {after}",
    )
    run.check(
        after["epoch"] - before["epoch"] == recorded // BATCH,
        f"epoch moved {before['epoch']} -> {after['epoch']} over {recorded} records",
    )
    if workload != "record-mix":
        return
    durability = before["durability"]
    run.check(durability["warm_start"] is True, "record-mix server did not boot warm")
    run.check(
        durability["replayed_on_boot"] == PREPARED_RECORDS,
        f"replayed {durability['replayed_on_boot']} records, {PREPARED_RECORDS} were acknowledged",
    )
    cached = sum(1 for op in run.reads if op.status == 200 and op.body["cached"])
    predicted = expected_hits(run)
    run.check(cached == predicted, f"{cached} cached reads, {predicted} predicted")
    sink = sorted(str(p) for p in (work / f"sink-{number}").iterdir())
    audit = subprocess.run(
        [sys.executable, "-m", "repro.cli", "audit", "--strict", "--format", "json", *sink],
        env=inputs.repro_env(), cwd=ROOT, capture_output=True, text=True,
    )
    run.check(audit.returncode == 0, f"repro audit --strict exited {audit.returncode}: {audit.stderr[-300:]}")
    if audit.returncode == 0:
        report = json.loads(audit.stdout)["report"]
        client_ids = {op.trace_id for op in run.reads + run.records if op.status == 200}
        run.check(
            report["complete"] == report["requests"] == len(client_ids),
            f"audit reconstructed {report['complete']}/{report['requests']} traces "
            f"of {len(client_ids)} the client received",
        )
        sink_ids = set()
        for path in sink:
            for line in Path(path).read_text().splitlines():
                event = json.loads(line)
                if event.get("trace_id"):
                    sink_ids.add(event["trace_id"].split("#")[0])
        run.check(client_ids <= sink_ids, f"{len(client_ids - sink_ids)} client trace ids missing from the sink")


def _ms(ns):
    return ns / 1e6


def _cpu_steal():
    """(steal, total) jiffies of the machine, from /proc/stat."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    return fields[7], sum(fields)


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run, setups, peak_rss_mb):
    reads = [_ms(op.received - op.sent) for op in run.reads if op.status == 200]
    records = [_ms(op.received - op.sent) for op in run.records if op.status == 200]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "server_peak_rss_mb": (peak_rss_mb, "MiB"),
        "read_p50_ms": (statistics.median(reads), "ms"),
        "read_p90_ms": (_quantile(reads, 90), "ms"),
        "read_rps": (len(reads) / run.phase_s, "1/s"),
        "record_p50_ms": (statistics.median(records), "ms"),
        "record_p99_ms": (_quantile(records, 99), "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_once(paths, queries, workload, seed, seconds, work, number, boots, span_path=None):
    """Boot ``boots`` times, measure on the last boot, check everything."""
    prepared = prepared_state(paths, queries) if workload == "record-mix" else None
    setups = []
    for attempt in range(boots):
        server = boot(paths, workload, work, number + attempt, prepared,
                      span_path if attempt == boots - 1 else None)
        setups.append(server.setup_s)
        if attempt < boots - 1 and server.stop() != 0:
            raise RuntimeError("server exited non-zero on SIGTERM after a set-up boot")
    number += boots - 1
    run = Run()
    gc.collect()
    gc.freeze()  # the client's pools stay out of its collector while it times
    gc.disable()
    try:
        before = server.health()
        steal = _cpu_steal()
        measure(server, workload, queries, random.Random(seed), seconds, run)
        steal = [now - then for now, then in zip(_cpu_steal(), steal)]
        after = server.health()
        peak = server.peak_rss_mb()
    except BaseException:
        server.kill()
        raise
    finally:
        gc.enable()
        gc.unfreeze()
    status = server.stop()
    print(f"cpu steal during the measured phase: {steal[0] / max(1, steal[1]):.1%}", file=sys.stderr)
    run.check(status == 0, f"server exited {status} on SIGTERM")
    check(run, workload, queries, before, after, work, number)
    return run, setups, peak


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    oracle_selftest.run()
    paths = inputs.ensure_inputs()
    queries = Queries(paths)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            plain, _, _ = run_once(paths, queries, args.workload, args.seed, args.seconds, work, 0, 1)
            span_path = work / "spans.bin"
            run, _, _ = run_once(paths, queries, args.workload, args.seed, args.seconds, work, 1, 1, span_path)
            metrics, problems = spans.per_layer(span_path, run, plain)
            run.problems += plain.problems + problems
            attempted = len(run.reads) + len(run.records) + len(plain.reads) + len(plain.records)
            failed = run.failed + plain.failed
        else:
            run, setups, peak = run_once(
                paths, queries, args.workload, args.seed, args.seconds, work, 0, SETUP_BOOTS
            )
            metrics = end_to_end(run, setups, peak)
            attempted = len(run.reads) + len(run.records)
            failed = run.failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
