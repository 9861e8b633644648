"""Workload ``serve``: open-loop reads and writes against ``repro serve``.

The server runs as its own process (``serve_entry.py``), so the load
generator never competes with it for the interpreter lock. One asyncio
thread drives two connections: a reader sending ``validate`` with seeded
Poisson arrivals at 8/s (stream ``a``) and a writer sending 2-op
``mutate`` batches at Poisson 20/s (stream ``b``). This is the only
workload that crosses the protocol, admission, MVCC pin/fork/replay and
index-delta layers, and it runs detection on a data graph rather than a
canonical one. Writes beside reads make the view manager fork pinned
snapshots. The load sits below a measured cliff: at 10 q/s + 20 w/s
validate p50 jumps from ~25 ms to ~1 s.

Latency is measured from each request's scheduled send time, so a stall
also charges the requests queued behind it; a failed or refused request
counts as infinite latency. ``--session-inflight 64`` only lets one
connection carry the whole read stream without tripping the per-session
quota.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import random
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.datasets.synthetic import load_dataset
from repro.gfd.generator import mine_gfds
from repro.gfd.parser import parse_gfds, render_gfds
from repro.graph.io import graph_to_dict, load_graph
from repro.reasoning.validation import detect_errors_store
from repro.serve.protocol import apply_wire_ops

from common import HERE, OPS, SETUP_REPEATS, InvalidRun, pass_result, percentile, reshuffle, roll_up, rss_mb

STRUCTURE_SEED = 7
READ_RATE = 8.0
WRITE_RATE = 20.0
WARMUP_VALIDATES = 3
#: Run-validity guards: a late generator or one that needs more threads
#: or connections than there are CPUs measures itself, not the server.
LATENESS_LIMIT_S = 0.010
CONNECTIONS = 2
THREADS = 1
DRAIN_TIMEOUT_S = 30.0
LINE_LIMIT = 64 * 1024 * 1024


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def build_inputs(seed: int, smoke: bool, run_dir: Path):
    """The graph file, the rule text, and what the write batches copy."""
    num_nodes, num_rules = (300, 8) if smoke else (2000, 30)
    graph = load_dataset("dbpedia", num_nodes=num_nodes, seed=STRUCTURE_SEED)
    rules = mine_gfds(graph, num_rules, seed=STRUCTURE_SEED)
    rng = random.Random(seed)
    # --seed renames every node (insertion order kept) and reorders and
    # renames the rules: new bytes on the wire, the same amount of work.
    ids = list(range(num_nodes))
    rng.shuffle(ids)
    rename = dict(zip(graph.nodes(), ids))
    doc = graph_to_dict(graph)
    for node in doc["nodes"]:
        node["id"] = rename[node["id"]]
    for edge in doc["edges"]:
        edge["src"], edge["dst"] = rename[edge["src"]], rename[edge["dst"]]
    path = run_dir / "graph.json"
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    text = render_gfds(reshuffle(rules, rng, "m"))
    edge_labels = sorted({edge["label"] for edge in doc["edges"]})
    return {"graph": path, "rules": text, "nodes": doc["nodes"], "edge_labels": edge_labels}


def schedule(rng: random.Random, rate: float, seconds: float):
    """Poisson arrival offsets in ``[0, seconds)``."""
    offsets, at = [], rng.expovariate(rate)
    while at < seconds:
        offsets.append(at)
        at += rng.expovariate(rate)
    return offsets


def write_batch(rng: random.Random, inputs, number: int):
    """Add a copy of a random node, plus an edge to a random node."""
    nodes = inputs["nodes"]
    model = rng.choice(nodes)
    new_id = len(nodes) + number
    return [
        {"kind": "add_node", "id": new_id, "label": model["label"], "attrs": model["attrs"]},
        {
            "kind": "add_edge",
            "src": new_id,
            "dst": rng.choice(nodes)["id"],
            "label": rng.choice(inputs["edge_labels"]),
        },
    ]


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    def __init__(self, graph: Path, trace_out: Path = None) -> None:
        command = [sys.executable, str(HERE / "serve_entry.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--", str(graph), "--session-inflight", "64"]
        # Same process group as this pass: run.py's group kill reaches it.
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=os.environ.copy())
        line = self.proc.stdout.readline().decode("utf-8").strip()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start (said {line!r})")
        host, port = line[len("serving on "):].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Connection:
    """One ndjson connection; responses are matched to requests by id."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.waiting = {}
        self.task = asyncio.get_running_loop().create_task(self._receive())

    @classmethod
    async def open(cls, server: Server) -> "Connection":
        reader, writer = await asyncio.open_connection(server.host, server.port, limit=LINE_LIMIT)
        return cls(reader, writer)

    async def _receive(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            received = time.perf_counter()
            message = json.loads(line)
            future = self.waiting.pop(message.get("id"), None)
            if future is not None and not future.done():
                future.set_result((received, message))
        for future in self.waiting.values():
            if not future.done():
                future.set_exception(ConnectionError("server closed the connection"))

    def send(self, rid: str, payload: bytes) -> "asyncio.Future":
        future = asyncio.get_running_loop().create_future()
        self.waiting[rid] = future
        self.writer.write(payload)
        return future

    async def request(self, rid: str, **fields):
        line = json.dumps({"id": rid, **fields}).encode("utf-8") + b"\n"
        _, message = await asyncio.wait_for(self.send(rid, line), DRAIN_TIMEOUT_S)
        if not message.get("ok"):
            raise RuntimeError(f"{fields.get('op')} failed: {message}")
        return message

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass
        await self.task


async def open_session(server: Server, rules: str):
    """Both connections, warmed up with a few validates."""
    reader = await Connection.open(server)
    writer = await Connection.open(server)
    await reader.request("warm-ping", op="ping")
    await writer.request("warm-ping-w", op="ping")
    for number in range(WARMUP_VALIDATES):
        await reader.request(f"warm-{number}", op="validate", rules=rules)
    return reader, writer


async def drive(reader: Connection, writer: Connection, plan):
    """Send every planned request at its due time; collect the answers."""
    records = {}
    start = time.perf_counter() + 0.05

    async def stream(connection, requests):
        for rid, op, offset, payload in requests:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            records[rid] = {"op": op, "due": due, "sent": sent, "future": connection.send(rid, payload)}

    await asyncio.gather(stream(reader, plan["a"]), stream(writer, plan["b"]))
    futures = [record["future"] for record in records.values()]
    if futures:
        await asyncio.wait(futures, timeout=DRAIN_TIMEOUT_S)
    for record in records.values():
        future = record.pop("future")
        if future.done() and future.exception() is None:
            record["received"], record["response"] = future.result()
        else:
            future.cancel()
            record["error"] = "no answer" if not future.done() else str(future.exception())
    return records


def build_plan(seed: int, inputs, seconds: float):
    read_rng = random.Random(seed * 2 + 1)
    write_rng = random.Random(seed * 2 + 2)
    reads = []
    for number, offset in enumerate(schedule(read_rng, READ_RATE, seconds)):
        rid = f"v{number}"
        line = json.dumps({"id": rid, "op": "validate", "rules": inputs["rules"]})
        reads.append((rid, "a", offset, line.encode("utf-8") + b"\n"))
    writes, batches = [], []
    for number, offset in enumerate(schedule(write_rng, WRITE_RATE, seconds)):
        rid = f"m{number}"
        batch = write_batch(write_rng, inputs, number)
        batches.append(batch)
        line = json.dumps({"id": rid, "op": "mutate", "ops": batch})
        writes.append((rid, "b", offset, line.encode("utf-8") + b"\n"))
    return {"a": reads, "b": writes, "batches": batches}


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check_answers(records, plan, inputs, base_version: int, plant: bool):
    """Failure messages per request id.

    Every mutate ack must carry the journal length after its batch; every
    validate answer must be byte-identical to ``detect_errors_store`` on
    one reference graph, loaded from the same file and advanced through
    the journal in pinned-version order.
    """
    failures = {}
    for rid, record in records.items():
        if "error" in record:
            failures[rid] = record["error"]
        elif not record["response"].get("ok"):
            failures[rid] = f"{record['response'].get('code')}: {record['response'].get('error')}"

    journal = [base_version]
    for (rid, *_), batch in zip(plan["b"], plan["batches"]):
        journal.append(journal[-1] + len(batch))
        if rid in failures:
            continue
        version = records[rid]["response"].get("version")
        if version != journal[-1]:
            failures[rid] = f"ack version {version}, journal length {journal[-1]}"

    pinned = {}
    for rid, *_ in plan["a"]:
        if rid not in failures:
            pinned.setdefault(records[rid]["response"]["pinned_version"], []).append(rid)
    sigma = parse_gfds(inputs["rules"])
    reference = load_graph(inputs["graph"])
    applied = 0
    for version in sorted(pinned):
        while journal[applied] < version and applied < len(plan["batches"]):
            apply_wire_ops(reference, plan["batches"][applied])
            applied += 1
        if journal[applied] != version:
            for rid in pinned[version]:
                failures[rid] = f"pinned version {version} is not a batch boundary"
            continue
        store = detect_errors_store(reference, sigma)
        expected = json.dumps([v.to_json() for v in store.violations], sort_keys=True)
        for rid in pinned[version]:
            violations = records[rid]["response"]["violations"]
            if plant:
                plant = False
                violations = violations[:-1] if violations else [{"gfd": "planted"}]
            if json.dumps(violations, sort_keys=True) != expected:
                failures[rid] = f"violations at version {version} differ from detect_errors_store"
    return failures


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
def run(args, recorder=None):
    cpus = len(os.sched_getaffinity(0))
    if max(THREADS, CONNECTIONS) > cpus:
        raise InvalidRun(f"load generator needs {CONNECTIONS} connections but only {cpus} CPUs")
    trace_out = args.run_dir / "server-spans.json" if args.trace else None
    # select() sleeps to the microsecond; epoll rounds timer waits up to
    # whole milliseconds, which would show up as generator lateness.
    with asyncio.Runner(loop_factory=lambda: asyncio.SelectorEventLoop(selectors.SelectSelector())) as runner:
        return runner.run(_run(args, trace_out))


async def _run(args, trace_out):
    setup_times = []
    server = None
    try:
        for repeat in range(1 if args.smoke else SETUP_REPEATS):
            if server is not None:
                await reader.close()
                await writer.close()
                server.stop()
            started = time.perf_counter()
            inputs = build_inputs(args.seed, args.smoke, args.run_dir)
            server = Server(inputs["graph"], trace_out)
            reader, writer = await open_session(server, inputs["rules"])
            setup_times.append(time.perf_counter() - started)

        plan = build_plan(args.seed, inputs, args.seconds)
        before = await reader.request("stats-before", op="stats")
        rss = rss_mb(server.proc.pid)
        # The answers kept for checking grow the heap; a full collection
        # in the generator would show up as lateness, so none runs here.
        gc.disable()
        try:
            records = await drive(reader, writer, plan)
        finally:
            gc.enable()
        after = await reader.request("stats-after", op="stats")
        peak = server.peak_rss_mb()
        await reader.close()
        await writer.close()
    finally:
        if server is not None:
            server.stop()

    failures = check_answers(records, plan, inputs, before["version"], args.plant)
    samples = {op: [] for op in OPS}
    kinds = {}
    for rid, record in records.items():
        latency = math.inf if rid in failures else record["received"] - record["due"]
        samples[record["op"]].append(latency)
        kinds[rid] = record["op"]
    lateness = [record["sent"] - record["due"] for record in records.values()]
    late_p99 = percentile(lateness, 0.99)
    if late_p99 > LATENESS_LIMIT_S:
        raise InvalidRun(f"generator lateness p99 {late_p99 * 1000:.1f} ms > {LATENESS_LIMIT_S * 1000:.0f} ms")

    result = pass_result(
        ops={"a": f"validate at {READ_RATE:g}/s", "b": f"mutate at {WRITE_RATE:g}/s"},
        setup_s=setup_times,
        rss_mb=rss,
        samples=samples,
        attempted=len(records),
        failures=[f"{rid}: {message}" for rid, message in sorted(failures.items())],
        extra={
            "peak_rss_mb": (peak, "MB"),
            "validate_p95_s": (percentile(samples["a"], 0.95), "s"),
            "validate_p99_s": (percentile(samples["a"], 0.99), "s"),
            "generator_late_p99_s": (late_p99, "s"),
        },
    )
    if trace_out is not None:
        result["layers"], result["coverage"] = server_layers(trace_out, records, kinds, before, after)
        result["layers"]["serve.generator_late_p99_s"] = late_p99
    return result


def server_layers(trace_out: Path, records, kinds, before, after):
    """Per-layer metrics from the server's span dump and the client clock."""
    doc = json.loads(trace_out.read_text(encoding="utf-8"))
    requests = {entry["rid"]: entry for entry in doc["requests"]}
    windows = {rid: (start, end) for rid, _op, start, end in doc["windows"]}
    layers = roll_up(requests, kinds)
    queue_wait = transport = 0.0
    covered = {op: 0.0 for op in OPS}
    wall = {op: 0.0 for op in OPS}
    for rid, op in kinds.items():
        record = records[rid]
        start, end = windows.get(rid, (None, None))
        if "received" not in record or end is None:
            continue
        window = end - start
        named = sum(requests.get(rid, {"self": {}})["self"].values())
        queue_wait += window - named
        transport += (record["received"] - record["sent"]) - window
        covered[op] += record["received"] - record["sent"]
        wall[op] += record["received"] - record["due"]
    views_before, views_after = before["views"], after["views"]
    delta = {key: views_after[key] - views_before[key] for key in views_after if key in views_before}
    failed = after["counters"]["queries_failed"] - before["counters"]["queries_failed"]
    ops = len(kinds) or 1
    layers.update(
        {
            "serve.queue_wait.s": queue_wait / ops,
            "serve.transport.s": transport / ops,
            "serve.views.forks": delta["forks"],
            "serve.views.fork_ratio": delta["forks"] / delta["pins_total"] if delta["pins_total"] else 0.0,
            "serve.stats.pins": delta["pins_total"],
            "serve.stats.full_copies": delta["full_copies"],
            "serve.stats.ops_replayed": delta["ops_replayed"],
            "serve.stats.queries_failed": failed,
        }
    )
    coverage = {op: covered[op] / wall[op] if wall[op] else 0.0 for op in OPS}
    return layers, coverage
