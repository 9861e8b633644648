"""Spans for the traced pass, recorded from outside the library.

Nothing under ``src/`` knows about this module. :func:`install` rebinds the
call-site names of public functions (module attributes and class methods)
to thin wrappers that open a span around each call; the untraced pass
never imports this module, so its numbers carry no wrapper cost.

A span is ``(id, name, start, end, parent id, request id)``. Parents come
from a thread-local stack; the request id comes from a contextvar so that
spans recorded on executor threads still belong to the request that
submitted the work. Self time (a span's duration minus the time its child
spans cover) is folded into per-request totals as each span closes, so a
long pass keeps only small dicts; the raw spans of the first
:data:`MAX_RAW_SPANS` are kept as well and written out at the end.

Matching runs are generators that interleave with enforcement in the
caller, so ``matching.enumerate`` is a *busy* span: one span per run whose
duration is the time spent inside ``next()`` calls, not first-to-last.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional

from common import BOOKKEEPING

#: The request (or timed op) that the current code works for.
REQUEST_ID: contextvars.ContextVar = contextvars.ContextVar("bench_request_id", default=None)

#: Raw spans kept for the written-out trace; self-time totals cover all.
MAX_RAW_SPANS = 50_000


_clock = time.perf_counter


class _Frame:
    __slots__ = ("id", "name", "entered", "start", "child", "rid", "parent")

    def __init__(self, name: str, rid, parent: Optional[int]) -> None:
        self.id = 0
        self.name = name
        self.entered = 0.0
        self.start = 0.0
        self.child = 0.0
        self.rid = rid
        self.parent = parent


class Recorder:
    """Collects spans from every thread of one process.

    The recorder's own work between a wrapper's entry and exit is charged
    to :data:`BOOKKEEPING`, not to the enclosing span, so instrumentation
    cost is not reported as unattributed program time.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._tables: List[dict] = []
        self.raw: List[tuple] = []

    # -- per-thread state ------------------------------------------------
    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            # rid -> {"self": {name: s}, "n": {name: spans}, "count": {name: x}}
            local.table = defaultdict(_request_table)
            with self._lock:
                self._tables.append(local.table)
        return stack, local.table

    def _close(self, stack, table, rid, entered: float, start: float, end: float) -> None:
        """Charge the whole wrapper interval to the parent and the part
        outside ``[start, end]`` to bookkeeping."""
        done = _clock()
        if stack:
            stack[-1].child += done - entered
        table[rid]["self"][BOOKKEEPING] += (start - entered) + (done - end)

    # -- ordinary spans --------------------------------------------------
    def enter(self, name: str, rid=None) -> _Frame:
        entered = _clock()
        stack, _ = self._state()
        frame = _Frame(name, REQUEST_ID.get() if rid is None else rid, stack[-1].id if stack else None)
        frame.id = next(self._ids)
        frame.entered = entered
        stack.append(frame)
        frame.start = _clock()
        return frame

    def exit(self, frame: _Frame) -> float:
        end = _clock()
        stack, table = self._state()
        stack.pop()
        self._record(table, frame, frame.start, end, end - frame.start - frame.child)
        self._close(stack, table, frame.rid, frame.entered, frame.start, end)
        return end

    def _record(self, table, frame: _Frame, start: float, end: float, self_time: float) -> None:
        entry = table[frame.rid]
        entry["self"][frame.name] += self_time
        entry["n"][frame.name] += 1
        if len(self.raw) < MAX_RAW_SPANS:
            self.raw.append((frame.id, frame.name, start, end, frame.parent, frame.rid))

    def open_root(self, rid, name: str):
        """Start the root span of one timed op and make *rid* current."""
        token = REQUEST_ID.set(rid)
        return token, self.enter(name, rid=rid)

    def close_root(self, root) -> None:
        token, frame = root
        self.exit(frame)
        REQUEST_ID.reset(token)

    def leaf(self, name: str, start: float) -> None:
        """Close a span that has no children and keeps no raw record — the
        cheap form for functions called tens of thousands of times per op."""
        end = _clock()
        stack, table = self._state()
        rid = REQUEST_ID.get()
        entry = table[rid]
        entry["self"][name] += end - start
        entry["n"][name] += 1
        self._close(stack, table, rid, start, start, end)

    def count(self, entered: float, **values: float) -> None:
        """Add to per-request counters; *entered* is when the caller began
        computing them (that time is bookkeeping too)."""
        stack, table = self._state()
        rid = REQUEST_ID.get()
        counts = table[rid]["count"]
        for name, value in values.items():
            counts[name] += value
        self._close(stack, table, rid, entered, entered, entered)

    # -- busy spans over generators -------------------------------------
    def busy(self, name: str, generator, on_finish: Callable[[], None]):
        """Re-yield *generator*, timing only the work inside ``next()``."""
        stack, table = self._state()
        frame = _Frame(name, REQUEST_ID.get(), stack[-1].id if stack else None)
        frame.id = next(self._ids)
        first = None
        busy = 0.0
        child = 0.0
        started = False
        try:
            while True:
                outer = stack[-1] if stack else None
                frame.child = 0.0
                stack.append(frame)
                frame.start = _clock()
                if first is None:
                    first = frame.start
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    end = _clock()
                    stack.pop()
                    step = end - frame.start
                    busy += step
                    child += frame.child
                    if outer is not None:
                        outer.child += step
                    started = True
                yield item
        finally:
            generator.close()
            if started:
                self._record(table, frame, first, first + busy, busy - child)
                on_finish()

    # -- results -----------------------------------------------------------
    def tables(self) -> Dict[object, dict]:
        """Per-request totals merged over threads (call once work stopped)."""
        merged: Dict[object, dict] = defaultdict(_request_table)
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for rid, entry in list(table.items()):
                target = merged[rid]
                for kind in ("self", "n", "count"):
                    for name, value in list(entry[kind].items()):
                        target[kind][name] += value
        return merged

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        """Write the totals (and the kept raw spans) as one JSON document."""
        doc = {
            "requests": [
                {"rid": rid, "self": dict(e["self"]), "n": dict(e["n"]), "count": dict(e["count"])}
                for rid, e in self.tables().items()
            ],
            "spans": list(self.raw),
        }
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _request_table() -> dict:
    return {"self": defaultdict(float), "n": defaultdict(int), "count": defaultdict(float)}


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _spanned(recorder: Recorder, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        frame = recorder.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.exit(frame)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _leaf(recorder: Recorder, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.leaf(name, start)

    wrapper.__wrapped__ = fn
    return wrapper


def _rebind(modules, attr: str, wrapper: Callable) -> None:
    for module in modules:
        if getattr(module, attr, None) is wrapper.__wrapped__:
            setattr(module, attr, wrapper)


class ContextExecutor(ThreadPoolExecutor):
    """Runs each submitted callable in a copy of the submitter's context,
    so the request id set on the event loop follows work onto threads."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def install(recorder: Recorder, serve: bool = False) -> None:
    """Wrap every layer boundary the benchmark reports on.

    With *serve*, also wrap the server's protocol, MVCC view and executor
    call sites; the decode wrapper sets :data:`REQUEST_ID` from the
    request's ``id`` and the server window of each request is recorded
    from the start of its decode to the end of its encode.
    """
    from repro.gfd import canonical
    from repro.graph.elements import is_wildcard
    from repro.graph.graph import PropertyGraph
    from repro.graph.index import GraphIndex
    from repro.matching import homomorphism, plan, ruleset, simulation
    from repro.matching.component_index import ComponentIndex
    from repro.parallel import parsat, units
    from repro.parallel.backends.process import ProcessBackend
    from repro.reasoning import enforce, seqimp, seqsat, validation, workunits

    call_sites = (seqsat, seqimp, validation, parsat, units, workunits, simulation, plan)

    spanned_simulation = _spanned(recorder, "matching.simulation", simulation.simulation_candidates)

    def simulation_candidates(pattern, graph, *args, **kwargs):
        result = spanned_simulation(pattern, graph, *args, **kwargs)
        entered = _clock()
        before = 0
        for var in pattern.variables:
            label = pattern.label_of(var)
            before += graph.num_nodes if is_wildcard(label) else len(graph.nodes_with_label(label))
        after = 0 if result is None else sum(len(members) for members in result.values())
        recorder.count(entered, candidates_before=before, candidates_after=after)
        return result

    simulation_candidates.__wrapped__ = simulation.simulation_candidates
    _rebind(call_sites, "simulation_candidates", simulation_candidates)
    _rebind(call_sites, "get_plan", _spanned(recorder, "matching.plan", plan.get_plan))
    _rebind(
        call_sites,
        "gfd_dependency_order",
        _spanned(recorder, "reasoning.order", workunits.gfd_dependency_order),
    )
    _rebind(
        (seqsat, parsat, canonical),
        "build_canonical_graph",
        _spanned(recorder, "gfd.canonical", canonical.build_canonical_graph),
    )
    _rebind(
        (seqimp, canonical),
        "build_implication_canonical",
        _spanned(recorder, "gfd.canonical", canonical.build_implication_canonical),
    )

    for cls in (homomorphism.MatcherRun, ruleset.RuleSetRun):
        _wrap_matches(recorder, cls)
        cls.__init__ = _spanned(recorder, "matching.setup", cls.__init__)
    ComponentIndex.pattern_compatible = _leaf(
        recorder, "matching.components", ComponentIndex.pattern_compatible
    )
    GraphIndex.bitset = _leaf(recorder, "graph.bitset", GraphIndex.bitset)

    original_enforce = enforce.EnforcementEngine.enforce
    spanned_enforce = _spanned(recorder, "reasoning.enforce", original_enforce)

    def enforce_match(self, gfd, assignment):
        changed = spanned_enforce(self, gfd, assignment)
        recorder.count(_clock(), enforce_calls=1, enforce_changed=1 if changed else 0)
        return changed

    enforce.EnforcementEngine.enforce = enforce_match
    PropertyGraph.subgraph = _spanned(recorder, "graph.subgraph", PropertyGraph.subgraph)
    PropertyGraph.index = _spanned(recorder, "graph.index", PropertyGraph.index)

    build = parsat.PreparedSat.__dict__["build"].__func__
    parsat.PreparedSat.build = classmethod(_spanned(recorder, "parallel.prepare", build))
    parsat.PreparedSat.make_units = _spanned(recorder, "parallel.units", parsat.PreparedSat.make_units)
    units.UnitContext.precompute_neighborhoods = _spanned(
        recorder, "parallel.neighborhoods", units.UnitContext.precompute_neighborhoods
    )
    ProcessBackend.run = _spanned(recorder, "parallel.backend", ProcessBackend.run)

    if serve:
        _install_serve(recorder)


def _wrap_matches(recorder: Recorder, cls) -> None:
    original = cls.matches

    def matches(self, *args, **kwargs):
        def finish():
            recorder.count(_clock(), matches=self.match_count, ticks=self.ticks)

        return recorder.busy("matching.enumerate", original(self, *args, **kwargs), finish)

    matches.__wrapped__ = original
    cls.matches = matches


def _install_serve(recorder: Recorder) -> None:
    from repro.serve import protocol, server, views

    _rebind((server,), "parse_gfds", _spanned(recorder, "gfd.parse", server.parse_gfds))
    _rebind(
        (server,),
        "detect_errors_store",
        _spanned(recorder, "reasoning.detect", server.detect_errors_store),
    )
    _rebind((views,), "replay", _spanned(recorder, "graph.delta.replay", views.replay))
    _rebind((views,), "_replica", _spanned(recorder, "serve.views.fork", views._replica))
    views.SnapshotManager.pin = _spanned(recorder, "serve.views.pin", views.SnapshotManager.pin)
    server.ThreadPoolExecutor = ContextExecutor

    decode, encode, apply_ops = protocol.decode, protocol.encode, protocol.apply_wire_ops
    #: id(ops list) -> request id, so the writer task can attribute a batch.
    owners: Dict[int, object] = {}
    #: request id -> [op, window start, window end]
    windows: Dict[object, list] = {}
    recorder.windows = windows

    def traced_decode(line):
        frame = recorder.enter("serve.protocol.decode")
        try:
            message = decode(line)
            frame.rid = message.get("id")
            REQUEST_ID.set(frame.rid)
            windows[frame.rid] = [message.get("op"), frame.start, None]
            if isinstance(message.get("ops"), list):
                owners[id(message["ops"])] = frame.rid
            return message
        finally:
            recorder.exit(frame)

    def traced_encode(message):
        frame = recorder.enter("serve.protocol.encode", rid=message.get("id"))
        try:
            return encode(message)
        finally:
            end = recorder.exit(frame)
            window = windows.get(frame.rid)
            if window is not None:
                window[2] = end

    def traced_apply(graph, ops):
        # The writer task handles one batch at a time: the index refresh
        # and housekeeping that follow the batch belong to it as well.
        REQUEST_ID.set(owners.pop(id(ops), None))
        frame = recorder.enter("serve.protocol.apply")
        try:
            return apply_ops(graph, ops)
        finally:
            recorder.exit(frame)

    protocol.decode = traced_decode
    protocol.encode = traced_encode
    protocol.apply_wire_ops = traced_apply
