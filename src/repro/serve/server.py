"""The validation server: one writer, many MVCC readers, standing pools.

:class:`ValidationServer` is the asyncio front-end of the serving layer.
Its concurrency architecture, in one paragraph: **mutations** from all
sessions funnel through one bounded :class:`asyncio.Queue` into a single
writer task — the only code that touches the live graph — which applies
each batch, re-indexes (the delta path keeps this O(|batch|)), and
answers with the new version/epoch; **queries** are admitted through a
bounded semaphore (global admission control) plus per-session quotas,
pin an MVCC read view at the version they were admitted at
(:class:`~repro.serve.views.SnapshotManager`), and run the existing
sequential entry points against that frozen snapshot on a thread pool —
so a long validate never delays a write, and a write burst never skews a
running query. Because the writer task and all pin/release calls live on
the event-loop thread, "pin at the current version" is atomic by
construction; the GIL is irrelevant to the isolation argument.

Parallel rule-reasoning queries (``sat``/``imp`` with ``"parallel":
true``) go through a standing :class:`ProcessBackend`: the server caches
one :class:`~repro.parallel.parsat.PreparedSat` per rule-set digest, so a
repeated rule set reuses its compiled plans and unit context — which is
exactly what lets the persistent worker pool refresh its replicas through
``delta_ops_since`` instead of cold-starting. Runs are serialized on the
pool (one lock); sequential queries proceed concurrently regardless.

Failure behavior inherits the PR 6 supervision story: a worker killed or
hung during a parallel query is respawned/degraded by the backend and the
query still answers; a malformed request poisons only its own response;
a session's death releases its pins and quotas and nothing else.
"""

from __future__ import annotations

import asyncio
import hashlib
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, Optional, Tuple

from ..errors import ReproError
from ..gfd.parser import parse_gfds
from ..graph.graph import PropertyGraph
from ..parallel.backends import ProcessBackend
from ..parallel.config import RuntimeConfig
from ..parallel.parimp import par_imp
from ..parallel.parsat import PreparedSat
from ..reasoning.seqimp import seq_imp
from ..reasoning.seqsat import seq_sat
from ..reasoning.validation import detect_errors_store
from . import protocol
from .protocol import MAX_LINE_BYTES, PROTOCOL_VERSION, ProtocolError
from .session import QuotaExceeded, Session, SessionQuota
from .views import SnapshotManager

#: Request errors (rule parse failures, malformed patterns...) answered
#: with ``bad_request``; every other ReproError is ``internal``.
_CLIENT_ERRORS = ("ParseError", "GFDError", "PatternError", "LiteralError")


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of the validation service (see ``docs/serving.md``)."""

    #: Bind address; port 0 picks an ephemeral port (reported by start()).
    host: str = "127.0.0.1"
    port: int = 0
    #: Global admission control: queries in flight at once, across all
    #: sessions. Excess queries *wait* here (backpressure, not rejection).
    max_inflight_queries: int = 8
    #: Bound on queued-but-unapplied mutation batches; a full queue makes
    #: ``mutate`` requests await their turn (backpressure on writers).
    mutation_queue_depth: int = 64
    #: Worker threads executing pinned-snapshot queries.
    query_threads: int = 8
    #: Per-session limits (fairness; the semaphore above is capacity).
    quota: SessionQuota = field(default_factory=SessionQuota)
    #: >0 enables parallel sat/imp queries on a standing process pool of
    #: this many workers (ignored when *runtime* is given).
    parallel_workers: int = 0
    #: Full runtime override for the standing pool; None derives one from
    #: *parallel_workers* (with persistent workers on).
    runtime: Optional[RuntimeConfig] = None
    #: LRU capacity of prepared rule sets kept for the standing pool.
    max_prepared_rule_sets: int = 8
    #: Writer-side housekeeping cadence: every N applied batches the head
    #: snapshot catches up and the delta history is trimmed (clamped to
    #: pinned versions, so this is always safe).
    trim_interval_batches: int = 32

    def __post_init__(self) -> None:
        for name in (
            "max_inflight_queries",
            "mutation_queue_depth",
            "query_threads",
            "max_prepared_rule_sets",
            "trim_interval_batches",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.parallel_workers < 0:
            raise ValueError("parallel_workers must be >= 0")


class ValidationServer:
    """A long-lived GFD validation service over one property graph."""

    def __init__(self, graph: Optional[PropertyGraph] = None, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        self.graph = graph if graph is not None else PropertyGraph()
        self.views = SnapshotManager(self.graph)
        self.sessions: Dict[int, Session] = {}
        self.address: Optional[Tuple[str, int]] = None
        self._gate = asyncio.Semaphore(self.config.max_inflight_queries)
        self._mutations: asyncio.Queue = asyncio.Queue(maxsize=self.config.mutation_queue_depth)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.query_threads, thread_name_prefix="serve-query"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._writer_task: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()
        self._batches_since_trim = 0
        # Standing-pool state for parallel rule queries.
        runtime = self.config.runtime
        if runtime is None and self.config.parallel_workers > 0:
            runtime = RuntimeConfig(
                workers=self.config.parallel_workers, persistent_workers=True
            )
        self._runtime = runtime
        self._backend: Optional[ProcessBackend] = (
            ProcessBackend(runtime) if runtime is not None else None
        )
        self._prepared: "OrderedDict[str, PreparedSat]" = OrderedDict()
        self._pool_lock = asyncio.Lock()
        self.stats: Dict[str, int] = {
            "sessions_total": 0,
            "queries_total": 0,
            "queries_failed": 0,
            "mutation_batches": 0,
            "mutation_ops": 0,
            "mutation_rejected_ops": 0,
            "prepared_builds": 0,
            "prepared_hits": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the socket and start the writer task; returns (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self._writer_task = asyncio.create_task(self._writer_loop())
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def aclose(self) -> None:
        """Stop accepting, fail queued mutations, and tear everything down."""
        if self._server is not None:
            self._server.close()
        # Connection handlers are the server's children, not ours — cancel
        # the registered ones so open sessions do not hold shutdown up.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._server is not None:
            try:
                await asyncio.wait_for(self._server.wait_closed(), timeout=5)
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                pass
        if self._writer_task is not None:
            self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
        while not self._mutations.empty():
            _, _, fut = self._mutations.get_nowait()
            if not fut.done():
                fut.set_result((False, {"code": "internal", "error": "server shutting down"}))
        if self._backend is not None:
            await asyncio.get_running_loop().run_in_executor(
                self._executor, self._backend.close
            )
        self._executor.shutdown(wait=True)
        self.views.close()

    # ------------------------------------------------------------------
    # The single writer
    # ------------------------------------------------------------------
    async def _writer_loop(self) -> None:
        while True:
            _session, ops, fut = await self._mutations.get()
            try:
                applied, assigned, error = protocol.apply_wire_ops(self.graph, ops)
                # Keep the hot index current: the journal replay is
                # O(|batch|), and every pinned view materialized later
                # starts from an index that is already warm.
                index = self.graph.index()
                self.stats["mutation_batches"] += 1
                self.stats["mutation_ops"] += applied
                if error is not None:
                    self.stats["mutation_rejected_ops"] += len(ops) - applied
                self._batches_since_trim += 1
                if self._batches_since_trim >= self.config.trim_interval_batches:
                    self._batches_since_trim = 0
                    # Catch the head snapshot up first so the trim (which
                    # is clamped to the minimum pinned version) can
                    # actually discard the replayed prefix.
                    self.views.refresh_head()
                    self.graph.trim_delta_history(self.graph.mutation_count)
                payload: Dict[str, object] = {
                    "applied": applied,
                    "version": self.graph.mutation_count,
                    "epoch": index.epoch,
                }
                if assigned:
                    payload["assigned_ids"] = assigned
                if error is not None:
                    payload["code"] = "bad_request"
                    payload["error"] = error
                    result = (False, payload)
                else:
                    result = (True, payload)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # defensive: the writer must not die
                result = (False, {"code": "internal", "error": f"{type(exc).__name__}: {exc}"})
            if not fut.done():
                fut.set_result(result)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._conn_tasks.add(conn_task)
        peer = writer.get_extra_info("peername")
        session = Session(self.config.quota, peer=str(peer))
        self.sessions[session.id] = session
        self.stats["sessions_total"] += 1
        write_lock = asyncio.Lock()
        tasks: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    async with write_lock:
                        writer.write(
                            protocol.encode(
                                protocol.error_response(
                                    None, "bad_request", "request line too long"
                                )
                            )
                        )
                        await writer.drain()
                    break
                if not line:
                    break
                task = asyncio.create_task(
                    self._serve_request(session, line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels connection handlers; fall through to
            # the cleanup below instead of ending the task cancelled (the
            # streams machinery logs cancelled handler tasks as errors).
            pass
        finally:
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self.sessions.pop(session.id, None)
            if conn_task is not None:
                self._conn_tasks.discard(conn_task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_request(self, session, line, writer, write_lock) -> None:
        request_id = None
        try:
            request = protocol.decode(line)
            request_id = request.get("id")
            response = await self._dispatch(session, request)
            response["id"] = request_id
        except ProtocolError as exc:
            response = protocol.error_response(request_id, "bad_request", str(exc))
        except QuotaExceeded as exc:
            response = protocol.error_response(request_id, "quota_exceeded", str(exc))
        except asyncio.CancelledError:
            raise
        except ReproError as exc:
            code = "bad_request" if type(exc).__name__ in _CLIENT_ERRORS else "internal"
            response = protocol.error_response(request_id, code, str(exc))
        except Exception as exc:
            response = protocol.error_response(
                request_id, "internal", f"{type(exc).__name__}: {exc}"
            )
        try:
            async with write_lock:
                writer.write(protocol.encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, session: Session, request: Dict[str, object]) -> Dict[str, object]:
        op = request.get("op")
        if not isinstance(op, str):
            raise ProtocolError("request is missing 'op'")
        session.admit_request()
        if op == "ping":
            return self._op_ping(session, request)
        if op == "stats":
            return self._op_stats(session, request)
        if op == "mutate":
            return await self._op_mutate(session, request)
        if op in ("sat", "imp", "validate", "explain"):
            session.begin_query()
            try:
                async with self._gate:
                    self.stats["queries_total"] += 1
                    try:
                        handler = getattr(self, f"_op_{op}")
                        return await handler(session, request)
                    except Exception:
                        self.stats["queries_failed"] += 1
                        raise
            finally:
                session.end_query()
        raise ProtocolError(f"unknown op {op!r}")

    # ------------------------------------------------------------------
    # Control ops
    # ------------------------------------------------------------------
    def _op_ping(self, session: Session, request) -> Dict[str, object]:
        return protocol.ok_response(
            request.get("id"),
            protocol=PROTOCOL_VERSION,
            session=session.id,
            version=self.graph.mutation_count,
        )

    def _op_stats(self, session: Session, request) -> Dict[str, object]:
        return protocol.ok_response(
            request.get("id"),
            version=self.graph.mutation_count,
            nodes=self.graph.num_nodes,
            edges=self.graph.num_edges,
            sessions_active=len(self.sessions),
            mutation_queue=self._mutations.qsize(),
            views=self.views.stats(),
            counters=dict(self.stats),
            prepared_rule_sets=len(self._prepared),
            parallel_enabled=self._backend is not None,
            session=session.snapshot(),
        )

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    async def _op_mutate(self, session: Session, request) -> Dict[str, object]:
        ops = request.get("ops")
        if not isinstance(ops, list):
            raise ProtocolError("mutate requires an 'ops' list")
        session.admit_mutations(len(ops))
        fut = asyncio.get_running_loop().create_future()
        # A full queue blocks here: backpressure reaches the client as
        # response latency, never as unbounded server-side buffering.
        await self._mutations.put((session, ops, fut))
        ok, payload = await fut
        if ok:
            return protocol.ok_response(request.get("id"), **payload)
        code = payload.pop("code", "internal")
        error = payload.pop("error", "mutation failed")
        return protocol.error_response(request.get("id"), code, error, **payload)

    # ------------------------------------------------------------------
    # Rule-space queries (no graph snapshot: sat/imp are graph-independent)
    # ------------------------------------------------------------------
    async def _parse_rules(self, request, key: str = "rules"):
        text = request.get(key)
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError(f"{key!r} must be non-empty GFD DSL text")
        loop = asyncio.get_running_loop()
        return text, await loop.run_in_executor(self._executor, parse_gfds, text)

    async def _op_sat(self, session: Session, request) -> Dict[str, object]:
        text, sigma = await self._parse_rules(request)
        loop = asyncio.get_running_loop()
        if request.get("parallel"):
            result = await self._parallel_sat(text, sigma)
            fields: Dict[str, object] = {"backend": "process", "workers": self._runtime.workers}
        else:
            result = await loop.run_in_executor(self._executor, seq_sat, sigma)
            fields = {"backend": "seq"}
        store = result.results
        session.last_store = store
        session.last_store_version = None
        satisfiable = bool(result.satisfiable)
        if not satisfiable:
            fields["conflict"] = store.to_json()["conflict"]
        if request.get("include_results"):
            fields["results"] = store.to_json()
        return protocol.ok_response(request.get("id"), satisfiable=satisfiable, **fields)

    async def _parallel_sat(self, text: str, sigma):
        if self._backend is None:
            raise ProtocolError(
                "parallel queries are disabled (start the server with --parallel N)"
            )
        key = hashlib.blake2s(text.encode("utf-8")).hexdigest()[:16]
        loop = asyncio.get_running_loop()
        # One lock serializes both the prepared-cache and the standing
        # pool: ProcessBackend.run() is not reentrant, and keeping the
        # same PreparedSat (hence the same UnitContext) across runs is
        # what lets the pool refresh replicas by delta instead of
        # cold-starting.
        async with self._pool_lock:
            prepared = self._prepared.get(key)
            if prepared is None:
                prepared = await loop.run_in_executor(
                    self._executor, PreparedSat.build, sigma, self._runtime
                )
                self._prepared[key] = prepared
                self.stats["prepared_builds"] += 1
                while len(self._prepared) > self.config.max_prepared_rule_sets:
                    self._prepared.popitem(last=False)
            else:
                self._prepared.move_to_end(key)
                self.stats["prepared_hits"] += 1
            return await loop.run_in_executor(
                self._executor, prepared.run, self._backend
            )

    async def _op_imp(self, session: Session, request) -> Dict[str, object]:
        _, sigma = await self._parse_rules(request)
        _, candidates = await self._parse_rules(request, key="candidate")
        if len(candidates) != 1:
            raise ProtocolError("'candidate' must contain exactly one rule")
        phi = candidates[0]
        loop = asyncio.get_running_loop()
        if request.get("parallel"):
            if self._runtime is None:
                raise ProtocolError(
                    "parallel queries are disabled (start the server with --parallel N)"
                )
            # Imp runs on a transient pool: its canonical graph G^X_Q is
            # per-candidate, so a standing pool would never refresh-hit.
            config = replace(self._runtime, persistent_workers=False)
            result = await loop.run_in_executor(
                self._executor, partial(par_imp, sigma, phi, config, "process")
            )
            backend_name = "process"
        else:
            result = await loop.run_in_executor(self._executor, seq_imp, sigma, phi)
            backend_name = "seq"
        return protocol.ok_response(
            request.get("id"),
            implied=bool(result.implied),
            reason=getattr(result, "reason", None),
            backend=backend_name,
        )

    # ------------------------------------------------------------------
    # Graph queries (MVCC-pinned)
    # ------------------------------------------------------------------
    async def _run_validate(self, session: Session, request):
        _, sigma = await self._parse_rules(request)
        limit = request.get("limit")
        if limit is not None and not isinstance(limit, int):
            raise ProtocolError("'limit' must be an integer")
        view = self.views.pin()
        session.pins += 1
        try:
            store = await asyncio.get_running_loop().run_in_executor(
                self._executor,
                partial(detect_errors_store, view.graph, sigma, limit_per_gfd=limit),
            )
        finally:
            view.release()
        session.last_store = store
        session.last_store_version = view.version
        return store, view

    async def _op_validate(self, session: Session, request) -> Dict[str, object]:
        store, view = await self._run_validate(session, request)
        return protocol.ok_response(
            request.get("id"),
            violations=[v.to_json() for v in store.violations],
            violation_count=len(store.violations),
            pinned_version=view.version,
            pinned_epoch=view.epoch,
        )

    async def _op_explain(self, session: Session, request) -> Dict[str, object]:
        if isinstance(request.get("rules"), str):
            store, view = await self._run_validate(session, request)
            version: Optional[int] = view.version
        else:
            store = session.last_store
            version = session.last_store_version
            if store is None:
                raise ProtocolError(
                    "nothing to explain: run 'validate' (or pass 'rules') first"
                )
        explanations = []
        index = request.get("violation")
        if index is not None:
            if not isinstance(index, int) or not 0 <= index < len(store.violations):
                raise ProtocolError(
                    f"'violation' must be an index in [0, {len(store.violations)})"
                )
            targets = [store.violations[index]]
        else:
            targets = list(store.violations[:20])
        for violation in targets:
            explanations.append(_explanation_json(store, violation))
        conflict_explanation = None
        if store.conflict is not None:
            ex = store.explain_conflict()
            conflict_explanation = {
                "conflict": store.conflict.to_json(),
                "evidence": [record.to_json() for record in ex.evidence],
                "steps": [_step_json(op) for op in ex.steps],
                "rules_involved": ex.gfds_involved,
            }
        return protocol.ok_response(
            request.get("id"),
            explanations=explanations,
            conflict=conflict_explanation,
            violation_count=len(store.violations),
            pinned_version=version,
        )


def _step_json(op) -> Dict[str, object]:
    return {
        "kind": op.kind,
        "term": list(op.term),
        "value": op.value,
        "other": list(op.other) if op.other else None,
        "gfd": (op.provenance.gfd if op.provenance else op.source),
    }


def _explanation_json(store, violation) -> Dict[str, object]:
    ex = store.explain_violation(violation)
    return {
        "violation": violation.to_json(),
        "evidence": [record.to_json() for record in ex.evidence],
        "steps": [_step_json(op) for op in ex.steps],
        "rules_involved": ex.gfds_involved,
    }
