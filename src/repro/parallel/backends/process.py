"""Process backend: real cores via ``multiprocessing`` worker replicas.

The paper runs ParSat/ParImp on a shared-nothing cluster: the canonical
graph is replicated, workers keep local ``Eq`` replicas, and ``ΔEq`` is
broadcast between them. This backend is that architecture on one machine:

* **workers** are OS processes forked against the coordinator's prebuilt
  state — on fork platforms they inherit the compiled
  :class:`~repro.graph.index.GraphIndex`, the warm neighborhood caches and
  the initial ``Eq`` replica copy-on-write, paying zero serialization; on
  spawn platforms the same state ships once per worker as a pickled
  snapshot (:meth:`GraphIndex.to_snapshot` + the
  :class:`~repro.parallel.units.UnitContext` pickle support) and the index
  is reconstructed without O(|G|) recompilation;
* **dispatch** pickles :class:`~repro.reasoning.workunits.WorkUnit`
  batches over per-worker pipes, routed by the
  :class:`~repro.parallel.scheduler.Scheduler`: units sharing a pivot
  locality key stick to one replica (warm caches, duplicate-ΔEq
  suppression) and each worker's batch size adapts to its observed
  round-trip cost vs ΔEq payload; split sub-units come back inside
  :class:`~repro.parallel.units.UnitResult` and are requeued into the
  scheduler's priority lane (cross-process requeue tracks units by their
  stable :attr:`WorkUnit.uid`);
* **ΔEq broadcast** is explicit: each worker returns the
  :class:`~repro.eq.eqrelation.DeltaOp` ops its replica appended, the
  coordinator merges them into the master ``Eq`` (idempotent replay), and
  every dispatch carries the master ops the receiving worker has not seen
  — minus the ops that worker itself produced (echo suppression: a
  replica never pays wire volume for its own work);
* **early termination** happens at the first conflict (the
  :class:`Conflict` object itself is shipped — conflicts are not log ops)
  or when the implication goal holds on the *master* ``Eq``, which sees
  the union of all replicas.

After the queue drains, *settlement rounds* broadcast leftover deltas
until no worker's parked-match cascade produces new ops — the distributed
equivalent of the shared-engine fixpoint, so all backends return identical
verdicts (the algorithms are Church-Rosser over a monotone ``Eq``).

**Supervision.** The paper assumes all ``p`` workers survive to the
fixpoint; this backend does not. The coordinator supervises its replicas
through four mechanisms, each driven by the same state machine
(live → suspected → dead → respawning, see ``docs/architecture.md``):

* *hang detection* — every wait on worker replies carries a deadline
  derived from the pool's observed round-trip history
  (:meth:`RuntimeConfig.batch_deadline`); a worker past it is killed and
  treated as dead. No wait is ever infinite;
* *retry + quarantine* — a worker-side exception no longer aborts the
  run: the worker reports the failing unit (with its traceback) and
  carries on, and the coordinator retries the unit up to
  ``config.max_unit_retries`` times before quarantining it into
  :attr:`ParallelOutcome.quarantined`. A worker *crash* mid-batch is
  bisected instead: the lost batch re-dispatches as singleton batches, so
  the unit that kills replicas is isolated, charged its retries, and
  quarantined — innocents are simply re-run. Because a dead replica takes
  its parked (UNDECIDED) matches with it, the units it had completed are
  also re-executed on the survivors — re-deriving ``ΔEq`` ops is
  idempotent over the monotone master ``Eq``;
* *respawn with backoff* — a dead slot is restarted (up to
  ``config.max_worker_respawns`` times, exponential backoff) from the
  coordinator's *current* state: fork inheritance or a fresh snapshot of
  the master engine, so the replica arrives fully caught up and the
  scheduler re-opens it for locality pinning (``worker_revived``);
* *graceful degradation* — when the pool still collapses below
  ``config.min_live_workers`` (including the all-dead case), the
  coordinator finishes the remaining queue in-process through the
  simulated path (:func:`~repro.parallel.coordinator.drain_in_process`)
  instead of failing, marking the outcome ``degraded``.

``config.strict_faults`` restores fail-fast: the first fault raises a
typed :class:`~repro.errors.WorkerFault` (or
:class:`~repro.errors.WorkerPoolError` on pool collapse) and the pool is
torn down whole — survivors are never left half-buried. All failure paths
are exercised deterministically via ``config.fault_plan``
(:mod:`repro.parallel.faults`).

With ``RuntimeConfig.persistent_workers`` the pool additionally survives
between ``run()`` calls on the same :class:`UnitContext` — the mutation-
heavy serving shape. The coordinator's graph retains a version-stamped
history of its topology ops (:meth:`PropertyGraph.retain_deltas`); a
follow-up run ships each standing replica only the ops since the last
exchange plus the fresh engine, the worker replays them onto its graph
copy (:func:`repro.graph.delta.replay`), drops its topology-derived caches
(:meth:`UnitContext.note_topology_change`) and lets its *index* absorb the
same ops through the journal/:meth:`GraphIndex.apply_delta` path — no
re-fork, no snapshot re-pickling, no O(|G|) recompile. The caller owns the
pool's lifetime (:meth:`ProcessBackend.close`); a context switch or a
history gap falls back to a cold start transparently.

**Fragmented execution.** With ``RuntimeConfig.fragments`` (the
coordinator context carries a ``fragment_router``) workers no longer
receive the whole graph. The cold-start payload is a small *kit* — the
rules, the pinned whole-graph pivot/variable-order decisions, and the
engine replica — and graph data arrives as per-fragment replicas: an
edge-cut fragment with its ≤dQ-hop halo (:mod:`repro.graph.fragment`),
shipped on demand to whichever worker the scheduler routes the
fragment's units to, and recorded in the coordinator's *holdings* table.
Units whose preassigned bindings escape their fragment's replica (splits
inherited from a unit that ran elsewhere) get a one-shot serialized
dQ-ball instead; units no fragment can serve (disconnected patterns
search the whole graph) run coordinator-side before the pool spins up.
When a worker holding fragments dies its holdings are forgotten, so the
next dispatch of those fragments' units re-ships each full replica to a
survivor — fragment loss costs a re-ship, never a quarantine.
Persistent-pool refreshes split the delta journal *per fragment*
(:meth:`~repro.graph.fragment.Fragmenter.split_delta`): a mutation only
refreshes the fragments whose interior or halo it touches, and a
fragment whose position-order insertion invariant a delta would break is
re-shipped whole.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
import traceback
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Deque, Dict, List, Optional, Sequence, Set

from ...errors import WorkerFault, WorkerPoolError
from ...graph.delta import replay as replay_delta_ops
from ...graph.fragment import FragmentIndex
from ...graph.index import GraphIndex
from ...reasoning.enforce import EnforcementEngine
from ...reasoning.workunits import WorkUnit
from ..coordinator import (
    ParallelOutcome,
    QuarantinedUnit,
    absorb_result,
    drain_in_process,
    register_splits,
)
from ..faults import FaultPlan, InjectedFault, RetryTracker
from ..scheduler import Scheduler
from ..units import UnitContext, execute_unit
from .base import Backend, GoalCheck

#: Seconds a worker is given to exit after a stop message before being
#: terminated forcefully.
_JOIN_TIMEOUT = 5.0


class _WorkerState:
    """Everything one worker process needs: its replica of the run.

    Two shapes share the class. Classic mode carries a whole-graph
    ``context`` (``kit``/``fragments`` are None). Fragmented mode carries
    no whole-graph context at all: ``kit`` holds the graph-independent
    pieces (rules, flags, the pinned whole-graph pivot/order decisions)
    and ``fragments`` maps fragment id → the per-fragment
    :class:`UnitContext` built from its shipped replica.
    """

    __slots__ = (
        "context",
        "engine",
        "goal",
        "ttl_ticks",
        "max_split_units",
        "fault_plan",
        "kit",
        "fragments",
    )

    def __init__(
        self,
        context: Optional[UnitContext],
        engine: EnforcementEngine,
        goal: Optional[GoalCheck],
        ttl_ticks: Optional[float],
        max_split_units: int,
        fault_plan: Optional[FaultPlan] = None,
        kit: Optional[Dict[str, object]] = None,
        fragments: Optional[Dict[int, UnitContext]] = None,
    ) -> None:
        self.context = context
        self.engine = engine
        self.goal = goal
        self.ttl_ticks = ttl_ticks
        self.max_split_units = max_split_units
        self.fault_plan = fault_plan
        self.kit = kit
        self.fragments = fragments


#: Pre-fork state handed to children by inheritance (fork start method).
_FORK_STATE: Optional[_WorkerState] = None


def make_worker_snapshot(
    context: UnitContext,
    engine: EnforcementEngine,
    goal: Optional[GoalCheck],
    ttl_ticks: Optional[float],
    max_split_units: int,
    fault_plan: Optional[FaultPlan] = None,
) -> bytes:
    """Serialize one worker's replica for spawn-style process creation.

    A single ``dumps`` covers the context (graph + caches, sans plans),
    the index snapshot, and the engine replica, so shared objects (the
    GFDs, the graph) are pickled once and re-shared on load.
    """
    payload = {
        "context": context,
        "index": context.graph.index().to_snapshot(),
        "engine": engine,
        "goal": goal,
        "ttl_ticks": ttl_ticks,
        "max_split_units": max_split_units,
        "fault_plan": fault_plan,
    }
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def make_fragment_snapshot(
    context: UnitContext,
    engine: EnforcementEngine,
    goal: Optional[GoalCheck],
    ttl_ticks: Optional[float],
    max_split_units: int,
    fault_plan: Optional[FaultPlan] = None,
    fragments: Optional[Dict[int, FragmentIndex]] = None,
) -> bytes:
    """Serialize a fragmented worker's cold-start payload.

    Unlike :func:`make_worker_snapshot` this ships *no* whole-graph data:
    only the kit (rules, pruning flags, and the pivot/variable-order
    decisions pinned against the whole graph so fragment-local matching
    reproduces whole-graph streams) plus the engine replica. Fragment
    replicas themselves normally arrive later, on demand, inside dispatch
    extras; *fragments* pre-seeds them when a caller wants to.
    """
    payload = {
        "fragmented": True,
        "kit": {
            "gfds": context.gfds,
            "use_simulation_pruning": context._simulation_requested,
            "use_bitsets": context.use_bitsets,
            "plan_orders": context.plan_orders,
            "pivot_overrides": context.pivot_overrides,
        },
        "fragments": dict(fragments or {}),
        "engine": engine,
        "goal": goal,
        "ttl_ticks": ttl_ticks,
        "max_split_units": max_split_units,
        "fault_plan": fault_plan,
    }
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def _fragment_context(kit: Dict[str, object], findex: FragmentIndex) -> UnitContext:
    """Build the per-fragment :class:`UnitContext` around a replica.

    The context wraps the fragment's induced graph; the kit's pinned
    ``plan_orders``/``pivot_overrides`` make its searches agree with the
    whole graph's. Plans compile here, once per fragment, in O(|Q|).
    """
    context = UnitContext(
        findex.graph,
        kit["gfds"],
        use_simulation_pruning=kit["use_simulation_pruning"],
        use_bitsets=kit["use_bitsets"],
        fragment=findex,
        plan_orders=kit["plan_orders"],
        pivot_overrides=kit["pivot_overrides"],
    )
    context.precompile_plans()
    return context


def _resolve_context(
    state: _WorkerState, unit: WorkUnit, balls: Dict[str, FragmentIndex]
) -> UnitContext:
    """Pick the replica a fragmented worker runs *unit* against.

    A dQ-ball shipped for this specific unit wins (one-shot context, not
    retained); otherwise the held fragment that *owns* the unit's pivot
    serves it. The coordinator only dispatches units it has arranged a
    replica for, so the final raise is protocol hygiene — it surfaces in
    the reply's failures slot and goes through retry/quarantine.
    """
    findex = balls.get(unit.uid)
    if findex is not None:
        return _fragment_context(state.kit, findex)
    pivot = unit.pivot_node()
    for context in state.fragments.values():
        if context.fragment.spec.owns(pivot):
            return context
    raise RuntimeError(
        f"worker holds no fragment replica owning the pivot of unit {unit.uid}"
    )


def load_worker_snapshot(blob: bytes) -> _WorkerState:
    """Rebuild a worker replica from :func:`make_worker_snapshot` or
    :func:`make_fragment_snapshot` output.

    Classic payloads: the graph index is reconstructed from its snapshot
    tables (no O(|G|) recompilation) and installed on the unpickled
    graph, then match plans — deliberately not shipped — recompile
    locally in O(|Q|) per pattern. Fragmented payloads build one context
    per pre-seeded fragment replica and otherwise wait for dispatch
    extras to deliver graph data.
    """
    payload = pickle.loads(blob)
    if payload.get("fragmented"):
        kit = payload["kit"]
        fragments = {
            fid: _fragment_context(kit, findex)
            for fid, findex in payload["fragments"].items()
        }
        return _WorkerState(
            None,
            payload["engine"],
            payload["goal"],
            payload["ttl_ticks"],
            payload["max_split_units"],
            payload.get("fault_plan"),
            kit=kit,
            fragments=fragments,
        )
    context: UnitContext = payload["context"]
    graph = context.graph
    graph.adopt_index(GraphIndex.from_snapshot(graph, payload["index"]))
    context.precompile_plans()
    return _WorkerState(
        context,
        payload["engine"],
        payload["goal"],
        payload["ttl_ticks"],
        payload["max_split_units"],
        payload.get("fault_plan"),
    )


def _handle_batch(
    state: _WorkerState,
    batch: Sequence[WorkUnit],
    ops,
    worker_id: int = 0,
    batch_index: Optional[int] = None,
    extras: Optional[Dict[str, dict]] = None,
) -> tuple:
    """Apply a ΔEq broadcast, run *batch* on the local replica, and report.

    The reply carries only ops appended *after* the replay mark: broadcast
    ops the coordinator already knows are never echoed back, while ops
    produced by the replay-triggered cascade of parked matches are. A unit
    that raises — organically or via injection — is reported in the
    ``failures`` slot with its traceback and the worker carries on with
    the rest of the batch: unit failures are the coordinator's
    retry/quarantine problem, not a reason to lose the replica.

    *extras* (fragmented mode) carries graph data riding along with the
    batch: ``"fragments"`` maps fragment id → replica to install and keep
    (the worker now *holds* that fragment), ``"balls"`` maps unit uid →
    one-shot dQ-ball replica used for that unit only. Replicas install
    before anything else so a mid-batch conflict or goal cannot strand
    the coordinator's holdings bookkeeping.
    """
    balls: Dict[str, FragmentIndex] = {}
    if extras:
        for fid, findex in extras.get("fragments", {}).items():
            state.fragments[fid] = _fragment_context(state.kit, findex)
        balls = extras.get("balls", {})
    engine = state.engine
    eq = engine.eq
    started = time.perf_counter()
    event = None
    plan = state.fault_plan
    if plan is not None and batch_index is not None:
        event = plan.event_at(worker_id, batch_index)
    if event is not None:
        if event.kind == "crash":
            # Injected abrupt death: no reply, no cleanup — the
            # coordinator sees EOF exactly as for a real crash.
            os._exit(1)
        elif event.kind in ("hang", "slow"):
            # A hang sleeps past any reasonable deadline (the coordinator
            # kills us mid-sleep); a slow event merely stalls the batch.
            time.sleep(event.stall_seconds)
    eq.apply_delta(ops)
    mark = eq.log_position()
    # Evidence noted from here on — by the replay-triggered cascade as well
    # as unit execution — ships back raw, as one payload per reply.
    evidence_mark = engine.evidence.mark()
    engine.set_evidence_context(origin="cascade")
    engine.cascade()
    results = []
    failures: List[tuple] = []
    goal_reached = False
    if not eq.has_conflict():
        if state.goal is not None and state.goal(eq):
            goal_reached = True
        else:
            for position, unit in enumerate(batch):
                try:
                    if plan is not None:
                        plan.check_unit(unit)
                    if event is not None and event.kind == "error" and position == 0:
                        raise InjectedFault(
                            f"injected worker-side error (worker {worker_id}, "
                            f"batch {batch_index})"
                        )
                    context = (
                        state.context
                        if state.fragments is None
                        else _resolve_context(state, unit, balls)
                    )
                    result = execute_unit(
                        unit,
                        context,
                        engine,
                        ttl_ticks=state.ttl_ticks,
                        max_split_units=state.max_split_units,
                        goal_check=state.goal,
                    )
                except Exception:
                    failures.append((unit.uid, traceback.format_exc()))
                    continue
                results.append(result)
                if result.conflict or result.goal_reached:
                    goal_reached = goal_reached or result.goal_reached
                    break
    new_ops = eq.delta_since(mark)
    evidence = engine.evidence.export_since(evidence_mark)
    busy = time.perf_counter() - started
    return (
        "done", results, new_ops, eq.conflict, goal_reached, busy, failures,
        evidence,
    )


def _handle_refresh(state: _WorkerState, message: tuple) -> None:
    """Bring this standing replica up to the coordinator's state.

    The coordinator ships the topology ops its graph accumulated since the
    last exchange (instead of a fresh snapshot); the replica replays them
    onto its own graph — the journal then feeds the local index's
    ``apply_delta``, so worker-side index upkeep is O(|delta|) too — drops
    topology-derived caches, and installs the new run's engine/goal knobs.
    Match plans survive: they revalidate against the index epoch. Only
    GFDs new since the last exchange are shipped (the registry is
    append-only); the engine arrives without its gfd dict and is rebound
    to the merged local registry here.

    Fragmented replicas take the per-fragment path instead: the ninth
    message slot carries ``{"updates": {fid: ops-list | FragmentIndex},
    "plan_orders": ..., "pivot_overrides": ...}``. An ops list replays
    onto the held fragment (its interior/halo was touched); a
    :class:`FragmentIndex` replaces it whole (a delta broke the replica's
    position-order invariant); a held fragment with no entry was not
    touched by the mutation and keeps every cache warm. The re-pinned
    whole-graph pivot/order decisions install on every held context —
    graph growth can change them, and replicas must keep agreeing with
    the coordinator.
    """
    (_, ops, new_gfds, engine, goal, ttl_ticks, max_split_units, fault_plan) = message[:8]
    if state.fragments is not None:
        kit = state.kit
        kit["gfds"].update(new_gfds)
        frag_message = message[8] if len(message) > 8 else None
        updates: Dict[int, object] = {}
        if frag_message is not None:
            kit["plan_orders"] = frag_message["plan_orders"]
            kit["pivot_overrides"] = frag_message["pivot_overrides"]
            updates = frag_message["updates"]
        for fid, context in list(state.fragments.items()):
            payload = updates.get(fid)
            if isinstance(payload, FragmentIndex):
                state.fragments[fid] = _fragment_context(kit, payload)
                continue
            if payload:
                context.fragment.apply_ops(payload)
                context.note_topology_change()
                context.graph.index()  # absorb the replayed ops in place
            context.gfds.update(new_gfds)
            context.plan_orders = (
                dict(kit["plan_orders"]) if kit["plan_orders"] is not None else None
            )
            context.pivot_overrides = (
                dict(kit["pivot_overrides"])
                if kit["pivot_overrides"] is not None
                else None
            )
            # The trie binds pivot choices that may have been re-pinned.
            context._ruleset_plan = None
            context.precompile_plans()
        engine.gfds = kit["gfds"]
    else:
        context = state.context
        replay_delta_ops(context.graph, ops)
        context.gfds.update(new_gfds)
        context.note_topology_change()
        context.graph.index()  # absorb the replayed ops in place
        context.precompile_plans()
        engine.gfds = context.gfds
    state.engine = engine
    state.goal = goal
    state.ttl_ticks = ttl_ticks
    state.max_split_units = max_split_units
    state.fault_plan = fault_plan


def _worker_main(conn, payload: Optional[bytes], worker_id: int = 0) -> None:
    """Worker process entry: serve batch/sync/refresh requests until stopped."""
    try:
        state = _FORK_STATE if payload is None else load_worker_snapshot(payload)
        assert state is not None
        # Replicas never serve delta history themselves; a fork-inherited
        # retention flag would only grow dead weight on every refresh.
        if state.context is not None:
            state.context.graph.retain_deltas(False)
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return
            kind = message[0]
            if kind == "stop":
                return
            try:
                if kind == "units":
                    conn.send(
                        _handle_batch(
                            state,
                            message[1],
                            message[2],
                            worker_id,
                            message[3],
                            message[4] if len(message) > 4 else None,
                        )
                    )
                elif kind == "sync":
                    conn.send(_handle_batch(state, (), message[1], worker_id, None))
                elif kind == "refresh":
                    _handle_refresh(state, message)
                    conn.send(("refreshed",))
                else:  # pragma: no cover - defensive
                    conn.send(("error", f"unknown message kind {kind!r}"))
            except Exception as exc:  # pragma: no cover - worker-side crash
                conn.send(("error", f"{exc}\n{traceback.format_exc()}"))
                return
    finally:
        conn.close()


class ProcessBackend(Backend):
    """Coordinator + ``p`` OS-process workers with ΔEq replica exchange.

    Workers are supervised: hung replicas are killed after a deadline,
    failing units are retried then quarantined, dead slots respawn with
    backoff, and a collapsed pool degrades to in-process execution (see
    the module docstring). With ``config.persistent_workers`` the pool
    outlives ``run()``: the backend remembers the :class:`UnitContext`
    and graph version it last shipped, and follow-up runs on the same
    context refresh the standing replicas with topology delta ops instead
    of restarting them. Call :meth:`close` when done with the pool.
    """

    name = "process"

    def __init__(self, config) -> None:
        super().__init__(config)
        # Persistent-pool state: None, or a dict with conns/procs/dead/
        # method/context/graph_version (see run()).
        self._pool: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # Persistent-pool lifecycle
    # ------------------------------------------------------------------
    def _refresh_pool(self, pool, context, engine, goal_check) -> bool:
        """Ship graph deltas + the fresh engine to every standing replica.

        In shared-graph mode every replica receives the whole op stream;
        in fragmented mode the pool's own :class:`Fragmenter` splits it
        with ``split_delta`` into per-fragment refresh streams, and each
        replica receives only the streams of the fragments it holds
        (``None`` for a fragment means its halo changed — the fresh
        sub-replica ships whole), plus the re-pinned whole-graph
        pivot/order decisions.

        Returns False — caller must cold-start — when the pool was built
        for a different context, the graph cannot serve the delta history
        back to the last shipped version, or no worker survives the
        exchange. On success the shipped history is trimmed (clamped by
        any MVCC version pins the serving layer holds on the graph).
        """
        if pool["context"] is not context:
            return False
        router = getattr(context, "fragment_router", None)
        pool_router = pool.get("router")
        # Fragmentation toggled (or re-cut differently) between runs: the
        # standing replicas hold the wrong kind of state — cold-start.
        if (pool_router is None) != (router is None):
            return False
        if pool_router is not None and pool_router.num_fragments != router.num_fragments:
            return False
        graph = context.graph
        ops = graph.delta_ops_since(pool["graph_version"])
        if ops is None:
            return False
        config = self.config
        conns: List = pool["conns"]
        dead: Set[int] = pool["dead"]
        # Ship only GFDs the replicas have not seen — the registry is
        # append-only in this flow — and strip the engine's own gfd dict
        # for the transfer (the worker rebinds it to its merged registry),
        # so refresh cost stays O(|delta|) rather than O(|Σ|) per run.
        shipped: Set[str] = pool["shipped_gfds"]
        new_gfds = {
            name: gfd for name, gfd in context.gfds.items() if name not in shipped
        }
        per_frag = None
        if pool_router is not None:
            # The standing replicas were cut by the *pool's* fragmenter;
            # adopt it for this run's routing (the fresh router the entry
            # point attached may partition the grown graph differently
            # than the fragments the workers actually hold), then split
            # the delta into per-fragment refresh streams.
            per_frag = pool_router.split_delta(ops)
            context.fragment_router = pool_router
        engine_gfds = engine.gfds
        engine.gfds = {}
        recipients = [wid for wid in range(len(conns)) if wid not in dead]
        blobs: Dict[int, bytes] = {}
        try:
            # A pickling failure (e.g. an unpicklable goal_check closure
            # under a fork-started pool) must degrade to the cold-start
            # fallback, not escape run() with the pool half-refreshed.
            try:
                if pool_router is None:
                    # Serialize once for all workers.
                    message = (
                        "refresh",
                        ops,
                        new_gfds,
                        engine,
                        goal_check,
                        config.ttl_ticks,
                        config.max_split_units,
                        config.fault_plan,
                    )
                    blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
                    for worker_id in recipients:
                        blobs[worker_id] = blob
                else:
                    # Fragmented refreshes are per-worker: each standing
                    # replica receives only the streams of the fragments
                    # it holds (untouched fragments ship nothing; a
                    # rebuild ships the fresh replica whole), plus the
                    # whole-graph pivot/order decisions re-pinned against
                    # the mutated graph.
                    holdings: List[Set[int]] = pool["holdings"]
                    for worker_id in recipients:
                        updates: Dict[int, object] = {}
                        for fid in holdings[worker_id]:
                            payload = per_frag.get(fid, [])
                            if payload is None:
                                updates[fid] = pool_router.build(fid)
                            elif payload:
                                updates[fid] = payload
                        message = (
                            "refresh",
                            (),
                            new_gfds,
                            engine,
                            goal_check,
                            config.ttl_ticks,
                            config.max_split_units,
                            config.fault_plan,
                            {
                                "updates": updates,
                                "plan_orders": context.plan_orders,
                                "pivot_overrides": context.pivot_overrides,
                            },
                        )
                        blobs[worker_id] = pickle.dumps(
                            message, protocol=pickle.HIGHEST_PROTOCOL
                        )
            except Exception:
                return False
        finally:
            engine.gfds = engine_gfds
        for worker_id in recipients:
            try:
                # send_bytes pairs with the worker's recv(): Connection
                # .recv() unpickles whatever bytes arrive.
                conns[worker_id].send_bytes(blobs[worker_id])
            except (OSError, ValueError):
                dead.add(worker_id)
        # The acks share one deadline (replicas process the refresh
        # concurrently): a standing worker that is alive but unresponsive
        # must not wedge run() at the door — no wait is ever infinite.
        procs: List = pool["procs"]
        ack_deadline = time.monotonic() + config.batch_deadline(0.0)
        for worker_id in recipients:
            if worker_id in dead:
                continue
            try:
                if not conns[worker_id].poll(
                    max(0.0, ack_deadline - time.monotonic())
                ):
                    # Hung mid-refresh: kill the replica and degrade like a
                    # death (to the cold-start fallback if nobody survives).
                    self._kill_worker(procs[worker_id], conns[worker_id])
                    dead.add(worker_id)
                    continue
                reply = conns[worker_id].recv()
            except (EOFError, ConnectionError, OSError):
                dead.add(worker_id)
                continue
            if reply[0] == "error":
                # The worker exits after reporting an error; mark it dead
                # rather than raising, so a fully-failed refresh degrades
                # to the cold-start fallback instead of wedging the pool.
                dead.add(worker_id)
        if len(dead) >= len(conns):
            return False
        pool["graph_version"] = graph.mutation_count
        shipped.update(new_gfds)
        graph.trim_delta_history(graph.mutation_count)
        return True

    @staticmethod
    def _shutdown_workers(conns, procs, dead) -> None:
        """Stop, join (with a deadline), and disconnect a worker set."""
        for worker_id, conn in enumerate(conns):
            if worker_id in dead:
                continue
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        deadline = time.monotonic() + _JOIN_TIMEOUT
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    @staticmethod
    def _kill_worker(proc, conn) -> None:
        """Force-terminate one worker (hang detection / crash cleanup)."""
        if proc is not None:
            try:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
                    if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                        proc.kill()
                        proc.join(timeout=1.0)
                else:
                    proc.join(timeout=0.1)
            except Exception:  # pragma: no cover - already reaped
                pass
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def close(self) -> None:
        """Tear down the persistent worker pool, if one is standing."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self._shutdown_workers(pool["conns"], pool["procs"], pool["dead"])
        pool["context"].graph.retain_deltas(False)

    def _run_local_units(
        self, units, context, engine, goal_check, outcome, tracker
    ) -> bool:
        """Execute units no fragment can serve, coordinator-side.

        Fragmented mode only: radius-less units (disconnected patterns)
        search the whole graph, which no fragment replica holds, so they
        run here against the master engine before the pool spins up.
        Splits stay local (they inherit the parent's missing radius);
        retry/quarantine and fault injection apply exactly as they would
        worker-side. Returns True when the run terminated early.
        """
        config = self.config
        eq = engine.eq
        plan = config.fault_plan
        pending: Deque[WorkUnit] = deque(units)
        while pending:
            unit = pending.popleft()
            try:
                if plan is not None:
                    plan.check_unit(unit)
                result = execute_unit(
                    unit,
                    context,
                    engine,
                    ttl_ticks=config.ttl_ticks,
                    max_split_units=config.max_split_units,
                    goal_check=goal_check,
                )
            except Exception as exc:
                detail = traceback.format_exc()
                if config.strict_faults:
                    raise WorkerFault(
                        f"unit {unit.uid} failed during coordinator-side "
                        f"execution: {exc}",
                        unit_uid=unit.uid,
                        worker_traceback=detail,
                    ) from exc
                if tracker.record_failure(unit):
                    outcome.retries += 1
                    pending.append(unit)
                else:
                    outcome.quarantined.append(
                        QuarantinedUnit(unit, detail, tracker.attempts(unit))
                    )
                continue
            outcome.coordinator_units += 1
            absorb_result(outcome, result)
            if result.conflict or eq.has_conflict():
                outcome.conflict = eq.conflict
                return True
            if result.goal_reached or (goal_check is not None and goal_check(eq)):
                outcome.goal_reached = True
                return True
            register_splits(
                outcome, result, lambda splits: pending.extendleft(reversed(splits))
            )
        return False

    def run(
        self,
        units: Sequence[WorkUnit],
        context: UnitContext,
        engine: EnforcementEngine,
        goal_check: Optional[GoalCheck] = None,
        trace=None,
    ) -> ParallelOutcome:
        global _FORK_STATE
        config = self.config
        started = time.perf_counter()
        eq = engine.eq
        outcome = ParallelOutcome(units_total=len(units), eq=eq, backend=self.name)
        outcome.worker_busy = [0.0] * config.workers
        if eq.has_conflict():
            outcome.conflict = eq.conflict
            outcome.wall_seconds = time.perf_counter() - started
            return outcome

        # Build everything workers inherit/receive *before* starting them:
        # compiled index (absorbing any pending mutation journal), match
        # plans, and (for ParImp) the initial replica.
        context.graph.index()
        context.precompile_plans()

        tracker = RetryTracker(config.max_unit_retries)
        router = getattr(context, "fragment_router", None)
        if router is not None:
            # Units no fragment can serve (disconnected patterns search
            # the whole graph) run coordinator-side before the pool spins
            # up; only fragment-servable units are dispatched remotely.
            local = [
                unit
                for unit in units
                if unit.pivot_node() is None or unit.radius is None
            ]
            units = [
                unit
                for unit in units
                if not (unit.pivot_node() is None or unit.radius is None)
            ]
            if local and self._run_local_units(
                local, context, engine, goal_check, outcome, tracker
            ):
                outcome.wall_seconds = time.perf_counter() - started
                outcome.virtual_seconds = outcome.wall_seconds
                return outcome

        persistent = config.persistent_workers
        pool = self._pool if persistent else None
        conns: Optional[List] = None
        procs: List = []
        dead: Set[int] = set()
        method: Optional[str] = None
        holdings: Optional[List[Set[int]]] = None
        if pool is not None:
            # Standing pool: ship deltas + the fresh engine instead of
            # restarting; fall back to a cold start when that is impossible.
            if self._refresh_pool(pool, context, engine, goal_check):
                conns = pool["conns"]
                procs = pool["procs"]
                dead = pool["dead"]
                method = pool["method"]
                # The refresh adopted the pool's fragmenter (the holdings
                # on the standing replicas were cut by it).
                router = getattr(context, "fragment_router", None)
                holdings = pool.get("holdings")
            else:
                self.close()
                pool = None
        if conns is None:
            methods = mp.get_all_start_methods()
            if self.config.start_method is not None:
                method = self.config.start_method
            elif "fork" in methods:
                method = "fork"
            else:
                method = "spawn"
            ctx = mp.get_context(method)
            if persistent:
                # Retain a replayable op history from this point on, so the
                # next run can ship deltas instead of snapshots.
                context.graph.retain_deltas(True)
            if router is not None:
                # Fragmented cold start: every worker receives the same
                # graph-free kit; fragment replicas ship later, on demand,
                # inside dispatch extras (the holdings table tracks who
                # holds what). Explicit payloads even under fork — the
                # point is that replicas never depend on whole-graph state.
                holdings = [set() for _ in range(config.workers)]
                payload: Optional[bytes] = make_fragment_snapshot(
                    context,
                    engine,
                    goal_check,
                    config.ttl_ticks,
                    config.max_split_units,
                    config.fault_plan,
                )
            elif method == "fork":
                payload = None
                _FORK_STATE = _WorkerState(
                    context,
                    engine,
                    goal_check,
                    config.ttl_ticks,
                    config.max_split_units,
                    config.fault_plan,
                )
            else:
                payload = make_worker_snapshot(
                    context,
                    engine,
                    goal_check,
                    config.ttl_ticks,
                    config.max_split_units,
                    config.fault_plan,
                )

            conns = []
            try:
                for worker_id in range(config.workers):
                    parent_conn, child_conn = ctx.Pipe()
                    proc = ctx.Process(
                        target=_worker_main,
                        args=(child_conn, payload, worker_id),
                        daemon=True,
                    )
                    proc.start()
                    child_conn.close()
                    conns.append(parent_conn)
                    procs.append(proc)
            finally:
                _FORK_STATE = None
            if persistent:
                pool = {
                    "conns": conns,
                    "procs": procs,
                    "dead": dead,
                    "method": method,
                    "context": context,
                    "graph_version": context.graph.mutation_count,
                    "shipped_gfds": set(context.gfds),
                    "router": router,
                    "holdings": holdings,
                }

        conn_worker = {conn: wid for wid, conn in enumerate(conns)}
        scheduler = Scheduler(units, config, context)
        for worker_id in dead:
            # A persistent pool may resume with casualties from earlier
            # runs: never pin locality keys to a worker that cannot serve.
            scheduler.worker_died(worker_id)
        synced = [eq.log_position()] * config.workers
        shipped_ops = [0] * config.workers
        dispatched_at = [0.0] * config.workers
        # Echo suppression: master-log regions a worker itself produced
        # (recorded at merge time in receive()). Broadcasting those back to
        # their producer is pure wasted volume — the replica already holds
        # them — so dispatch() filters the regions out of its ΔEq slice.
        own_regions: List[List[tuple]] = [[] for _ in range(config.workers)]
        idle: List[int] = [wid for wid in range(config.workers) if wid not in dead]
        in_flight: Dict[int, List[WorkUnit]] = {}
        terminated = False
        # --- supervision state (tracker created before the coordinator-
        # side local-unit pass, which shares its retry accounting) ---
        #: Units from a crashed worker's batch, re-dispatched as singleton
        #: batches so a replica-killing unit can be isolated (bisection).
        suspects: Deque[WorkUnit] = deque()
        #: Per-worker units absorbed so far this run: a dead replica's
        #: parked matches die with it, so its completed units re-execute
        #: on the survivors (idempotent over the monotone master Eq).
        completed: List[Dict[str, WorkUnit]] = [{} for _ in range(config.workers)]
        #: Dispatch counters per slot — drive FaultPlan (worker, batch)
        #: event keys and keep counting across respawns, so an injected
        #: event fires at most once per slot.
        batch_counters = [0] * config.workers
        respawn_counts = [0] * config.workers
        #: Dead slots awaiting restart: worker_id → not-before timestamp.
        #: The exponential backoff elapses inside the main loop's wait
        #: cycle — never as a coordinator-blocking sleep, which would stall
        #: hang detection for the surviving in-flight workers.
        pending_respawns: Dict[int, float] = {}
        #: Slowest completed round trip (seconds) — the adaptive hang
        #: deadline's history input.
        slowest_trip = 0.0

        def live_count() -> int:
            return config.workers - len(dead)

        def collapsed() -> bool:
            return live_count() < max(1, config.min_live_workers)

        def pending_work() -> bool:
            return bool(len(scheduler) or suspects)

        def schedule_respawn(worker_id: int) -> None:
            """Queue a dead slot for restart once its backoff elapses."""
            if respawn_counts[worker_id] >= config.max_worker_respawns:
                return
            backoff = config.respawn_backoff_seconds * (
                2 ** respawn_counts[worker_id]
            )
            pending_respawns[worker_id] = time.perf_counter() + backoff

        def perform_due_respawns() -> None:
            """Restart every pending slot whose backoff has elapsed."""
            now = time.perf_counter()
            for worker_id in [
                wid for wid, due in pending_respawns.items() if due <= now
            ]:
                del pending_respawns[worker_id]
                respawn(worker_id)

        def respawn(worker_id: int) -> bool:
            """Restart a dead slot from the coordinator's current state."""
            global _FORK_STATE
            if respawn_counts[worker_id] >= config.max_worker_respawns:
                return False
            respawn_counts[worker_id] += 1
            ctx = mp.get_context(method)
            # The replica is rebuilt from *current* master state (master
            # Eq included), so it needs no catch-up broadcast: fork
            # inherits it copy-on-write, spawn ships a fresh snapshot. A
            # fragmented respawn restarts from the bare kit — its slot's
            # holdings were cleared at burial, so fragments re-ship on
            # demand with the units that need them.
            try:
                if router is not None:
                    blob: Optional[bytes] = make_fragment_snapshot(
                        context,
                        engine,
                        goal_check,
                        config.ttl_ticks,
                        config.max_split_units,
                        config.fault_plan,
                    )
                elif method == "fork":
                    blob = None
                    _FORK_STATE = _WorkerState(
                        context,
                        engine,
                        goal_check,
                        config.ttl_ticks,
                        config.max_split_units,
                        config.fault_plan,
                    )
                else:
                    blob = make_worker_snapshot(
                        context,
                        engine,
                        goal_check,
                        config.ttl_ticks,
                        config.max_split_units,
                        config.fault_plan,
                    )
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main, args=(child_conn, blob, worker_id), daemon=True
                )
                proc.start()
                child_conn.close()
            except Exception:  # pragma: no cover - out of pids/memory
                return False
            finally:
                _FORK_STATE = None
            conns[worker_id] = parent_conn
            procs[worker_id] = proc
            conn_worker[parent_conn] = worker_id
            dead.discard(worker_id)
            scheduler.worker_revived(worker_id)
            synced[worker_id] = eq.log_position()
            own_regions[worker_id] = []
            shipped_ops[worker_id] = 0
            if worker_id not in idle:
                idle.append(worker_id)
            outcome.respawns += 1
            return True

        def bury(worker_id: int, lost: List[WorkUnit], cause: str, crashed: bool = True) -> None:
            """Declare a worker dead, recover its work, schedule a respawn.

            The scheduler re-pins the dead worker's locality keys (and any
            still-queued pinned units) onto the survivors. In-flight units
            of a *crashed* worker go to the suspect lane (singleton
            re-dispatch — bisection — with a singleton's death charged to
            its unit); units a dispatch failure never delivered are simply
            requeued. The worker's completed units re-run elsewhere (its
            parked matches died with it). Idempotent per worker.
            """
            if worker_id in dead:
                return
            dead.add(worker_id)
            outcome.worker_deaths += 1
            scheduler.worker_died(worker_id)
            if holdings is not None:
                # The dead replica's fragments died with it: forgetting
                # its holdings makes the next dispatch of those fragments'
                # units re-ship each full replica to whichever survivor
                # receives them — fragment loss never quarantines a unit.
                holdings[worker_id].clear()
            if worker_id in idle:
                idle.remove(worker_id)
            self._kill_worker(procs[worker_id], conns[worker_id])
            if config.strict_faults:
                raise WorkerFault(
                    f"process worker {worker_id} failed: {cause}",
                    worker_id=worker_id,
                    worker_traceback=cause,
                )
            if lost:
                if crashed:
                    if len(lost) == 1:
                        unit = lost[0]
                        if tracker.record_failure(unit):
                            outcome.retries += 1
                            suspects.append(unit)
                        else:
                            outcome.quarantined.append(
                                QuarantinedUnit(
                                    unit, cause, tracker.attempts(unit), worker_id
                                )
                            )
                    else:
                        suspects.extend(lost)
                else:
                    scheduler.requeue(lost)
            orphans = list(completed[worker_id].values())
            completed[worker_id].clear()
            if orphans:
                scheduler.requeue(orphans)
            schedule_respawn(worker_id)

        def fragment_extras(worker_id: int, batch: List[WorkUnit]):
            """Graph data riding along with a fragmented dispatch.

            Per unit: nothing when the receiving worker already holds the
            pivot's owning fragment; the full fragment replica when no
            *other* live worker holds it (initial placement, or a re-ship
            after the previous holder died); a one-shot dQ-ball otherwise
            — the unit was stolen from the holder's queue, or its
            preassigned bindings (split inheritance) escape the replica.
            """
            frags: Dict[int, object] = {}
            balls: Dict[str, object] = {}
            for unit in batch:
                pivot = unit.pivot_node()
                if pivot is None or unit.radius is None:  # pragma: no cover
                    continue  # local units never reach dispatch
                fid = router.fragment_of(pivot)
                if router.covers_unit(fid, unit):
                    if fid in holdings[worker_id]:
                        continue
                    if not any(
                        fid in holdings[wid]
                        for wid in range(config.workers)
                        if wid != worker_id and wid not in dead
                    ):
                        frags[fid] = router.build(fid)
                        holdings[worker_id].add(fid)
                        outcome.fragments_shipped += 1
                        continue
                balls[unit.uid] = router.ball_for_unit(unit)
                outcome.balls_shipped += 1
            if frags or balls:
                return {"fragments": frags, "balls": balls}
            return None

        def dispatch(worker_id: int, batch: List[WorkUnit], kind: str = "units") -> bool:
            """Send *batch* plus the worker's pending ΔEq; False when the
            worker turns out to be dead (its batch is requeued for the
            survivors, mirroring the receive-side EOF handling)."""
            base = synced[worker_id]
            ops = eq.delta_since(base)
            regions = own_regions[worker_id]
            if regions:
                ops = [
                    op
                    for position, op in enumerate(ops, start=base)
                    if not any(lo <= position < hi for lo, hi in regions)
                ]
            extras = None
            if router is not None and kind == "units" and batch:
                extras = fragment_extras(worker_id, batch)
            try:
                if kind == "units":
                    conns[worker_id].send(
                        (kind, batch, ops, batch_counters[worker_id], extras)
                    )
                    batch_counters[worker_id] += 1
                else:
                    conns[worker_id].send((kind, ops))
            except OSError:
                bury(worker_id, batch, "dispatch pipe closed", crashed=False)
                return False
            outcome.broadcast_volume += len(ops)
            outcome.sync_rounds += 1
            shipped_ops[worker_id] = len(ops)
            dispatched_at[worker_id] = time.perf_counter()
            synced[worker_id] = eq.log_position()
            # Every recorded region ends at or before the log position the
            # sync mark just advanced to, so this dispatch consumed them all.
            own_regions[worker_id] = []
            in_flight[worker_id] = batch
            return True

        def receive(worker_id: int) -> bool:
            """Merge one worker reply into the master state; True if the
            run should terminate (conflict or goal)."""
            nonlocal terminated, slowest_trip
            reply = conns[worker_id].recv()
            if reply[0] == "error":
                # The worker exits after reporting: an infrastructure-level
                # failure (not a unit exception — those come back in the
                # failures slot of a normal reply). Treated as a crash.
                bury(
                    worker_id,
                    in_flight.pop(worker_id, []),
                    f"process worker {worker_id} failed: {reply[1]}",
                )
                return terminated
            _, results, new_ops, conflict, goal_reached, busy, failures, evidence = reply
            # The raw evidence the worker noted during the batch (unit
            # execution plus replay-triggered cascades), queued unopened:
            # it is digested and interned by stable ref only if the run's
            # evidence is read. A retried unit's re-shipped matches then
            # intern to the records already there.
            engine.evidence.absorb(evidence)
            batch = in_flight.pop(worker_id, [])
            dispatched = {unit.uid: unit for unit in batch}
            if worker_id not in idle:
                # Settlement syncs dispatch to workers still on the idle
                # list; an unconditional append would duplicate the entry,
                # and a duplicated worker could be popped twice by the main
                # loop — its second batch overwriting in_flight and losing
                # the first one's results.
                idle.append(worker_id)
            trip = time.perf_counter() - dispatched_at[worker_id]
            slowest_trip = max(slowest_trip, trip)
            outcome.worker_busy[worker_id] += busy
            outcome.broadcast_volume += len(new_ops)
            if batch:
                # Only unit round trips feed the adaptive batcher —
                # settlement syncs carry no work, so their payload says
                # nothing about what a batch of units costs. The latency
                # axis is the full dispatch→receive interval (pickling,
                # wire and queuing included), which is what
                # batch_target_seconds promises to bound — the worker's
                # own busy clock would miss exactly the communication
                # cost batching exists to control.
                scheduler.observe(
                    worker_id,
                    len(results),
                    shipped_ops[worker_id] + len(new_ops),
                    trip,
                )
            merge_mark = eq.log_position()
            eq.apply_delta(new_ops)
            if eq.log_position() > merge_mark:
                # The novel slice of this reply is the worker's own work;
                # never echo it back to its producer.
                own_regions[worker_id].append((merge_mark, eq.log_position()))
            if conflict is not None:
                eq.install_conflict(conflict)
            for unit_uid, detail in failures:
                unit = dispatched.get(unit_uid)
                if unit is None:  # pragma: no cover - protocol hygiene
                    continue
                if config.strict_faults:
                    raise WorkerFault(
                        f"process worker {worker_id} failed on unit {unit_uid}",
                        worker_id=worker_id,
                        unit_uid=unit_uid,
                        worker_traceback=detail,
                    )
                if tracker.record_failure(unit):
                    outcome.retries += 1
                    scheduler.requeue([unit])
                else:
                    outcome.quarantined.append(
                        QuarantinedUnit(unit, detail, tracker.attempts(unit), worker_id)
                    )
            for result in results:
                # Reconcile by stable uid: a result must answer a unit of
                # the batch this worker was handed (pickling round-trips
                # preserve uids, so this is pure protocol hygiene).
                if result.unit_uid not in dispatched:  # pragma: no cover
                    continue
                completed[worker_id][result.unit_uid] = dispatched[result.unit_uid]
                absorb_result(outcome, result)
                if not (result.conflict or result.goal_reached) and not terminated:
                    register_splits(outcome, result, scheduler.requeue)
            if eq.has_conflict():
                outcome.conflict = eq.conflict
                terminated = True
            elif goal_reached or (goal_check is not None and goal_check(eq)):
                outcome.goal_reached = True
                terminated = True
            return terminated

        def reap_hung_workers() -> None:
            """Kill and bury every in-flight worker past the deadline."""
            limit = config.batch_deadline(slowest_trip)
            now = time.perf_counter()
            for worker_id in [
                wid for wid in in_flight if now - dispatched_at[wid] >= limit
            ]:
                bury(
                    worker_id,
                    in_flight.pop(worker_id),
                    f"process worker {worker_id} exceeded the "
                    f"{limit:.2f}s batch deadline (hang detection)",
                )

        def main_loop() -> None:
            """Dispatch until the queue drains, the run terminates, or the
            pool collapses — whichever comes first. Every wait carries the
            hang-detection deadline; worker death recovers through
            ``bury`` (suspects, completed-unit re-runs, respawn)."""
            while True:
                perform_due_respawns()
                if not terminated and not collapsed():
                    # Dynamic assignment to free workers: the suspect lane
                    # first (singleton batches — bisection), then the
                    # scheduler (own pinned queue, global, stealing).
                    while pending_work() and idle and not terminated:
                        worker_id = idle.pop(0)
                        if worker_id in dead:
                            continue
                        if suspects:
                            batch = [suspects.popleft()]
                        else:
                            batch = scheduler.next_batch(worker_id)
                        if not batch:  # pragma: no cover - len() said otherwise
                            idle.append(worker_id)
                            break
                        dispatch(worker_id, batch)
                if not in_flight:
                    if pending_respawns and not terminated and pending_work():
                        # Nothing in flight, but a backoff is still ticking:
                        # wait it out here rather than declaring the pool
                        # collapsed while a replacement is on its way.
                        due = min(pending_respawns.values())
                        time.sleep(max(0.0, due - time.perf_counter()))
                        continue
                    return
                limit = config.batch_deadline(slowest_trip)
                now = time.perf_counter()
                expiry = min(dispatched_at[wid] + limit for wid in in_flight)
                if pending_respawns:
                    # Wake for the nearest due respawn too, so a restart is
                    # never delayed by a full batch deadline.
                    expiry = min(expiry, min(pending_respawns.values()))
                ready = mp_connection.wait(
                    [conns[wid] for wid in in_flight],
                    timeout=max(0.0, expiry - now),
                )
                if not ready:
                    reap_hung_workers()
                    continue
                for conn in ready:
                    worker_id = conn_worker[conn]
                    if worker_id not in in_flight:  # pragma: no cover
                        continue  # buried by an earlier conn of this round
                    try:
                        receive(worker_id)
                    except (EOFError, ConnectionError, OSError):
                        # Worker died mid-batch: re-pin its keys and put
                        # the lost units into the suspect lane.
                        bury(
                            worker_id,
                            in_flight.pop(worker_id, []),
                            f"process worker {worker_id} died mid-batch",
                        )

        def settle() -> bool:
            """One settlement pass: flush remaining deltas so worker-side
            parked matches cascade to the shared fixpoint. Returns True at
            quiescence; False when a death re-opened the work queue (the
            dead worker's completed units must re-run through the main
            loop first)."""
            while not terminated:
                perform_due_respawns()
                if pending_work():
                    return False
                recipients = [
                    wid
                    for wid in range(config.workers)
                    if wid not in dead and synced[wid] < eq.log_position()
                ]
                if not recipients:
                    return True
                for worker_id in recipients:
                    dispatch(worker_id, [], kind="sync")
                # Drain every successfully dispatched sync — also when a
                # reply terminates the run mid-round, so shutdown stays
                # orderly. A worker that dies or hangs during settlement
                # goes through bury() exactly like the main loop, so its
                # locality keys re-pin exactly once.
                limit = config.batch_deadline(slowest_trip)
                for worker_id in recipients:
                    if worker_id not in in_flight:
                        continue  # dispatch failed; worker already dead
                    remaining = dispatched_at[worker_id] + limit - time.perf_counter()
                    try:
                        if not conns[worker_id].poll(max(0.0, remaining)):
                            in_flight.pop(worker_id, None)
                            bury(
                                worker_id,
                                [],
                                f"process worker {worker_id} exceeded the "
                                f"{limit:.2f}s settlement deadline (hang detection)",
                            )
                            continue
                        receive(worker_id)
                    except (EOFError, ConnectionError, OSError):
                        in_flight.pop(worker_id, None)
                        bury(worker_id, [], f"process worker {worker_id} died during settlement")
            return True

        run_ok = False
        degrade = False
        try:
            while True:
                main_loop()
                if not terminated and collapsed() and pending_work():
                    # Not enough replicas left to finish remotely: the
                    # coordinator takes over in-process below.
                    if config.strict_faults:  # pragma: no cover - defensive
                        raise WorkerPoolError(
                            f"worker pool collapsed to {live_count()} live "
                            f"worker(s) (min_live_workers={config.min_live_workers})",
                            live_workers=live_count(),
                            dead_workers=len(dead),
                        )
                    degrade = True
                    break
                if settle():
                    break
            if degrade:
                # Survivors' parked matches are unreachable without
                # settlement; every completed unit re-runs in-process so
                # the master engine reaches the same fixpoint on its own.
                extra = list(suspects)
                suspects.clear()
                for units_by_uid in completed:
                    extra.extend(units_by_uid.values())
                    units_by_uid.clear()
                drain_in_process(
                    outcome,
                    scheduler,
                    context,
                    engine,
                    config,
                    goal_check=goal_check,
                    tracker=tracker,
                    extra_units=extra,
                )
            run_ok = True
        finally:
            if pool is not None and run_ok and len(dead) < config.workers:
                # Persistent mode: keep the surviving replicas standing for
                # the next run's delta refresh.
                self._pool = pool
            else:
                if pool is not None:
                    self._pool = None
                    context.graph.retain_deltas(False)
                self._shutdown_workers(conns, procs, dead)

        scheduler.export_stats(outcome)
        outcome.wall_seconds = time.perf_counter() - started
        outcome.virtual_seconds = outcome.wall_seconds
        return outcome
