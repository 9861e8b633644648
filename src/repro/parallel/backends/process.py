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

*Settlement* is a phase of the same dispatch loop: once nothing is
queued and nothing is in flight, every live worker that lags the master
log receives one sync (an empty batch carrying its missing ΔEq), and
rounds repeat until no worker's parked-match cascade produces new ops —
the distributed equivalent of the shared-engine fixpoint, so all backends
return identical verdicts (the algorithms are Church-Rosser over a
monotone ``Eq``).

**Supervision.** The paper assumes all ``p`` workers survive to the
fixpoint; this backend does not. The coordinator keeps one record per
worker slot (:class:`_Slot`) whose state — idle, busy, respawning or dead,
as ``docs/architecture.md`` draws it — drives four mechanisms:

* *hang detection* — the one wait on worker replies carries a deadline
  derived from the pool's observed round-trip history
  (:meth:`RuntimeConfig.batch_deadline`); a worker past it is killed and
  treated as dead, whether it was running a batch or a settlement sync.
  No wait is ever infinite;
* *retry + quarantine* — a worker-side exception no longer aborts the
  run: the worker reports the failing unit (with its traceback) and
  carries on, and the coordinator applies the shared failure rule
  (:func:`~repro.parallel.coordinator.fail_unit`): retry the unit up to
  ``config.max_unit_retries`` times, then quarantine it into
  :attr:`ParallelOutcome.quarantined`. A worker *crash* mid-batch is
  bisected instead: the lost batch re-dispatches as singleton batches, so
  the unit that kills replicas is isolated, charged its retries, and
  quarantined — innocents are simply re-run. Because a dead replica takes
  its parked (UNDECIDED) matches with it, the units it had completed are
  also re-executed on the survivors — re-deriving ``ΔEq`` ops is
  idempotent over the monotone master ``Eq``;
* *respawn with backoff* — a dead slot is restarted (up to
  ``config.max_worker_respawns`` times, exponential backoff) by the same
  launcher as the cold start, from the coordinator's *current* state:
  fork inheritance, a fresh snapshot of the master engine, or the
  fragment kit, so the replica arrives fully caught up and the
  scheduler re-opens it for locality pinning (``worker_revived``);
* *graceful degradation* — when the pool still collapses below
  ``config.min_live_workers`` (including the all-dead case), the
  coordinator finishes the remaining queue with the shared in-process
  executor (:func:`~repro.parallel.coordinator.drain_in_process`)
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
history gap falls back to a cold start transparently. A standing pool is
reused only whole: a refresh that finds a dead, hung or erroring replica
kills it, counts it in ``worker_deaths`` and cold-starts a full pool, and
a run that ends with a dead slot does not keep its pool.

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
search the whole graph) run coordinator-side before the pool spins up,
through the shared in-process executor
(:func:`~repro.parallel.coordinator.execute_in_process`) and counted in
``coordinator_units``.
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
    absorb_result,
    drain_in_process,
    execute_in_process,
    fail_unit,
    register_splits,
)
from ..faults import FaultPlan, RetryTracker, inject_faults
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
                    inject_faults(plan, event, unit, position)
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
    """Worker process entry: serve batch and refresh requests until stopped."""
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
                    # A settlement sync is an empty batch with no index.
                    _, batch, ops, batch_index, extras = message
                    conn.send(
                        _handle_batch(state, batch, ops, worker_id, batch_index, extras)
                    )
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


#: Slot states of the supervision state machine (``docs/architecture.md``).
IDLE = "idle"  # live, waiting for work
BUSY = "busy"  # live, a batch or settlement sync in flight
RESPAWNING = "respawning"  # dead, restart due once the backoff elapses
DEAD = "dead"  # dead for the rest of the run


class _Slot:
    """The coordinator's record of one worker slot.

    ``state`` is the slot's place in the supervision state machine. The
    sync fields describe the slot's current process — the master log
    position it has seen, the ops it was last shipped, the log regions it
    produced itself (never echoed back), the batch in flight — and reset
    when a new process takes the slot over. The counters belong to the
    slot for the whole run and survive respawns, so a fault-plan event
    fires at most once per slot.
    """

    __slots__ = (
        "worker_id",
        "state",
        "proc",
        "conn",
        "holdings",
        "synced",
        "shipped",
        "sent_at",
        "own_regions",
        "batch",
        "completed",
        "batches",
        "respawns",
        "due",
    )

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.proc = self.conn = None
        #: Fragment ids whose replicas the slot's process holds.
        self.holdings: Set[int] = set()
        self.due = 0.0
        self.new_run(0)

    @property
    def live(self) -> bool:
        return self.state in (IDLE, BUSY)

    def new_run(self, position: int) -> None:
        """Zero the per-run counters of a slot caught up to *position*."""
        #: Units absorbed from this slot this run: its parked matches die
        #: with its process, so they re-execute on the survivors.
        self.completed: Dict[str, WorkUnit] = {}
        #: Unit batches dispatched (the FaultPlan batch index).
        self.batches = 0
        self.respawns = 0
        self.caught_up(position)

    def caught_up(self, position: int) -> None:
        """The slot's process holds the master log up to *position*."""
        self.state = IDLE
        self.synced = position
        self.shipped = 0
        self.sent_at = 0.0
        self.own_regions: List[tuple] = []
        self.batch: List[WorkUnit] = []


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
        # Persistent-pool state: None, or a dict with slots/method/context/
        # graph_version/shipped_gfds/router (see run()).
        self._pool: Optional[Dict[str, object]] = None

    def _launch(self, method, slots, context, engine, goal_check, router) -> None:
        """Start a worker process for each of *slots*.

        The one place worker processes start: the cold start passes every
        slot, a respawn its own. The start payload is built once, from
        the current state: the fragment kit when *router* is set (explicit
        payloads even under fork — fragment replicas ship later, on
        demand, and never depend on whole-graph state), fork-inherited
        state under fork, else a whole-graph snapshot. Each replica thus
        starts with the master ``Eq`` as it stands and needs no catch-up
        broadcast.
        """
        global _FORK_STATE
        config = self.config
        knobs = (goal_check, config.ttl_ticks, config.max_split_units, config.fault_plan)
        payload: Optional[bytes] = None
        if router is not None:
            payload = make_fragment_snapshot(context, engine, *knobs)
        elif method == "fork":
            _FORK_STATE = _WorkerState(context, engine, *knobs)
        else:
            payload = make_worker_snapshot(context, engine, *knobs)
        ctx = mp.get_context(method)
        position = engine.eq.log_position()
        try:
            for slot in slots:
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, payload, slot.worker_id),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                slot.proc, slot.conn = proc, parent_conn
                slot.holdings = set()
                slot.caught_up(position)
        finally:
            _FORK_STATE = None

    # ------------------------------------------------------------------
    # Persistent-pool lifecycle
    # ------------------------------------------------------------------
    def _refresh_pool(self, pool, context, engine, goal_check, outcome) -> bool:
        """Ship graph deltas + the fresh engine to every standing replica.

        In shared-graph mode every replica receives the whole op stream;
        in fragmented mode the pool's own :class:`Fragmenter` splits it
        with ``split_delta`` into per-fragment refresh streams, and each
        replica receives only the streams of the fragments it holds
        (``None`` for a fragment means its halo changed — the fresh
        sub-replica ships whole), plus the re-pinned whole-graph
        pivot/order decisions.

        A standing pool is reused only whole. Returns False — caller must
        cold-start — when the pool was built for a different context, the
        graph cannot serve the delta history back to the last shipped
        version, the refresh cannot pickle, or any replica is lost in the
        exchange: a dead, hung or erroring replica is killed and counted in
        ``outcome.worker_deaths``. On success the shipped history is
        trimmed (clamped by any MVCC version pins the serving layer holds
        on the graph).
        """
        if pool["context"] is not context:
            return False
        router = getattr(context, "fragment_router", None)
        pool_router = pool["router"]
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
        slots: List[_Slot] = pool["slots"]
        # Ship only GFDs the replicas have not seen — the registry is
        # append-only in this flow — and strip the engine's own gfd dict
        # for the transfer (the worker rebinds it to its merged registry),
        # so refresh cost stays O(|delta|) rather than O(|Σ|) per run.
        shipped: Set[str] = pool["shipped_gfds"]
        new_gfds = {
            name: gfd for name, gfd in context.gfds.items() if name not in shipped
        }
        knobs = (
            engine,
            goal_check,
            config.ttl_ticks,
            config.max_split_units,
            config.fault_plan,
        )
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
        try:
            # A pickling failure (e.g. an unpicklable goal_check closure
            # under a fork-started pool) must degrade to the cold-start
            # fallback, not escape run() with the pool half-refreshed.
            if pool_router is None:
                # Serialize once for all workers.
                blob = pickle.dumps(
                    ("refresh", ops, new_gfds, *knobs), protocol=pickle.HIGHEST_PROTOCOL
                )
                blobs = [blob] * len(slots)
            else:
                # Fragmented refreshes are per-worker: each standing
                # replica receives only the streams of the fragments it
                # holds (untouched fragments ship nothing; a rebuild ships
                # the fresh replica whole), plus the whole-graph
                # pivot/order decisions re-pinned against the mutated graph.
                blobs = []
                for slot in slots:
                    updates: Dict[int, object] = {}
                    for fid in slot.holdings:
                        payload = per_frag.get(fid, [])
                        if payload is None:
                            updates[fid] = pool_router.build(fid)
                        elif payload:
                            updates[fid] = payload
                    message = (
                        "refresh",
                        (),
                        new_gfds,
                        *knobs,
                        {
                            "updates": updates,
                            "plan_orders": context.plan_orders,
                            "pivot_overrides": context.pivot_overrides,
                        },
                    )
                    blobs.append(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            return False
        finally:
            engine.gfds = engine_gfds
        for slot, blob in zip(slots, blobs):
            try:
                # send_bytes pairs with the worker's recv(): Connection
                # .recv() unpickles whatever bytes arrive.
                slot.conn.send_bytes(blob)
            except (OSError, ValueError):
                slot.state = DEAD
        # The acks share one deadline (replicas process the refresh
        # concurrently): a standing worker that is alive but unresponsive
        # must not wedge run() at the door — no wait is ever infinite.
        ack_deadline = time.monotonic() + config.batch_deadline(0.0)
        for slot in slots:
            if slot.state == IDLE:
                try:
                    if (
                        slot.conn.poll(max(0.0, ack_deadline - time.monotonic()))
                        and slot.conn.recv()[0] == "refreshed"
                    ):
                        continue
                except (EOFError, ConnectionError, OSError):
                    pass
            # Lost in the exchange — its pipe closed, it hung past the
            # deadline, or it reported an error (and exits after that).
            self._kill_worker(slot)
            slot.state = DEAD
            outcome.worker_deaths += 1
        if any(slot.state == DEAD for slot in slots):
            return False
        pool["graph_version"] = graph.mutation_count
        shipped.update(new_gfds)
        graph.trim_delta_history(graph.mutation_count)
        return True

    @staticmethod
    def _shutdown_workers(slots) -> None:
        """Stop, join (with a deadline), and disconnect a worker set."""
        for slot in slots:
            if slot.live:
                try:
                    slot.conn.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass
        deadline = time.monotonic() + _JOIN_TIMEOUT
        for slot in slots:
            slot.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if slot.proc.is_alive():  # pragma: no cover - stuck worker
                slot.proc.terminate()
                slot.proc.join(timeout=1.0)
        for slot in slots:
            try:
                slot.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    @staticmethod
    def _kill_worker(slot) -> None:
        """Force-terminate one worker (hang detection / crash cleanup)."""
        proc = slot.proc
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
        try:
            slot.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def close(self) -> None:
        """Tear down the persistent worker pool, if one is standing."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self._shutdown_workers(pool["slots"])
        pool["context"].graph.retain_deltas(False)

    def run(
        self,
        units: Sequence[WorkUnit],
        context: UnitContext,
        engine: EnforcementEngine,
        goal_check: Optional[GoalCheck] = None,
        trace=None,
    ) -> ParallelOutcome:
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
            # Splits of a local unit stay local (they inherit its missing
            # radius), and the pass shares the run's retry accounting.
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
            execute_in_process(
                outcome, local, context, engine, config, tracker, goal_check
            )
            outcome.coordinator_units = outcome.units_executed
            if outcome.terminated_early:
                outcome.wall_seconds = time.perf_counter() - started
                outcome.virtual_seconds = outcome.wall_seconds
                return outcome

        persistent = config.persistent_workers
        pool = self._pool if persistent else None
        if pool is not None and self._refresh_pool(
            pool, context, engine, goal_check, outcome
        ):
            # Standing pool: deltas + the fresh engine shipped instead of
            # restarting. The refresh adopted the pool's fragmenter (the
            # holdings on the standing replicas were cut by it).
            slots: List[_Slot] = pool["slots"]
            method = pool["method"]
            router = getattr(context, "fragment_router", None)
            for slot in slots:
                slot.new_run(eq.log_position())
        else:
            self.close()
            pool = None
            method = config.start_method or (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
            if persistent:
                # Retain a replayable op history from this point on, so the
                # next run can ship deltas instead of snapshots.
                context.graph.retain_deltas(True)
            slots = [_Slot(worker_id) for worker_id in range(config.workers)]
            self._launch(method, slots, context, engine, goal_check, router)
            if persistent:
                pool = {
                    "slots": slots,
                    "method": method,
                    "context": context,
                    "graph_version": context.graph.mutation_count,
                    "shipped_gfds": set(context.gfds),
                    "router": router,
                }

        scheduler = Scheduler(units, config, context)
        #: Units from a crashed worker's batch, re-dispatched as singleton
        #: batches so a replica-killing unit can be isolated (bisection).
        suspects: Deque[WorkUnit] = deque()
        #: Slowest completed round trip (seconds) — the adaptive hang
        #: deadline's history input.
        slowest_trip = 0.0

        def pending_work() -> bool:
            return bool(len(scheduler) or suspects)

        def bury(slot: _Slot, cause: str, crashed: bool = True) -> None:
            """Declare a worker dead, recover its work, schedule a respawn.

            The scheduler re-pins the dead worker's locality keys (and any
            still-queued pinned units) onto the survivors. In-flight units
            of a *crashed* worker go to the suspect lane (singleton
            re-dispatch — bisection — with a singleton's death charged to
            its unit through the failure rule); units a dispatch failure
            never delivered are simply requeued. The worker's completed
            units re-run elsewhere (its parked matches died with it). The
            respawn waits out an exponential backoff inside the dispatch
            loop's wait — never as a coordinator-blocking sleep, which
            would stall hang detection for the surviving workers.
            """
            worker_id = slot.worker_id
            lost, slot.batch = slot.batch, []
            slot.state = DEAD
            outcome.worker_deaths += 1
            scheduler.worker_died(worker_id)
            # The dead replica's fragments died with it: forgetting its
            # holdings makes the next dispatch of those fragments' units
            # re-ship each full replica to whichever survivor receives
            # them — fragment loss never quarantines a unit.
            slot.holdings.clear()
            self._kill_worker(slot)
            if config.strict_faults:
                raise WorkerFault(
                    f"process worker {worker_id} failed: {cause}",
                    worker_id=worker_id,
                    worker_traceback=cause,
                )
            if not crashed:
                scheduler.requeue(lost)
            elif len(lost) == 1:
                if fail_unit(outcome, tracker, config, lost[0], cause, worker_id):
                    suspects.append(lost[0])
            else:
                suspects.extend(lost)
            orphans = list(slot.completed.values())
            slot.completed.clear()
            scheduler.requeue(orphans)
            if slot.respawns < config.max_worker_respawns:
                slot.state = RESPAWNING
                slot.due = time.perf_counter() + config.respawn_backoff_seconds * (
                    2**slot.respawns
                )

        def fragment_extras(slot: _Slot, batch: List[WorkUnit]):
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
                fid = router.fragment_of(unit.pivot_node())
                if router.covers_unit(fid, unit):
                    if fid in slot.holdings:
                        continue
                    if not any(
                        fid in other.holdings
                        for other in slots
                        if other is not slot and other.live
                    ):
                        frags[fid] = router.build(fid)
                        slot.holdings.add(fid)
                        outcome.fragments_shipped += 1
                        continue
                balls[unit.uid] = router.ball_for_unit(unit)
                outcome.balls_shipped += 1
            if frags or balls:
                return {"fragments": frags, "balls": balls}
            return None

        def dispatch(slot: _Slot, batch: List[WorkUnit]) -> None:
            """Send *batch* — empty for a settlement sync — plus the ΔEq the
            worker has not seen. A closed pipe buries the worker, and the
            undelivered batch is requeued for the survivors."""
            base = slot.synced
            ops = eq.delta_since(base)
            if slot.own_regions:
                # Echo suppression: master-log regions the worker produced
                # itself (recorded at merge time) are never broadcast back.
                ops = [
                    op
                    for position, op in enumerate(ops, start=base)
                    if not any(lo <= position < hi for lo, hi in slot.own_regions)
                ]
            extras = None
            if router is not None and batch:
                extras = fragment_extras(slot, batch)
            slot.batch = batch
            # A sync carries no batch index: fault events key on unit
            # batches only.
            index = slot.batches if batch else None
            try:
                slot.conn.send(("units", batch, ops, index, extras))
            except OSError:
                bury(slot, "dispatch pipe closed", crashed=False)
                return
            if batch:
                slot.batches += 1
            slot.state = BUSY
            outcome.broadcast_volume += len(ops)
            outcome.sync_rounds += 1
            slot.shipped = len(ops)
            slot.sent_at = time.perf_counter()
            slot.synced = eq.log_position()
            # Every recorded region ends at or before the log position the
            # sync mark just advanced to, so this dispatch consumed them all.
            slot.own_regions = []

        def receive(slot: _Slot, reply: tuple) -> None:
            """Merge one worker reply into the master state."""
            nonlocal slowest_trip
            worker_id = slot.worker_id
            if reply[0] == "error":
                # The worker exits after reporting: an infrastructure-level
                # failure (not a unit exception — those come back in the
                # failures slot of a normal reply). Treated as a crash.
                bury(slot, f"process worker {worker_id} failed: {reply[1]}")
                return
            _, results, new_ops, conflict, goal_reached, busy, failures, evidence = reply
            # The raw evidence the worker noted during the batch (unit
            # execution plus replay-triggered cascades), queued unopened:
            # it is digested and interned by stable ref only if the run's
            # evidence is read. A retried unit's re-shipped matches then
            # intern to the records already there.
            engine.evidence.absorb(evidence)
            batch, slot.batch = slot.batch, []
            slot.state = IDLE
            dispatched = {unit.uid: unit for unit in batch}
            trip = time.perf_counter() - slot.sent_at
            slowest_trip = max(slowest_trip, trip)
            outcome.worker_busy[worker_id] += busy
            outcome.broadcast_volume += len(new_ops)
            if batch:
                # Only unit round trips feed the adaptive batcher —
                # settlement syncs carry no work, so their payload says
                # nothing about what a batch of units costs. The latency
                # axis is the full dispatch→receive interval (pickling,
                # wire and queuing included), which is what the
                # scheduler's BATCH_TARGET_SECONDS bounds — the worker's
                # own busy clock would miss exactly the communication
                # cost batching exists to control.
                scheduler.observe(
                    worker_id, len(results), slot.shipped + len(new_ops), trip
                )
            merge_mark = eq.log_position()
            eq.apply_delta(new_ops)
            if eq.log_position() > merge_mark:
                # The novel slice of this reply is the worker's own work;
                # never echo it back to its producer.
                slot.own_regions.append((merge_mark, eq.log_position()))
            if conflict is not None:
                eq.install_conflict(conflict)
            for unit_uid, detail in failures:
                unit = dispatched[unit_uid]
                if fail_unit(outcome, tracker, config, unit, detail, worker_id):
                    scheduler.requeue([unit])
            for result in results:
                # Reconcile by stable uid: a result answers a unit of the
                # batch this worker was handed (pickling round-trips
                # preserve uids).
                slot.completed[result.unit_uid] = dispatched[result.unit_uid]
                absorb_result(outcome, result)
                if not (result.conflict or result.goal_reached or outcome.terminated_early):
                    register_splits(outcome, result, scheduler.requeue)
            if eq.has_conflict():
                outcome.conflict = eq.conflict
            elif goal_reached or (goal_check is not None and goal_check(eq)):
                outcome.goal_reached = True

        # The one wait loop. Each pass: restart due respawns, hand work to
        # idle workers, and — with nothing queued and nothing in flight —
        # open a settlement round: one sync to every live worker that lags
        # the master log, so worker-side parked matches cascade to the
        # shared fixpoint. Batch and sync replies come back through the
        # same deadline-bounded wait, hang detection and bury(); the next
        # round opens only once every reply of the last is in. The loop
        # ends at termination, at quiescence (no worker lags), or when the
        # pool can no longer finish the queue remotely.
        run_ok = False
        try:
            while True:
                now = time.perf_counter()
                for slot in slots:
                    if slot.state == RESPAWNING and slot.due <= now:
                        # Restart from the coordinator's *current* state;
                        # the scheduler re-opens the slot for pinning.
                        slot.respawns += 1
                        try:
                            self._launch(
                                method, [slot], context, engine, goal_check, router
                            )
                        except Exception:  # pragma: no cover - out of pids/memory
                            slot.state = DEAD
                            continue
                        scheduler.worker_revived(slot.worker_id)
                        outcome.respawns += 1
                live = sum(slot.live for slot in slots)
                if not outcome.terminated_early and live >= max(
                    1, config.min_live_workers
                ):
                    # Dynamic assignment to idle workers: the suspect lane
                    # first (singleton batches — bisection), then the
                    # scheduler (own pinned queue, global, stealing).
                    for slot in slots:
                        if not pending_work():
                            break
                        if slot.state == IDLE:
                            if suspects:
                                batch = [suspects.popleft()]
                            else:
                                batch = scheduler.next_batch(slot.worker_id)
                            if batch:
                                dispatch(slot, batch)
                busy = {slot.conn: slot for slot in slots if slot.state == BUSY}
                dues = [slot.due for slot in slots if slot.state == RESPAWNING]
                if not busy:
                    if outcome.terminated_early:
                        break
                    if pending_work():
                        if dues:
                            # A backoff is still ticking: wait it out rather
                            # than declaring the pool collapsed while a
                            # replacement is on its way.
                            time.sleep(max(0.0, min(dues) - time.perf_counter()))
                            continue
                        # Not enough replicas left to finish remotely: the
                        # coordinator takes over in-process. Survivors'
                        # parked matches are unreachable without settlement,
                        # so every completed unit re-runs too, and the
                        # master engine reaches the same fixpoint on its own.
                        if config.strict_faults:  # pragma: no cover - defensive
                            raise WorkerPoolError(
                                f"worker pool collapsed to {live} live "
                                f"worker(s) (min_live_workers={config.min_live_workers})",
                                live_workers=live,
                                dead_workers=config.workers - live,
                            )
                        extra = list(suspects)
                        for slot in slots:
                            extra.extend(slot.completed.values())
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
                        break
                    # Settlement round — also below min_live_workers, as
                    # long as no work is pending.
                    lagging = [
                        slot
                        for slot in slots
                        if slot.state == IDLE and slot.synced < eq.log_position()
                    ]
                    if not lagging:
                        break
                    for slot in lagging:
                        dispatch(slot, [])
                    continue
                limit = config.batch_deadline(slowest_trip)
                # Wake for the nearest due respawn too, so a restart is
                # never delayed by a full batch deadline.
                expiry = min([slot.sent_at + limit for slot in busy.values()] + dues)
                ready = mp_connection.wait(
                    list(busy), timeout=max(0.0, expiry - time.perf_counter())
                )
                if not ready:
                    # Hang detection: kill and bury every worker past the
                    # deadline (a due respawn may have woken us instead).
                    now = time.perf_counter()
                    for slot in busy.values():
                        if now - slot.sent_at >= limit:
                            bury(
                                slot,
                                f"process worker {slot.worker_id} exceeded the "
                                f"{limit:.2f}s batch deadline (hang detection)",
                            )
                    continue
                for conn in ready:
                    slot = busy[conn]
                    try:
                        reply = conn.recv()
                    except (EOFError, ConnectionError, OSError):
                        bury(slot, f"process worker {slot.worker_id} died mid-batch")
                        continue
                    receive(slot, reply)
            run_ok = True
        finally:
            if pool is not None and run_ok and all(slot.state == IDLE for slot in slots):
                # Persistent mode: keep the whole pool standing for the
                # next run's delta refresh.
                self._pool = pool
            else:
                if pool is not None:
                    self._pool = None
                    context.graph.retain_deltas(False)
                self._shutdown_workers(slots)

        scheduler.export_stats(outcome)
        outcome.wall_seconds = time.perf_counter() - started
        outcome.virtual_seconds = outcome.wall_seconds
        return outcome
