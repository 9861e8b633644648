"""Configuration of the parallel runtimes: cost model and knobs.

The simulated cluster charges *virtual time* for the work a unit really
performs: matcher consistency checks (``match_tick``), enforcement
operations (``enforce_op``), scheduling overhead, split-message shipping and
``ΔEq`` broadcast. The defaults are calibrated so that the relative effects
reported in the paper (pipelining ≈1.5×, splitting ≈4×, TTL optimum in the
interior of the sweep) are observable on scaled workloads; absolute numbers
are in virtual seconds and are not comparable to the authors' Java cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..errors import RuntimeConfigError
from .faults import FaultPlan

#: Paper default for the straggler threshold (virtual seconds), Exp-4.
DEFAULT_TTL_SECONDS = 2.0

#: Hang detection: a worker with no latency history yet is allowed this
#: many wall seconds per batch before being declared dead.
BATCH_TIMEOUT_FLOOR = 30.0

#: Hang detection: once round trips have been observed, a batch may take
#: this many times the slowest of them (never less than the floor).
BATCH_TIMEOUT_FACTOR = 8.0


@dataclass(frozen=True)
class CostModel:
    """Virtual-time prices of the operations a worker performs."""

    match_tick: float = 1.0        # one matcher consistency check
    enforce_op: float = 3.0        # one enforcement (CheckAttr) operation
    unit_overhead: float = 0.1     # per-unit scheduling cost within a batch
    batch_overhead: float = 2.0    # coordinator round-trip per assigned batch
    split_message: float = 40.0    # shipping one split sub-unit to Sc
    broadcast_per_op: float = 0.1  # broadcasting one ΔEq operation
    pipeline_sync: float = 0.2     # residual sync cost when pipelined
    tick_seconds: float = 1e-3     # virtual seconds per cost unit

    def seconds(self, cost_units: float) -> float:
        return cost_units * self.tick_seconds

    def cost_units(self, seconds: float) -> float:
        return seconds / self.tick_seconds


@dataclass(frozen=True)
class RuntimeConfig:
    """Everything a parallel run needs besides the workload itself.

    Attributes
    ----------
    workers:
        ``p`` — the number of workers (the coordinator is not counted,
        matching the paper's setup).
    ttl_seconds:
        Straggler threshold: a unit whose matching exceeds this much
        virtual time is split (paper, Section V-B). ``None`` disables
        splitting — the ``nb`` variants.
    pipelined:
        Overlap HomMatch and CheckAttr (paper's pipelined parallelism).
        ``False`` gives the ``np`` variants: enforcement waits until all
        matches of the unit are enumerated.
    max_split_units:
        Cap on sub-units shipped per split decision, to bound message size.
    batch_size:
        Units handed to a worker per coordinator round-trip ("work units
        can be assigned ... in a small batch rather than a single w, to
        reduce the communication cost", paper Section V-B). With
        ``affinity`` on this is each worker's *initial* batch size, which
        then adapts; batches are exactly this size only in the ablation
        (:meth:`without_affinity`).
    affinity:
        The scheduler's locality features, on together: pivot-locality
        pinning — the :class:`~repro.parallel.scheduler.Scheduler` routes
        work units whose pivots share a neighborhood (same locality key,
        see :meth:`~repro.parallel.units.UnitContext.locality_key`) to the
        same worker replica, so its warm BFS hop maps and already-applied
        ``ΔEq`` ops are reused instead of re-derived, and the duplicate
        ops that co-located units rediscover never cross the coordinator
        boundary — with work stealing for idle workers, a fair-share cap
        that trims a batch to the worker's share of the remaining queue,
        and adaptive batch sizing: a worker's batch grows while round
        trips come back cheap and halves when their ``ΔEq`` payload or
        duration overshoots (the scheduler's ``MAX_BATCH_SIZE``,
        ``BATCH_DELTA_BUDGET`` and ``BATCH_TARGET_SECONDS``). ``False`` is
        the ablation: plain FIFO dispatch of fixed ``batch_size`` batches
        to whichever worker frees up first.
    use_dependency_order / use_simulation_pruning:
        The remaining optimizations, togglable for ablations.
    use_bitsets:
        Candidate-set representation: packed
        :class:`~repro.graph.bitset.NodeBitset` vectors over the graph's
        compiled index (default) vs plain sets. Match streams are
        byte-identical either way; the bitset path trades per-node
        membership tests for word-level intersection.
    use_ruleset_plan:
        Rule-set compilation: generate one *grouped* work unit per
        (pivot-signature group, pivot node) and execute it as a single
        shared-prefix :class:`~repro.matching.ruleset.RuleSetPlan` walk,
        instead of one unit per (GFD, pivot) — Section V-B's multi-query
        sharing applied across Σ. A straggling walk splits into grouped
        sub-units that resume the same trie, so sharing survives the
        split. ``True`` (default). ``False`` runs the paper's per-rule
        units ``(Q[z], φ)``: the ablation, and the test oracle grouped
        runs are checked against. Verdicts are the same either way
        (monotone ``Eq``, Church-Rosser); unit counts, split shapes and
        virtual timings differ.
    start_method:
        Process backend only: the ``multiprocessing`` start method
        (``'fork'``, ``'spawn'``, ``'forkserver'``). ``None`` (default)
        picks ``fork`` where available — workers then inherit the prebuilt
        index and caches copy-on-write — and falls back to ``spawn`` with
        a pickled worker snapshot elsewhere.
    persistent_workers:
        Process backend only: keep the worker pool alive between ``run()``
        calls on the same :class:`~repro.parallel.units.UnitContext`.
        Follow-up runs then ship standing replicas the graph's topology
        *delta ops* (plus the fresh engine) instead of re-forking or
        re-pickling full snapshots — the mutation-heavy serving shape.
        The caller owns the pool's lifetime: call ``Backend.close()``
        when done. Off by default (one-shot runs tear down as before).
    max_unit_retries:
        Supervision: how many times a work unit that failed worker-side
        (an exception, or a crash attributed to it) is retried before it
        is quarantined into ``ParallelOutcome.quarantined`` with its
        worker traceback. ``0`` quarantines on the first failure.
    strict_faults:
        The fail-fast ablation: any worker fault aborts the run with a
        typed :class:`~repro.errors.WorkerFault` /
        :class:`~repro.errors.WorkerPoolError` instead of entering the
        retry/quarantine/respawn/degradation machinery. Off by default.
    batch_timeout_seconds:
        Hang detection (process backend): a worker whose batch round trip
        exceeds this many wall seconds is declared dead, killed, and its
        in-flight units are recovered. ``None`` (default) derives the
        deadline adaptively from the worker pool's observed latency
        history: ``max(BATCH_TIMEOUT_FLOOR, BATCH_TIMEOUT_FACTOR × the
        slowest round trip seen so far)`` — generous enough that a slow
        batch never trips it, bounded enough that a hung worker cannot
        block the run forever. The floor also covers the first round
        trip, before any history exists.
    max_worker_respawns:
        How many times one worker slot may be respawned after its process
        dies (crash or hang). Respawned replicas are rebuilt from the
        coordinator's current state — fork inheritance or a fresh
        snapshot — so they arrive fully caught up, and the
        :class:`~repro.parallel.scheduler.Scheduler` re-pins locality
        keys to them (``worker_revived``). ``0`` disables respawn.
    respawn_backoff_seconds:
        Base delay before a respawn; doubles with each respawn of the
        same slot (exponential backoff).
    min_live_workers:
        Graceful degradation threshold: when fewer than this many workers
        survive (and the respawn budget is spent), the coordinator stops
        dispatching and finishes the remaining queue in-process through
        the simulated path instead of failing. Must not exceed
        ``workers``. The default ``1`` degrades only when *every* worker
        is gone — the case that used to raise a bare ``RuntimeError``.
    fault_plan:
        Deterministic fault injection
        (:class:`~repro.parallel.faults.FaultPlan`): scripted
        crash/hang/error/slow events keyed by ``(worker_id,
        batch_index)`` plus poisoned units, honored by both
        backends. ``None`` (default) injects nothing.
    capture_provenance:
        Layered result model: engines note every enforced match as
        :class:`~repro.results.evidence.MatchEvidence` and stamp
        structured :class:`~repro.eq.eqrelation.Provenance` on ΔEq ops.
        Process workers ship their raw notes once per batch reply; the
        coordinator interns them under stable cross-worker refs on first
        read. ``True`` (default) enables post-run explanations;
        ``False`` is the overhead ablation.
    fragments:
        Fragmented execution (the paper's fragment-parallel model): the
        canonical graph is edge-cut into this many
        :class:`~repro.graph.fragment.FragmentSpec` partitions with
        boundary-node replication, fragment id becomes the scheduler's
        locality key, and the process backend ships each worker only its
        fragments' replicas — cross-fragment pivots are resolved by
        shipping per-unit dQ-balls, and persistent-pool refreshes ship
        per-fragment delta streams. ``None`` (default) keeps whole-graph
        snapshots. The simulated backend honors the fragment-local
        dispatch keys against its shared whole graph.
    """

    workers: int = 4
    ttl_seconds: Optional[float] = DEFAULT_TTL_SECONDS
    pipelined: bool = True
    max_split_units: int = 16
    batch_size: int = 6
    affinity: bool = True
    use_dependency_order: bool = True
    use_simulation_pruning: bool = True
    use_bitsets: bool = True
    use_ruleset_plan: bool = True
    start_method: Optional[str] = None
    persistent_workers: bool = False
    max_unit_retries: int = 2
    strict_faults: bool = False
    batch_timeout_seconds: Optional[float] = None
    max_worker_respawns: int = 1
    respawn_backoff_seconds: float = 0.05
    min_live_workers: int = 1
    fault_plan: Optional[FaultPlan] = None
    fragments: Optional[int] = None
    capture_provenance: bool = True
    costs: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise RuntimeConfigError(f"workers must be >= 1, got {self.workers}")
        if self.ttl_seconds is not None and self.ttl_seconds <= 0:
            raise RuntimeConfigError("ttl_seconds must be positive (or None to disable)")
        if self.max_split_units < 1:
            raise RuntimeConfigError("max_split_units must be >= 1")
        if self.batch_size < 1:
            raise RuntimeConfigError("batch_size must be >= 1")
        if self.start_method is not None and self.start_method not in (
            "fork",
            "spawn",
            "forkserver",
        ):
            raise RuntimeConfigError(
                f"start_method must be 'fork', 'spawn', or 'forkserver', "
                f"got {self.start_method!r}"
            )
        if self.max_unit_retries < 0:
            raise RuntimeConfigError(
                f"max_unit_retries must be >= 0, got {self.max_unit_retries}"
            )
        if self.batch_timeout_seconds is not None and self.batch_timeout_seconds <= 0:
            raise RuntimeConfigError(
                "batch_timeout_seconds must be positive (or None for adaptive)"
            )
        if self.max_worker_respawns < 0:
            raise RuntimeConfigError(
                f"max_worker_respawns must be >= 0, got {self.max_worker_respawns}"
            )
        if self.respawn_backoff_seconds < 0:
            raise RuntimeConfigError(
                f"respawn_backoff_seconds must be >= 0, got {self.respawn_backoff_seconds}"
            )
        if self.min_live_workers < 0:
            raise RuntimeConfigError(
                f"min_live_workers must be >= 0, got {self.min_live_workers}"
            )
        if self.fragments is not None and self.fragments < 1:
            raise RuntimeConfigError(
                f"fragments must be >= 1 (or None to disable), got {self.fragments}"
            )
        if self.min_live_workers > self.workers:
            # A threshold above the pool size would make every run degrade
            # to in-process execution before dispatching anything (or fail
            # under strict_faults with zero actual faults).
            raise RuntimeConfigError(
                f"min_live_workers ({self.min_live_workers}) must not "
                f"exceed workers ({self.workers})"
            )

    @property
    def ttl_ticks(self) -> Optional[float]:
        """The TTL converted to matcher-tick cost units."""
        if self.ttl_seconds is None:
            return None
        return self.costs.cost_units(self.ttl_seconds) / self.costs.match_tick

    def without_pipelining(self) -> "RuntimeConfig":
        return replace(self, pipelined=False)

    def without_splitting(self) -> "RuntimeConfig":
        return replace(self, ttl_seconds=None)

    def without_affinity(self) -> "RuntimeConfig":
        """The scheduler ablation: FIFO routing and fixed ``batch_size``."""
        return replace(self, affinity=False)

    def with_ruleset_plan(self) -> "RuntimeConfig":
        """Grouped work units through the shared-prefix trie (the default)."""
        return replace(self, use_ruleset_plan=True)

    def with_fragments(self, fragments: Optional[int]) -> "RuntimeConfig":
        """Fragmented execution over *fragments* edge-cut partitions."""
        return replace(self, fragments=fragments)

    def without_provenance(self) -> "RuntimeConfig":
        """The provenance-capture ablation (no evidence, bare sources)."""
        return replace(self, capture_provenance=False)

    def batch_deadline(self, slowest_round_trip: float = 0.0) -> float:
        """Wall seconds one batch round trip may take before the worker is
        declared hung: the explicit ``batch_timeout_seconds`` when set,
        else adaptive from the pool's slowest observed round trip."""
        if self.batch_timeout_seconds is not None:
            return self.batch_timeout_seconds
        return max(BATCH_TIMEOUT_FLOOR, BATCH_TIMEOUT_FACTOR * slowest_round_trip)

    def with_workers(self, workers: int) -> "RuntimeConfig":
        return replace(self, workers=workers)
