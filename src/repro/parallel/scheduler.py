"""Work-unit scheduling: pivot-affinity routing + adaptive ΔEq batching.

The paper's Section V architecture is a coordinator exchanging work units
and ``ΔEq`` deltas with ``p`` workers; on delta-heavy workloads the
broadcast traffic — not the matching — dominates. The
:class:`Scheduler` owns the coordinator's pending queue and attacks that
traffic on two axes:

* **pivot affinity** — work units whose pivots share a neighborhood (the
  spokes of one hub, say) are pinned to the same worker replica. The
  replica's warm BFS hop maps serve every unit of the group, and the
  duplicate ``ΔEq`` ops that co-located units rediscover (hub-level facts
  each spoke's match re-derives) are absorbed by the replica's local
  ``Eq`` instead of crossing the coordinator boundary once per worker.
  The routing key is :meth:`UnitContext.locality_key
  <repro.parallel.units.UnitContext.locality_key>` — the dominant node of
  the pivot's closed neighborhood, derived from the compiled
  :class:`~repro.graph.index.GraphIndex`;
* **adaptive batch sizing** — each worker's batch grows (toward
  :data:`MAX_BATCH_SIZE`) while round trips come back cheap, and halves
  as soon as the observed ``ΔEq`` payload exceeds
  :data:`BATCH_DELTA_BUDGET` ops or the round trip overshoots
  :data:`BATCH_TARGET_SECONDS`: delta-heavy workers then sync more often,
  so their peers stop re-deriving facts already known elsewhere.

Fairness: pinning must not starve a free worker. Every worker serves the
split priority lane first (paper, lines 9–10 of ParSat: straggler
sub-units jump the queue — and stay unpinned, since spreading one
over-heavy unit is their whole purpose), then its own pinned queue, then
the unpinned global queue, and finally *steals* from the back of the most
loaded peer's queue — the paper's dynamic assignment, with affinity as a
preference rather than a constraint.

``RuntimeConfig.affinity`` switches all of this on together. The
``affinity=False`` ablation is plain dynamic assignment: one FIFO queue,
fixed ``batch_size`` batches to whichever worker frees up first.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set

from ..reasoning.workunits import WorkUnit
from .config import RuntimeConfig

#: Adaptive batching: a worker's batch never grows past this many units
#: (or past ``RuntimeConfig.batch_size``, when that is larger).
MAX_BATCH_SIZE = 32

#: Adaptive batching: ΔEq ops per round trip above which a batch shrinks.
BATCH_DELTA_BUDGET = 64

#: Adaptive batching: round-trip duration (virtual seconds on the
#: simulated backend, wall seconds elsewhere) above which a batch shrinks;
#: batches only grow while round trips finish in half this budget.
BATCH_TARGET_SECONDS = 0.25


class Scheduler:
    """Owns the pending work-unit queue for one parallel run.

    Backends interact through six calls: :meth:`next_batch` (dispatch),
    :meth:`requeue` (split sub-units to the front), :meth:`observe`
    (adaptive-batch feedback after a round trip), :meth:`worker_died`
    (re-pin a dead worker's queue onto the survivors), its inverse
    :meth:`worker_revived` (a respawned replica rejoins the routing
    pool) and ``len()`` (remaining units). All bookkeeping is deterministic: dictionaries are
    keyed by insertion order and ties break on worker id, so the simulated
    backend's virtual timings stay reproducible.
    """

    def __init__(
        self,
        units: Sequence[WorkUnit],
        config: RuntimeConfig,
        context=None,
    ) -> None:
        self.config = config
        workers = config.workers
        #: Pinning needs a context (the locality key is topology-derived);
        #: backends always pass one, but a bare Scheduler routes FIFO. Its
        #: batches still adapt and stay fair-share capped.
        self.affinity = bool(config.affinity and context is not None)
        self._context = context
        self._alive: Set[int] = set(range(workers))
        #: Split sub-units: highest priority, unpinned (any worker).
        self._priority: Deque[WorkUnit] = deque()
        #: Unpinned units (no pivot, or affinity off), plain FIFO.
        self._global: Deque[WorkUnit] = deque()
        #: Per-worker pinned queues.
        self._local: List[Deque[WorkUnit]] = [deque() for _ in range(workers)]
        #: locality key -> owning worker (first-touch, least-loaded).
        self._owner: Dict[object, int] = {}
        #: Queued pinned units per worker (routing load balance).
        self._pinned_load: List[int] = [0] * workers
        self._batch: List[int] = [config.batch_size] * workers
        self._size = 0
        # --- stats (exported into ParallelOutcome by the backends) ---
        #: Units a worker took from its own pinned queue.
        self.affinity_hits = 0
        #: Pinned units executed away from their owner (work stealing).
        self.affinity_misses = 0
        #: Batch-size changes made by :meth:`observe`.
        self.batch_adaptations = 0
        #: Units re-pinned by :meth:`worker_died`.
        self.reassigned_units = 0
        for unit in units:
            self._enqueue(unit)

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _key(self, unit: WorkUnit):
        if not self.affinity:
            return None
        return self._context.locality_key(unit)

    def _owner_for(self, key) -> int:
        """The worker pinned to *key* (first touch: least-loaded survivor)."""
        owner = self._owner.get(key)
        if owner is None or owner not in self._alive:
            owner = min(self._alive, key=lambda wid: (self._pinned_load[wid], wid))
            self._owner[key] = owner
        return owner

    def _enqueue(self, unit: WorkUnit, front: bool = False) -> None:
        key = self._key(unit)
        if key is None:
            queue = self._global
        else:
            owner = self._owner_for(key)
            queue = self._local[owner]
            self._pinned_load[owner] += 1
        if front:
            queue.appendleft(unit)
        else:
            queue.append(unit)
        self._size += 1

    def requeue(self, splits: Sequence[WorkUnit]) -> None:
        """Queue split sub-units at the *global* front, preserving order.

        Splits jump every queue (paper, lines 9–10 of ParSat) and stay
        *unpinned*: a straggler's sub-units exist precisely to spread one
        over-heavy unit across free workers, so pinning them back to the
        parent's owner — whose warm caches their siblings already keep
        busy — would re-serialize the work TTL splitting just broke up.
        """
        self._priority.extendleft(reversed(splits))
        self._size += len(splits)

    def next_batch(self, worker_id: int) -> List[WorkUnit]:
        """Pop the next batch for *worker_id* (own queue, global, steal).

        Returns at most the worker's current adaptive batch size; empty
        only when no units remain anywhere. Order: split sub-units (the
        priority lane) first, then the worker's own pinned queue, then
        the global queue, then stealing. Stolen units come from the
        *back* of the most loaded peer's queue — the coldest work, whose
        owner would reach it last anyway.
        """
        limit = self._batch[worker_id]
        if self.config.affinity:
            # Fair-share cap: a batch never takes more than this worker's
            # share of the remaining queue, so a replica with a popular
            # locality key cannot swallow the tail of the run in one trip
            # while its peers idle (the ablation keeps the plain cap).
            alive = len(self._alive) or 1
            limit = min(limit, max(1, -(-self._size // alive)))
        batch: List[WorkUnit] = []
        own = self._local[worker_id]
        while len(batch) < limit and self._size:
            if self._priority:
                batch.append(self._priority.popleft())
            elif own:
                batch.append(own.popleft())
                self._pinned_load[worker_id] -= 1
                if self.affinity:
                    self.affinity_hits += 1
            elif self._global:
                batch.append(self._global.popleft())
            else:
                victim = max(
                    (wid for wid in range(len(self._local)) if self._local[wid]),
                    key=lambda wid: (self._pinned_load[wid], -wid),
                    default=None,
                )
                if victim is None:  # pragma: no cover - _size said otherwise
                    break
                batch.append(self._local[victim].pop())
                self._pinned_load[victim] -= 1
                self.affinity_misses += 1
            self._size -= 1
        return batch

    # ------------------------------------------------------------------
    # Adaptive batch sizing
    # ------------------------------------------------------------------
    def batch_size(self, worker_id: int) -> int:
        """The worker's current adaptive batch size."""
        return self._batch[worker_id]

    @property
    def batch_sizes(self) -> List[int]:
        return list(self._batch)

    def observe(
        self,
        worker_id: int,
        executed: int,
        delta_ops: int,
        seconds: Optional[float] = None,
    ) -> None:
        """Adapt *worker_id*'s batch size from one observed round trip.

        *executed* units came back after *seconds* (virtual on the
        simulated backend, wall elsewhere; ``None`` when the backend has
        no meaningful per-trip clock) carrying *delta_ops* ``ΔEq`` ops of
        payload (shipped both directions). Shrink when the payload blew
        the budget or the trip overshot the latency target; grow only when
        the worker filled its batch and came back cheap on both axes.
        """
        if not self.config.affinity:
            return
        size = self._batch[worker_id]
        overloaded = delta_ops > BATCH_DELTA_BUDGET or (
            seconds is not None and seconds > BATCH_TARGET_SECONDS
        )
        if overloaded:
            new_size = max(1, size // 2)
        elif (
            executed >= size
            and delta_ops * 2 <= BATCH_DELTA_BUDGET
            and (seconds is None or seconds * 2 <= BATCH_TARGET_SECONDS)
        ):
            new_size = min(max(self.config.batch_size, MAX_BATCH_SIZE), size * 2)
        else:
            return
        if new_size != size:
            self._batch[worker_id] = new_size
            self.batch_adaptations += 1

    # ------------------------------------------------------------------
    # Worker failure
    # ------------------------------------------------------------------
    def worker_died(self, worker_id: int) -> None:
        """Re-pin a dead worker's queue and keys onto the survivors.

        Its queued units keep their relative order and their front
        priority; its locality keys are forgotten, so future units of
        those keys re-pin by load. Safe to call repeatedly; when the last
        worker dies the backend raises its all-workers-dead error — the
        units are parked unpinned here only so ``len()`` stays truthful
        for that error path.
        """
        self._alive.discard(worker_id)
        orphans = self._local[worker_id]
        self._local[worker_id] = deque()
        self._pinned_load[worker_id] = 0
        self._size -= len(orphans)
        for key in [key for key, owner in self._owner.items() if owner == worker_id]:
            del self._owner[key]
        if not self._alive:
            self._global.extendleft(reversed(orphans))
            self._size += len(orphans)
            return
        for unit in reversed(orphans):
            self._enqueue(unit, front=True)
        self.reassigned_units += len(orphans)

    def worker_revived(self, worker_id: int) -> None:
        """Bring a respawned worker back into the routing pool.

        The inverse of :meth:`worker_died`: the slot rejoins ``_alive`` so
        future locality keys can pin to it again (first-touch goes to the
        least-loaded survivor, and a freshly revived replica has load 0 —
        it naturally absorbs new keys). Keys re-pinned to survivors while
        the slot was dead stay where they are: their new owners hold the
        warm caches now. Safe to call for a worker that never died.
        """
        self._alive.add(worker_id)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def export_stats(self, outcome) -> None:
        """Copy scheduling counters into a :class:`ParallelOutcome`."""
        outcome.affinity_hits = self.affinity_hits
        outcome.affinity_misses = self.affinity_misses
        outcome.batch_adaptations = self.batch_adaptations
        outcome.batch_sizes = self.batch_sizes

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"Scheduler(pending={self._size}, affinity={self.affinity}, "
            f"batch={self._batch})"
        )
