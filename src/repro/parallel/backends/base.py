"""The ``Backend`` protocol every parallel runtime satisfies.

A backend owns the four coordinator/worker duties of the paper's Fig. 3
protocol, and nothing else:

1. **dispatch** — hand queued :class:`~repro.reasoning.workunits.WorkUnit`
   batches to free workers (dynamic assignment, batch size from the
   :class:`~repro.parallel.config.RuntimeConfig`);
2. **split-requeue** — route TTL-split sub-units back to the *front* of
   the shared queue (paper, lines 9–10 of ParSat);
3. **ΔEq broadcast** — make every worker's ``Eq`` mutations visible to the
   others (instantaneously through a shared object, or as replayed
   :class:`~repro.eq.eqrelation.DeltaOp` batches between processes);
4. **early termination** — stop the run at the first conflict, or when the
   implication goal ``Y ⊆ Eq_H`` is reached.

Workload construction (unit generation, ordering, pruning) and unit
execution (:func:`~repro.parallel.units.execute_unit`) live outside the
backend; all backends therefore produce *identical verdicts* — they differ
only in where the workers live and what the timing numbers mean.

Backends additionally share the *supervision* contract, and the code
that implements its common half: a worker-side unit failure meets the
one failure rule (:func:`~repro.parallel.coordinator.fail_unit`) —
retried up to ``config.max_unit_retries`` times, then quarantined into
``ParallelOutcome.quarantined`` instead of aborting the run; a dead
worker's queued units re-pin to the survivors (``Scheduler.worker_died``);
and when the pool collapses below ``config.min_live_workers`` the backend
finishes the queue with the one in-process executor
(:func:`~repro.parallel.coordinator.drain_in_process`) and marks the
outcome ``degraded``. ``config.strict_faults`` flips all of that back to
fail-fast with typed :class:`~repro.errors.WorkerFault` /
:class:`~repro.errors.WorkerPoolError` exceptions. Every failure path is
reachable deterministically through ``config.fault_plan``
(:mod:`repro.parallel.faults`): each backend keys its per-worker
dispatch counter against the plan via :meth:`Backend.fault_event`,
injects poisoned units and ``error`` events through
:func:`~repro.parallel.faults.inject_faults`, and interprets ``crash``,
``hang`` and ``slow`` in its own idiom (an OS process can really crash
and hang; a virtual worker leaves the ready heap). Each backend keeps its
own dispatch loop: the process backend's wall-clock supervisor (one wait
loop over per-slot records) and the simulated backend's virtual clock.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, ClassVar, Optional, Sequence

from ...eq.eqrelation import EqRelation
from ...reasoning.enforce import EnforcementEngine
from ...reasoning.workunits import WorkUnit
from ..config import RuntimeConfig
from ..coordinator import ParallelOutcome
from ..faults import FaultEvent
from ..units import UnitContext

#: The uniform goal-check signature (``None`` = satisfiability, no goal).
GoalCheck = Callable[[EqRelation], bool]


class Backend(ABC):
    """A parallel execution runtime for the coordinator/worker protocol."""

    #: Registry key (``'simulated'`` / ``'process'``).
    name: ClassVar[str] = ""

    def __init__(self, config: RuntimeConfig) -> None:
        self.config = config

    @abstractmethod
    def run(
        self,
        units: Sequence[WorkUnit],
        context: UnitContext,
        engine: EnforcementEngine,
        goal_check: Optional[GoalCheck] = None,
        trace=None,
    ) -> ParallelOutcome:
        """Execute *units* to completion or early termination.

        *engine* wraps the coordinator's ``Eq``; on return it reflects the
        merged fixpoint regardless of backend. *goal_check* must be
        picklable for the process backend (see
        :class:`~repro.parallel.goals.EntailmentGoal`). *trace* is honored
        by the simulated backend (virtual timeline) and ignored by the
        wall-clock backends.
        """

    def fault_event(self, worker_id: int, batch_index: int) -> Optional[FaultEvent]:
        """The scripted fault for this dispatch slot, or ``None``.

        Thin lookup into ``config.fault_plan`` so backends share one
        injection keying convention: *batch_index* is the worker's own
        dispatch counter, starting at 0 and never resetting (a respawned
        process continues its predecessor's count), so a scripted event
        fires at most once per ``(worker, batch)`` slot.
        """
        plan = self.config.fault_plan
        if plan is None:
            return None
        return plan.event_at(worker_id, batch_index)

    def close(self) -> None:
        """Release resources held *across* runs.

        The simulated backend holds none (no-op); the process backend
        overrides this to stop a persistent worker pool
        (``RuntimeConfig.persistent_workers``). Safe to call repeatedly.
        """

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"{type(self).__name__}(workers={self.config.workers})"
