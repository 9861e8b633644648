"""Coordinator core shared by every execution backend.

The paper's Fig. 3 protocol has one coordinator and ``p`` workers; what
varies between our runtimes is only *where* the workers live (virtual
clock or processes). This module holds the runtime-agnostic half:

* :class:`ParallelOutcome` — the uniform result record every backend
  returns (verdict, cost counters, per-worker busy time);
* :func:`unit_duration` — the virtual-clock price of one executed unit
  under a :class:`~repro.parallel.config.CostModel`;
* :func:`absorb_result` / :func:`register_splits` — the bookkeeping every
  backend performs per :class:`~repro.parallel.units.UnitResult`: tally
  operation counts, decide early termination, and hand split sub-units to
  the :class:`~repro.parallel.scheduler.Scheduler`'s priority lane
  (paper, lines 9–10 of ParSat: splits jump the queue);
* :func:`fail_unit` — the one failure rule: a failed unit is retried up
  to ``max_unit_retries`` times, then quarantined, and under
  ``strict_faults`` the first failure raises instead;
* :func:`execute_in_process` — the one in-process executor, running units
  against the master engine with poisoned-unit injection, the failure
  rule and split requeue. Degraded execution (:func:`drain_in_process`)
  and the coordinator-side pass of fragmented process runs both use it.

Backends import from here; entry points import the names re-exported by
the package root.
"""

from __future__ import annotations

import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..errors import WorkerFault
from ..eq.eqrelation import Conflict, EqRelation
from ..reasoning.workunits import WorkUnit
from .config import RuntimeConfig
from .faults import RetryTracker, inject_faults
from .units import UnitResult, execute_unit


@dataclass
class QuarantinedUnit:
    """A work unit that failed everywhere and was dropped from the run.

    The supervision layer retries a failing unit up to
    ``RuntimeConfig.max_unit_retries`` times; a unit that keeps failing is
    quarantined — recorded here with the last worker-side traceback — and
    the run completes on the rest. Callers inspect
    ``ParallelOutcome.quarantined`` to decide whether the verdict stands
    for their purposes (a quarantined unit's matches were never enforced,
    so conflicts it alone would have found may be missed).
    """

    unit: WorkUnit
    error: str
    attempts: int
    worker_id: Optional[int] = None

    @property
    def unit_uid(self) -> str:
        return self.unit.uid


@dataclass
class ParallelOutcome:
    """Everything a parallel run reports."""

    conflict: Optional[Conflict] = None
    goal_reached: bool = False
    virtual_seconds: float = 0.0
    wall_seconds: float = 0.0
    units_total: int = 0
    units_executed: int = 0
    splits: int = 0
    matches: int = 0
    match_ticks: int = 0
    enforce_ops: int = 0
    broadcast_ops: int = 0
    #: ΔEq ops that actually crossed the coordinator/worker boundary, both
    #: directions (the process backend's wire traffic; modeled per-sync on
    #: the simulated backend).
    broadcast_volume: int = 0
    #: Coordinator round trips: batch dispatches plus settlement syncs.
    sync_rounds: int = 0
    #: Units served from their pinned worker's own queue vs executed
    #: elsewhere (work stealing). Both 0 when ``affinity`` is off.
    affinity_hits: int = 0
    affinity_misses: int = 0
    #: Batch-size changes the adaptive scheduler made, and the final
    #: per-worker batch sizes it converged to.
    batch_adaptations: int = 0
    batch_sizes: List[int] = field(default_factory=list)
    worker_busy: List[float] = field(default_factory=list)
    #: Supervision: unit executions retried after a worker-side failure.
    retries: int = 0
    #: Worker replicas restarted after a crash or hang (process backend).
    respawns: int = 0
    #: Workers declared dead during the run (crash, hang, or error-exit).
    worker_deaths: int = 0
    #: Units that failed everywhere and were dropped from the run, with
    #: their worker tracebacks. Empty on a clean run.
    quarantined: List[QuarantinedUnit] = field(default_factory=list)
    #: Fragmented execution (process backend): full fragment replicas
    #: shipped to workers (initial placement, re-ships after a holder
    #: died) and per-unit dQ-balls shipped for cross-fragment pivots.
    #: Both 0 when ``RuntimeConfig.fragments`` is off.
    fragments_shipped: int = 0
    balls_shipped: int = 0
    #: Units the coordinator executed in-process because no fragment can
    #: serve them (radius-less units search the whole graph).
    coordinator_units: int = 0
    #: True when the pool collapsed below ``min_live_workers`` and the
    #: coordinator finished the remaining queue in-process.
    degraded: bool = False
    eq: Optional[EqRelation] = None
    #: Which backend produced this outcome (``'simulated'`` etc.).
    backend: str = ""

    @property
    def terminated_early(self) -> bool:
        return self.conflict is not None or self.goal_reached

    @property
    def load_imbalance(self) -> float:
        """max/mean worker busy time (1.0 = perfectly balanced)."""
        busy = [b for b in self.worker_busy if b > 0]
        if not busy:
            return 1.0
        mean = sum(busy) / len(self.worker_busy)
        return max(self.worker_busy) / mean if mean else 1.0


def unit_duration(result: UnitResult, config: RuntimeConfig) -> float:
    """Virtual cost units charged for one executed unit (batch overhead is
    charged separately, once per coordinator round-trip)."""
    costs = config.costs
    t_match = result.match_ticks * costs.match_tick
    t_check = result.enforce_ops * costs.enforce_op
    if config.pipelined:
        core = max(t_match, t_check) + costs.pipeline_sync
    else:
        core = t_match + t_check
    return (
        core
        + costs.unit_overhead
        + len(result.splits) * costs.split_message
        + result.delta_ops * costs.broadcast_per_op
    )


def absorb_result(outcome: ParallelOutcome, result: UnitResult) -> None:
    """Tally one executed unit's operation counts into *outcome*."""
    outcome.units_executed += 1
    outcome.matches += result.matches
    outcome.match_ticks += result.match_ticks
    outcome.enforce_ops += result.enforce_ops
    outcome.broadcast_ops += result.delta_ops


def register_splits(
    outcome: ParallelOutcome,
    result: UnitResult,
    requeue: Optional[Callable[[List[WorkUnit]], None]] = None,
) -> None:
    """Account for *result*'s split sub-units and hand them to *requeue*.

    Split units jump the queue (highest priority): the canonical *requeue*
    pushes them to the queue's front, preserving their in-unit order.
    """
    if not result.splits:
        return
    outcome.splits += len(result.splits)
    outcome.units_total += len(result.splits)
    if requeue is not None:
        requeue(result.splits)


def fail_unit(
    outcome: ParallelOutcome,
    tracker: RetryTracker,
    config: RuntimeConfig,
    unit: WorkUnit,
    detail: str,
    worker_id: Optional[int] = None,
) -> bool:
    """The failure rule every backend applies to a unit that failed.

    Under ``config.strict_faults`` the first failure raises
    :class:`~repro.errors.WorkerFault`. Otherwise *tracker* (a
    :class:`~repro.parallel.faults.RetryTracker`) counts it: within
    ``max_unit_retries`` the failure counts as a retry and True tells the
    caller to requeue the unit; past the budget the unit is quarantined
    into ``outcome.quarantined`` with *detail* (the traceback, or the
    cause of the worker death charged to it) and False is returned.
    *worker_id* is None for in-process execution.
    """
    if config.strict_faults:
        where = "in-process" if worker_id is None else f"on worker {worker_id}"
        raise WorkerFault(
            f"unit {unit.uid} failed {where}",
            worker_id=worker_id,
            unit_uid=unit.uid,
            worker_traceback=detail,
        )
    if tracker.record_failure(unit):
        outcome.retries += 1
        return True
    outcome.quarantined.append(
        QuarantinedUnit(unit, detail, tracker.attempts(unit), worker_id)
    )
    return False


def execute_in_process(
    outcome: ParallelOutcome,
    units,
    context,
    engine,
    config: RuntimeConfig,
    tracker: RetryTracker,
    goal_check=None,
    refill: Optional[Callable[[], List[WorkUnit]]] = None,
) -> None:
    """Run units coordinator-side, directly against the master engine.

    *units* run first; once they are used up, *refill* (when given) hands
    over the next batch, until it returns none or the run terminates.
    Execution goes through the same :func:`~repro.parallel.units.execute_unit`
    path the workers use, so no broadcast or settlement is needed.
    Poisoned-unit injection and :func:`fail_unit` apply (a retried unit
    goes to the back of the local queue); worker events do not, as there
    is no worker to fail. Splits jump the local queue's front.
    """
    plan = config.fault_plan
    eq = engine.eq
    pending = deque(units)
    while not outcome.terminated_early:
        if not pending and refill is not None:
            pending.extend(refill())
        if not pending:
            return
        unit = pending.popleft()
        try:
            inject_faults(plan, None, unit, 0)
            result = execute_unit(
                unit,
                context,
                engine,
                ttl_ticks=config.ttl_ticks,
                max_split_units=config.max_split_units,
                goal_check=goal_check,
            )
        except Exception:
            if fail_unit(outcome, tracker, config, unit, traceback.format_exc()):
                pending.append(unit)
            continue
        absorb_result(outcome, result)
        if result.conflict or eq.has_conflict():
            outcome.conflict = eq.conflict
        elif result.goal_reached or (goal_check is not None and goal_check(eq)):
            outcome.goal_reached = True
        else:
            register_splits(
                outcome, result, lambda splits: pending.extendleft(reversed(splits))
            )


def drain_in_process(
    outcome: ParallelOutcome,
    scheduler,
    context,
    engine,
    config: RuntimeConfig,
    goal_check=None,
    tracker=None,
    extra_units: Optional[List[WorkUnit]] = None,
) -> None:
    """Graceful degradation: finish the remaining queue coordinator-side.

    When a backend's worker pool collapses below
    ``config.min_live_workers``, the remaining units (plus any
    *extra_units* recovered from dead workers) run through
    :func:`execute_in_process` and the outcome is marked ``degraded``.
    The retry/quarantine accounting continues on *tracker* when the
    backend passes its own.
    """
    outcome.degraded = True
    if tracker is None:
        tracker = RetryTracker(config.max_unit_retries)
    execute_in_process(
        outcome,
        extra_units or (),
        context,
        engine,
        config,
        tracker,
        goal_check=goal_check,
        refill=lambda: scheduler.next_batch(0) if len(scheduler) else [],
    )
