"""Virtual-clock backend: ``p`` simulated workers, exact verdicts.

Reproduces the coordinator/worker protocol under a discrete-event clock.
Work units are really executed (so all verdicts are exact); the clock
charges each unit the operations it actually performed, priced by the
:class:`~repro.parallel.config.CostModel`. The simulation executes units
in dispatch order against a shared ``Eq`` (instantaneous broadcast);
because ``Eq`` grows monotonically and the algorithms are Church-Rosser,
the *verdict* is identical to any real interleaving — only second-order
timing effects are approximated. This is the documented substitution for
the paper's 20-machine Java cluster in the scalability figures.

Supervision (see :mod:`.base`): fault events resolve deterministically
against the virtual dispatch order, which makes this backend the place to
*unit-test* supervision logic without wall-clock machinery. ``crash`` and
``hang`` remove the virtual worker from the ready heap before it touches
its batch (its units rebury and its locality keys re-pin); ``slow``
charges the stall to the virtual clock; ``error`` events and poisoned
units raise through the shared injection helper
(:func:`~repro.parallel.faults.inject_faults`) and meet the shared failure
rule (:func:`~repro.parallel.coordinator.fail_unit`). When every
virtual worker has died with work remaining, the coordinator drains the
queue in-process (``degraded``) — the degraded units run outside the
clock, mirroring the process backend whose degraded execution is not a
parallel computation either. The virtual-clock loop is this backend's
own: a virtual worker has no pipe to wait on or deadline to miss, so the
process backend's wall-clock supervisor has nothing to supervise here.
"""

from __future__ import annotations

import heapq
import time
import traceback
from typing import Optional, Sequence

from ...errors import WorkerFault
from ...reasoning.enforce import EnforcementEngine
from ...reasoning.workunits import WorkUnit
from ..coordinator import (
    ParallelOutcome,
    absorb_result,
    drain_in_process,
    fail_unit,
    register_splits,
    unit_duration,
)
from ..faults import RetryTracker, inject_faults
from ..scheduler import Scheduler
from ..units import UnitContext, execute_unit
from .base import Backend, GoalCheck


class SimulatedBackend(Backend):
    """Coordinator + ``p`` simulated workers under a virtual clock."""

    name = "simulated"

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
        scheduler = Scheduler(units, config, context)
        # Broadcast accounting: although the simulated workers share one
        # Eq (instantaneous visibility), each dispatch *models* shipping
        # the worker the ops it has not seen, priced by the cost model —
        # the same per-sync bookkeeping the process backend pays for real.
        synced = [eq.log_position()] * config.workers
        # (next-free virtual time, worker id); heap gives dynamic assignment
        # to the earliest available worker.
        free = [(0.0, worker_id) for worker_id in range(config.workers)]
        heapq.heapify(free)
        makespan = 0.0
        ttl_ticks = config.ttl_ticks
        terminated = False
        tracker = RetryTracker(config.max_unit_retries)
        batch_counters = [0] * config.workers
        while len(scheduler) and not terminated:
            if not free:
                break  # every virtual worker died; degrade below
            now, worker_id = heapq.heappop(free)
            # One coordinator round-trip hands the worker a small batch
            # (paper, Section V-B); the batch pays one dispatch overhead
            # plus the broadcast of the ΔEq ops this worker has not seen.
            batch = scheduler.next_batch(worker_id)
            event = self.fault_event(worker_id, batch_counters[worker_id])
            batch_counters[worker_id] += 1
            if event is not None and event.kind in ("crash", "hang"):
                # The virtual replica dies before touching its batch: the
                # units rebury, the worker's keys re-pin, and the worker
                # never returns to the ready heap. (A hung virtual worker
                # is indistinguishable from a crashed one — the simulated
                # coordinator's deadline is "immediately".)
                scheduler.requeue(batch)
                scheduler.worker_died(worker_id)
                outcome.worker_deaths += 1
                if config.strict_faults:
                    raise WorkerFault(
                        f"simulated worker {worker_id} died (injected {event.kind})",
                        worker_id=worker_id,
                    )
                continue
            shipped = eq.log_position() - synced[worker_id]
            outcome.broadcast_volume += shipped
            outcome.sync_rounds += 1
            executed = 0
            # The clock charges the round trip itself; shipped-op volume is
            # *recorded* (broadcast_volume) but not re-priced — each op's
            # broadcast already costs broadcast_per_op once, inside
            # unit_duration, exactly as before the scheduler existed.
            elapsed = config.costs.batch_overhead * config.costs.tick_seconds
            if event is not None and event.kind == "slow":
                # A slow replica stalls on the virtual clock, not the wall.
                elapsed += event.stall_seconds
            for position, unit in enumerate(batch):
                unit_start = now + elapsed
                try:
                    inject_faults(config.fault_plan, event, unit, position)
                    result = execute_unit(
                        unit,
                        context,
                        engine,
                        ttl_ticks=ttl_ticks,
                        max_split_units=config.max_split_units,
                        goal_check=goal_check,
                    )
                except Exception:
                    detail = traceback.format_exc()
                    if fail_unit(outcome, tracker, config, unit, detail, worker_id):
                        scheduler.requeue([unit])
                    continue
                elapsed += unit_duration(result, config) * config.costs.tick_seconds
                executed += 1
                if trace is not None:
                    from ..tracing import TraceEvent

                    trace.record(
                        TraceEvent(
                            worker=worker_id,
                            unit=unit,
                            start=unit_start,
                            finish=now + elapsed,
                            matches=result.matches,
                            match_ticks=result.match_ticks,
                            splits=len(result.splits),
                            conflict=result.conflict,
                            goal_reached=result.goal_reached,
                        )
                    )
                absorb_result(outcome, result)
                if result.conflict:
                    outcome.conflict = engine.eq.conflict
                    terminated = True
                elif result.goal_reached:
                    outcome.goal_reached = True
                    terminated = True
                else:
                    register_splits(outcome, result, scheduler.requeue)
                if terminated:
                    break
            # The worker's reply ships back the ops this batch appended.
            produced = eq.log_position() - synced[worker_id] - shipped
            outcome.broadcast_volume += produced
            synced[worker_id] = eq.log_position()
            scheduler.observe(worker_id, executed, shipped + produced, elapsed)
            finish = now + elapsed
            outcome.worker_busy[worker_id] += elapsed
            if terminated:
                makespan = finish
                break
            makespan = max(makespan, finish)
            heapq.heappush(free, (finish, worker_id))
        if not terminated and len(scheduler):
            # Pool collapse (all virtual workers crashed): finish the
            # queue in-process. The shared Eq kept every parked match, so
            # only the queued units need to run; the degraded work is
            # unpriced on the virtual clock by design.
            drain_in_process(
                outcome,
                scheduler,
                context,
                engine,
                config,
                goal_check=goal_check,
                tracker=tracker,
            )
        scheduler.export_stats(outcome)
        outcome.virtual_seconds = makespan
        outcome.wall_seconds = time.perf_counter() - started
        return outcome
