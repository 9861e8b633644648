"""Supervision layer: crash, hang, retry/quarantine, respawn, degradation.

Every scenario injects failures through a deterministic
:class:`~repro.parallel.faults.FaultPlan` and asserts the run still
reaches the *same verdict* as the clean sequential algorithms — the
supervision contract is that faults cost time, never correctness (except
quarantine, which deliberately drops work and therefore only appears in
satisfiable scenarios here, where dropping units cannot flip the
verdict).
"""

from __future__ import annotations

import pickle

import pytest

from repro import parse_gfds
from repro.errors import RuntimeConfigError, WorkerFault, WorkerPoolError
from repro.gfd.generator import delta_hub_workload, random_gfds
from repro.parallel import (
    FaultEvent,
    FaultPlan,
    InjectedFault,
    RetryTracker,
    RuntimeConfig,
    available_backends,
    par_imp,
    par_sat,
)
from repro.parallel.config import BATCH_TIMEOUT_FACTOR, BATCH_TIMEOUT_FLOOR
from repro.reasoning.seqimp import seq_imp
from repro.reasoning.seqsat import seq_sat
from repro.reasoning.workunits import WorkUnit

ALL_BACKENDS = available_backends()

#: Short wall deadlines so hang scenarios resolve in test time.
FAST_TIMEOUT = dict(batch_timeout_seconds=1.0, respawn_backoff_seconds=0.01)


def _delta_hub():
    return delta_hub_workload(
        num_hubs=3, spokes_per_hub=6, num_writers=4, num_pairers=2,
        num_background=6, seed=7,
    )


# ----------------------------------------------------------------------
# The fault-injection module itself
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_event_lookup_by_slot(self):
        plan = FaultPlan.make(
            [FaultEvent("crash", 1, 2), FaultEvent("slow", 0, 0, seconds=0.5)]
        )
        assert plan.event_at(1, 2).kind == "crash"
        assert plan.event_at(0, 0).stall_seconds == 0.5
        assert plan.event_at(0, 1) is None
        assert bool(plan)
        assert not bool(FaultPlan.make())

    def test_duplicate_slot_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.make([FaultEvent("crash", 0, 0), FaultEvent("hang", 0, 0)])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("explode", 0, 0)

    def test_poison_by_uid_and_gfd_name(self):
        unit = WorkUnit.make("phi7", {"x": 1})
        by_uid = FaultPlan.make(poisoned=[unit.uid])
        by_name = FaultPlan.make(poisoned=["phi7"])
        clean = FaultPlan.make(poisoned=["phi8"])
        assert by_uid.poisons(unit) and by_name.poisons(unit)
        assert not clean.poisons(unit)
        with pytest.raises(InjectedFault):
            by_name.check_unit(unit)
        clean.check_unit(unit)  # no raise

    def test_pickle_round_trip_rebuilds_slot_index(self):
        plan = FaultPlan.make([FaultEvent("hang", 2, 1)], poisoned=["phi1"])
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.event_at(2, 1).kind == "hang"
        assert clone.poisons(WorkUnit.make("phi1", {"x": 1}))

    def test_random_plan_is_seeded_and_recoverable(self):
        one = FaultPlan.random(seed=11, workers=4, events=3)
        two = FaultPlan.random(seed=11, workers=4, events=3)
        other = FaultPlan.random(seed=12, workers=4, events=3)
        assert one == two
        assert one != other
        assert len(one.events) == 3
        assert not one.poisoned
        assert all(e.kind in ("crash", "error", "slow") for e in one.events)

    def test_retry_tracker_budget(self):
        unit = WorkUnit.make("phi7", {"x": 1})
        tracker = RetryTracker(max_retries=2)
        assert tracker.record_failure(unit)   # attempt 1 -> retry
        assert tracker.record_failure(unit)   # attempt 2 -> retry
        assert not tracker.record_failure(unit)  # attempt 3 -> quarantine
        assert tracker.attempts(unit) == 3
        assert tracker.total_failures == 3


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_unit_retries=-1),
            dict(batch_timeout_seconds=0.0),
            dict(max_worker_respawns=-1),
            dict(respawn_backoff_seconds=-0.1),
            dict(min_live_workers=-1),
            dict(min_live_workers=3),  # exceeds workers=2
            dict(batch_timeout_seconds=-1.0),
            dict(start_method="thread"),  # not a multiprocessing method
        ],
    )
    def test_bad_supervision_knobs_rejected(self, kwargs):
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(workers=2, **kwargs)

    def test_batch_deadline(self):
        config = RuntimeConfig(workers=2)
        # No history: the floor holds.
        assert config.batch_deadline() == BATCH_TIMEOUT_FLOOR == 30.0
        # History: factor x slowest observed round trip, once past the floor.
        slow = BATCH_TIMEOUT_FLOOR
        assert config.batch_deadline(slow) == BATCH_TIMEOUT_FACTOR * slow
        assert BATCH_TIMEOUT_FACTOR == 8.0
        # An explicit timeout wins over the adaptive rule.
        fixed = RuntimeConfig(workers=2, batch_timeout_seconds=1.5)
        assert fixed.batch_deadline(1000.0) == 1.5

    def test_typed_pool_error_attributes(self):
        err = WorkerPoolError("collapsed", live_workers=1, dead_workers=3)
        assert err.live_workers == 1 and err.dead_workers == 3
        err2 = WorkerFault("boom", worker_id=2, unit_uid="u", worker_traceback="tb")
        assert (err2.worker_id, err2.unit_uid, err2.worker_traceback) == (2, "u", "tb")


# ----------------------------------------------------------------------
# Crash / hang / respawn on the process backend (real OS processes)
# ----------------------------------------------------------------------
class TestProcessSupervision:
    def test_crash_mid_batch_preserves_verdict(self):
        sigma = _delta_hub()
        expected = seq_sat(sigma).satisfiable
        # Batch 0: the first dispatch pass hands every worker a batch when
        # there are at least as many units as workers, so the crash fires
        # whatever the unit count; a later batch index depends on timing.
        config = RuntimeConfig(
            workers=4,
            fault_plan=FaultPlan.single("crash", worker_id=1, batch_index=0),
            **FAST_TIMEOUT,
        )
        result = par_sat(sigma, config, backend="process")
        assert result.satisfiable == expected
        assert result.outcome.worker_deaths >= 1
        assert not result.outcome.quarantined

    def test_hang_past_deadline_is_killed(self):
        sigma = _delta_hub()
        expected = seq_sat(sigma).satisfiable
        config = RuntimeConfig(
            workers=4,
            fault_plan=FaultPlan.single("hang", worker_id=0, batch_index=0),
            **FAST_TIMEOUT,
        )
        result = par_sat(sigma, config, backend="process")
        assert result.satisfiable == expected
        assert result.outcome.worker_deaths >= 1
        # The hung worker sleeps for an hour; only hang detection can have
        # ended the run this fast.
        assert result.outcome.wall_seconds < 60.0

    def test_respawn_then_converge(self):
        sigma = _delta_hub()
        expected = seq_sat(sigma).satisfiable
        # No backoff: the respawn is due at the dispatch loop's next pass,
        # before the run can end, instead of racing the survivors to the
        # end of the queue.
        config = RuntimeConfig(
            workers=4,
            max_worker_respawns=2,
            fault_plan=FaultPlan.single("crash", worker_id=2, batch_index=0),
            **dict(FAST_TIMEOUT, respawn_backoff_seconds=0.0),
        )
        result = par_sat(sigma, config, backend="process")
        assert result.satisfiable == expected
        assert result.outcome.respawns >= 1
        assert result.outcome.worker_deaths >= 1

    @pytest.mark.parametrize("fragments", [None, 2])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_sole_worker_respawns_instead_of_degrading(self, start_method, fragments):
        """With workers=1 a crash empties the pool; the pending respawn's
        backoff must be waited out (not slept inline in bury) and the
        revived replica — not the degradation path — finishes the run.
        Every launch payload respawns: fork state, a whole-graph snapshot,
        and the fragment kit."""
        import multiprocessing as mp

        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        sigma = _delta_hub()
        expected = seq_sat(sigma).satisfiable
        config = RuntimeConfig(
            workers=1,
            max_worker_respawns=1,
            fault_plan=FaultPlan.single("crash", worker_id=0, batch_index=0),
            start_method=start_method,
            fragments=fragments,
            **FAST_TIMEOUT,
        )
        result = par_sat(sigma, config, backend="process")
        assert result.satisfiable == expected
        assert result.outcome.respawns == 1
        assert result.outcome.worker_deaths == 1
        assert not result.outcome.degraded
        if fragments is not None:
            # The crash took the shipped replicas with it: the respawned
            # worker starts from the bare kit and receives them again.
            assert result.outcome.fragments_shipped > fragments

    def test_worker_error_event_retries_not_aborts(self):
        sigma = _delta_hub()
        expected = seq_sat(sigma).satisfiable
        config = RuntimeConfig(
            workers=3,
            fault_plan=FaultPlan.single("error", worker_id=0, batch_index=0),
            **FAST_TIMEOUT,
        )
        result = par_sat(sigma, config, backend="process")
        assert result.satisfiable == expected
        # The injected error is transient (fires once), so the unit's
        # retry succeeds and nothing is quarantined.
        assert result.outcome.retries >= 1
        assert not result.outcome.quarantined

    def test_degradation_when_pool_collapses(self):
        sigma = _delta_hub()
        expected = seq_sat(sigma).satisfiable
        config = RuntimeConfig(
            workers=2,
            max_worker_respawns=0,
            fault_plan=FaultPlan.make(
                [FaultEvent("crash", 0, 0), FaultEvent("crash", 1, 0)]
            ),
            **FAST_TIMEOUT,
        )
        result = par_sat(sigma, config, backend="process")
        assert result.satisfiable == expected
        assert result.outcome.degraded
        assert result.outcome.worker_deaths == 2

    def test_degradation_below_min_live_workers(self):
        sigma = _delta_hub()
        expected = seq_sat(sigma).satisfiable
        config = RuntimeConfig(
            workers=2,
            min_live_workers=2,
            max_worker_respawns=0,
            fault_plan=FaultPlan.single("crash", worker_id=1, batch_index=0),
            **FAST_TIMEOUT,
        )
        result = par_sat(sigma, config, backend="process")
        assert result.satisfiable == expected
        assert result.outcome.degraded
        assert result.outcome.worker_deaths == 1

    def test_strict_faults_raises_typed_error(self):
        sigma = _delta_hub()
        config = RuntimeConfig(
            workers=3,
            strict_faults=True,
            fault_plan=FaultPlan.single("crash", worker_id=0, batch_index=0),
            **FAST_TIMEOUT,
        )
        with pytest.raises(WorkerFault):
            par_sat(sigma, config, backend="process")


# ----------------------------------------------------------------------
# The coordinator-side pass of fragmented process runs
# ----------------------------------------------------------------------
#: g2's pattern is disconnected, so no fragment can serve its units: they
#: run coordinator-side. The clash g3/g4 needs g2's consequent.
COORDINATOR_SIDE_RULES = """
gfd g1 { x: a; y: b; x -[e]-> y; then x.A = 1; }
gfd g2 { x: a; z: c; when x.A = 1; then z.B = 2; }
gfd g3 { y: b; z: c; y -[f]-> z; when z.B = 2; then y.C = 3; }
gfd g4 { y: b; then y.C = 4; }
"""


class TestCoordinatorSideUnits:
    def test_verdict_matches_seq_sat(self):
        sigma = parse_gfds(COORDINATOR_SIDE_RULES)
        config = RuntimeConfig(workers=2, fragments=2, **FAST_TIMEOUT)
        result = par_sat(sigma, config, backend="process")
        assert result.satisfiable == seq_sat(sigma).satisfiable
        assert result.outcome.coordinator_units > 0
        assert not result.outcome.quarantined

    def test_poisoned_unit_is_quarantined_coordinator_side(self):
        sigma = parse_gfds(COORDINATOR_SIDE_RULES)
        config = RuntimeConfig(
            workers=2,
            fragments=2,
            fault_plan=FaultPlan.make(poisoned=["g2"]),
            **FAST_TIMEOUT,
        )
        outcome = par_sat(sigma, config, backend="process").outcome
        assert outcome.quarantined
        assert outcome.coordinator_units == 0
        for boxed in outcome.quarantined:
            assert boxed.unit.gfd_name == "g2"
            assert boxed.attempts == config.max_unit_retries + 1
            assert boxed.worker_id is None  # never left the coordinator
            assert "InjectedFault" in boxed.error
        assert outcome.retries == len(outcome.quarantined) * config.max_unit_retries


# ----------------------------------------------------------------------
# Retry / quarantine on every backend
# ----------------------------------------------------------------------
class TestQuarantine:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_poisoned_unit_is_quarantined_with_traceback(self, backend):
        sigma = _delta_hub()
        assert seq_sat(sigma).satisfiable  # dropping units cannot flip SAT
        config = RuntimeConfig(
            workers=3,
            max_unit_retries=1,
            fault_plan=FaultPlan.make(poisoned=["bg0"]),
            **FAST_TIMEOUT,
        )
        result = par_sat(sigma, config, backend=backend)
        assert result.satisfiable
        outcome = result.outcome
        assert len(outcome.quarantined) == 1, backend
        boxed = outcome.quarantined[0]
        assert boxed.unit.gfd_name == "bg0"
        assert boxed.attempts == config.max_unit_retries + 1
        assert "InjectedFault" in boxed.error  # the worker-side traceback
        assert outcome.retries >= config.max_unit_retries

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_strict_faults_poison_raises(self, backend):
        sigma = _delta_hub()
        config = RuntimeConfig(
            workers=3,
            strict_faults=True,
            fault_plan=FaultPlan.make(poisoned=["bg0"]),
            **FAST_TIMEOUT,
        )
        with pytest.raises(WorkerFault):
            par_sat(sigma, config, backend=backend)


# ----------------------------------------------------------------------
# Crash/degradation on the simulated backend
# ----------------------------------------------------------------------
class TestInProcessBackendSupervision:
    @pytest.mark.parametrize("backend", ["simulated"])
    def test_single_crash_survivors_finish(self, backend):
        sigma = _delta_hub()
        expected = seq_sat(sigma).satisfiable
        config = RuntimeConfig(
            workers=3,
            fault_plan=FaultPlan.single("crash", worker_id=1, batch_index=0),
        )
        result = par_sat(sigma, config, backend=backend)
        assert result.satisfiable == expected
        assert result.outcome.worker_deaths == 1
        assert not result.outcome.degraded

    @pytest.mark.parametrize("backend", ["simulated"])
    def test_all_workers_dead_degrades(self, backend):
        sigma = _delta_hub()
        expected = seq_sat(sigma).satisfiable
        config = RuntimeConfig(
            workers=2,
            fault_plan=FaultPlan.make(
                [FaultEvent("crash", 0, 0), FaultEvent("hang", 1, 0)]
            ),
        )
        result = par_sat(sigma, config, backend=backend)
        assert result.satisfiable == expected
        assert result.outcome.degraded
        assert result.outcome.worker_deaths == 2
        assert result.outcome.units_executed > 0

    @pytest.mark.parametrize("backend", ["simulated"])
    def test_strict_faults_raises(self, backend):
        sigma = _delta_hub()
        config = RuntimeConfig(
            workers=2,
            strict_faults=True,
            fault_plan=FaultPlan.single("crash", worker_id=0, batch_index=0),
        )
        with pytest.raises(WorkerFault):
            par_sat(sigma, config, backend=backend)

    def test_slow_event_charges_virtual_clock(self):
        sigma = random_gfds(10, 4, 3, seed=3)
        clean = par_sat(sigma, RuntimeConfig(workers=2), backend="simulated")
        slowed = par_sat(
            sigma,
            RuntimeConfig(
                workers=2,
                fault_plan=FaultPlan.single("slow", worker_id=0, batch_index=0, seconds=5.0),
            ),
            backend="simulated",
        )
        assert slowed.satisfiable == clean.satisfiable
        # The stalled worker holds the makespan at >= its 5s stall (its
        # peers absorb the queue meanwhile, so the clean makespan does
        # not simply add on top).
        assert slowed.virtual_seconds >= 5.0 > clean.virtual_seconds


# ----------------------------------------------------------------------
# The ISSUE's acceptance scenario: kill 1 of 4 + poison one unit
# ----------------------------------------------------------------------
class TestAcceptanceScenario:
    PLAN = FaultPlan.make(
        [FaultEvent("crash", 1, 2)],  # kill 1 of 4 workers mid-run
        poisoned=["bg0"],             # and poison one unit
    )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_par_sat_delta_hub(self, backend):
        sigma = _delta_hub()
        expected = seq_sat(sigma).satisfiable
        config = RuntimeConfig(workers=4, fault_plan=self.PLAN, **FAST_TIMEOUT)
        result = par_sat(sigma, config, backend=backend)
        assert result.satisfiable == expected, backend
        assert len(result.outcome.quarantined) == 1
        assert result.outcome.quarantined[0].unit.gfd_name == "bg0"

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_par_imp_under_faults(self, backend):
        sigma = random_gfds(10, 4, 3, seed=5)
        phi = sigma[-1]
        rest = [gfd for gfd in sigma if gfd.name != phi.name]
        expected = seq_imp(rest, phi).implied
        config = RuntimeConfig(
            workers=4,
            fault_plan=FaultPlan.single("crash", worker_id=0, batch_index=0),
            **FAST_TIMEOUT,
        )
        result = par_imp(rest, phi, config, backend=backend)
        assert result.implied == expected, backend
