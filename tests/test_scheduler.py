"""Scheduler: pivot-affinity routing, adaptive batching, worker death."""

from __future__ import annotations

import threading
import time

import pytest

from repro.eq.eqrelation import EqRelation
from repro.gfd.canonical import build_canonical_graph
from repro.gfd.generator import delta_hub_workload
from repro.graph.graph import PropertyGraph
from repro.parallel import (
    ProcessBackend,
    RuntimeConfig,
    Scheduler,
    UnitContext,
    par_sat,
)
from repro.parallel.scheduler import (
    BATCH_DELTA_BUDGET,
    BATCH_TARGET_SECONDS,
    MAX_BATCH_SIZE,
)
from repro.reasoning.enforce import EnforcementEngine
from repro.reasoning.workunits import WorkUnit, generate_work_units


def hub_graph(num_hubs: int = 2, spokes: int = 3) -> PropertyGraph:
    """``num_hubs`` stars: spokes point at their hub center."""
    graph = PropertyGraph()
    for hub in range(num_hubs):
        center = f"hub{hub}"
        graph.add_node("hubc", node_id=center)
        for spoke in range(spokes):
            node = f"s{hub}_{spoke}"
            graph.add_node("spoke", node_id=node)
            graph.add_edge(node, center, "e")
    return graph


def hub_context(num_hubs: int = 2, spokes: int = 3) -> UnitContext:
    return UnitContext(hub_graph(num_hubs, spokes), {})


def spoke_unit(hub: int, spoke: int) -> WorkUnit:
    return WorkUnit.make("phi", {"x": f"s{hub}_{spoke}"}, radius=1)


class TestLocalityKey:
    def test_spokes_share_their_hub_key(self):
        context = hub_context()
        keys = {context.locality_key(spoke_unit(0, s)) for s in range(3)}
        assert keys == {"hub0"}
        assert context.locality_key(spoke_unit(1, 0)) == "hub1"

    def test_hub_is_its_own_key(self):
        context = hub_context()
        unit = WorkUnit.make("phi", {"x": "hub0"}, radius=1)
        assert context.locality_key(unit) == "hub0"

    def test_isolated_pivot_keys_to_itself(self):
        graph = hub_graph()
        graph.add_node("spoke", node_id="loner")
        context = UnitContext(graph, {})
        unit = WorkUnit.make("phi", {"x": "loner"})
        assert context.locality_key(unit) == "loner"

    def test_pivotless_unit_has_no_key(self):
        context = hub_context()
        assert context.locality_key(WorkUnit("phi", ())) is None

    def test_key_cache_invalidated_by_topology_change(self):
        context = hub_context()
        assert context.locality_key(spoke_unit(0, 0)) == "hub0"
        # Growing a spoke into a bigger hub than the original center must
        # re-derive the key after the mutation is noticed.
        graph = context.graph
        for extra in range(8):
            node = f"x{extra}"
            graph.add_node("spoke", node_id=node)
            graph.add_edge(node, "s0_0", "e")
        assert context.locality_key(spoke_unit(0, 1)) == "hub0"
        assert context.locality_key(spoke_unit(0, 0)) == "s0_0"


class TestAffinityRouting:
    def test_same_key_lands_on_same_worker(self):
        context = hub_context()
        units = [spoke_unit(h, s) for h in range(2) for s in range(3)]
        scheduler = Scheduler(units, RuntimeConfig(workers=2, batch_size=3), context)
        batch0 = scheduler.next_batch(0)
        batch1 = scheduler.next_batch(1)
        # Each worker's first batch comes purely from its own pinned
        # queue: one hub's unit group each.
        assert {u.pivot_node()[:2] for u in batch0} == {"s0"}
        assert {u.pivot_node()[:2] for u in batch1} == {"s1"}
        rest = list(batch0 + batch1)
        while len(scheduler):
            rest.extend(scheduler.next_batch(0))
            rest.extend(scheduler.next_batch(1))
        assert {u.pivot_node() for u in rest} == {u.pivot_node() for u in units}
        assert scheduler.affinity_hits >= 5

    def test_stealing_keeps_workers_busy(self):
        context = hub_context(num_hubs=1, spokes=4)
        units = [spoke_unit(0, s) for s in range(4)]
        # All four units pin to one worker at enqueue time, so the other
        # worker must steal to stay busy.
        config = RuntimeConfig(workers=2, batch_size=2)
        scheduler = Scheduler(units, config, context)
        got = []
        for wid in (0, 1, 1, 0):
            got.extend(scheduler.next_batch(wid))
        assert len(got) == 4
        assert len(scheduler) == 0
        assert scheduler.affinity_misses > 0

    def test_fair_share_caps_batches(self):
        context = hub_context(num_hubs=1, spokes=4)
        units = [spoke_unit(0, s) for s in range(4)]
        scheduler = Scheduler(units, RuntimeConfig(workers=4, batch_size=6), context)
        # 4 units over 4 alive workers: nobody may take more than 1.
        assert len(scheduler.next_batch(0)) == 1

    def test_bare_scheduler_routes_fifo_under_fair_share_cap(self):
        units = [spoke_unit(0, s) for s in range(4)]
        # No context: nothing pins, but the affinity switch still trims
        # each batch to the worker's share of the remaining queue.
        scheduler = Scheduler(units, RuntimeConfig(workers=2, batch_size=6), None)
        assert not scheduler.affinity
        assert scheduler.next_batch(0) == units[:2]
        assert scheduler.next_batch(1) == units[2:3]
        assert scheduler.affinity_hits == scheduler.affinity_misses == 0
        config = RuntimeConfig(workers=2, batch_size=6, affinity=False)
        assert Scheduler(units, config, None).next_batch(0) == units

    def test_ablation_is_plain_fifo(self):
        context = hub_context()
        units = [spoke_unit(h, s) for h in range(2) for s in range(3)]
        config = RuntimeConfig(workers=2, batch_size=4).without_affinity()
        scheduler = Scheduler(units, config, context)
        batch = scheduler.next_batch(0)
        assert batch == units[:4]
        assert scheduler.affinity_hits == scheduler.affinity_misses == 0

    def test_splits_jump_every_queue(self):
        context = hub_context()
        units = [spoke_unit(0, s) for s in range(3)]
        scheduler = Scheduler(units, RuntimeConfig(workers=1, batch_size=2), context)
        splits = [
            WorkUnit.make("phi", {"x": "s1_0", "y": "s1_1"}, radius=1, generation=1),
            WorkUnit.make("phi", {"x": "s1_0", "y": "s1_2"}, radius=1, generation=1),
        ]
        scheduler.requeue(splits)
        assert scheduler.next_batch(0) == splits


class TestAdaptiveBatching:
    def test_grows_on_cheap_round_trips(self):
        config = RuntimeConfig(workers=1, batch_size=4)
        scheduler = Scheduler([], config, None)
        scheduler.observe(0, executed=4, delta_ops=0, seconds=0.01)
        assert scheduler.batch_size(0) == 8
        scheduler.observe(0, executed=8, delta_ops=0, seconds=0.01)
        assert scheduler.batch_size(0) == 16

    def test_growth_capped(self):
        config = RuntimeConfig(workers=1, batch_size=4)
        scheduler = Scheduler([], config, None)
        for _ in range(5):
            scheduler.observe(0, executed=64, delta_ops=0, seconds=0.01)
        assert scheduler.batch_size(0) == MAX_BATCH_SIZE == 32

    def test_cap_never_below_initial_batch_size(self):
        config = RuntimeConfig(workers=1, batch_size=48)
        scheduler = Scheduler([], config, None)
        scheduler.observe(0, executed=48, delta_ops=0, seconds=0.01)
        assert scheduler.batch_size(0) == 48
        assert scheduler.batch_adaptations == 0

    def test_initial_size_above_cap_bounds_regrowth(self):
        config = RuntimeConfig(workers=1, batch_size=48)
        scheduler = Scheduler([], config, None)
        scheduler.observe(0, executed=48, delta_ops=BATCH_DELTA_BUDGET + 1, seconds=0.01)
        assert scheduler.batch_size(0) == 24
        for _ in range(3):
            scheduler.observe(0, executed=48, delta_ops=0, seconds=0.01)
        # Regrowth stops at the configured size, not at MAX_BATCH_SIZE
        # and not at twice the configured size.
        assert scheduler.batch_size(0) == 48 > MAX_BATCH_SIZE
        assert scheduler.batch_adaptations == 2

    def test_shrinks_on_heavy_delta_payload(self):
        config = RuntimeConfig(workers=1, batch_size=8)
        scheduler = Scheduler([], config, None)
        scheduler.observe(0, executed=8, delta_ops=BATCH_DELTA_BUDGET, seconds=0.01)
        assert scheduler.batch_size(0) == 8
        scheduler.observe(0, executed=8, delta_ops=BATCH_DELTA_BUDGET + 1, seconds=0.01)
        assert scheduler.batch_size(0) == 4
        assert BATCH_DELTA_BUDGET == 64

    def test_shrinks_on_slow_round_trip(self):
        config = RuntimeConfig(workers=1, batch_size=8)
        scheduler = Scheduler([], config, None)
        scheduler.observe(0, executed=8, delta_ops=0, seconds=BATCH_TARGET_SECONDS)
        assert scheduler.batch_size(0) == 8
        scheduler.observe(0, executed=8, delta_ops=0, seconds=0.26)
        assert scheduler.batch_size(0) == 4
        assert BATCH_TARGET_SECONDS == 0.25

    def test_starved_batch_does_not_grow(self):
        config = RuntimeConfig(workers=1, batch_size=8)
        scheduler = Scheduler([], config, None)
        scheduler.observe(0, executed=2, delta_ops=0, seconds=0.01)
        assert scheduler.batch_size(0) == 8

    def test_ablation_keeps_fixed_size(self):
        config = RuntimeConfig(workers=1, batch_size=6).without_affinity()
        scheduler = Scheduler([], config, None)
        scheduler.observe(0, executed=6, delta_ops=0, seconds=0.001)
        assert scheduler.batch_size(0) == 6


class TestWorkerDeath:
    def make(self, workers=3):
        context = hub_context(num_hubs=3, spokes=4)
        units = [spoke_unit(h, s) for h in range(3) for s in range(4)]
        scheduler = Scheduler(units, RuntimeConfig(workers=workers, batch_size=4), context)
        return scheduler, units

    def test_orphans_reassigned_to_survivors(self):
        scheduler, units = self.make()
        scheduler.worker_died(0)
        drained = []
        while len(scheduler):
            for wid in (1, 2):
                drained.extend(scheduler.next_batch(wid))
        assert sorted(u.uid for u in drained) == sorted(u.uid for u in units)
        assert scheduler.reassigned_units > 0

    def test_dead_worker_keys_repinned(self):
        scheduler, _ = self.make()
        scheduler.worker_died(0)
        late = spoke_unit(0, 0)  # key previously owned by any worker
        scheduler._enqueue(late)
        # Every queued unit must be reachable through the survivors alone.
        remaining = len(scheduler)
        drained = []
        for _ in range(remaining):
            for wid in (1, 2):
                drained.extend(scheduler.next_batch(wid))
            if len(drained) >= remaining:
                break
        assert len(drained) == remaining
        assert not scheduler._local[0]

    def test_all_dead_parks_units(self):
        scheduler, units = self.make(workers=2)
        scheduler.worker_died(0)
        scheduler.worker_died(1)
        assert len(scheduler) == len(units)


class TestProcessWorkerDeathUnderAffinity:
    """The satellite: a killed worker's pinned units must land on another
    replica, with stable-uid reconciliation intact."""

    def _setup(self, sigma, workers, persistent=True):
        canonical = build_canonical_graph(sigma)
        context = UnitContext(canonical.graph, dict(canonical.gfds))
        engine = EnforcementEngine(EqRelation(), dict(context.gfds))
        units = generate_work_units(sigma, canonical.graph)
        config = RuntimeConfig(
            workers=workers, persistent_workers=persistent, batch_size=2
        )
        assert config.affinity  # the default: this test runs WITH routing
        return ProcessBackend(config), context, engine, units

    def test_killed_replica_is_replaced(self, example8_sigma):
        backend, context, engine, units = self._setup(example8_sigma, workers=3)
        try:
            outcome = backend.run(units, context, engine)
            assert outcome.conflict is None
            # Kill one standing replica between runs: the refresh must
            # detect it, count it, and route the next run over a whole
            # pool rather than a short-handed one.
            victim = backend._pool["slots"][0].proc
            victim.terminate()
            victim.join(timeout=5)
            engine = EnforcementEngine(EqRelation(), dict(context.gfds))
            outcome = backend.run(units, context, engine)
            assert outcome.conflict is None
            assert outcome.units_executed == outcome.units_total - outcome.splits
            assert outcome.worker_deaths == 1
            assert all(slot.state == "idle" for slot in backend._pool["slots"])
        finally:
            backend.close()

    def test_mid_run_kill_requeues_on_survivors(self):
        # Heavy enough that the kill usually lands mid-run; the verdict
        # and the per-unit accounting must survive the requeue either way.
        import multiprocessing as mp

        sigma = delta_hub_workload(
            num_hubs=3, spokes_per_hub=10, num_writers=5, num_pairers=2,
            num_background=8, seed=7,
        )
        backend, context, engine, units = self._setup(
            sigma, workers=3, persistent=False
        )
        units = units * 2  # more work => wider kill window
        result = {}

        def runner():
            result["outcome"] = backend.run(units, context, engine)

        thread = threading.Thread(target=runner)
        thread.start()
        deadline = time.monotonic() + 5.0
        try:
            while time.monotonic() < deadline and thread.is_alive():
                children = mp.active_children()
                if children:
                    children[0].terminate()
                    break
                time.sleep(0.002)
        finally:
            thread.join(timeout=120)
            backend.close()
        assert not thread.is_alive()
        outcome = result["outcome"]
        assert outcome.conflict is None
        assert outcome.units_executed == outcome.units_total - outcome.splits


class TestOutcomeAccounting:
    def test_simulated_reports_scheduler_stats(self):
        sigma = delta_hub_workload(
            num_hubs=2, spokes_per_hub=5, num_writers=3, num_pairers=1,
            num_background=4, seed=7,
        )
        result = par_sat(sigma, RuntimeConfig(workers=2))
        outcome = result.outcome
        assert outcome.sync_rounds > 0
        assert outcome.broadcast_volume > 0
        assert outcome.affinity_hits > 0
        assert len(outcome.batch_sizes) == 2
        for config in (
            RuntimeConfig(workers=2).without_affinity(),
            # The bare switch is the whole ablation: batches stay fixed.
            RuntimeConfig(workers=2, affinity=False),
        ):
            ablation = par_sat(sigma, config)
            assert ablation.outcome.affinity_hits == 0
            assert ablation.outcome.batch_sizes == [6, 6]
            assert ablation.outcome.batch_adaptations == 0
            assert ablation.satisfiable == result.satisfiable

    def test_process_affinity_reduces_broadcast(self):
        sigma = delta_hub_workload(
            num_hubs=4, spokes_per_hub=10, num_writers=5, num_pairers=2,
            num_background=8, seed=7,
        )
        # Far fewer round trips is a property of per-rule units, hundreds
        # of them here; grouped units are few enough that batching barely
        # matters.
        config = RuntimeConfig(workers=3, use_ruleset_plan=False)
        affinity = par_sat(sigma, config, backend="process").outcome
        fixed = par_sat(
            sigma, config.without_affinity(), backend="process"
        ).outcome
        # Identical verdict/work, fewer redundant ops rediscovered and
        # far fewer coordinator round trips.
        assert (affinity.conflict is None) == (fixed.conflict is None)
        assert affinity.units_executed == fixed.units_executed
        assert affinity.sync_rounds < fixed.sync_rounds
        assert affinity.broadcast_ops <= fixed.broadcast_ops
