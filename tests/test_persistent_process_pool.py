"""Persistent process-backend pools: delta refresh instead of snapshots.

Drives :class:`ProcessBackend` across several ``run()`` calls on one
:class:`UnitContext` whose canonical graph grows between runs (the
IncrementalSat workload shape). With ``persistent_workers`` the pool must
survive, receive the topology ops as a delta, and return the same verdicts
as cold one-shot runs.
"""

import pytest

from repro.eq.eqrelation import EqRelation
from repro.gfd.canonical import build_canonical_graph, canonical_node_id
from repro.gfd.generator import delta_hub_workload, random_gfds
from repro.parallel import ProcessBackend, RuntimeConfig, UnitContext
from repro.parallel.parsat import PreparedSat
from repro.reasoning.enforce import EnforcementEngine
from repro.reasoning.workunits import generate_work_units
from repro.reasoning.seqsat import seq_sat


def extend_canonical(graph, gfd):
    """Append *gfd*'s pattern copy to *graph*, canonical-graph style."""
    mapping = {}
    for var in gfd.pattern.variables:
        node_id = canonical_node_id(gfd.name, var)
        graph.add_node(gfd.pattern.label_of(var), node_id=node_id)
        mapping[var] = node_id
    for edge in gfd.pattern.edges:
        graph.add_edge(mapping[edge.src], mapping[edge.dst], edge.label)


def run_incrementally(sigma, config):
    """One backend, one context; add one GFD per run. Returns the list of
    per-prefix verdicts and the backend (caller closes it)."""
    backend = ProcessBackend(config)
    canonical = build_canonical_graph(sigma[:1])
    context = UnitContext(canonical.graph, dict(canonical.gfds))
    verdicts = []
    added = [sigma[0]]
    try:
        while True:
            engine = EnforcementEngine(EqRelation(), dict(context.gfds))
            units = generate_work_units(added, context.graph)
            outcome = backend.run(units, context, engine)
            verdicts.append(outcome.conflict is None)
            if len(added) == len(sigma):
                break
            nxt = sigma[len(added)]
            extend_canonical(context.graph, nxt)
            context.gfds[nxt.name] = nxt
            added.append(nxt)
    finally:
        backend.close()
    return verdicts


class TestPersistentPool:
    def test_pool_survives_and_ships_deltas(self, example8_sigma):
        config = RuntimeConfig(workers=2, persistent_workers=True)
        backend = ProcessBackend(config)
        canonical = build_canonical_graph(example8_sigma[:1])
        context = UnitContext(canonical.graph, dict(canonical.gfds))
        try:
            engine = EnforcementEngine(EqRelation(), dict(context.gfds))
            units = generate_work_units(example8_sigma[:1], context.graph)
            backend.run(units, context, engine)
            pool = backend._pool
            assert pool is not None
            pids = [slot.proc.pid for slot in pool["slots"]]
            version_before = pool["graph_version"]

            nxt = example8_sigma[1]
            extend_canonical(context.graph, nxt)
            context.gfds[nxt.name] = nxt
            engine = EnforcementEngine(EqRelation(), dict(context.gfds))
            units = generate_work_units(example8_sigma[:2], context.graph)
            outcome = backend.run(units, context, engine)

            assert outcome.conflict is None
            pool = backend._pool
            assert pool is not None
            # Same worker processes, refreshed — not respawned.
            assert [slot.proc.pid for slot in pool["slots"]] == pids
            assert pool["graph_version"] > version_before
        finally:
            backend.close()
        assert backend._pool is None

    def test_incremental_verdicts_match_seq_sat(self, example4_sigma):
        config = RuntimeConfig(workers=2, persistent_workers=True)
        verdicts = run_incrementally(example4_sigma, config)
        expected = [
            seq_sat(example4_sigma[: i + 1]).satisfiable
            for i in range(len(example4_sigma))
        ]
        assert verdicts == expected  # conflict surfaces at the same prefix

    def test_satisfiable_growth_matches_seq_sat(self, example8_sigma):
        config = RuntimeConfig(workers=2, persistent_workers=True)
        verdicts = run_incrementally(example8_sigma, config)
        assert all(verdicts)

    def test_context_switch_falls_back_to_cold_start(self, example8_sigma):
        config = RuntimeConfig(workers=2, persistent_workers=True)
        backend = ProcessBackend(config)
        try:
            for _ in range(2):  # fresh context per run: no delta reuse
                canonical = build_canonical_graph(example8_sigma)
                context = UnitContext(canonical.graph, dict(canonical.gfds))
                engine = EnforcementEngine(EqRelation(), dict(context.gfds))
                units = generate_work_units(example8_sigma, context.graph)
                outcome = backend.run(units, context, engine)
                assert outcome.conflict is None
        finally:
            backend.close()

    def test_dead_pool_falls_back_to_cold_start(self, example8_sigma):
        """Killing every standing worker must not wedge the backend: the
        failed refresh degrades to a transparent cold restart."""
        config = RuntimeConfig(workers=2, persistent_workers=True)
        backend = ProcessBackend(config)
        canonical = build_canonical_graph(example8_sigma)
        context = UnitContext(canonical.graph, dict(canonical.gfds))
        try:
            engine = EnforcementEngine(EqRelation(), dict(context.gfds))
            units = generate_work_units(example8_sigma, context.graph)
            backend.run(units, context, engine)
            old_pids = [slot.proc.pid for slot in backend._pool["slots"]]
            for slot in backend._pool["slots"]:
                slot.proc.terminate()
                slot.proc.join(timeout=5)
            engine = EnforcementEngine(EqRelation(), dict(context.gfds))
            outcome = backend.run(units, context, engine)
            assert outcome.conflict is None
            assert [s.proc.pid for s in backend._pool["slots"]] != old_pids
        finally:
            backend.close()

    def test_hung_replica_does_not_wedge_refresh(self, example8_sigma):
        """A standing worker that is alive but unresponsive (SIGSTOP) must
        not block the refresh forever: past the deadline it is killed,
        counted as a death, and the run cold-starts a whole pool."""
        import os
        import signal
        import time

        if not hasattr(signal, "SIGSTOP"):
            pytest.skip("SIGSTOP unavailable on this platform")
        config = RuntimeConfig(
            workers=2, persistent_workers=True, batch_timeout_seconds=1.0
        )
        backend = ProcessBackend(config)
        canonical = build_canonical_graph(example8_sigma)
        context = UnitContext(canonical.graph, dict(canonical.gfds))
        try:
            engine = EnforcementEngine(EqRelation(), dict(context.gfds))
            units = generate_work_units(example8_sigma, context.graph)
            backend.run(units, context, engine)
            os.kill(backend._pool["slots"][0].proc.pid, signal.SIGSTOP)
            engine = EnforcementEngine(EqRelation(), dict(context.gfds))
            started = time.monotonic()
            outcome = backend.run(units, context, engine)
            assert outcome.conflict is None
            assert time.monotonic() - started < 30.0
            assert outcome.worker_deaths == 1
            assert all(slot.state == "idle" for slot in backend._pool["slots"])
        finally:
            backend.close()

    def test_killed_replica_is_counted_and_replaced(self):
        """A standing pool that lost a replica between runs is never reused
        short-handed: the refresh counts the death and the run cold-starts
        a whole pool, which later runs refresh again."""
        import os
        import signal

        sigma = delta_hub_workload(
            num_hubs=3, spokes_per_hub=6, num_writers=4, num_pairers=2,
            num_background=6, seed=7,
        )
        expected = seq_sat(sigma).satisfiable
        config = RuntimeConfig(workers=2, persistent_workers=True)
        prepared = PreparedSat.build(sigma, config)
        backend = ProcessBackend(config)
        try:
            prepared.run(backend)
            victim = backend._pool["slots"][0].proc
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5)
            result = prepared.run(backend)
            assert result.satisfiable == expected
            assert result.outcome.worker_deaths == 1
            assert result.outcome.worker_busy[0] > 0
            slots = backend._pool["slots"]
            assert all(slot.state == "idle" for slot in slots)
            assert all(slot.proc.is_alive() for slot in slots)
            # The replacement pool is whole: the next run refreshes it.
            pids = [slot.proc.pid for slot in slots]
            result = prepared.run(backend)
            assert result.satisfiable == expected
            assert result.outcome.worker_deaths == 0
            assert [slot.proc.pid for slot in backend._pool["slots"]] == pids
        finally:
            backend.close()

    def test_simulation_gate_rederived_on_topology_change(self):
        from repro.graph.graph import PropertyGraph

        g = PropertyGraph()
        for _ in range(4):
            g.add_node("a")
        context = UnitContext(g, {})
        assert context.use_simulation_pruning
        for _ in range(UnitContext.SIMULATION_NODE_LIMIT):
            g.add_node("a")
        context.note_topology_change()
        assert not context.use_simulation_pruning  # grown past the limit

    def test_topology_caches_self_invalidate_on_mutation(self):
        """Any context reused across mutations — not just process-worker
        refresh — must drop stale dQ neighborhoods and candidate sets."""
        from repro.graph.graph import PropertyGraph

        g = PropertyGraph()
        a = g.add_node("x")
        b = g.add_node("x")
        g.add_edge(a, b, "e")
        context = UnitContext(g, {})
        assert context.allowed_nodes(a, 2) == {a, b}
        c = g.add_node("x")
        g.add_edge(b, c, "e")
        assert context.allowed_nodes(a, 2) == {a, b, c}  # not the cached set

    def test_refresh_ships_only_new_gfds(self, example8_sigma):
        config = RuntimeConfig(workers=2, persistent_workers=True)
        backend = ProcessBackend(config)
        canonical = build_canonical_graph(example8_sigma[:1])
        context = UnitContext(canonical.graph, dict(canonical.gfds))
        try:
            engine = EnforcementEngine(EqRelation(), dict(context.gfds))
            backend.run(
                generate_work_units(example8_sigma[:1], context.graph),
                context,
                engine,
            )
            assert backend._pool["shipped_gfds"] == {example8_sigma[0].name}
            nxt = example8_sigma[1]
            extend_canonical(context.graph, nxt)
            context.gfds[nxt.name] = nxt
            engine = EnforcementEngine(EqRelation(), dict(context.gfds))
            outcome = backend.run(
                generate_work_units(example8_sigma[:2], context.graph),
                context,
                engine,
            )
            assert outcome.conflict is None
            assert backend._pool["shipped_gfds"] == {
                example8_sigma[0].name,
                nxt.name,
            }
            # Stripping the registry for the transfer must not lose it here.
            assert engine.gfds and set(engine.gfds) == set(context.gfds)
        finally:
            backend.close()

    def test_unpicklable_goal_degrades_to_cold_start(self, example8_sigma):
        """A refresh whose message cannot pickle (closure goal_check under
        a forked pool) must fall back to a cold start, not escape run()."""
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("fork unavailable on this platform")
        config = RuntimeConfig(
            workers=2, persistent_workers=True, start_method="fork"
        )
        backend = ProcessBackend(config)
        canonical = build_canonical_graph(example8_sigma)
        context = UnitContext(canonical.graph, dict(canonical.gfds))
        goal = lambda eq: False  # noqa: E731 - deliberately unpicklable
        try:
            units = generate_work_units(example8_sigma, context.graph)
            for _ in range(2):  # second run takes the refresh path
                engine = EnforcementEngine(EqRelation(), dict(context.gfds))
                outcome = backend.run(units, context, engine, goal_check=goal)
                assert outcome.conflict is None
        finally:
            backend.close()

    def test_non_persistent_leaves_no_pool(self, example8_sigma):
        config = RuntimeConfig(workers=2)
        backend = ProcessBackend(config)
        canonical = build_canonical_graph(example8_sigma)
        context = UnitContext(canonical.graph, dict(canonical.gfds))
        engine = EnforcementEngine(EqRelation(), dict(context.gfds))
        units = generate_work_units(example8_sigma, context.graph)
        backend.run(units, context, engine)
        assert backend._pool is None
        backend.close()  # no-op, must not raise

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_both_start_methods_refresh(self, example8_sigma, start_method):
        import multiprocessing as mp

        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        config = RuntimeConfig(
            workers=2, persistent_workers=True, start_method=start_method
        )
        verdicts = run_incrementally(example8_sigma[:2], config)
        assert verdicts == [True, True]

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_standing_replicas_ship_the_sequential_evidence(self, start_method):
        # Workers ship raw evidence notes marked per batch; a refreshed
        # replica starts from the new run's engine, so the second run's
        # log holds exactly the sequential evidence again.
        import multiprocessing as mp

        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        sigma = random_gfds(9, 4, 3, seed=900)
        expected = set(seq_sat(sigma).results.evidence.refs())
        config = RuntimeConfig(
            workers=2, persistent_workers=True, start_method=start_method
        )
        prepared = PreparedSat.build(sigma, config)
        backend = ProcessBackend(config)
        try:
            cold = prepared.run(backend)
            procs = [slot.proc for slot in backend._pool["slots"]]
            warm = prepared.run(backend)
            # refreshed, not restarted
            assert [slot.proc for slot in backend._pool["slots"]] == procs
        finally:
            backend.close()
        assert set(cold.results.evidence.refs()) == expected
        assert set(warm.results.evidence.refs()) == expected
