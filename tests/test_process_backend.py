"""Process backend: pickling, index snapshots, and replica exchange."""

from __future__ import annotations

import pickle

import pytest

from repro.eq.eqrelation import Conflict, DeltaOp, EqRelation
from repro.gfd.canonical import build_canonical_graph
from repro.gfd.generator import delta_hub_workload, random_gfds, straggler_workload
from repro.graph.graph import PropertyGraph
from repro.graph.index import GraphIndex
from repro.parallel import (
    EntailmentGoal,
    ProcessBackend,
    RuntimeConfig,
    UnitContext,
    par_imp,
    par_sat,
)
from repro.parallel.backends.process import (
    _handle_batch,
    _WorkerState,
    load_worker_snapshot,
    make_worker_snapshot,
)
from repro.parallel.parsat import PreparedSat
from repro.parallel.units import UnitResult, execute_unit
from repro.reasoning import workunits
from repro.reasoning.enforce import EnforcementEngine
from repro.reasoning.seqsat import seq_sat
from repro.reasoning.workunits import WorkUnit, generate_work_units
from repro.results import evidence as evidence_module
from repro.results.evidence import EvidenceLog


class TestPickleRoundTrips:
    def test_work_unit(self):
        unit = WorkUnit.make("phi7", {"x": "phi7.x", "y": 3}, radius=2, generation=1)
        clone = pickle.loads(pickle.dumps(unit))
        assert clone == unit
        assert clone.uid == unit.uid

    def test_uid_is_stable_and_discriminating(self):
        unit = WorkUnit.make("phi7", {"x": 1})
        same = WorkUnit.make("phi7", {"x": 1})
        other = WorkUnit.make("phi7", {"x": 2})
        assert unit.uid == same.uid
        assert unit.uid != other.uid
        assert unit.uid != WorkUnit.make("phi8", {"x": 1}).uid
        split = WorkUnit.make("phi7", {"x": 1}, generation=1)
        assert unit.uid != split.uid

    def test_unit_result_with_splits(self):
        unit = WorkUnit.make("phi7", {"x": "a0"}, radius=1)
        result = UnitResult(
            unit,
            matches=3,
            match_ticks=17,
            enforce_ops=2,
            delta_ops=1,
            splits=[WorkUnit.make("phi7", {"x": "a0", "y": "b0"}, radius=1, generation=1)],
        )
        clone = pickle.loads(pickle.dumps(result))
        assert clone.unit == unit
        assert clone.unit_uid == unit.uid
        assert clone.splits == result.splits
        assert clone.match_ticks == 17

    def test_delta_ops_and_conflict(self):
        ops = [
            DeltaOp("const", ("n1", "A"), value=5, source="phi1"),
            DeltaOp("merge", ("n1", "A"), other=("n2", "B"), source="phi2"),
        ]
        assert pickle.loads(pickle.dumps(ops)) == ops
        conflict = Conflict(("n1", "A"), 0, 1, source="phi6")
        assert pickle.loads(pickle.dumps(conflict)) == conflict

    def test_entailment_goal(self, example8_sigma):
        phi = example8_sigma[0]
        goal = EntailmentGoal.make(phi, {var: var for var in phi.pattern.variables})
        clone = pickle.loads(pickle.dumps(goal))
        assert clone == goal
        assert clone(EqRelation()) == goal(EqRelation())

    def test_delta_replay_reaches_same_state(self):
        source = EqRelation()
        source.assign_constant(("n1", "A"), 7, "g1")
        source.merge_terms(("n1", "A"), ("n2", "B"), "g2")
        replica = EqRelation()
        replica.apply_delta(pickle.loads(pickle.dumps(source.delta_since(0))))
        assert replica.constant_of(("n2", "B")) == 7
        assert replica.same_class(("n1", "A"), ("n2", "B"))


class TestGraphAndIndexSnapshots:
    def _graph(self) -> PropertyGraph:
        graph = PropertyGraph()
        a = graph.add_node("a", {"x": 1})
        b = graph.add_node("b")
        c = graph.add_node("b")
        graph.add_edge(a, b, "p")
        graph.add_edge(a, c, "q")
        graph.add_edge(b, c, "p")
        return graph

    def test_graph_pickle_drops_compiled_index(self):
        graph = self._graph()
        graph.index()  # populate the cache (holds weakrefs)
        clone = pickle.loads(pickle.dumps(graph))
        assert clone._compiled_index is None
        assert clone.num_nodes == graph.num_nodes
        assert clone.mutation_count == graph.mutation_count
        # The clone can compile its own index normally.
        assert clone.index().nodes == graph.index().nodes

    def test_index_snapshot_round_trip(self):
        graph = self._graph()
        index = graph.index()
        data = pickle.loads(pickle.dumps(index.to_snapshot()))
        clone_graph = pickle.loads(pickle.dumps(graph))
        rebuilt = GraphIndex.from_snapshot(clone_graph, data)
        assert rebuilt.nodes == index.nodes
        assert rebuilt.version == index.version
        for node in graph.nodes():
            for label in ("p", "q"):
                lid = index.label_id(label)
                assert rebuilt.out_neighbors(node, lid) == index.out_neighbors(node, lid)
                assert rebuilt.in_neighbors(node, lid) == index.in_neighbors(node, lid)
            assert rebuilt.out_neighbors(node, None) == index.out_neighbors(node, None)
        assert rebuilt.nodes_with_label("b") == index.nodes_with_label("b")
        assert rebuilt.avg_out_fanout(index.label_id("p")) == index.avg_out_fanout(
            index.label_id("p")
        )

    def test_snapshot_version_mismatch_rejected(self):
        graph = self._graph()
        data = graph.index().to_snapshot()
        graph.add_node("z")
        with pytest.raises(ValueError):
            GraphIndex.from_snapshot(graph, data)

    def test_adopt_index_checks_version(self):
        graph = self._graph()
        stale = graph.index()
        graph.add_node("z")
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            graph.adopt_index(stale)
        graph.adopt_index(graph.index())  # current index is accepted


class TestWorkerSnapshot:
    def test_round_trip_executes_identically(self, example4_sigma):
        canonical = build_canonical_graph(example4_sigma)
        units = generate_work_units(example4_sigma, canonical.graph)
        context = UnitContext(canonical.graph, canonical.gfds)
        context.precompile_plans()
        context.precompute_neighborhoods(units, min_units=1)
        engine = EnforcementEngine(EqRelation(), canonical.gfds)
        blob = make_worker_snapshot(context, engine, None, None, 16)
        state = load_worker_snapshot(blob)
        # The replica is independent state over an equivalent graph...
        assert state.context.graph is not context.graph
        assert state.context.graph.num_nodes == context.graph.num_nodes
        # ...whose index was adopted, not recompiled from a fresh build.
        assert state.context.graph._compiled_index is not None
        # Executing the same unit on both sides gives identical counts.
        unit = units[0]
        mine = execute_unit(unit, context, engine)
        theirs = execute_unit(unit, state.context, state.engine)
        assert (mine.matches, mine.match_ticks, mine.enforce_ops) == (
            theirs.matches,
            theirs.match_ticks,
            theirs.enforce_ops,
        )
        assert state.engine.eq.delta_since(0) == engine.eq.delta_since(0)


class TestLazyEvidenceShipping:
    """Workers ship raw evidence notes; nothing is digested on the way."""

    def test_worker_batches_digest_nothing_and_ship_the_sequential_evidence(
        self, monkeypatch
    ):
        sigma = straggler_workload(
            num_anchor=1, num_seekers=2, num_background=5, anchor_size=8,
            seeker_length=4, seed=5,
        )
        config = RuntimeConfig(workers=2, ttl_seconds=0.05)
        # The fork path's worker state: the coordinator's prepared context
        # plus a fresh engine, executed in-process.
        prepared = PreparedSat.build(sigma, config)
        units = prepared.make_units()
        prepared.context.precompute_neighborhoods(units)
        engine = EnforcementEngine(EqRelation(), prepared.canonical.gfds)
        state = _WorkerState(
            prepared.context, engine, None, config.ttl_ticks, config.max_split_units
        )
        digests = []
        original = evidence_module.ref_of_items

        def counting_ref_of_items(gfd, items):
            digests.append(gfd)
            return original(gfd, items)

        monkeypatch.setattr(evidence_module, "ref_of_items", counting_ref_of_items)
        payloads = []
        batch = units
        while batch:
            reply = _handle_batch(state, batch, [], 0, len(payloads))
            assert reply[0] == "done" and not reply[6]
            payloads.append(reply[7])
            batch = [split for result in reply[1] for split in result.splits]
        assert len(payloads) > 1  # the TTL split stragglers
        assert digests == []
        shipped = EvidenceLog()
        for payload in payloads:
            shipped.absorb(payload)
        assert set(shipped.refs()) == set(seq_sat(sigma).results.evidence.refs())


class TestProcessBackend:
    def test_outcome_shape(self):
        sigma = random_gfds(15, 4, 3, seed=3)
        result = par_sat(sigma, RuntimeConfig(workers=3), backend="process")
        assert result.satisfiable
        outcome = result.outcome
        assert outcome.backend == "process"
        assert len(outcome.worker_busy) == 3
        assert outcome.units_executed == outcome.units_total - outcome.splits
        assert outcome.match_ticks > 0
        assert outcome.wall_seconds > 0

    def test_single_worker(self, example4_sigma):
        result = par_sat(example4_sigma, RuntimeConfig(workers=1), backend="process")
        assert not result.satisfiable
        assert result.conflict is not None

    def test_splitting_across_processes(self):
        sigma = straggler_workload(
            num_anchor=1, num_seekers=2, num_background=5, anchor_size=8,
            seeker_length=4, seed=5,
        )
        split = par_sat(
            sigma, RuntimeConfig(workers=2, ttl_seconds=0.05), backend="process"
        )
        assert split.satisfiable
        assert split.outcome.splits > 0

    def test_goal_early_termination(self, example8_sigma, example8_phi13):
        result = par_imp(
            example8_sigma, example8_phi13, RuntimeConfig(workers=2), backend="process"
        )
        assert result.implied
        assert result.reason in ("derived", "conflict")

    def test_coordinator_digests_each_unit_at_most_once(self, monkeypatch):
        """``WorkUnit.uid`` is cached per unit and pickled with it, so a
        unit's round trip through a worker, and a split sub-unit a worker
        made, cost the coordinator no further digest."""
        digests = []
        blake2s = workunits.hashlib.blake2s

        class CountingHashlib:
            @staticmethod
            def blake2s(data, **kwargs):
                digests.append(data)
                return blake2s(data, **kwargs)

        monkeypatch.setattr(workunits, "hashlib", CountingHashlib)
        hub = delta_hub_workload(
            num_hubs=4, spokes_per_hub=10, num_writers=5, num_pairers=2,
            num_background=8, seed=7,
        )
        straggler = straggler_workload(
            num_anchor=1, num_seekers=2, num_background=5, anchor_size=8,
            seeker_length=4, seed=5,
        )
        for sigma in (hub, straggler):
            digests.clear()
            config = RuntimeConfig(workers=2, ttl_seconds=0.05)
            result = par_sat(sigma, config, backend="process")
            assert result.satisfiable
            assert digests
            assert len(digests) == len(set(digests))
            assert len(digests) <= result.outcome.units_total

    def test_spawn_start_method_uses_snapshots(self):
        # Force the pickled-snapshot path even where fork is available.
        sigma = random_gfds(8, 4, 3, seed=3)
        config = RuntimeConfig(workers=2, start_method="spawn")
        result = par_sat(sigma, config, backend="process")
        assert result.satisfiable
        assert result.outcome.backend == "process"

    def test_preexisting_conflict_short_circuits(self, example4_sigma):
        canonical = build_canonical_graph(example4_sigma)
        context = UnitContext(canonical.graph, canonical.gfds)
        engine = EnforcementEngine(EqRelation(), canonical.gfds)
        engine.eq.fail(("poisoned", "<false>"), "test")
        units = generate_work_units(example4_sigma, canonical.graph)
        outcome = ProcessBackend(RuntimeConfig(workers=2)).run(units, context, engine)
        assert outcome.conflict is not None
        assert outcome.units_executed == 0
