"""Cross-backend equivalence: identical verdicts on all execution backends.

The backends differ in where workers live (virtual clock or OS
processes) but run the same Church-Rosser algorithms over a monotone
``Eq`` — so for any (graph, Σ) instance all of them must report the same
satisfiability verdict, and for any (Σ, φ) instance the same implication
verdict. The sequential algorithms provide the ground truth.
"""

from __future__ import annotations

import pytest

from repro.gfd.canonical import build_canonical_graph
from repro.gfd.generator import (
    add_random_conflicts,
    delta_hub_workload,
    random_gfds,
    straggler_workload,
)
from repro.graph.fragment import Fragmenter
from repro.matching.homomorphism import MatcherRun
from repro.parallel import FaultPlan, RuntimeConfig, available_backends, par_imp, par_sat
from repro.parallel.units import UnitContext, attach_fragmentation
from repro.reasoning.seqimp import seq_imp
from repro.reasoning.seqsat import seq_sat
from repro.reasoning.validation import detect_errors, find_violations
from repro.reasoning.workunits import choose_pivot, fragment_radius

ALL_BACKENDS = available_backends()

#: Every fragment count the differential suite exercises, 1 through 8.
FRAGMENT_COUNTS = (1, 2, 3, 5, 8)


def _eq_classes(eq):
    """Canonicalized equivalence classes, for cross-run Eq comparison."""
    return sorted(
        (tuple(sorted(repr(term) for term in terms)), repr(value))
        for terms, value in eq.classes()
    )


def _violation_multiset(violations):
    return sorted(
        (v.gfd_name, tuple(sorted(v.assignment.items()))) for v in violations
    )


def test_registry_exposes_two_backends():
    assert ALL_BACKENDS == ("simulated", "process")


class TestSatEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_consistent_fuzz_instances(self, seed):
        sigma = random_gfds(10 + seed, 4, 3, seed=seed)
        expected = seq_sat(sigma).satisfiable
        config = RuntimeConfig(workers=3)
        for backend in ALL_BACKENDS:
            result = par_sat(sigma, config, backend=backend)
            assert result.satisfiable == expected, (backend, seed)
            assert result.outcome.backend == backend

    @pytest.mark.parametrize("seed", range(6))
    def test_conflicting_fuzz_instances(self, seed):
        sigma = add_random_conflicts(
            random_gfds(8, 4, 3, seed=100 + seed), num_conflicts=3, seed=seed
        )
        expected = seq_sat(sigma).satisfiable
        config = RuntimeConfig(workers=3)
        for backend in ALL_BACKENDS:
            result = par_sat(sigma, config, backend=backend)
            assert result.satisfiable == expected, (backend, seed)
            if not result.satisfiable:
                assert result.conflict is not None

    def test_straggler_workload_with_splitting(self):
        sigma = straggler_workload(
            num_anchor=1, num_seekers=2, num_background=6, anchor_size=8,
            seeker_length=4, seed=5,
        )
        expected = seq_sat(sigma).satisfiable
        # A tight TTL forces splits, exercising cross-process requeue.
        config = RuntimeConfig(workers=3, ttl_seconds=0.05)
        for backend in ALL_BACKENDS:
            result = par_sat(sigma, config, backend=backend)
            assert result.satisfiable == expected, backend

    def test_paper_examples(self, example4_sigma, example2_cross_pattern):
        config = RuntimeConfig(workers=2)
        for sigma in (example4_sigma, example2_cross_pattern):
            expected = seq_sat(sigma).satisfiable
            verdicts = {
                backend: par_sat(sigma, config, backend=backend).satisfiable
                for backend in ALL_BACKENDS
            }
            assert set(verdicts.values()) == {expected}, verdicts


class TestSchedulerEquivalence:
    """Affinity routing + adaptive batching change only *where and when*
    units run, never verdicts — on every backend, both scheduler configs
    must agree with the sequential ground truth."""

    @pytest.mark.parametrize("seed", range(4))
    def test_sat_fuzz_affinity_on_off(self, seed):
        sigma = random_gfds(9 + seed, 4, 3, seed=300 + seed)
        if seed % 2:
            sigma = add_random_conflicts(sigma, num_conflicts=3, seed=seed)
        expected = seq_sat(sigma).satisfiable
        base = RuntimeConfig(workers=3, batch_size=2)
        for config in (base, base.without_affinity()):
            for backend in ALL_BACKENDS:
                result = par_sat(sigma, config, backend=backend)
                assert result.satisfiable == expected, (backend, config.affinity, seed)

    def test_delta_hub_workload_all_backends(self):
        sigma = delta_hub_workload(
            num_hubs=3, spokes_per_hub=6, num_writers=4, num_pairers=2,
            num_background=6, seed=7,
        )
        expected = seq_sat(sigma).satisfiable
        base = RuntimeConfig(workers=3)
        for config in (base, base.without_affinity()):
            for backend in ALL_BACKENDS:
                result = par_sat(sigma, config, backend=backend)
                assert result.satisfiable == expected, (backend, config.affinity)

    @pytest.mark.parametrize("seed", range(3))
    def test_imp_fuzz_affinity_on_off(self, seed):
        sigma = random_gfds(8, 4, 3, seed=400 + seed)
        phi = sigma[seed % len(sigma)]
        rest = [gfd for gfd in sigma if gfd.name != phi.name]
        expected = seq_imp(rest, phi).implied
        base = RuntimeConfig(workers=3, batch_size=2)
        for config in (base, base.without_affinity()):
            for backend in ALL_BACKENDS:
                result = par_imp(rest, phi, config, backend=backend)
                assert result.implied == expected, (backend, config.affinity, seed)


class TestFaultedEquivalence:
    """A random (but recoverable) FaultPlan changes only *how* the run
    gets to the fixpoint — crashed replicas rebury their work, erroring
    units retry — never the verdict. ``FaultPlan.random`` draws from the
    recoverable kinds only (no hangs, no poison), so every backend must
    still agree with the clean sequential ground truth."""

    @pytest.mark.parametrize("seed", range(4))
    def test_sat_fuzz_with_random_fault_plan(self, seed):
        sigma = random_gfds(10 + seed, 4, 3, seed=500 + seed)
        if seed % 2:
            sigma = add_random_conflicts(sigma, num_conflicts=3, seed=seed)
        expected = seq_sat(sigma).satisfiable
        plan = FaultPlan.random(seed=600 + seed, workers=3, events=2)
        config = RuntimeConfig(
            workers=3,
            fault_plan=plan,
            batch_timeout_seconds=5.0,
            respawn_backoff_seconds=0.01,
        )
        for backend in ALL_BACKENDS:
            result = par_sat(sigma, config, backend=backend)
            assert result.satisfiable == expected, (backend, seed, plan)
            assert not result.outcome.quarantined, (backend, seed)


class TestFragmentedEquivalence:
    """Fragmented execution changes only *data placement* — which replica
    a unit matches against — never verdicts, the final ``Eq``, or the
    per-unit match streams. The whole-graph runs (sequential and
    unfragmented parallel) are the ground truth, across both backends
    and fragment counts 1..8."""

    @pytest.mark.parametrize("seed", range(3))
    def test_sat_fuzz_all_backends_all_fragment_counts(self, seed):
        sigma = random_gfds(10 + seed, 4, 3, seed=seed)
        if seed % 2:
            sigma = add_random_conflicts(sigma, num_conflicts=3, seed=seed)
        oracle = seq_sat(sigma)
        base = RuntimeConfig(workers=3)
        for fragments in FRAGMENT_COUNTS:
            config = base.with_fragments(fragments)
            for backend in ALL_BACKENDS:
                result = par_sat(sigma, config, backend=backend)
                assert result.satisfiable == oracle.satisfiable, (
                    backend, fragments, seed,
                )
                assert not result.outcome.quarantined, (backend, fragments)
                if oracle.satisfiable:
                    # A run-to-completion reaches the confluent fixpoint:
                    # the fragmented Eq is the sequential oracle's.
                    assert _eq_classes(result.eq) == _eq_classes(oracle.eq), (
                        backend, fragments,
                    )

    @pytest.mark.parametrize("seed", range(3))
    def test_imp_fuzz_all_backends_fragmented(self, seed):
        sigma = random_gfds(8, 4, 3, seed=200 + seed)
        phi = sigma[seed % len(sigma)]
        rest = [gfd for gfd in sigma if gfd.name != phi.name]
        expected = seq_imp(rest, phi).implied
        base = RuntimeConfig(workers=3)
        for fragments in (1, 3, 8):
            config = base.with_fragments(fragments)
            for backend in ALL_BACKENDS:
                result = par_imp(rest, phi, config, backend=backend)
                assert result.implied == expected, (backend, fragments, seed)

    @pytest.mark.parametrize("seed", range(2))
    def test_grouped_units_fragmented(self, seed):
        # PR 7 grouped units compose with fragment routing: the group's
        # shared trie walk runs against the pivot's fragment replica.
        sigma = random_gfds(9, 4, 3, seed=800 + seed)
        if seed % 2:
            sigma = add_random_conflicts(sigma, num_conflicts=2, seed=seed)
        expected = seq_sat(sigma).satisfiable
        config = RuntimeConfig(workers=3).with_ruleset_plan().with_fragments(3)
        for backend in ALL_BACKENDS:
            result = par_sat(sigma, config, backend=backend)
            assert result.satisfiable == expected, (backend, seed)
            assert not result.outcome.quarantined, (backend, seed)

    def test_fresh_unit_match_streams_byte_identical(self):
        # The strongest form of the differential: for every connected
        # rule and every interior pivot, the matcher's stream on the
        # fragment replica (whole-graph pivot and variable order shipped
        # with the kit) equals the whole-graph stream *as an ordered
        # list* — not just as a set.
        sigma = random_gfds(10, 4, 3, seed=42)
        gfds = {gfd.name: gfd for gfd in sigma}
        graph = build_canonical_graph(sigma).graph
        whole = UnitContext(graph, gfds)
        whole.precompile_plans(sigma)
        router = attach_fragmentation(whole, sigma, 3)

        def stream(ctx, gfd, pivot_var, pivot, radius):
            run = MatcherRun(
                gfd.pattern,
                ctx.graph,
                preassigned={pivot_var: pivot},
                allowed_nodes=ctx.allowed_nodes(pivot, radius),
                variable_order=whole.plan_orders[gfd.name],
                candidate_sets=ctx.candidate_sets(gfd),
                plan=ctx.plan_for(gfd),
            )
            return [tuple(sorted(match.items())) for match in run.matches()]

        compared = 0
        for fid in range(router.num_fragments):
            replica = router.build(fid)
            local = UnitContext(
                replica.graph,
                gfds,
                fragment=replica,
                plan_orders=whole.plan_orders,
                pivot_overrides=whole.pivot_overrides,
            )
            for gfd in sigma:
                if gfd.is_trivial() or not gfd.pattern.is_connected():
                    continue
                pivot_var = whole.pivot_overrides[gfd.name]
                radius = gfd.pattern.eccentricity(pivot_var)
                for pivot in replica.spec.interior:
                    expected = stream(whole, gfd, pivot_var, pivot, radius)
                    got = stream(local, gfd, pivot_var, pivot, radius)
                    assert got == expected, (fid, gfd.name, pivot)
                    compared += len(expected)
        assert compared > 0  # the instance actually produced matches

    def test_detect_errors_fragment_union_matches_sequential(self):
        # Error detection fragment-style: each fragment enumerates only
        # the violations whose pivot it owns; the union over fragments
        # must be exactly the sequential detect_errors result.
        sigma = add_random_conflicts(
            random_gfds(8, 4, 3, seed=77), num_conflicts=3, seed=7
        )
        graph = build_canonical_graph(sigma).graph
        expected = _violation_multiset(detect_errors(graph, sigma))
        radius = fragment_radius(sigma, graph)
        for fragments in (1, 3, 5):
            router = Fragmenter(graph, fragments, radius)
            got = []
            for gfd in sigma:
                if gfd.is_trivial():
                    continue
                if not gfd.pattern.is_connected():
                    # Disconnected patterns are never fragment-routed;
                    # they run whole-graph, as in the runtime.
                    got.extend(find_violations(graph, gfd))
                    continue
                pivot_var = choose_pivot(gfd, graph)
                for fid in range(fragments):
                    replica = router.build(fid)
                    for violation in find_violations(replica.graph, gfd):
                        if replica.spec.owns(violation.assignment[pivot_var]):
                            got.append(violation)
            assert _violation_multiset(got) == expected, fragments

    @pytest.mark.parametrize("seed", range(3))
    def test_sat_fragmented_with_random_fault_plan(self, seed):
        sigma = random_gfds(10 + seed, 4, 3, seed=500 + seed)
        expected = seq_sat(sigma).satisfiable
        plan = FaultPlan.random(seed=700 + seed, workers=3, events=2)
        config = RuntimeConfig(
            workers=3,
            fault_plan=plan,
            batch_timeout_seconds=5.0,
            respawn_backoff_seconds=0.01,
        ).with_fragments(3)
        for backend in ALL_BACKENDS:
            result = par_sat(sigma, config, backend=backend)
            assert result.satisfiable == expected, (backend, seed, plan)
            assert not result.outcome.quarantined, (backend, seed)

    def test_process_crash_reships_fragment_to_survivor(self):
        # Kill worker 0 on its first batch. Dispatch always hands worker
        # 0 the first batch, and the coordinator records the fragment
        # replica it ships with that batch before the crash fires. The
        # dead worker's units rebury, the fragment re-ships to whichever
        # worker picks them up, and the run completes with zero
        # quarantined units.
        sigma = random_gfds(12, 4, 3, seed=9)
        expected = seq_sat(sigma).satisfiable
        plan = FaultPlan.single("crash", worker_id=0, batch_index=0)
        config = RuntimeConfig(
            workers=3,
            fault_plan=plan,
            batch_timeout_seconds=5.0,
            respawn_backoff_seconds=0.01,
        ).with_fragments(2)
        result = par_sat(sigma, config, backend="process")
        assert result.satisfiable == expected
        assert not result.outcome.quarantined
        assert result.outcome.worker_deaths >= 1
        assert result.outcome.fragments_shipped >= 1
        # More replicas shipped than there are fragments: the re-ship.
        assert result.outcome.fragments_shipped > config.fragments

    def test_process_ships_fragments_on_demand(self):
        sigma = delta_hub_workload(
            num_hubs=3, spokes_per_hub=6, num_writers=4, num_pairers=2,
            num_background=6, seed=7,
        )
        expected = seq_sat(sigma).satisfiable
        config = RuntimeConfig(workers=3).with_fragments(3)
        result = par_sat(sigma, config, backend="process")
        assert result.satisfiable == expected
        outcome = result.outcome
        # The workload dispatches real batches: replicas must have moved.
        assert outcome.fragments_shipped + outcome.balls_shipped > 0
        assert outcome.fragments_shipped <= config.fragments + outcome.worker_deaths


class TestLayeredResultEquivalence:
    """The layered result model is backend-invariant. Evidence refs are
    content-derived (rule + assignment only), so a run-to-completion on
    any backend — any fragment count, even through a fault plan — interns
    exactly the evidence set the sequential run does, and its store
    explains conflicts without re-matching. (Unsatisfiable runs terminate
    at the first conflict, so only satisfiable instances compare full ref
    sets; unsat instances compare verdict + explainability.)"""

    @pytest.mark.parametrize("seed", range(3))
    def test_satisfiable_refs_identical_across_backends(self, seed):
        sigma = random_gfds(9 + seed, 4, 3, seed=900 + seed)
        oracle = seq_sat(sigma)
        assert oracle.satisfiable
        expected = set(oracle.results.evidence.refs())
        assert expected  # the instance actually enforced matches
        config = RuntimeConfig(workers=3)
        for backend in ALL_BACKENDS:
            result = par_sat(sigma, config, backend=backend)
            got = set(result.results.evidence.refs())
            assert got == expected, (backend, seed)

    def test_satisfiable_refs_identical_fragmented(self):
        sigma = random_gfds(10, 4, 3, seed=910)
        oracle = seq_sat(sigma)
        assert oracle.satisfiable
        expected = set(oracle.results.evidence.refs())
        base = RuntimeConfig(workers=3)
        for fragments in (1, 4):
            config = base.with_fragments(fragments)
            for backend in ALL_BACKENDS:
                result = par_sat(sigma, config, backend=backend)
                got = set(result.results.evidence.refs())
                assert got == expected, (backend, fragments)

    @pytest.mark.parametrize("seed", range(2))
    def test_satisfiable_refs_survive_fault_plan(self, seed):
        # Crashed replicas lose their parked matches; re-executed units
        # re-derive the same matches, and first-wins interning of the
        # same content-derived refs leaves the merged log unchanged.
        sigma = random_gfds(10, 4, 3, seed=920 + seed)
        oracle = seq_sat(sigma)
        assert oracle.satisfiable
        expected = set(oracle.results.evidence.refs())
        plan = FaultPlan.random(seed=930 + seed, workers=3, events=2)
        config = RuntimeConfig(
            workers=3,
            fault_plan=plan,
            batch_timeout_seconds=5.0,
            respawn_backoff_seconds=0.01,
        ).with_fragments(2)
        for backend in ALL_BACKENDS:
            result = par_sat(sigma, config, backend=backend)
            assert result.satisfiable, (backend, seed, plan)
            got = set(result.results.evidence.refs())
            assert got == expected, (backend, seed, plan)

    def test_unsat_conflict_explainable_on_every_backend(self, example4_sigma):
        base = RuntimeConfig(workers=2)
        for fragments in (1, 4):
            config = base.with_fragments(fragments)
            for backend in ALL_BACKENDS:
                result = par_sat(example4_sigma, config, backend=backend)
                assert not result.satisfiable, (backend, fragments)
                store = result.results
                assert store.conflict is not None
                explanation = store.explain_conflict()
                assert explanation is not None, (backend, fragments)
                assert explanation.gfds_involved, (backend, fragments)
                # Whatever match the conflict cites must have made it into
                # the coordinator's merged evidence layer.
                if store.conflict.evidence_ref:
                    assert store.evidence.get(store.conflict.evidence_ref) is not None

    def test_derivation_provenance_survives_worker_shipping(self):
        # Process workers ship ΔEq ops across pickling; the structured
        # (gfd, match_ref, premise_terms) records must arrive intact and
        # resolve against the merged evidence log.
        sigma = random_gfds(10, 4, 3, seed=910)
        result = par_sat(sigma, RuntimeConfig(workers=3), backend="process")
        store = result.results
        stamped = [op for op in store.derivation if op.provenance is not None]
        assert stamped
        for op in stamped:
            assert op.provenance.gfd
            if op.provenance.match_ref:
                assert store.evidence.get(op.provenance.match_ref) is not None


class TestImpEquivalence:
    def test_paper_example8(self, example8_sigma, example8_phi13):
        config = RuntimeConfig(workers=3)
        expected = seq_imp(example8_sigma, example8_phi13).implied
        for backend in ALL_BACKENDS:
            result = par_imp(example8_sigma, example8_phi13, config, backend=backend)
            assert result.implied == expected, backend

    @pytest.mark.parametrize("seed", range(5))
    def test_cover_style_fuzz_instances(self, seed):
        # Σ |= φ checks the way minimal-cover computations issue them:
        # φ drawn from the generated set, Σ the rest.
        sigma = random_gfds(8, 4, 3, seed=200 + seed)
        phi = sigma[seed % len(sigma)]
        rest = [gfd for gfd in sigma if gfd.name != phi.name]
        expected = seq_imp(rest, phi).implied
        config = RuntimeConfig(workers=3)
        for backend in ALL_BACKENDS:
            result = par_imp(rest, phi, config, backend=backend)
            assert result.implied == expected, (backend, seed)
