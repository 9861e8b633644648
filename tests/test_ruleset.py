"""Rule-set compilation tests: trie properties + differential fuzz.

The :class:`~repro.matching.ruleset.RuleSetPlan` contract has three parts,
each tested here against the per-rule path as the correctness oracle:

* **construction** — shared prefixes merge on ``step_signature``, merging
  is insensitive to rule insertion order (same per-rule paths, same node
  count), and every rule ends at exactly one leaf;
* **streams** — the per-GFD projection of one trie walk is byte-identical
  to that rule's own :class:`MatcherRun` stream, unpivoted and pivoted,
  and the sequential reasoning layers (``seq_sat`` / ``seq_imp`` /
  ``detect_errors`` / :class:`IncrementalSat`) return identical verdicts
  (and identical violation lists / step outcomes) with the flag on or off;
* **parallel** — grouped work units produce the same verdicts as per-rule
  units on both backends, under a seeded :class:`FaultPlan`, and
  with the affinity scheduler on or off; TTL breaches split the trie walk
  without losing work.

Epoch discipline gets its own section: a watched absent label appearing
via ``apply_delta`` must rebuild the trie, and the rebuilt walk must agree
with a freshly constructed plan.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gfd.canonical import build_canonical_graph
from repro.gfd.generator import GFDGenerator, GFDVocabulary, add_random_conflicts, random_gfds
from repro.gfd.gfd import make_gfd
from repro.gfd.pattern import make_pattern
from repro.graph.graph import PropertyGraph
from repro.matching.homomorphism import MatcherRun
from repro.matching.plan import get_plan
from repro.matching.ruleset import PIVOT_SLOT, RuleSetPlan, pivot_signature
from repro.parallel import RuntimeConfig, par_sat
from repro.parallel.faults import FaultPlan
from repro.parallel.parimp import par_imp
from repro.reasoning.incremental import IncrementalSat
from repro.reasoning.seqimp import seq_imp
from repro.reasoning.seqsat import seq_sat
from repro.reasoning.validation import detect_errors, extract_model
from repro.reasoning.workunits import choose_pivot, generate_grouped_work_units


def small_sigma(seed, count=14, consistent=True):
    vocabulary = GFDVocabulary.default(
        num_labels=5, num_edge_labels=3, num_attributes=4
    )
    generator = GFDGenerator(vocabulary, seed=seed)
    return generator.generate(count, max_pattern_nodes=4, consistent=consistent)


def nontrivial(sigma):
    return [gfd for gfd in sigma if not gfd.is_trivial()]


def rule_paths(plan):
    """name -> the sequence of step signatures along its trie path."""
    paths = {name: [] for name in plan.gfds}
    stack = [(node, [node.signature]) for node in plan.roots.values()]
    while stack:
        node, prefix = stack.pop()
        for leaf in node.leaves:
            paths[leaf.gfd_name] = prefix
        for child in node.children.values():
            stack.append((child, prefix + [child.signature]))
    return paths


class TestTrieConstruction:
    def test_every_rule_reaches_exactly_one_leaf(self):
        sigma = nontrivial(small_sigma(seed=3, count=20))
        graph = build_canonical_graph(sigma).graph
        plan = RuleSetPlan(graph, sigma)
        assert set(plan._leaf_count) == {gfd.name for gfd in sigma}
        assert all(count == 1 for count in plan._leaf_count.values())
        leaf_names = [leaf.gfd_name for leaf in plan.root_leaves]
        for node in plan.nodes():
            leaf_names.extend(leaf.gfd_name for leaf in node.leaves)
        assert sorted(leaf_names) == sorted(gfd.name for gfd in sigma)

    def test_shared_prefixes_actually_merge(self):
        # Two rules with identical patterns must share their entire path.
        pattern = make_pattern({"x": "a", "y": "b"}, [("x", "y", "e")])
        sigma = [
            make_gfd(pattern, name="r1"),
            make_gfd(make_pattern({"u": "a", "v": "b"}, [("u", "v", "e")]), name="r2"),
        ]
        graph = build_canonical_graph(sigma).graph
        plan = RuleSetPlan(graph, sigma)
        assert len(plan.roots) == 1
        assert sum(1 for _ in plan.nodes()) == 2  # one shared path of depth 2
        paths = rule_paths(plan)
        assert paths["r1"] == paths["r2"]

    def test_duplicate_rule_name_rejected(self):
        sigma = nontrivial(small_sigma(seed=1, count=4))
        graph = build_canonical_graph(sigma).graph
        plan = RuleSetPlan(graph, sigma)
        with pytest.raises(ValueError):
            plan.add(sigma[0])

    @settings(max_examples=25, deadline=None)
    @given(order_seed=st.integers(min_value=0, max_value=10_000))
    def test_merge_is_insertion_order_insensitive(self, order_seed):
        sigma = nontrivial(small_sigma(seed=7, count=12))
        graph = build_canonical_graph(sigma).graph
        shuffled = list(sigma)
        random.Random(order_seed).shuffle(shuffled)
        base = RuleSetPlan(graph, sigma)
        permuted = RuleSetPlan(graph, shuffled)
        assert rule_paths(base) == rule_paths(permuted)
        assert sum(1 for _ in base.nodes()) == sum(1 for _ in permuted.nodes())
        assert {n: base.rule_cost(n) for n in base.gfds} == {
            n: permuted.rule_cost(n) for n in permuted.gfds
        }

    def test_pivot_signature_groups_by_label_and_self_loops(self):
        plain = make_pattern({"x": "a", "y": "b"}, [("x", "y", "e")])
        loop = make_pattern({"x": "a", "y": "b"}, [("x", "x", "e"), ("x", "y", "e")])
        assert pivot_signature(plain, "x") == ("a", ())
        assert pivot_signature(loop, "x") == ("a", ("e",))
        assert pivot_signature(plain, "x") != pivot_signature(loop, "x")


class TestStreamEquivalence:
    @pytest.mark.parametrize("seed", [0, 4, 11])
    def test_per_rule_projection_equals_matcherrun(self, seed):
        sigma = nontrivial(small_sigma(seed=seed, count=16))
        graph = build_canonical_graph(sigma).graph
        plan = RuleSetPlan(graph, sigma)
        stream = list(plan.matches())
        for gfd in sigma:
            projection = [match for name, match in stream if name == gfd.name]
            run = MatcherRun(gfd.pattern, graph, plan=get_plan(gfd.pattern, graph))
            assert projection == list(run.matches()), gfd.name

    @pytest.mark.parametrize("seed", [2, 9])
    def test_pivoted_projection_equals_pivoted_matcherrun(self, seed):
        sigma = [
            gfd
            for gfd in nontrivial(small_sigma(seed=seed, count=8))
            if gfd.pattern.is_connected()
        ]
        graph = build_canonical_graph(sigma).graph
        pivots = {gfd.name: choose_pivot(gfd, graph) for gfd in sigma}
        plan = RuleSetPlan(graph, sigma, pivot_vars=pivots)
        for gfd in sigma:
            pivot = pivots[gfd.name]
            for node in graph.nodes():
                trie_stream = [
                    match
                    for name, match in plan.matches(
                        active={gfd.name}, pivot_node=node
                    )
                ]
                run = MatcherRun(
                    gfd.pattern,
                    graph,
                    preassigned={pivot: node},
                    plan=get_plan(gfd.pattern, graph),
                )
                assert trie_stream == list(run.matches()), (gfd.name, node)


class TestSequentialDifferential:
    @pytest.mark.parametrize("seed,consistent", [(1, True), (2, False), (6, False)])
    def test_seq_sat_verdicts_agree(self, seed, consistent):
        sigma = small_sigma(seed=seed, count=18, consistent=consistent)
        base = seq_sat(sigma, use_ruleset_plan=False)
        trie = seq_sat(sigma, use_ruleset_plan=True)
        assert base.satisfiable == trie.satisfiable
        if base.satisfiable:
            # A completed (conflict-free) run enforces every match of
            # every rule on both paths: equal totals.
            assert base.stats.matches == trie.stats.matches

    @pytest.mark.parametrize("seed", [3, 8])
    def test_seq_imp_verdicts_agree(self, seed):
        sigma = small_sigma(seed=seed, count=15)
        phi = sigma[4]
        rest = [gfd for gfd in sigma if gfd.name != phi.name]
        base = seq_imp(rest, phi, use_ruleset_plan=False)
        trie = seq_imp(rest, phi, use_ruleset_plan=True)
        assert base.implied == trie.implied

    def test_seq_imp_conflicting_sigma_agrees(self):
        sigma = add_random_conflicts(random_gfds(8, 4, 3, seed=31), 3, seed=5)
        phi = sigma[0]
        rest = sigma[1:]
        base = seq_imp(rest, phi, use_ruleset_plan=False)
        trie = seq_imp(rest, phi, use_ruleset_plan=True)
        assert base.implied == trie.implied

    @pytest.mark.parametrize("seed", [5, 12])
    def test_detect_errors_lists_identical(self, seed):
        sigma = small_sigma(seed=seed, count=10)
        result = seq_sat(sigma)
        assert result.satisfiable
        model = extract_model(result)
        # Dirty the model deterministically so violations exist.
        rng = random.Random(seed)
        for node in sorted(model.nodes(), key=str)[::3]:
            attrs = model.node(node).attrs
            for attr in sorted(attrs):
                if rng.random() < 0.5:
                    model.set_attr(node, attr, "#dirty")
        base = detect_errors(model, sigma, use_ruleset_plan=False)
        trie = detect_errors(model, sigma, use_ruleset_plan=True)
        assert base == trie
        capped_base = detect_errors(model, sigma, limit_per_gfd=1)
        capped_trie = detect_errors(model, sigma, limit_per_gfd=1, use_ruleset_plan=True)
        assert capped_base == capped_trie

    @pytest.mark.parametrize("seed,consistent", [(4, True), (2, False)])
    def test_incremental_steps_agree(self, seed, consistent):
        sigma = small_sigma(seed=seed, count=16, consistent=consistent)
        base = IncrementalSat(sigma, use_ruleset_plan=False)
        trie = IncrementalSat(sigma, use_ruleset_plan=True)
        assert base.satisfiable == trie.satisfiable
        for left, right in zip(base.steps, trie.steps):
            assert (left.gfd_name, left.satisfiable, left.recomputed) == (
                right.gfd_name,
                right.satisfiable,
                right.recomputed,
            )
            if left.satisfiable:
                assert left.new_matches == right.new_matches


class TestEpochRevalidation:
    def test_absent_label_appearing_rebuilds(self):
        graph = PropertyGraph()
        a = graph.add_node("a")
        graph.add_node("a")
        pattern = make_pattern({"x": "a", "y": "z"}, [("x", "y", "e")])
        gfd = make_gfd(pattern, name="needs-z")
        graph.index()
        plan = RuleSetPlan(graph, [gfd])
        assert list(plan.matches()) == []
        # The watched absent label "z" appears through the delta journal.
        z = graph.add_node("z")
        graph.add_edge(a, z, "e")
        graph.index()  # absorb the delta in place
        fresh = RuleSetPlan(graph, [gfd])
        assert list(plan.matches()) == list(fresh.matches())
        assert len(list(plan.matches())) == 1

    def test_untouched_epoch_is_noop(self):
        sigma = nontrivial(small_sigma(seed=5, count=6))
        graph = build_canonical_graph(sigma).graph
        plan = RuleSetPlan(graph, sigma)
        roots_before = plan.roots
        plan.revalidate()
        assert plan.roots is roots_before

    def test_irrelevant_delta_keeps_trie(self):
        sigma = nontrivial(small_sigma(seed=5, count=6))
        graph = build_canonical_graph(sigma).graph
        plan = RuleSetPlan(graph, sigma)
        roots_before = plan.roots
        baseline = list(plan.matches())
        graph.add_node(graph.label(next(iter(graph.nodes()))))  # existing label
        graph.index()
        plan.revalidate()
        assert plan.roots is roots_before  # no rebuild needed
        assert len(list(plan.matches())) >= len(baseline)


class TestGroupedUnits:
    def test_groups_partition_rules_by_pivot_signature(self):
        sigma = small_sigma(seed=9, count=20)
        graph = build_canonical_graph(sigma).graph
        units = generate_grouped_work_units(sigma, graph)
        grouped_rules = set()
        for unit in units:
            if unit.group:
                assert unit.gfd_name == unit.group[0]
                signatures = {
                    pivot_signature(
                        next(g for g in sigma if g.name == name).pattern,
                        choose_pivot(next(g for g in sigma if g.name == name), graph),
                    )
                    for name in unit.group
                }
                assert len(signatures) == 1
                grouped_rules.update(unit.group)
        eligible = {
            gfd.name
            for gfd in sigma
            if not gfd.is_trivial() and gfd.pattern.is_connected()
        }
        # Every eligible rule appears in some group (groups with zero
        # surviving pivot candidates excepted).
        assert grouped_rules <= eligible

    def test_ungrouped_uid_unchanged_by_group_field(self):
        import hashlib

        from repro.reasoning.workunits import WorkUnit

        unit = WorkUnit.make("phi", {"x": "n0"}, radius=2)
        legacy_payload = repr((unit.gfd_name, unit.assignment, unit.radius, unit.generation))
        legacy_uid = hashlib.blake2s(
            legacy_payload.encode("utf-8"), digest_size=10
        ).hexdigest()
        assert unit.uid == legacy_uid
        grouped = WorkUnit.make("phi", {PIVOT_SLOT: "n0"}, radius=2, group=("phi", "psi"))
        assert grouped.uid != legacy_uid
        assert grouped.gfd_names == ("phi", "psi")

    def test_ttl_breach_splits_without_losing_work(self):
        sigma = small_sigma(seed=3, count=18, consistent=False)
        expected = par_sat(
            sigma, RuntimeConfig(workers=2, use_ruleset_plan=False)
        ).satisfiable
        tight = RuntimeConfig(workers=2, ttl_seconds=1e-3).with_ruleset_plan()
        result = par_sat(sigma, tight)
        assert result.satisfiable == expected
        assert result.outcome.splits > 0 or result.outcome.terminated_early


class TestParallelGroupedDifferential:
    @pytest.mark.parametrize("backend", ["simulated", "process"])
    @pytest.mark.parametrize("seed,consistent", [(1, True), (2, False)])
    def test_par_sat_verdicts_agree(self, backend, seed, consistent):
        sigma = small_sigma(seed=seed, count=14, consistent=consistent)
        base = par_sat(
            sigma, RuntimeConfig(workers=3, use_ruleset_plan=False), backend=backend
        )
        trie = par_sat(
            sigma, RuntimeConfig(workers=3).with_ruleset_plan(), backend=backend
        )
        assert base.satisfiable == trie.satisfiable

    @pytest.mark.parametrize("seed", [4, 7])
    def test_par_imp_verdicts_agree(self, seed):
        sigma = small_sigma(seed=seed, count=12)
        phi = sigma[2]
        rest = [gfd for gfd in sigma if gfd.name != phi.name]
        expected = seq_imp(rest, phi).implied
        base = par_imp(rest, phi, RuntimeConfig(workers=3, use_ruleset_plan=False))
        trie = par_imp(rest, phi, RuntimeConfig(workers=3).with_ruleset_plan())
        assert base.implied == expected
        assert trie.implied == expected

    @pytest.mark.parametrize("fault_seed", [0, 1])
    def test_grouped_verdicts_survive_fault_plan(self, fault_seed):
        sigma = small_sigma(seed=6, count=14, consistent=False)
        expected = seq_sat(sigma).satisfiable
        plan = FaultPlan.random(seed=fault_seed, workers=3, events=2)
        config = RuntimeConfig(workers=3, fault_plan=plan).with_ruleset_plan()
        for backend in ("simulated", "process"):
            result = par_sat(sigma, config, backend=backend)
            assert not result.outcome.quarantined
            assert result.satisfiable == expected, backend

    def test_grouped_verdicts_affinity_on_off(self):
        sigma = small_sigma(seed=8, count=14, consistent=False)
        expected = seq_sat(sigma).satisfiable
        grouped = RuntimeConfig(workers=3).with_ruleset_plan()
        for config in (
            grouped,
            grouped.without_affinity(),
            replace(grouped, affinity_cost_feedback=False),
        ):
            result = par_sat(sigma, config)
            assert result.satisfiable == expected
        on = par_sat(sigma, grouped)
        off = par_sat(sigma, grouped.without_affinity())
        assert on.outcome.affinity_overflows >= 0
        assert off.outcome.affinity_overflows == 0
