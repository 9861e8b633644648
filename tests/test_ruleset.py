"""Rule-set compilation tests: trie properties + differential fuzz.

The :class:`~repro.matching.ruleset.RuleSetPlan` contract has three parts,
each tested here against the per-rule path as the correctness oracle:

* **construction** — shared prefixes merge on ``step_signature``, merging
  is insensitive to rule insertion order (same per-rule paths, same node
  count), and every rule ends at exactly one leaf;
* **streams** — the per-GFD projection of one trie walk is byte-identical
  to that rule's own :class:`MatcherRun` stream, unpivoted, pivoted and
  under the dual-simulation cut, and the sequential reasoning layers
  (``seq_sat`` / ``seq_imp`` / ``detect_errors`` / :class:`IncrementalSat`),
  which all walk the trie, agree with the per-rule oracles: per-rule
  ParSat/ParImp verdicts, :class:`MatcherRun` match totals, and a per-rule
  detection loop;
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

from repro import parse_gfds
from repro.gfd.canonical import build_canonical_graph
from repro.gfd.generator import GFDGenerator, GFDVocabulary, add_random_conflicts, random_gfds
from repro.gfd.gfd import make_gfd
from repro.gfd.pattern import make_pattern
from repro.graph.graph import PropertyGraph
from repro.matching.homomorphism import MatcherRun
from repro.matching.plan import get_plan
from repro.matching.ruleset import (
    PIVOT_SLOT,
    RuleSetPlan,
    RuleSetRun,
    pivot_signature,
    sequential_run,
)
from repro.matching.simulation import simulation_candidates
from repro.parallel import RuntimeConfig, par_sat
from repro.parallel.faults import FaultPlan
from repro.parallel.parimp import par_imp
from repro.reasoning.incremental import IncrementalSat
from repro.reasoning.seqimp import seq_imp
from repro.reasoning.seqsat import seq_sat
from repro.reasoning.validation import detect_errors, extract_model, match_satisfies
from repro.reasoning.workunits import choose_pivot, generate_grouped_work_units
from repro.results import Violation, evidence_ref

#: The per-rule parallel runs: the paper's ParSat/ParImp units, the oracle
#: for the sequential walk's verdicts.
PER_RULE = RuntimeConfig(workers=3, use_ruleset_plan=False)


def small_sigma(seed, count=14, consistent=True):
    vocabulary = GFDVocabulary.default(
        num_labels=5, num_edge_labels=3, num_attributes=4
    )
    generator = GFDGenerator(vocabulary, seed=seed)
    return generator.generate(count, max_pattern_nodes=4, consistent=consistent)


def nontrivial(sigma):
    return [gfd for gfd in sigma if not gfd.is_trivial()]


def match_total(sigma, graph):
    """Every match of every non-trivial rule of *sigma* in *graph*, counted
    through the rules' own :class:`MatcherRun` streams."""
    return sum(
        sum(1 for _ in MatcherRun(gfd.pattern, graph).matches())
        for gfd in nontrivial(sigma)
    )


def per_rule_violations(graph, sigma, limit=None):
    """The per-rule detection oracle: each rule's :class:`MatcherRun`
    stream filtered by its literals, up to *limit* per rule, in Σ order."""
    found = []
    for gfd in nontrivial(sigma):
        count = 0
        for match in MatcherRun(gfd.pattern, graph).matches():
            if limit is not None and count >= limit:
                break
            if match_satisfies(graph, gfd.antecedent, match) and not match_satisfies(
                graph, gfd.consequent, match
            ):
                found.append(Violation(gfd.name, match, evidence_ref(gfd.name, match)))
                count += 1
    return found


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
        """Both walks project onto every rule's own stream: the plain one
        and the simulation-cut one of :func:`sequential_run`, which leaves
        out rules whose simulation is empty and cuts the others' pools."""
        sigma = nontrivial(small_sigma(seed=seed, count=16))
        graph = build_canonical_graph(sigma).graph
        uncut = RuleSetPlan(graph, sigma).run()
        stream = list(uncut.matches())
        cut, pruned = sequential_run(graph, sigma)
        cut_stream = list(cut.matches())
        kept = cut.active_names()
        assert pruned == len(sigma) - len(kept)
        for gfd in sigma:
            run = MatcherRun(gfd.pattern, graph, plan=get_plan(gfd.pattern, graph))
            expected = list(run.matches())
            for walk in (stream, cut_stream):
                projection = [match for name, match in walk if name == gfd.name]
                assert projection == expected, gfd.name
            if gfd.name not in kept:
                assert simulation_candidates(gfd.pattern, graph) is None
        assert cut.ticks <= uncut.ticks

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
        result = seq_sat(sigma)
        assert result.satisfiable == par_sat(sigma, PER_RULE).satisfiable
        if result.satisfiable:
            # A completed (conflict-free) walk enforces every match of
            # every rule: the total of the per-rule streams.
            assert result.stats.matches == match_total(sigma, result.canonical.graph)

    @pytest.mark.parametrize("seed", [3, 8])
    def test_seq_imp_verdicts_agree(self, seed):
        sigma = small_sigma(seed=seed, count=15)
        phi = sigma[4]
        rest = [gfd for gfd in sigma if gfd.name != phi.name]
        assert seq_imp(rest, phi).implied == par_imp(rest, phi, PER_RULE).implied

    def test_seq_imp_conflicting_sigma_agrees(self):
        sigma = add_random_conflicts(random_gfds(8, 4, 3, seed=31), 3, seed=5)
        phi = sigma[0]
        rest = sigma[1:]
        assert seq_imp(rest, phi).implied == par_imp(rest, phi, PER_RULE).implied

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
        assert detect_errors(model, sigma) == per_rule_violations(model, sigma)
        capped = detect_errors(model, sigma, limit_per_gfd=1)
        assert capped == per_rule_violations(model, sigma, limit=1)

    def test_detection_stops_once_every_rule_has_its_quota(self, monkeypatch):
        """With ``limit_per_gfd=1`` the walk ends at the match that fills
        the last rule's quota: no match after it is drawn."""
        sigma = parse_gfds("gfd g { x: a; then x.A = 1; } gfd h { y: b; then y.B = 1; }")
        graph = PropertyGraph()
        for index in range(5):
            graph.add_node("a", {"A": 2}, node_id=f"a{index}")
            graph.add_node("b", {"B": 2}, node_id=f"b{index}")
        drawn = []
        walk = RuleSetRun.matches

        def recording_matches(run):
            for pair in walk(run):
                drawn.append(pair)
                yield pair

        monkeypatch.setattr(RuleSetRun, "matches", recording_matches)
        violations = detect_errors(graph, sigma, limit_per_gfd=1)
        assert [(v.gfd_name, v.assignment) for v in violations] == [
            ("g", {"x": "a0"}),
            ("h", {"y": "b0"}),
        ]
        assert drawn[-1] == ("h", {"y": "b0"})

    @pytest.mark.parametrize("seed,consistent", [(4, True), (2, False)])
    def test_incremental_steps_agree(self, seed, consistent):
        """Each step's verdict is the prefix's per-rule ParSat verdict. A
        match of a connected rule lies in one component and is enforced at
        the step that brings its rule or its component, whichever is
        later, so the new matches of incremental steps sum to the prefix's
        per-rule match total; a recomputing step counts that total
        itself."""
        sigma = small_sigma(seed=seed, count=16, consistent=consistent)
        state = IncrementalSat(sigma)
        assert state.satisfiable == par_sat(sigma, PER_RULE).satisfiable
        summed = 0
        for index, step in enumerate(state.steps):
            prefix = sigma[: index + 1]
            assert step.gfd_name == prefix[-1].name
            assert step.satisfiable == par_sat(prefix, PER_RULE).satisfiable
            summed += step.new_matches
            if step.satisfiable:
                assert step.recomputed == any(
                    not gfd.pattern.is_connected() for gfd in prefix
                )
                total = match_total(prefix, build_canonical_graph(prefix).graph)
                assert (step.new_matches if step.recomputed else summed) == total


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
