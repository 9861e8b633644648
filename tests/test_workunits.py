"""Unit tests for work units, dependency graphs and topological orders."""

from repro.gfd import build_canonical_graph, make_gfd, make_pattern, parse_gfds
from repro.gfd.literals import eq
from repro.graph.graph import PropertyGraph
from repro.reasoning.workunits import (
    WorkUnit,
    choose_pivot,
    generate_work_units,
    gfd_dependency_edges,
    gfd_dependency_order,
    order_units,
    pivot_candidates,
    unit_dependency_edges,
)


class TestWorkUnit:
    def test_make_sorts_assignment(self):
        unit = WorkUnit.make("g", {"z": 1, "a": 2})
        assert unit.assignment == (("a", 2), ("z", 1))
        assert unit.assignment_dict() == {"a": 2, "z": 1}
        assert unit.pivot_node() == 2

    def test_hashable(self):
        a = WorkUnit.make("g", {"x": 1}, radius=2)
        b = WorkUnit.make("g", {"x": 1}, radius=2)
        assert a == b and len({a, b}) == 1


class TestPivotSelection:
    def test_selective_label_preferred(self, example4_sigma):
        canonical = build_canonical_graph(example4_sigma)
        phi7 = canonical.gfds["phi7"]
        # On an empty graph every label count is 0, so the label-count
        # order falls through to eccentricity: x is the pattern's center.
        assert choose_pivot(phi7, PropertyGraph()) == "x"
        # The plan estimate prefers the leaf w: binding it first makes
        # every other variable reachable by anchor expansion through the
        # single x -[p]-> w edge, so the estimated search tree per
        # candidate (~0.95 expansions) beats pivoting at the hub x (~3.8),
        # even after multiplying by the slightly larger candidate count.
        assert choose_pivot(phi7, canonical.graph) == "w"

    def test_pivot_candidates_by_label(self, example4_sigma):
        canonical = build_canonical_graph(example4_sigma)
        phi7 = canonical.gfds["phi7"]
        candidates = pivot_candidates(phi7, "x", canonical.graph)
        assert len(candidates) == 3  # one 'a' node per GFD copy


class TestUnitGeneration:
    def test_units_cover_all_pivot_candidates(self, example4_sigma):
        canonical = build_canonical_graph(example4_sigma)
        units = generate_work_units(example4_sigma, canonical.graph)
        by_gfd = {}
        for unit in units:
            by_gfd.setdefault(unit.gfd_name, []).append(unit)
        # One unit per (GFD, candidate node of its chosen pivot), at the
        # pivot's eccentricity radius — regardless of which pivot the
        # plan-aware selection picked.
        for gfd in example4_sigma:
            pivot = choose_pivot(gfd, canonical.graph)
            expected = pivot_candidates(gfd, pivot, canonical.graph)
            gfd_units = by_gfd[gfd.name]
            assert sorted(str(u.pivot_node()) for u in gfd_units) == sorted(
                str(node) for node in expected
            )
            radius = gfd.pattern.eccentricity(pivot)
            assert all(u.radius == radius for u in gfd_units)

    def test_disconnected_pattern_unrestricted(self):
        pattern = make_pattern({"x": "a", "y": "b"})
        gfd = make_gfd(pattern, [], [eq("x", "A", 1)], name="disc")
        canonical = build_canonical_graph([gfd])
        units = generate_work_units([gfd], canonical.graph)
        assert all(unit.radius is None for unit in units)

    def test_pivot_override(self, example4_sigma):
        canonical = build_canonical_graph(example4_sigma)
        units = generate_work_units(
            example4_sigma, canonical.graph, pivot_overrides={"phi7": "w"}
        )
        phi7_units = [u for u in units if u.gfd_name == "phi7"]
        assert all(u.assignment[0][0] == "w" for u in phi7_units)


class TestPrunedUnitGeneration:
    def test_pruned_units_subset_of_full(self, example4_sigma):
        from repro.reasoning.workunits import generate_pruned_work_units

        canonical = build_canonical_graph(example4_sigma)
        full = set(generate_work_units(example4_sigma, canonical.graph))
        pruned = set(generate_pruned_work_units(example4_sigma, canonical.graph))
        assert pruned <= full

    def test_pruning_sound_for_verdicts(self, example4_sigma):
        """Pruned and unpruned unit sets lead to the same parallel verdict
        (checked end-to-end by parsat equivalence tests; here: the pruned
        set still contains every unit that produces matches)."""
        from repro.matching.homomorphism import find_homomorphisms
        from repro.reasoning.workunits import generate_pruned_work_units

        canonical = build_canonical_graph(example4_sigma)
        pruned = set(generate_pruned_work_units(example4_sigma, canonical.graph))
        full = generate_work_units(example4_sigma, canonical.graph)
        for unit in full:
            gfd = canonical.gfds[unit.gfd_name]
            matches = find_homomorphisms(
                gfd.pattern, canonical.graph, preassigned=unit.assignment_dict(), limit=1
            )
            if matches:
                assert unit in pruned

    def test_disconnected_pattern_not_sim_pruned(self):
        from repro.reasoning.workunits import generate_pruned_work_units

        pattern = make_pattern({"x": "a", "y": "b"})
        gfd = make_gfd(pattern, [], [eq("x", "A", 1)], name="disc")
        canonical = build_canonical_graph([gfd])
        units = generate_pruned_work_units([gfd], canonical.graph)
        assert units  # falls back to label-candidate generation

    def test_simulation_disabled_falls_back(self, example4_sigma):
        from repro.reasoning.workunits import generate_pruned_work_units

        canonical = build_canonical_graph(example4_sigma)
        no_sim = generate_pruned_work_units(
            example4_sigma, canonical.graph, use_simulation=False
        )
        full = generate_work_units(example4_sigma, canonical.graph)
        assert len(no_sim) == len(full)


class TestGfdDependencies:
    def test_attribute_feed_edge(self, example4_sigma):
        edges = gfd_dependency_edges(example4_sigma)
        # phi7 produces y.B=1 which phi9 consumes; phi9 produces w.C=1
        # which phi10 consumes; phi10 produces x.A which nothing consumes.
        assert "phi9" in edges["phi7"]
        assert "phi10" in edges["phi9"]
        assert edges["phi10"] == set()

    def test_dependency_order_respects_chain(self, example4_sigma):
        order = [g.name for g in gfd_dependency_order(example4_sigma)]
        assert order.index("phi7") < order.index("phi9") < order.index("phi10")

    def test_empty_antecedent_first(self):
        sigma = parse_gfds(
            """
            gfd late { x: a; when x.A = 1; then x.B = 1; }
            gfd early { x: a; then x.A = 1; }
            """
        )
        order = [g.name for g in gfd_dependency_order(sigma)]
        assert order[0] == "early"

    def test_cycle_broken_deterministically(self):
        sigma = parse_gfds(
            """
            gfd g1 { x: a; when x.A = 1; then x.B = 1; }
            gfd g2 { x: a; when x.B = 1; then x.A = 1; }
            """
        )
        order1 = [g.name for g in gfd_dependency_order(sigma)]
        order2 = [g.name for g in gfd_dependency_order(sigma)]
        assert order1 == order2
        assert set(order1) == {"g1", "g2"}


class TestUnitDependencies:
    def test_edges_require_shared_attr_and_proximity(self, example4_sigma):
        canonical = build_canonical_graph(example4_sigma)
        units = generate_work_units(example4_sigma, canonical.graph)
        by_name = canonical.gfds
        edges = unit_dependency_edges(units, by_name, canonical.graph)
        # Some dependency edges must exist (phi7 feeds phi9 within each
        # component hosting both pivot candidates).
        assert edges
        for source, targets in edges.items():
            producer = by_name[units[source].gfd_name]
            for target in targets:
                consumer = by_name[units[target].gfd_name]
                assert producer.consequent_attributes() & consumer.antecedent_attributes()

    def test_order_units_is_total_and_deterministic(self, example4_sigma):
        canonical = build_canonical_graph(example4_sigma)
        units = generate_work_units(example4_sigma, canonical.graph)
        ordered1 = order_units(units, canonical.gfds, canonical.graph)
        ordered2 = order_units(units, canonical.gfds, canonical.graph)
        assert ordered1 == ordered2
        assert sorted(map(str, ordered1)) == sorted(map(str, units))

    def test_empty_antecedent_units_first(self, example4_sigma):
        canonical = build_canonical_graph(example4_sigma)
        units = generate_work_units(example4_sigma, canonical.graph)
        ordered = order_units(units, canonical.gfds, canonical.graph)
        names = [unit.gfd_name for unit in ordered]
        # phi7 has X = empty set; all its units come before the rest.
        last_phi7 = max(i for i, n in enumerate(names) if n == "phi7")
        first_other = min(i for i, n in enumerate(names) if n != "phi7")
        assert last_phi7 < first_other
