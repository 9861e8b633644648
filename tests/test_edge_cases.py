"""Edge-case and failure-injection tests across the stack."""

from dataclasses import replace

import pytest

from repro import PropertyGraph, parse_gfds, seq_imp, seq_sat
from repro.errors import GFDError
from repro.gfd import make_gfd, make_pattern
from repro.gfd.literals import eq as lit_eq
from repro.matching.homomorphism import MatcherRun, find_homomorphisms
from repro.parallel import RuntimeConfig, par_imp, par_sat
from repro.reasoning.validation import detect_errors, detect_errors_store
from repro.reasoning.workunits import gfd_dependency_order


class TestEmptyInputs:
    def test_empty_sigma_everywhere(self):
        assert seq_sat([]).satisfiable
        assert par_sat([], RuntimeConfig(workers=2)).satisfiable
        phi = parse_gfds("gfd p { x: a; then x.A = 1; }")[0]
        assert not seq_imp([], phi).implied
        assert not par_imp([], phi, RuntimeConfig(workers=2)).implied

    def test_matching_into_empty_graph(self):
        pattern = make_pattern({"x": "a"})
        assert find_homomorphisms(pattern, PropertyGraph()) == []

    def test_wildcard_into_empty_graph(self):
        pattern = make_pattern({"x": "_"})
        assert find_homomorphisms(pattern, PropertyGraph()) == []


class TestPatternLargerThanGraph:
    def test_injective_impossible_but_hom_possible(self):
        """A 3-variable pattern can match a 1-node graph homomorphically."""
        graph = PropertyGraph()
        v = graph.add_node("a")
        graph.add_edge(v, v, "e")
        pattern = make_pattern(
            {"x": "a", "y": "a", "z": "a"},
            [("x", "y", "e"), ("y", "z", "e")],
        )
        matches = find_homomorphisms(pattern, graph)
        assert matches == [{"x": v, "y": v, "z": v}]

    def test_no_self_loop_no_match(self):
        graph = PropertyGraph()
        graph.add_node("a")
        pattern = make_pattern({"x": "a", "y": "a"}, [("x", "y", "e")])
        assert find_homomorphisms(pattern, graph) == []


class TestSelfLoopPatterns:
    def test_self_loop_pattern_in_canonical_graph(self):
        sigma = parse_gfds(
            """
            gfd loop { x: a; x -[self]-> x; then x.A = 1; }
            gfd probe { y: a; y -[self]-> y; when y.A = 1; then y.A = 2; }
            """
        )
        assert not seq_sat(sigma).satisfiable

    def test_self_loop_satisfiable_alone(self):
        sigma = parse_gfds("gfd loop { x: a; x -[self]-> x; then x.A = 1; }")
        assert seq_sat(sigma).satisfiable


class TestAttributesOnBothSides:
    def test_same_attribute_in_x_and_y(self):
        # x.A = 1 -> x.A = 1 is a tautology; never a conflict.
        sigma = parse_gfds("gfd t { x: a; when x.A = 1; then x.A = 1; }")
        assert seq_sat(sigma).satisfiable

    def test_antecedent_forced_by_own_consequent_of_other_copy(self):
        # g1 forces A=1 on all 'a' nodes; g2's antecedent then fires and its
        # consequent clashes with g1's on g2's own copy.
        sigma = parse_gfds(
            """
            gfd g1 { x: a; then x.A = 1; }
            gfd g2 { x: a; when x.A = 1; then x.B = 1, x.B = 2; }
            """
        )
        assert not seq_sat(sigma).satisfiable

    def test_cross_attribute_chain_via_variable_literal(self):
        sigma = parse_gfds(
            """
            gfd g1 { x: a; then x.A = x.B; }
            gfd g2 { x: a; then x.B = x.C; }
            gfd g3 { x: a; then x.A = 1; }
            gfd g4 { x: a; when x.C = 1; then x.D = 1, x.D = 2; }
            """
        )
        # A=B=C and A=1 force C=1, firing g4's contradictory consequent.
        assert not seq_sat(sigma).satisfiable


class TestValueTypes:
    def test_float_and_int_constants_distinct_classes(self):
        # 1 == 1.0 in Python: the library treats them as the same constant.
        sigma = parse_gfds(
            """
            gfd g1 { x: a; then x.A = 1; }
            gfd g2 { x: a; then x.A = 1.0; }
            """
        )
        assert seq_sat(sigma).satisfiable

    def test_string_vs_int_conflict(self):
        sigma = parse_gfds(
            """
            gfd g1 { x: a; then x.A = 1; }
            gfd g2 { x: a; then x.A = "1"; }
            """
        )
        assert not seq_sat(sigma).satisfiable

    def test_boolean_constants(self):
        sigma = parse_gfds(
            """
            gfd g1 { x: a; then x.A = true; }
            gfd g2 { x: a; then x.A = false; }
            """
        )
        assert not seq_sat(sigma).satisfiable


class TestDuplicateNamesAndValidation:
    def test_duplicate_names_rejected_in_par_sat(self):
        sigma = parse_gfds("gfd same { x: a; then x.A = 1; }") + parse_gfds(
            "gfd same { x: b; then x.B = 1; }"
        )
        with pytest.raises(GFDError):
            par_sat(sigma, RuntimeConfig(workers=2))

    def test_duplicate_names_rejected_in_implication(self):
        """An unrelated rule sharing a name must not hide the one that
        implies φ: implication is monotone in Σ, so the answer would be
        wrong, and the rule order would decide it."""
        sigma = parse_gfds(
            """
            gfd r {
              x: person; y: city;
              x -[lives_in]-> y;
              then x.country = y.country;
            }
            """
        ) + parse_gfds("gfd r { x: car; then x.wheels = 4; }")
        phi = sigma[0]
        with pytest.raises(GFDError):
            seq_imp(sigma, phi)
        with pytest.raises(GFDError):
            seq_imp(sigma, phi, use_dependency_order=False)
        with pytest.raises(GFDError):
            par_imp(sigma, phi, RuntimeConfig(workers=2))
        with pytest.raises(GFDError):
            gfd_dependency_order(sigma)
        # Under distinct names the same Σ implies φ on every path.
        renamed = [sigma[0], replace(sigma[1], name="r2")]
        assert seq_imp(renamed, phi).implied
        assert seq_imp(renamed, phi, use_dependency_order=False).implied
        assert par_imp(renamed, phi, RuntimeConfig(workers=2)).implied

    def test_duplicate_names_rejected_in_error_detection(self):
        """Detection rejects colliding names as sat and imp do, instead of
        answering for an ambiguous rule set."""
        sigma = parse_gfds("gfd r { x: a; then x.A = 1; }") + parse_gfds(
            "gfd r { x: a; then x.B = 2; }"
        )
        graph = PropertyGraph()
        graph.add_node("a", {"A": 2})
        with pytest.raises(GFDError, match="duplicate GFD name"):
            detect_errors(graph, sigma)
        with pytest.raises(GFDError, match="duplicate GFD name"):
            detect_errors_store(graph, sigma)

    def test_trivial_gfds_are_harmless(self):
        sigma = parse_gfds(
            """
            gfd trivial { x: a; when x.A = 1; }
            gfd real { x: a; then x.A = 2; }
            """
        )
        assert seq_sat(sigma).satisfiable
        assert par_sat(sigma, RuntimeConfig(workers=2)).satisfiable


class TestMatcherResumption:
    def test_generator_can_be_partially_consumed_and_resumed(self, small_graph):
        pattern = make_pattern({"x": "_"})
        run = MatcherRun(pattern, small_graph)
        iterator = run.matches()
        first = next(iterator)
        assert first
        remaining = list(run.matches())
        total = 1 + len(remaining)
        assert total == small_graph.num_nodes

    def test_exhausted_run_yields_nothing(self, small_graph):
        pattern = make_pattern({"x": "a"})
        run = MatcherRun(pattern, small_graph)
        assert len(list(run.matches())) == 2
        assert list(run.matches()) == []


class TestImplicationCornerCases:
    def test_phi_with_disconnected_pattern(self):
        pattern = make_pattern({"x": "a", "y": "b"})
        phi = make_gfd(pattern, [lit_eq("x", "A", 1)], [lit_eq("y", "B", 2)])
        sigma = parse_gfds("gfd s { u: b; then u.B = 2; }")
        assert seq_imp(sigma, phi).implied
        assert par_imp(sigma, phi, RuntimeConfig(workers=2)).implied

    def test_sigma_with_wildcard_applies_inside_gxq(self):
        sigma = parse_gfds("gfd w { z: _; then z.T = 9; }")
        phi = parse_gfds("gfd p { x: a; then x.T = 9; }")[0]
        assert seq_imp(sigma, phi).implied

    def test_phi_needs_attribute_on_specific_node(self):
        sigma = parse_gfds("gfd s { u: a; v: b; u -[e]-> v; then u.T = 1; }")
        # phi's pattern has no edge, so sigma's pattern cannot match G^X_Q.
        phi = parse_gfds("gfd p { x: a; then x.T = 1; }")[0]
        assert not seq_imp(sigma, phi).implied
