"""Tests for SeqImp: paper examples, trivial cases, axiom-like properties."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import implies, parse_gfds, seq_imp
from repro.bench.harness import synthetic_imp_sweep
from repro.gfd import make_gfd, make_pattern
from repro.gfd.generator import random_gfds
from repro.gfd.literals import eq, vareq


class TestPaperExample8:
    def test_phi13_derived(self, example8_sigma, example8_phi13):
        result = seq_imp(example8_sigma, example8_phi13)
        assert result.implied
        assert result.reason == "derived"

    def test_phi13_not_implied_by_either_alone(self, example8_sigma, example8_phi13):
        assert not seq_imp([example8_sigma[0]], example8_phi13).implied
        assert not seq_imp([example8_sigma[1]], example8_phi13).implied

    def test_phi14_conflict(self, example8_sigma, example8_phi14):
        result = seq_imp(example8_sigma, example8_phi14)
        assert result.implied
        assert result.reason == "conflict"


class TestTrivialCases:
    def test_empty_consequent_trivially_implied(self):
        phi = parse_gfds("gfd t { x: a; when x.A = 1; }")[0]
        result = seq_imp([], phi)
        assert result.implied and result.reason == "trivial-Y"

    def test_inconsistent_antecedent_trivially_implied(self):
        pattern = make_pattern({"x": "a"})
        phi = make_gfd(pattern, [eq("x", "A", 1), eq("x", "A", 2)], [eq("x", "B", 3)])
        result = seq_imp([], phi)
        assert result.implied and result.reason == "trivial-X"

    def test_consequent_already_in_antecedent(self):
        phi = parse_gfds("gfd t { x: a; when x.A = 1; then x.A = 1; }")[0]
        result = seq_imp([], phi)
        assert result.implied and result.reason == "derived"

    def test_consequent_by_transitivity_of_x(self):
        pattern = make_pattern({"x": "a", "y": "a"}, [("x", "y", "e")])
        phi = make_gfd(
            pattern,
            [vareq("x", "A", "y", "B"), vareq("y", "B", "x", "C")],
            [vareq("x", "A", "x", "C")],
        )
        result = seq_imp([], phi)
        assert result.implied and result.reason == "derived"

    def test_empty_sigma_nontrivial_phi_not_implied(self):
        phi = parse_gfds("gfd t { x: a; then x.A = 1; }")[0]
        assert not seq_imp([], phi).implied


class TestAxiomLikeProperties:
    def test_reflexivity_exact_duplicate(self):
        sigma = parse_gfds(
            """
            gfd g1 { x: a; y: b; x -[e]-> y; when x.A = 1; then y.B = 2; }
            """
        )
        duplicate = parse_gfds(
            """
            gfd copy { u: a; v: b; u -[e]-> v; when u.A = 1; then v.B = 2; }
            """
        )[0]
        assert seq_imp(sigma, duplicate).implied

    def test_weaker_pattern_does_not_imply_stronger(self):
        # Knowing something about a-with-edge tells nothing about bare a.
        sigma = parse_gfds("gfd g { x: a; y: b; x -[e]-> y; then x.A = 1; }")
        phi = parse_gfds("gfd p { x: a; then x.A = 1; }")[0]
        assert not seq_imp(sigma, phi).implied

    def test_stronger_pattern_implied_by_weaker(self):
        # A constraint on every 'a' node applies to 'a' nodes with an edge.
        sigma = parse_gfds("gfd g { x: a; then x.A = 1; }")
        phi = parse_gfds("gfd p { x: a; y: b; x -[e]-> y; then x.A = 1; }")[0]
        assert seq_imp(sigma, phi).implied

    def test_wildcard_generalizes(self):
        sigma = parse_gfds("gfd g { x: _; then x.A = 1; }")
        phi = parse_gfds("gfd p { x: specific; then x.A = 1; }")[0]
        assert seq_imp(sigma, phi).implied

    def test_label_does_not_generalize_to_wildcard(self):
        sigma = parse_gfds("gfd g { x: specific; then x.A = 1; }")
        phi = parse_gfds("gfd p { x: _; then x.A = 1; }")[0]
        assert not seq_imp(sigma, phi).implied

    def test_transitive_composition(self):
        sigma = parse_gfds(
            """
            gfd s1 { x: a; when x.A = 1; then x.B = 2; }
            gfd s2 { x: a; when x.B = 2; then x.C = 3; }
            """
        )
        phi = parse_gfds("gfd p { x: a; when x.A = 1; then x.C = 3; }")[0]
        assert seq_imp(sigma, phi).implied

    def test_augmentation_with_constants(self):
        sigma = parse_gfds("gfd s { x: a; when x.A = 1; then x.B = 2; }")
        phi = parse_gfds(
            "gfd p { x: a; when x.A = 1, x.Z = 9; then x.B = 2; }"
        )[0]
        assert seq_imp(sigma, phi).implied

    def test_monotonicity_adding_premises_preserves_implication(
        self, example8_sigma, example8_phi13
    ):
        extra = parse_gfds("gfd extra { q: qq; then q.Q = 1; }")
        assert seq_imp(list(example8_sigma) + extra, example8_phi13).implied

    def test_ablation_flags_do_not_change_verdict(self, example8_sigma, example8_phi13, example8_phi14):
        for phi, expected in ((example8_phi13, True), (example8_phi14, True)):
            for dep in (True, False):
                for sim in (True, False):
                    result = seq_imp(
                        example8_sigma,
                        phi,
                        use_dependency_order=dep,
                        use_simulation_pruning=sim,
                    )
                    assert result.implied == expected

    def test_implies_wrapper(self, example8_sigma, example8_phi13):
        assert implies(example8_sigma, example8_phi13)

    def test_simulation_cuts_the_walk(self):
        """On the benchmark suite's |Σ|=25 imp input (before its seed
        reshuffle), dual simulation prunes 23 rules and cuts the trie
        walk's pools to 72,948 ticks; without it the walk checks every
        pool, 177,406 ticks, for the same matches and verdict."""
        workload = synthetic_imp_sweep((25,), k=6, l=5, seed=42)[25]
        pruned = seq_imp(workload.sigma, workload.phi)
        assert pruned.stats.pruned_by_simulation == 23
        assert pruned.stats.match_ticks == 72_948
        unpruned = seq_imp(workload.sigma, workload.phi, use_simulation_pruning=False)
        assert unpruned.stats.pruned_by_simulation == 0
        assert unpruned.stats.match_ticks == 177_406
        assert pruned.implied == unpruned.implied
        assert pruned.stats.matches == unpruned.stats.matches


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_member_of_sigma_always_implied(seed):
    """Property: Σ |= φ for every φ ∈ Σ (soundness floor)."""
    sigma = random_gfds(6, max_pattern_nodes=4, max_literals=3, seed=seed, consistent=False)
    phi = sigma[seed % len(sigma)]
    assert seq_imp(sigma, phi).implied


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_implication_order_independent(seed):
    """Property: verdict independent of Σ's order."""
    import random as _random

    rng = _random.Random(seed)
    sigma = random_gfds(8, max_pattern_nodes=4, max_literals=3, seed=seed, consistent=False)
    phi = random_gfds(1, max_pattern_nodes=4, max_literals=3, seed=seed + 1, consistent=False)[0]
    baseline = seq_imp(sigma, phi).implied
    shuffled = list(sigma)
    rng.shuffle(shuffled)
    assert seq_imp(shuffled, phi).implied == baseline
