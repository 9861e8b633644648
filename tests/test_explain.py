"""Tests for conflict explanations (backward slicing of the delta log)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import parse_gfds, seq_sat
from repro.gfd.generator import conflict_chain, random_gfds
from repro.reasoning.explain import (
    Explanation,
    explain_unsatisfiability,
    render_explanation,
)


class TestExplain:
    def test_satisfiable_returns_none(self):
        sigma = parse_gfds("gfd g { x: a; then x.A = 1; }")
        assert explain_unsatisfiability(sigma) is None

    def test_direct_conflict_involves_both_rules(self, example2_conflicting):
        explanation = explain_unsatisfiability(example2_conflicting)
        assert explanation is not None
        assert set(explanation.gfds_involved) == {"phi5", "phi6"}
        assert len(explanation.steps) >= 1

    def test_example4_chain_reconstructed(self, example4_sigma):
        """The three-rule interaction of paper Example 4 shows up whole."""
        explanation = explain_unsatisfiability(example4_sigma)
        assert set(explanation.gfds_involved) == {"phi7", "phi9", "phi10"}

    def test_conflict_chain_full_depth(self):
        chain = conflict_chain(5)
        explanation = explain_unsatisfiability(chain)
        # Every link of the chain participates in the derivation.
        names = {gfd.name for gfd in chain}
        assert names <= set(explanation.gfds_involved) | names
        assert len(explanation.gfds_involved) == len(chain)

    def test_reuses_existing_result(self, example4_sigma):
        result = seq_sat(example4_sigma)
        explanation = explain_unsatisfiability(example4_sigma, result)
        assert explanation is not None and explanation.conflict is result.conflict

    def test_render_contains_steps_and_clash(self, example4_sigma):
        explanation = explain_unsatisfiability(example4_sigma)
        text = render_explanation(explanation)
        assert "clash" in text
        assert "rules involved" in text
        assert "1." in text

    def test_slice_is_subset_of_log(self, example4_sigma):
        result = seq_sat(example4_sigma)
        sliced = explain_unsatisfiability(example4_sigma, result).steps
        log = result.eq.delta_since(0)
        assert len(sliced) <= len(log)
        log_index = {id(op) for op in log}
        assert all(id(op) in log_index for op in sliced)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_explanation_slice_contains_conflict_sources(seed):
    """Property: whenever a random set is unsatisfiable, the explanation
    derives the conflicting constants — the slice mentions the conflicting
    class's terms and the clash's source rule."""
    sigma = random_gfds(
        10, max_pattern_nodes=4, max_literals=3, seed=seed, consistent=False
    )
    result = seq_sat(sigma)
    if result.satisfiable:
        return
    explanation = explain_unsatisfiability(sigma, result)
    assert explanation is not None
    conflict = result.conflict
    clash_gfd = conflict.provenance.gfd if conflict.provenance else conflict.source
    if clash_gfd:
        assert clash_gfd in explanation.gfds_involved
    # The slice is a subsequence of the log, and every step is connected to
    # the conflict through data (class terms) or control (premise) edges —
    # both read straight off each op's structured provenance.
    log = result.eq.delta_since(0)
    log_ids = [id(op) for op in log]
    positions = [log_ids.index(id(op)) for op in explanation.steps]
    assert positions == sorted(positions)
    relevant = set(result.eq.members(conflict.term))
    if conflict.provenance is not None:
        relevant.update(conflict.provenance.premise_terms)
    for op in reversed(explanation.steps):
        assert any(term in relevant for term in op.terms())
        relevant.update(op.terms())
        if op.provenance is not None:
            relevant.update(op.provenance.premise_terms)
    # Every step's evidence ref resolves in the run's evidence layer.
    store = result.results
    for op in explanation.steps:
        if op.provenance is not None and op.provenance.match_ref:
            assert store.evidence.get(op.provenance.match_ref) is not None
