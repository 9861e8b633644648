"""Tests for the layered result model: evidence, derivation, claims.

The three layers reference but never flatten into each other — these
tests pin the contracts each layer stands on: stable content-derived
evidence refs, lazy first-wins interning, first-conflict-wins at the
``Eq``, and a :class:`ResultStore` that answers "which rule, which
pivot, which merge steps" with zero re-matching.
"""

import json
import pickle

import pytest

from repro import parse_gfds, seq_sat
from repro.eq.eqrelation import Conflict, EqRelation, Provenance
from repro.graph.delta import AddEdge, AddNode
from repro.graph.graph import PropertyGraph
from repro.parallel import RuntimeConfig, par_sat
from repro.reasoning.explain import explain_unsatisfiability
from repro.reasoning.validation import detect_errors_store
from repro.results import evidence as evidence_module
from repro.results import (
    ConflictClaim,
    EvidenceLog,
    MatchEvidence,
    ResultStore,
    Violation,
    evidence_ref,
)

#: A three-rule chain (paper Example 4 shape): g1 seeds x.A, g2 derives
#: x.B from it, g3 clashes back on x.A — unsatisfiable through control
#: dependence, not a direct clash.
CHAIN_UNSAT = """
gfd g1 { x: a; then x.A = 1; }
gfd g2 { x: a; when x.A = 1; then x.B = 2; }
gfd g3 { x: a; when x.B = 2; then x.A = 3; }
"""

CHAIN_SAT = """
gfd g1 { x: a; then x.A = 1; }
gfd g2 { x: a; when x.A = 1; then x.B = 2; }
"""


def _dirty_graph():
    """Two ``a``-nodes violating ``g: a => A = 1`` and one clean."""
    g = PropertyGraph()
    g.add_node("a", {"A": 5}, node_id="n1")
    g.add_node("a", {"A": 7}, node_id="n2")
    g.add_node("a", {"A": 1}, node_id="n3")
    g.add_node("b", {}, node_id="m1")
    g.add_edge("n1", "m1", "e")
    return g


DETECT_SIGMA = 'gfd g { x: a; then x.A = 1; }'


class TestEvidenceRefs:
    def test_ref_excludes_producer_metadata(self):
        assignment = {"x": "n1", "y": "n2"}
        plain = MatchEvidence.from_match("g", assignment)
        decorated = MatchEvidence.from_match(
            "g", assignment, pivot="n1", origin="unit", plan="ruleset",
            fragment=3, unit_uid="u17",
        )
        assert plain.ref == decorated.ref == evidence_ref("g", assignment)
        assert decorated.fragment == 3 and decorated.origin == "unit"

    def test_ref_insensitive_to_dict_order(self):
        a = evidence_ref("g", {"x": "n1", "y": "n2"})
        b = evidence_ref("g", {"y": "n2", "x": "n1"})
        assert a == b

    def test_ref_distinguishes_rule_and_assignment(self):
        assert evidence_ref("g", {"x": "n1"}) != evidence_ref("h", {"x": "n1"})
        assert evidence_ref("g", {"x": "n1"}) != evidence_ref("g", {"x": "n2"})


class TestEvidenceLog:
    def test_note_is_lazy_and_first_wins(self):
        log = EvidenceLog()
        log.note("g", {"x": "n1"}, {"origin": "seq"})
        log.note("g", {"x": "n1"}, {"origin": "cascade"})  # duplicate match
        log.note("g", {"x": "n2"}, {"origin": "seq"})
        # Nothing materialized yet: capture is append-only on the hot path.
        assert log._pending and not log._records
        # First read flushes; the duplicate interns to the first record.
        assert len(log) == 2
        assert not log._pending
        first = log.get(evidence_ref("g", {"x": "n1"}))
        assert first is not None and first.origin == "seq"

    def test_intern_returns_canonical_record(self):
        log = EvidenceLog()
        record = MatchEvidence.from_match("g", {"x": "n1"}, origin="unit")
        assert log.intern(record) is record
        duplicate = MatchEvidence.from_match("g", {"x": "n1"}, origin="validate")
        assert log.intern(duplicate) is record

    def test_absorbing_a_payload_twice_adds_nothing(self):
        source = EvidenceLog()
        mark = source.mark()
        source.note("g", {"x": "n1"}, {})
        source.note("g", {"x": "n2"}, {})
        payload = source.export_since(mark)
        # Export is raw: nothing was digested on the producing side.
        assert source._pending and not source._records
        target = EvidenceLog()
        target.absorb(payload)
        assert len(target) == 2
        target.absorb(payload)
        assert len(target) == 2
        assert target.refs() == source.refs()

    def test_export_ships_only_notes_after_the_mark(self):
        log = EvidenceLog()
        log.note("g", {"x": "n1"}, {})
        mark = log.mark()
        log.note("g", {"x": "n2"}, {})
        target = EvidenceLog()
        target.absorb(log.export_since(mark))
        assert target.refs() == [evidence_ref("g", {"x": "n2"})]

    def test_local_notes_and_payloads_intern_first_wins_in_arrival_order(self):
        remote = EvidenceLog()
        remote.note("g", {"x": "n1"}, {"origin": "remote"})
        remote.note("g", {"x": "n2"}, {"origin": "remote"})
        payload = remote.export_since(0)
        log = EvidenceLog()
        log.note("g", {"x": "n1"}, {"origin": "local"})
        log.absorb(payload)
        log.note("g", {"x": "n2"}, {"origin": "local"})
        log.note("g", {"x": "n3"}, {"origin": "local"})
        # Queued unopened until the first read.
        assert payload in log._pending and not log._records
        assert [(r.assignment[0][1], r.origin) for r in log] == [
            ("n1", "local"),
            ("n2", "remote"),
            ("n3", "local"),
        ]

    def test_export_from_a_materialized_past_mark_raises(self):
        log = EvidenceLog()
        mark = log.mark()
        log.note("g", {"x": "n1"}, {})
        assert len(log) == 1  # a read materializes past the mark
        with pytest.raises(ValueError, match="materialized"):
            log.export_since(mark)
        # A mark taken after the read exports the notes that follow it.
        later = log.mark()
        log.note("g", {"x": "n2"}, {})
        target = EvidenceLog()
        target.absorb(log.export_since(later))
        assert target.refs() == [evidence_ref("g", {"x": "n2"})]

    def test_pickle_roundtrip(self):
        log = EvidenceLog()
        log.note("g", {"x": "n1"}, {})
        clone = pickle.loads(pickle.dumps(log))
        assert clone.refs() == log.refs()
        # The clone is live: it can capture and flush on its own.
        clone.note("g", {"x": "n2"}, {})
        assert len(clone) == 2


class TestFirstConflictWins:
    """Satellite: every route to inconsistency funnels through one
    first-wins path — later clashes never overwrite the conflict that
    ended the run, on any mutator."""

    def _conflicted(self):
        eq = EqRelation()
        eq.assign_constant(("n1", "A"), 1, "first")
        eq.assign_constant(("n1", "A"), 2, "first")
        conflict = eq.conflict
        assert conflict is not None and conflict.source == "first"
        return eq, conflict

    def test_second_assign_clash_does_not_overwrite(self):
        eq, first = self._conflicted()
        eq.assign_constant(("n2", "B"), 1, "later")
        eq.assign_constant(("n2", "B"), 9, "later")
        assert eq.conflict is first

    def test_merge_clash_does_not_overwrite(self):
        eq, first = self._conflicted()
        eq.assign_constant(("n2", "B"), 1, "later")
        eq.assign_constant(("n3", "C"), 9, "later")
        eq.merge_terms(("n2", "B"), ("n3", "C"), "later")
        assert eq.conflict is first

    def test_fail_does_not_overwrite(self):
        eq, first = self._conflicted()
        eq.fail(("n9", "<false>"), "later")
        assert eq.conflict is first

    def test_install_conflict_does_not_overwrite(self):
        eq, first = self._conflicted()
        shipped = Conflict(("n9", "Z"), 0, 1, "replica")
        eq.install_conflict(shipped)
        assert eq.conflict is first

    def test_install_conflict_on_clean_eq_sets_it(self):
        eq = EqRelation()
        shipped = Conflict(("n9", "Z"), 0, 1, "replica")
        eq.install_conflict(shipped)
        assert eq.conflict is shipped

    def test_merge_clash_sets_first_conflict(self):
        eq = EqRelation()
        eq.assign_constant(("n1", "A"), 1, "g1")
        eq.assign_constant(("n2", "B"), 2, "g2")
        eq.merge_terms(("n1", "A"), ("n2", "B"), "g3")
        assert eq.conflict is not None and eq.conflict.source == "g3"
        eq.fail(("n9", "<false>"), "g4")
        assert eq.conflict.source == "g3"


class TestResultStoreUnsat:
    def test_conflict_claim_references_layers(self):
        store = seq_sat(parse_gfds(CHAIN_UNSAT)).results
        assert isinstance(store.conflict, ConflictClaim)
        assert store.conflict.gfd_name == "g3"
        assert store.evidence.get(store.conflict.evidence_ref) is not None
        assert store.conflict in store.claims()

    def test_explain_conflict_reconstructs_the_chain(self):
        store = seq_sat(parse_gfds(CHAIN_UNSAT)).results
        explanation = store.explain_conflict()
        assert explanation is not None
        assert set(explanation.gfds_involved) == {"g1", "g2", "g3"}
        assert len(explanation.steps) >= 2
        # Every step's match resolves in the evidence layer.
        for op in explanation.steps:
            assert op.provenance is not None
            assert store.evidence.get(op.provenance.match_ref) is not None
        assert explanation.evidence  # the supporting matches, deduped

    def test_explain_is_zero_rematching(self, monkeypatch):
        store = seq_sat(parse_gfds(CHAIN_UNSAT)).results
        # After the run, the matcher must never fire again: explanations
        # are reference lookups + a backward slice, nothing else.
        import repro.matching.homomorphism as homomorphism

        def boom(self, *args, **kwargs):
            raise AssertionError("explain re-entered the matcher")

        monkeypatch.setattr(homomorphism.MatcherRun, "matches", boom)
        explanation = store.explain_conflict()
        assert explanation is not None and explanation.steps

    def test_affected_by_conflict_nodes(self):
        store = seq_sat(parse_gfds(CHAIN_UNSAT)).results
        node = store.conflict.term[0]
        assert store.conflict in store.affected_by([node])
        assert store.affected_by(["no-such-node"]) == []

    def test_json_export_round_trips(self):
        store = seq_sat(parse_gfds(CHAIN_UNSAT)).results
        payload = json.loads(store.dumps())
        assert payload["conflict"]["gfd"] == "g3"
        assert payload["violations"] == []
        refs = {record["ref"] for record in payload["evidence"]}
        assert payload["conflict"]["evidence_ref"] in refs
        assert any(step["match_ref"] in refs for step in payload["derivation"])

    def test_capture_off_degrades_gracefully(self):
        result = seq_sat(parse_gfds(CHAIN_UNSAT), capture_provenance=False)
        store = result.results
        assert not result.satisfiable
        assert len(store.evidence) == 0
        # Claims still stand on bare sources; explanation still slices.
        assert store.conflict is not None and store.conflict.gfd_name == "g3"
        explanation = store.explain_conflict()
        assert explanation is not None and explanation.evidence == []


class TestResultStoreSat:
    def test_satisfiable_store_has_evidence_no_claims(self):
        store = seq_sat(parse_gfds(CHAIN_SAT)).results
        assert store.conflict is None and store.violations == []
        assert store.claims() == []
        assert store.explain_conflict() is None
        assert {record.gfd for record in store.evidence} == {"g1", "g2"}
        assert len(store.derivation) >= 2


class TestDetectionStore:
    def test_violations_reference_interned_evidence(self):
        sigma = parse_gfds(DETECT_SIGMA)
        store = detect_errors_store(_dirty_graph(), sigma)
        assert sorted(v.assignment["x"] for v in store.violations) == ["n1", "n2"]
        for violation in store.violations:
            record = store.evidence_for(violation)
            assert record is not None
            assert record.origin == "validate" and record.plan == "per-rule"
            assert record.pivot == violation.assignment["x"]
        # Detection reads concrete values: no Eq chase, empty derivation.
        assert store.derivation == []

    def test_explain_violation_carries_its_evidence(self):
        sigma = parse_gfds(DETECT_SIGMA)
        store = detect_errors_store(_dirty_graph(), sigma)
        violation = store.violations[0]
        explanation = store.explain_violation(violation)
        assert explanation.gfds_involved == ["g"]
        assert explanation.evidence[0].ref == violation.evidence_ref

    def test_affected_by_journal_ops_and_bare_ids(self):
        sigma = parse_gfds(DETECT_SIGMA)
        store = detect_errors_store(_dirty_graph(), sigma)
        by_node = {v.assignment["x"]: v for v in store.violations}
        # A journal op touching n1 flags only n1's claim...
        affected = store.affected_by([AddEdge("n1", "m1", "e")])
        assert affected == [by_node["n1"]]
        # ...an AddNode of a fresh id flags nothing...
        assert store.affected_by([AddNode("a", {}, "n99")]) == []
        # ...and bare node ids work the same as ops.
        assert store.affected_by(["n2"]) == [by_node["n2"]]

    def test_each_violation_is_digested_once(self, monkeypatch):
        """Store records reuse the ref their violation already holds;
        refs and records are those of a from-scratch construction."""
        sigma = parse_gfds(
            DETECT_SIGMA + "gfd h { y: b; x: a; x -[e]-> y; then x.A = 1; }"
        )
        graph = _dirty_graph()
        original = evidence_module.ref_of_items
        for use_ruleset_plan, plan in ((False, "per-rule"), (True, "ruleset")):
            digests = []

            def counting_ref_of_items(gfd, items):
                digests.append(gfd)
                return original(gfd, items)

            monkeypatch.setattr(evidence_module, "ref_of_items", counting_ref_of_items)
            store = detect_errors_store(graph, sigma, use_ruleset_plan=use_ruleset_plan)
            monkeypatch.undo()
            assert len(store.violations) == 3
            assert len(digests) == len(store.violations)
            expected = [
                MatchEvidence.from_match(
                    v.gfd_name,
                    v.assignment,
                    pivot=v.assignment["x" if v.gfd_name == "g" else "y"],
                    origin="validate",
                    plan=plan,
                )
                for v in store.violations
            ]
            assert [v.evidence_ref for v in store.violations] == [r.ref for r in expected]
            assert store.evidence.to_json() == [r.to_json() for r in expected]

    def test_ruleset_plan_store_matches_per_rule(self):
        sigma = parse_gfds(DETECT_SIGMA)
        graph = _dirty_graph()
        per_rule = detect_errors_store(graph, sigma)
        trie = detect_errors_store(graph, sigma, use_ruleset_plan=True)
        key = lambda v: (v.gfd_name, tuple(sorted(v.assignment.items())))
        assert [key(v) for v in trie.violations] == [key(v) for v in per_rule.violations]
        assert set(trie.evidence.refs()) == set(per_rule.evidence.refs())
        assert all(record.plan == "ruleset" for record in trie.evidence)


class TestExplainAcrossExecutionModes:
    """Satellite: explanations hold under the rule-set plan trie and
    fragmented parallel runs, not just the sequential per-rule loop."""

    def test_ruleset_plan_conflict_explains_identically(self):
        sigma = parse_gfds(CHAIN_UNSAT)
        per_rule = seq_sat(sigma).results.explain_conflict()
        result = seq_sat(sigma, use_ruleset_plan=True)
        assert not result.satisfiable
        trie = result.results.explain_conflict()
        assert set(trie.gfds_involved) == set(per_rule.gfds_involved)
        assert {r.ref for r in trie.evidence} == {r.ref for r in per_rule.evidence}

    def test_explain_unsatisfiability_accepts_ruleset_result(self, example4_sigma):
        result = seq_sat(example4_sigma, use_ruleset_plan=True)
        explanation = explain_unsatisfiability(example4_sigma, result)
        assert explanation is not None
        assert set(explanation.gfds_involved) == {"phi7", "phi9", "phi10"}

    @pytest.mark.parametrize("fragments", [1, 4])
    def test_fragmented_run_explains_conflict(self, fragments):
        sigma = parse_gfds(CHAIN_UNSAT)
        config = RuntimeConfig(workers=2).with_fragments(fragments)
        result = par_sat(sigma, config, backend="simulated")
        assert not result.satisfiable
        store = result.results
        explanation = store.explain_conflict()
        assert explanation is not None
        assert "g3" in explanation.gfds_involved
        for op in explanation.steps:
            if op.provenance is not None and op.provenance.match_ref:
                assert store.evidence.get(op.provenance.match_ref) is not None


class TestStoreConstruction:
    def test_from_engine_uses_shared_layers(self):
        result = seq_sat(parse_gfds(CHAIN_SAT))
        store = ResultStore.from_engine(result.engine)
        assert store.evidence is result.engine.evidence
        assert store.eq is result.eq
        assert [op.kind for op in store.derivation] == [
            op.kind for op in result.eq.delta_since(0)
        ]

    def test_violation_claim_str_and_json(self):
        violation = Violation("g", {"x": "n1"}, "abc123")
        assert "g violated" in str(violation)
        assert violation.to_json()["evidence_ref"] == "abc123"

    def test_conflict_claim_lifts_provenance(self):
        prov = Provenance("g3", "ref9", (("n1", "A"),))
        conflict = Conflict(("n1", "A"), 1, 3, "g3", prov)
        claim = ConflictClaim.from_conflict(conflict)
        assert claim.gfd_name == "g3"
        assert claim.evidence_ref == "ref9"
        assert claim.premise_terms == (("n1", "A"),)
