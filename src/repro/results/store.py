"""The result store: one queryable object over all three layers.

A :class:`ResultStore` bundles the evidence log, the derivation log (the
``Eq`` delta ops with structured provenance), and the claims a run
produced, plus the final ``Eq`` for class-membership queries. Everything
it answers — "which rule, which pivot, which merge steps" — is resolved
by reference lookups and a backward slice over the derivation log, with
zero re-matching: the store never touches the graph or the matcher.

The generic backward-slice lives here (:func:`slice_derivation`);
:func:`repro.reasoning.explain.explain_unsatisfiability` is a view over
:meth:`ResultStore.explain_conflict`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..eq.eqrelation import Conflict, DeltaOp, EqRelation, Term
from ..graph.elements import NodeId
from .claims import ConflictClaim, Violation
from .evidence import EvidenceLog, MatchEvidence


def _op_premises(op: DeltaOp) -> Tuple[Term, ...]:
    return op.provenance.premise_terms if op.provenance is not None else ()


def slice_derivation(
    log: Sequence[DeltaOp],
    seed_terms: Iterable[Term],
) -> List[DeltaOp]:
    """Backward slice of *log*: the ops that contributed to *seed_terms*.

    Walks the log backwards keeping every op that touches a relevant
    term; a kept op makes its own terms *and* its control premises (the
    antecedent terms of the match that fired it, from structured
    provenance) relevant. The control edges reconstruct multi-rule
    chains like paper Example 4, where one rule's constant only
    *enables* another without sharing a class with the clash. Returns
    the kept ops in forward order.
    """
    relevant: Set[Term] = set(seed_terms)
    kept: List[DeltaOp] = []
    for index in range(len(log) - 1, -1, -1):
        op = log[index]
        if any(term in relevant for term in op.terms()):
            kept.append(op)
            relevant.update(op.terms())
            relevant.update(_op_premises(op))
    kept.reverse()
    return kept


@dataclass
class DerivationExplanation:
    """A claim plus its sliced derivation chain and supporting evidence."""

    steps: List[DeltaOp] = field(default_factory=list)
    gfds_involved: List[str] = field(default_factory=list)
    evidence: List[MatchEvidence] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class ResultStore:
    """Evidence + derivation + claims from one run, queryable post-run."""

    evidence: EvidenceLog = field(default_factory=EvidenceLog)
    derivation: List[DeltaOp] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    conflict: Optional[ConflictClaim] = None
    eq: Optional[EqRelation] = None

    @classmethod
    def from_engine(
        cls,
        engine,
        violations: Sequence[Violation] = (),
    ) -> "ResultStore":
        """Assemble the store from an :class:`EnforcementEngine` post-run."""
        eq = engine.eq
        conflict = eq.conflict
        return cls(
            evidence=engine.evidence,
            derivation=list(eq.delta_since(0)),
            violations=list(violations),
            conflict=ConflictClaim.from_conflict(conflict) if conflict else None,
            eq=eq,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def evidence_for(self, claim) -> Optional[MatchEvidence]:
        """Resolve a claim's evidence reference, or None when it has none."""
        ref = getattr(claim, "evidence_ref", "")
        return self.evidence.get(ref) if ref else None

    def claims(self) -> List[object]:
        out: List[object] = list(self.violations)
        if self.conflict is not None:
            out.append(self.conflict)
        return out

    def gfds_involved(self, steps: Sequence[DeltaOp]) -> List[str]:
        """Rule names behind *steps*, via structured provenance only."""
        involved: List[str] = []
        for op in steps:
            name = op.provenance.gfd if op.provenance is not None else op.source
            if name and name not in involved:
                involved.append(name)
        return involved

    def explain_conflict(self) -> Optional[DerivationExplanation]:
        """The derivation chain ending in the run's conflict, or None."""
        if self.conflict is None:
            return None
        seeds: Set[Term] = set(self.conflict.premise_terms)
        seeds.add(self.conflict.term)
        if self.eq is not None:
            seeds.update(self.eq.members(self.conflict.term))
        steps = slice_derivation(self.derivation, seeds)
        involved = self.gfds_involved(steps)
        if self.conflict.gfd_name and self.conflict.gfd_name not in involved:
            involved.append(self.conflict.gfd_name)
        return DerivationExplanation(steps, involved, self._steps_evidence(steps))

    def explain_violation(self, violation: Violation) -> DerivationExplanation:
        """Why this match's ``X`` held: the derivation touching its nodes.

        For detect-style violations against a concrete graph the chain is
        usually empty (the attribute values are facts, not derivations);
        for violations over ``GΣ`` the slice shows which enforcements
        populated the antecedent.
        """
        ev = self.evidence_for(violation)
        seeds: Set[Term] = set()
        nodes = set(violation.assignment.values())
        if ev is not None:
            nodes.update(node for _, node in ev.assignment)
        for op in self.derivation:
            for term in op.terms():
                if term[0] in nodes:
                    seeds.add(term)
        steps = slice_derivation(self.derivation, seeds)
        involved = self.gfds_involved(steps)
        if violation.gfd_name not in involved:
            involved.append(violation.gfd_name)
        explanation = DerivationExplanation(steps, involved, self._steps_evidence(steps))
        if ev is not None and ev not in explanation.evidence:
            explanation.evidence.insert(0, ev)
        return explanation

    def _steps_evidence(self, steps: Sequence[DeltaOp]) -> List[MatchEvidence]:
        seen: Set[str] = set()
        records: List[MatchEvidence] = []
        for op in steps:
            ref = op.provenance.match_ref if op.provenance is not None else ""
            if ref and ref not in seen:
                record = self.evidence.get(ref)
                if record is not None:
                    seen.add(ref)
                    records.append(record)
        return records

    def affected_by(self, delta: Sequence[object]) -> List[object]:
        """Claims whose evidence a mutation batch could touch.

        *delta* is a sequence of graph journal ops
        (:class:`~repro.graph.delta.AddNode` / ``AddEdge`` / ``SetLabel``)
        or bare node ids. A claim is affected when any node in its
        witnessing match's assignment (or its premise/conflict terms)
        appears in the delta — the hook for incremental re-validation:
        only these claims need re-checking after the mutation lands.
        """
        nodes: Set[NodeId] = set()
        for op in delta:
            if hasattr(op, "node_id"):
                nodes.add(op.node_id)
            elif hasattr(op, "src"):
                nodes.add(op.src)
                nodes.add(op.dst)
            else:
                nodes.add(op)  # bare node id
        affected: List[object] = []
        for violation in self.violations:
            touched = set(violation.assignment.values())
            ev = self.evidence_for(violation)
            if ev is not None:
                touched.update(node for _, node in ev.assignment)
            if touched & nodes:
                affected.append(violation)
        if self.conflict is not None:
            touched = {self.conflict.term[0]}
            touched.update(term[0] for term in self.conflict.premise_terms)
            ev = self.evidence_for(self.conflict)
            if ev is not None:
                touched.update(node for _, node in ev.assignment)
            if touched & nodes:
                affected.append(self.conflict)
        return affected

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        return {
            "violations": [v.to_json() for v in self.violations],
            "conflict": self.conflict.to_json() if self.conflict else None,
            "evidence": self.evidence.to_json(),
            "derivation": [
                {
                    "kind": op.kind,
                    "term": list(op.term),
                    "value": op.value,
                    "other": list(op.other) if op.other else None,
                    "gfd": (op.provenance.gfd if op.provenance else op.source),
                    "match_ref": (op.provenance.match_ref if op.provenance else ""),
                }
                for op in self.derivation
            ],
        }

    def dumps(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, default=str)
