"""GFD satisfaction on concrete property graphs, and model extraction.

This module implements the *semantics* of GFDs (Section III) directly:
``G |= φ`` iff every match ``h(x̄)`` of ``φ``'s pattern in ``G`` satisfies
``X → Y`` on the actual attribute values. It backs

* **error detection** — the motivating application: violations of a GFD in
  a (possibly dirty) graph are returned as witnesses;
* **model checking** in tests — whenever ``SeqSat`` claims satisfiability,
  :func:`extract_model` materializes a concrete model from the completed
  equivalence relation and :func:`graph_satisfies_sigma` verifies it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..gfd.gfd import GFD, gfds_by_name
from ..gfd.literals import ConstantLiteral, FalseLiteral, Literal, VariableLiteral
from ..graph.elements import NodeId
from ..graph.graph import PropertyGraph
from ..matching.homomorphism import MatcherRun
from ..matching.plan import get_plan
from ..matching.simulation import simulation_candidates
from ..results.claims import Violation
from ..results.evidence import MatchEvidence, evidence_ref
from ..results.store import ResultStore
from .seqsat import SatResult

Assignment = Mapping[str, NodeId]


def match_satisfies_literal(graph: PropertyGraph, literal: Literal, assignment: Assignment) -> bool:
    """``h(x̄) |= literal`` on concrete attribute values.

    Satisfaction requires the attributes to *exist* (paper, Section III):
    a missing attribute falsifies the literal.
    """
    if isinstance(literal, FalseLiteral):
        return False
    if isinstance(literal, ConstantLiteral):
        node = graph.node(assignment[literal.var])
        return node.has_attr(literal.attr) and node.get_attr(literal.attr) == literal.value
    assert isinstance(literal, VariableLiteral)
    node_a = graph.node(assignment[literal.var])
    node_b = graph.node(assignment[literal.other_var])
    if not node_a.has_attr(literal.attr) or not node_b.has_attr(literal.other_attr):
        return False
    return node_a.get_attr(literal.attr) == node_b.get_attr(literal.other_attr)


def match_satisfies(graph: PropertyGraph, literals: Sequence[Literal], assignment: Assignment) -> bool:
    """``h(x̄) |= X`` (conjunction over *literals*; empty set is true)."""
    return all(match_satisfies_literal(graph, lit, assignment) for lit in literals)


def find_violations(
    graph: PropertyGraph,
    gfd: GFD,
    limit: Optional[int] = None,
    use_simulation_pruning: bool = True,
    use_bitsets: bool = True,
) -> List[Violation]:
    """Matches of *gfd* in *graph* that violate ``X → Y`` (up to *limit*)."""
    if gfd.is_trivial():
        return []
    candidate_sets = None
    if use_simulation_pruning:
        candidate_sets = simulation_candidates(
            gfd.pattern, graph, use_bitsets=use_bitsets
        )
        if candidate_sets is None:
            return []
    run = MatcherRun(
        gfd.pattern,
        graph,
        candidate_sets=candidate_sets,
        plan=get_plan(gfd.pattern, graph),
    )
    violations: List[Violation] = []
    for assignment in run.matches():
        if not match_satisfies(graph, gfd.antecedent, assignment):
            continue
        if match_satisfies(graph, gfd.consequent, assignment):
            continue
        violations.append(
            Violation(gfd.name, dict(assignment), evidence_ref(gfd.name, assignment))
        )
        if limit is not None and len(violations) >= limit:
            break
    return violations


def graph_satisfies(graph: PropertyGraph, gfd: GFD) -> bool:
    """``G |= φ``."""
    return not find_violations(graph, gfd, limit=1)


def graph_satisfies_sigma(graph: PropertyGraph, sigma: Sequence[GFD]) -> bool:
    """``G |= Σ``."""
    return all(graph_satisfies(graph, gfd) for gfd in sigma)


def detect_errors(
    graph: PropertyGraph,
    sigma: Sequence[GFD],
    limit_per_gfd: Optional[int] = None,
    use_ruleset_plan: bool = False,
) -> List[Violation]:
    """All violations of *sigma* in *graph* — the error-detection workload
    that motivates validating rule sets before use (paper, Section I).

    With *use_ruleset_plan* the whole rule set is matched in one
    shared-prefix trie walk; violations are collected per GFD during the
    walk and concatenated in Σ order, so the returned list is identical to
    the per-rule loop's (per-GFD streams are byte-identical and the
    ``limit_per_gfd`` cap applies to the same prefix of each stream).
    Raises :class:`~repro.errors.GFDError` when two rules of Σ share a
    name, on either path.
    """
    return _detect(graph, gfds_by_name(sigma), limit_per_gfd, use_ruleset_plan)


def _detect(
    graph: PropertyGraph,
    by_name: Dict[str, GFD],
    limit_per_gfd: Optional[int],
    use_ruleset_plan: bool,
) -> List[Violation]:
    if use_ruleset_plan:
        from ..matching.ruleset import RuleSetPlan

        ruleset = RuleSetPlan(
            graph, (gfd for gfd in by_name.values() if not gfd.is_trivial())
        )
        per_gfd: Dict[str, List[Violation]] = {name: [] for name in ruleset.gfds}
        for name, assignment in ruleset.matches():
            bucket = per_gfd[name]
            if limit_per_gfd is not None and len(bucket) >= limit_per_gfd:
                continue
            gfd = ruleset.gfds[name]
            if not match_satisfies(graph, gfd.antecedent, assignment):
                continue
            if match_satisfies(graph, gfd.consequent, assignment):
                continue
            bucket.append(
                Violation(name, dict(assignment), evidence_ref(name, assignment))
            )
        return [
            violation for name in by_name for violation in per_gfd.get(name, ())
        ]
    errors: List[Violation] = []
    for gfd in by_name.values():
        errors.extend(find_violations(graph, gfd, limit=limit_per_gfd))
    return errors


def detect_errors_store(
    graph: PropertyGraph,
    sigma: Sequence[GFD],
    limit_per_gfd: Optional[int] = None,
    use_ruleset_plan: bool = False,
) -> ResultStore:
    """:func:`detect_errors` with the layered result model attached.

    Every violation claim references an interned :class:`MatchEvidence`
    record for its witnessing match (origin ``"validate"``; plan names the
    matching path used). Error detection runs against concrete attribute
    values — no ``Eq`` chase — so the store's derivation layer is empty.
    Each record reuses its violation's ``evidence_ref``, so every match is
    digested once.
    """
    by_name = gfds_by_name(sigma)
    violations = _detect(graph, by_name, limit_per_gfd, use_ruleset_plan)
    store = ResultStore(violations=violations)
    plan = "ruleset" if use_ruleset_plan else "per-rule"
    for violation in violations:
        variables = by_name[violation.gfd_name].pattern.variables
        assignment = violation.assignment
        store.evidence.intern(
            MatchEvidence(
                violation.evidence_ref,
                violation.gfd_name,
                tuple(sorted(assignment.items())),
                pivot=assignment.get(variables[0]) if variables else None,
                origin="validate",
                plan=plan,
            )
        )
    return store


def is_model_of(graph: PropertyGraph, sigma: Sequence[GFD]) -> bool:
    """``G`` is a *model* of ``Σ``: non-empty, satisfies ``Σ``, and every
    pattern of ``Σ`` has a match in ``G`` (paper, Section IV)."""
    if graph.num_nodes == 0:
        return False
    if not graph_satisfies_sigma(graph, sigma):
        return False
    for gfd in sigma:
        run = MatcherRun(gfd.pattern, graph, plan=get_plan(gfd.pattern, graph))
        if next(run.matches(), None) is None:
            return False
    return True


def extract_model(result: SatResult, fresh_prefix: str = "#v") -> PropertyGraph:
    """Materialize a concrete model from a satisfiable :class:`SatResult`.

    Copies ``GΣ`` and populates attributes from the completed equivalence
    relation: instantiated classes keep their constant, uninstantiated
    classes receive fresh distinct values (Theorem 1's completion). Raises
    ``ValueError`` on an unsatisfiable result.
    """
    if not result.satisfiable:
        raise ValueError("cannot extract a model from an unsatisfiable result")
    model = result.canonical.graph.copy()
    for (node, attr), value in result.eq.completed_assignment(fresh_prefix).items():
        if model.has_node(node):
            model.set_attr(node, attr, value)
    return model
