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
from ..matching.ruleset import sequential_run
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
    graph: PropertyGraph, gfd: GFD, limit: Optional[int] = None
) -> List[Violation]:
    """Matches of *gfd* in *graph* that violate ``X → Y`` (up to *limit*):
    error detection for a rule set of one."""
    return _detect(graph, {gfd.name: gfd}, limit)


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
) -> List[Violation]:
    """All violations of *sigma* in *graph* — the error-detection workload
    that motivates validating rule sets before use (paper, Section I).

    The whole rule set is matched in one shared-prefix trie walk, with
    dual-simulation pruning; violations are collected per GFD during the
    walk and returned grouped by GFD in Σ order, each group in its rule's
    match order. *limit_per_gfd* keeps the first violations of each rule,
    and the walk stops once every rule has that many. Raises
    :class:`~repro.errors.GFDError` when two rules of Σ share a name.
    """
    return _detect(graph, gfds_by_name(sigma), limit_per_gfd)


def _detect(
    graph: PropertyGraph, by_name: Dict[str, GFD], limit_per_gfd: Optional[int]
) -> List[Violation]:
    if limit_per_gfd is not None and limit_per_gfd <= 0:
        return []
    run, _ = sequential_run(graph, by_name.values())
    per_gfd: Dict[str, List[Violation]] = {name: [] for name in run.active_names()}
    # Rules still short of their quota: the walk stops when none is left.
    open_rules = len(per_gfd)
    for name, assignment in run.matches():
        bucket = per_gfd[name]
        if limit_per_gfd is not None and len(bucket) >= limit_per_gfd:
            continue
        gfd = by_name[name]
        if not match_satisfies(graph, gfd.antecedent, assignment):
            continue
        if match_satisfies(graph, gfd.consequent, assignment):
            continue
        bucket.append(Violation(name, dict(assignment), evidence_ref(name, assignment)))
        if len(bucket) == limit_per_gfd:
            open_rules -= 1
            if not open_rules:
                break
    return [violation for name in by_name for violation in per_gfd.get(name, ())]


def detect_errors_store(
    graph: PropertyGraph,
    sigma: Sequence[GFD],
    limit_per_gfd: Optional[int] = None,
) -> ResultStore:
    """:func:`detect_errors` with the layered result model attached.

    Every violation claim references an interned :class:`MatchEvidence`
    record for its witnessing match (origin ``"validate"``, plan
    ``"ruleset"``). Error detection runs against concrete attribute
    values — no ``Eq`` chase — so the store's derivation layer is empty.
    Each record reuses its violation's ``evidence_ref``, so every match is
    digested once.
    """
    by_name = gfds_by_name(sigma)
    violations = _detect(graph, by_name, limit_per_gfd)
    store = ResultStore(violations=violations)
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
                plan="ruleset",
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
