"""Canonical graphs for the small model properties.

Two constructions (paper, Sections IV-B and VI-A):

* :func:`build_canonical_graph` — ``GΣ``: the disjoint union of the patterns
  of all GFDs in ``Σ``, with empty attribute assignment. Wildcard labels are
  kept and behave as ordinary labels inside ``GΣ`` (only a wildcard in a
  *pattern* matches them).
* :func:`build_implication_canonical` — ``G^X_Q`` for a GFD
  ``φ = Q[x̄](X → Y)``: the pattern ``Q`` itself as a graph, with the initial
  equivalence relation ``Eq_X`` encoding ``F^X_A`` (attributes from ``X``,
  closed under transitivity of equality — the union-find gives closure for
  free).

Node ids in canonical graphs are strings ``"<gfd>.<var>"`` (or plain
variable names for ``G^X_Q``) so diagnostics stay readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..errors import GFDError
from ..eq.eqrelation import EqRelation, Term
from ..graph.elements import NodeId
from ..graph.graph import PropertyGraph
from .gfd import GFD, gfds_by_name
from .literals import ConstantLiteral, FalseLiteral, VariableLiteral


@dataclass
class CanonicalGraph:
    """``GΣ`` plus bookkeeping.

    Attributes
    ----------
    graph:
        The union graph (no attributes; those live in an ``EqRelation``).
    embeddings:
        For every GFD name, the identity embedding of its own pattern copy:
        variable -> node id in :attr:`graph`.
    component_roots:
        One representative node id per pattern copy (= per connected
        component group contributed by one GFD); used for candidate pruning.
    """

    graph: PropertyGraph
    embeddings: Dict[str, Dict[str, NodeId]]
    gfds: Dict[str, GFD]
    component_roots: List[NodeId] = field(default_factory=list)

    def node_for(self, gfd_name: str, var: str) -> NodeId:
        """The node hosting *var* of GFD *gfd_name*'s own pattern copy."""
        return self.embeddings[gfd_name][var]

    def identity_match(self, gfd: GFD) -> Dict[str, NodeId]:
        """The match of *gfd*'s pattern onto its own copy (always exists)."""
        return dict(self.embeddings[gfd.name])


def canonical_node_id(gfd_name: str, var: str) -> str:
    """The node id hosting variable *var* of GFD *gfd_name* in ``GΣ``."""
    return f"{gfd_name}.{var}"


def build_canonical_graph(sigma: Sequence[GFD]) -> CanonicalGraph:
    """Construct ``GΣ`` from *sigma*.

    Patterns from different GFDs are kept disjoint by renaming (paper
    assumption); here the rename is the node-id prefix. Raises
    :class:`GFDError` on duplicate GFD names, since names key the embedding
    table.
    """
    graph = PropertyGraph()
    embeddings: Dict[str, Dict[str, NodeId]] = {}
    gfds = gfds_by_name(sigma)
    roots: List[NodeId] = []
    for gfd in gfds.values():
        mapping: Dict[str, NodeId] = {}
        for var in gfd.pattern.variables:
            node_id = canonical_node_id(gfd.name, var)
            graph.add_node(gfd.pattern.label_of(var), node_id=node_id)
            mapping[var] = node_id
        for edge in gfd.pattern.edges:
            graph.add_edge(mapping[edge.src], mapping[edge.dst], edge.label)
        embeddings[gfd.name] = mapping
        if mapping:
            roots.append(next(iter(mapping.values())))
    return CanonicalGraph(graph, embeddings, gfds, roots)


@dataclass
class ImplicationCanonical:
    """``G^X_Q`` plus the initial relation ``Eq_X`` and the target ``Y``.

    ``graph`` uses the pattern's variable names directly as node ids, so the
    identity match of ``Q`` is ``{var: var}`` and literals of ``φ`` translate
    to terms ``(var, attr)`` without indirection.
    """

    gfd: GFD
    graph: PropertyGraph
    eq_x: EqRelation

    def identity_match(self) -> Dict[str, NodeId]:
        return {var: var for var in self.gfd.pattern.variables}

    def fresh_eq(self) -> EqRelation:
        """A copy of ``Eq_X`` to be expanded by a (partial) enforcement."""
        return self.eq_x.copy()


def eq_from_literals(
    literals: Sequence[object],
    assignment: Mapping[str, NodeId],
    eq: Optional[EqRelation] = None,
    source: str = "X",
) -> EqRelation:
    """Encode *literals* under *assignment* into an :class:`EqRelation`.

    Transitivity closure is inherent to the union-find. A ``false`` literal
    or clashing constants leave the relation in a conflicted state, which
    callers must inspect (for implication, a conflicted ``Eq_X`` means the
    antecedent of ``φ`` is unsatisfiable, hence ``Σ |= φ`` trivially).
    """
    eq = eq if eq is not None else EqRelation()
    for literal in literals:
        if isinstance(literal, FalseLiteral):
            eq.fail(("<false>", "<false>"), source)
        elif isinstance(literal, ConstantLiteral):
            term: Term = (assignment[literal.var], literal.attr)
            eq.assign_constant(term, literal.value, source)
        elif isinstance(literal, VariableLiteral):
            term_a: Term = (assignment[literal.var], literal.attr)
            term_b: Term = (assignment[literal.other_var], literal.other_attr)
            eq.merge_terms(term_a, term_b, source)
        else:  # pragma: no cover - defensive
            raise GFDError(f"unknown literal type {type(literal).__name__}")
    return eq


def build_implication_canonical(gfd: GFD) -> ImplicationCanonical:
    """Construct ``G^X_Q`` for GFD *gfd* and the initial ``Eq_X``."""
    graph = PropertyGraph()
    for var in gfd.pattern.variables:
        graph.add_node(gfd.pattern.label_of(var), node_id=var)
    for edge in gfd.pattern.edges:
        graph.add_edge(edge.src, edge.dst, edge.label)
    identity = {var: var for var in gfd.pattern.variables}
    eq_x = eq_from_literals(gfd.antecedent, identity, source=f"{gfd.name}:X")
    return ImplicationCanonical(gfd, graph, eq_x)


def sigma_bounded_size(sigma: Sequence[GFD]) -> int:
    """The O(|Σ|) bound on model size from Theorem 1 (informative)."""
    return sum(gfd.size() for gfd in sigma)
