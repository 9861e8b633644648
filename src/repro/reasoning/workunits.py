"""Work units, dependency graphs, and topological priority orders.

A *work unit* ``(Q[z], φ)`` (paper, Section V-B) scopes the matching of
GFD ``φ``'s pattern to the candidate matches whose pivot variable maps to
node ``z``; by homomorphism data locality the search stays within the
``dQ``-neighborhood of ``z`` (``dQ`` = pivot eccentricity in ``Q``).

A *dependency graph* over work units (Fig. 4(b)) has an edge ``w1 -> w2``
when the consequent of ``w1``'s GFD may feed the antecedent of ``w2``'s GFD
(shared attribute name) *and* the two pivots are close enough to interact
(``z2`` within ``d_{Q1}`` hops of ``z1``). Units are then processed in a
topological order (cycles broken deterministically), with empty-antecedent
units first. The same attribute-overlap relation at the GFD level orders
the *sequential* algorithms (the paper applies dependency ordering to
SeqSat/SeqImp too, Section VII).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..gfd.gfd import GFD, gfds_by_name
from ..graph.elements import NodeId, is_wildcard
from ..graph.graph import PropertyGraph
from ..graph.neighborhood import bfs_hops


@dataclass(frozen=True)
class WorkUnit:
    """A pivoted (and possibly split) matching task for one GFD.

    Attributes
    ----------
    gfd_name:
        Which GFD of ``Σ`` this unit enforces. For a *grouped* unit (see
        ``group``) this is the group's first member, kept so every
        single-rule code path (priorities, diagnostics) stays meaningful.
    assignment:
        Preassigned bindings, as a sorted tuple of (variable, node) pairs.
        A fresh unit binds just the pivot; a split unit binds a longer
        prefix (paper, Example 6). Grouped units bind the shared
        :data:`~repro.matching.ruleset.PIVOT_SLOT` instead of a per-rule
        variable name, and their split sub-units bind trie slots
        (``"@0"``, ``"@1"``, ...) after it.
    radius:
        The ``dQ`` locality radius around the pivot node, or None when the
        unit is unrestricted (disconnected patterns). For grouped units
        this is the *maximum* member radius — sound for every member by
        homomorphism data locality (a larger ball only adds nodes a
        smaller-radius pattern cannot reach from the pivot).
    generation:
        0 for coordinator-created units, parent+1 for split sub-units.
    group:
        Names of *all* GFDs this unit enforces through one shared-prefix
        :class:`~repro.matching.ruleset.RuleSetPlan` walk, in Σ order.
        Empty for classic per-rule units — and excluded from the uid
        payload in that case, so pre-existing uids (pinned in fault-plan
        scripts and bench baselines) are unchanged.
    pivot_var:
        The bound variable (or slot) whose node centres the unit's
        ``dQ``-ball. Sorting puts it anywhere in ``assignment`` once a
        split binds more than the pivot, so the unit names it; it defaults
        to the first binding, which is the pivot of every fresh unit.
    """

    gfd_name: str
    assignment: Tuple[Tuple[str, NodeId], ...]
    radius: Optional[int] = None
    generation: int = 0
    group: Tuple[str, ...] = ()
    pivot_var: Optional[str] = None

    def __post_init__(self) -> None:
        if self.pivot_var is None and self.assignment:
            object.__setattr__(self, "pivot_var", self.assignment[0][0])

    @staticmethod
    def make(
        gfd_name: str,
        assignment: Mapping[str, NodeId],
        radius: Optional[int] = None,
        generation: int = 0,
        group: Tuple[str, ...] = (),
        pivot_var: Optional[str] = None,
    ) -> "WorkUnit":
        pairs = tuple(sorted(assignment.items(), key=lambda kv: kv[0]))
        return WorkUnit(gfd_name, pairs, radius, generation, group, pivot_var)

    def assignment_dict(self) -> Dict[str, NodeId]:
        return dict(self.assignment)

    def pivot_node(self) -> Optional[NodeId]:
        """The node bound to :attr:`pivot_var` (None for unbound units)."""
        for var, node in self.assignment:
            if var == self.pivot_var:
                return node
        return None

    @property
    def gfd_names(self) -> Tuple[str, ...]:
        """Every GFD this unit enforces (the group, or the single rule)."""
        return self.group or (self.gfd_name,)

    @cached_property
    def uid(self) -> str:
        """A stable content-derived identifier.

        Deterministic across processes and interpreter runs (no reliance on
        ``hash()`` randomization), so the process backend can track units
        through pickling, cross-process requeue, and result reconciliation.
        Units with equal fields — which the frozen dataclass treats as the
        same unit — share a uid. Digested once per instance: the cache
        lives in the instance ``__dict__``, outside the compared fields.
        """
        fields = (self.gfd_name, self.assignment, self.radius, self.generation)
        if self.group:
            fields = fields + (self.group,)
        if len(self.assignment) > 1:
            # A single binding is its own pivot; only split units name it.
            fields = fields + (self.pivot_var,)
        payload = repr(fields)
        return hashlib.blake2s(payload.encode("utf-8"), digest_size=10).hexdigest()

    def __getstate__(self) -> Dict[str, object]:
        # Pickle the uid with the unit, so a unit shipped to a worker and
        # back in its result is not digested again on either side.
        return dict(self.__dict__, uid=self.uid)

    def __str__(self) -> str:
        bound = ", ".join(f"{var}→{node}" for var, node in self.assignment)
        head = f"{len(self.group)} rules" if self.group else self.gfd_name
        return f"({head}[{bound}], r={self.radius}, g{self.generation})"


def choose_pivot(gfd: GFD, graph: PropertyGraph) -> str:
    """Pick a pivot variable for *gfd*'s (first) pattern component.

    The choice minimizes the *expected fan-out* of the whole unit family:
    (number of pivot candidates) × (estimated search-tree size per
    candidate, from the compiled :class:`~repro.matching.plan.MatchPlan`'s
    per-variable cardinality estimates). Label counts alone ignore how
    expensive the residual search is once the pivot is bound; the plan
    estimate accounts for anchor-expansion branch factors, so a slightly
    less selective but more central pivot can win.

    Ties, and an empty graph, fall back to the label-count preference
    order: selective label, small eccentricity, then name.
    """
    pattern = gfd.pattern
    component = pattern.components[0]

    def label_count(var: str) -> int:
        label = pattern.label_of(var)
        return graph.num_nodes if is_wildcard(label) else len(graph.nodes_with_label(label))

    def key(var: str) -> Tuple[int, int, str]:
        return (label_count(var), pattern.eccentricity(var), var)

    if graph.num_nodes:
        from ..matching.plan import get_plan

        plan = get_plan(pattern, graph)

        def plan_key(var: str) -> Tuple[float, int, int, str]:
            expected = label_count(var) * (1.0 + plan.estimated_fanout(var))
            return (expected,) + key(var)

        return min(component, key=plan_key)
    return min(component, key=key)


def fragment_radius(sigma: Sequence[GFD], graph: PropertyGraph) -> int:
    """The halo radius a :class:`~repro.graph.fragment.Fragmenter` needs.

    The maximum pivot eccentricity over Σ's connected non-trivial rules —
    with the same :func:`choose_pivot` the unit generators use — so every
    fresh unit's ``dQ``-ball around an interior pivot lies inside its
    fragment's replica. Grouped units take the max radius over their
    signature group, which this bound dominates; disconnected patterns
    (radius None) are excluded — they are never fragment-routed.
    """
    radius = 0
    for gfd in sigma:
        if gfd.is_trivial() or not gfd.pattern.is_connected():
            continue
        pivot = choose_pivot(gfd, graph)
        radius = max(radius, gfd.pattern.eccentricity(pivot))
    return radius


def pivot_candidates(gfd: GFD, pivot_var: str, graph: PropertyGraph) -> List[NodeId]:
    """Target nodes whose label is compatible with the pivot variable."""
    label = gfd.pattern.label_of(pivot_var)
    if is_wildcard(label):
        nodes = list(graph.nodes())
    else:
        nodes = list(graph.nodes_with_label(label))
    return sorted(nodes, key=str)


def generate_work_units(
    sigma: Sequence[GFD],
    graph: PropertyGraph,
    pivot_overrides: Optional[Mapping[str, str]] = None,
) -> List[WorkUnit]:
    """All fresh work units of ``Σ`` against *graph*.

    One unit per (GFD, candidate pivot node). Connected patterns get a
    locality radius (pivot eccentricity); disconnected patterns pivot their
    first component and search the rest globally (radius None).
    """
    units: List[WorkUnit] = []
    for gfd in sigma:
        pivot = None
        if pivot_overrides is not None:
            pivot = pivot_overrides.get(gfd.name)
        if pivot is None:
            pivot = choose_pivot(gfd, graph)
        radius = gfd.pattern.eccentricity(pivot) if gfd.pattern.is_connected() else None
        for node in pivot_candidates(gfd, pivot, graph):
            units.append(WorkUnit.make(gfd.name, {pivot: node}, radius=radius))
    return units


def generate_pruned_work_units(
    sigma: Sequence[GFD],
    graph: PropertyGraph,
    index=None,
    use_simulation: bool = True,
    use_bitsets: bool = True,
) -> List[WorkUnit]:
    """Work units filtered by the paper's simulation-based optimization.

    For connected patterns, units are generated per (GFD, component) pair
    that survives the label-signature test *and* a per-component dual
    simulation: pivot candidates are restricted to the pivot variable's
    simulation set, which discards the bulk of zero-match units before the
    queue ever sees them (Section V-B's multi-query optimization — "if Q1
    does not match Q'2 by simulation, then Q1 is not homomorphic to Q'2").
    Components of canonical graphs have at most k nodes, so each simulation
    is O(k²) — coordinator-side setup cost, not charged to workers.
    """
    from ..matching.component_index import ComponentIndex
    from ..matching.simulation import simulation_candidates

    if index is None:
        index = ComponentIndex(graph)
    units: List[WorkUnit] = []
    for gfd in sigma:
        pivot = choose_pivot(gfd, graph)
        if not gfd.pattern.is_connected() or not use_simulation:
            radius = gfd.pattern.eccentricity(pivot) if gfd.pattern.is_connected() else None
            for node in pivot_candidates(gfd, pivot, graph):
                if radius is not None and not index.compatible_with_pivot(gfd.pattern, node):
                    continue
                units.append(WorkUnit.make(gfd.name, {pivot: node}, radius=radius))
            continue
        radius = gfd.pattern.eccentricity(pivot)
        for comp_id in range(index.num_components()):
            if not index.pattern_compatible(gfd.pattern, comp_id):
                continue
            simulation = simulation_candidates(
                gfd.pattern, index.subgraph(comp_id), use_bitsets=use_bitsets
            )
            if simulation is None:
                continue
            for node in sorted(simulation[pivot], key=str):
                units.append(WorkUnit.make(gfd.name, {pivot: node}, radius=radius))
    return units


def generate_grouped_work_units(
    sigma: Sequence[GFD],
    graph: PropertyGraph,
    use_simulation: bool = True,
    use_bitsets: bool = True,
) -> List[WorkUnit]:
    """Work units grouped by shareable pivot: one unit per (group, pivot).

    Connected patterns whose pivots ask the same validation questions —
    equal :func:`~repro.matching.ruleset.pivot_signature` — share a single
    unit per pivot node, executed as one
    :class:`~repro.matching.ruleset.RuleSetPlan` walk instead of k
    near-identical per-rule searches. The group's pivot candidates are the
    union of the members' (simulation-pruned) candidates; rules the pivot
    cannot serve are filtered per node by the walk's pivot validation.
    Trivial rules contribute no unit (their execution is a no-op), and
    disconnected patterns keep their classic ungrouped per-rule units.
    """
    from ..matching.component_index import ComponentIndex
    from ..matching.ruleset import pivot_signature
    from ..matching.simulation import simulation_candidates

    index = ComponentIndex(graph)
    units: List[WorkUnit] = []
    # signature -> (member names in Σ order, max radius, candidate union).
    groups: Dict[tuple, List[str]] = {}
    radii: Dict[tuple, int] = {}
    candidates: Dict[tuple, Set[NodeId]] = {}
    for gfd in sigma:
        if gfd.is_trivial():
            continue
        pivot = choose_pivot(gfd, graph)
        if not gfd.pattern.is_connected():
            for node in pivot_candidates(gfd, pivot, graph):
                units.append(WorkUnit.make(gfd.name, {pivot: node}, radius=None))
            continue
        radius = gfd.pattern.eccentricity(pivot)
        allowed: Set[NodeId] = set()
        if use_simulation:
            for comp_id in range(index.num_components()):
                if not index.pattern_compatible(gfd.pattern, comp_id):
                    continue
                simulation = simulation_candidates(
                    gfd.pattern, index.subgraph(comp_id), use_bitsets=use_bitsets
                )
                if simulation is not None:
                    allowed.update(simulation[pivot])
        else:
            allowed.update(
                node
                for node in pivot_candidates(gfd, pivot, graph)
                if index.compatible_with_pivot(gfd.pattern, node)
            )
        signature = pivot_signature(gfd.pattern, pivot)
        groups.setdefault(signature, []).append(gfd.name)
        radii[signature] = max(radii.get(signature, 0), radius)
        candidates.setdefault(signature, set()).update(allowed)
    from ..matching.ruleset import PIVOT_SLOT

    for signature, names in groups.items():
        group = tuple(names)
        radius = radii[signature]
        for node in sorted(candidates[signature], key=str):
            units.append(
                WorkUnit.make(
                    group[0], {PIVOT_SLOT: node}, radius=radius, group=group
                )
            )
    return units


# ----------------------------------------------------------------------
# Dependency graphs
# ----------------------------------------------------------------------
def _rule_attributes(
    sigma_by_name: Mapping[str, GFD],
) -> Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]]:
    """Each rule's (antecedent, consequent) attribute names.

    Computed once per ordering call (2·|Σ| set builds), never per tested
    pair, and kept here rather than on the GFD so a rule's equality, hash,
    repr and pickle stay exactly its fields.
    """
    return {
        name: (gfd.antecedent_attributes(), gfd.consequent_attributes())
        for name, gfd in sigma_by_name.items()
    }


def gfd_dependency_edges(sigma: Sequence[GFD]) -> Dict[str, Set[str]]:
    """GFD-level dependency edges name -> set of dependent names.

    ``φ1 -> φ2`` when an attribute name of ``Y1`` occurs in ``X2``. Each
    producer looks its consequent attributes up in an attribute ->
    consumers index, so the cost is |Σ| plus the (attribute, consumer)
    hits instead of |Σ|² pair tests. Raises :class:`GFDError` on
    duplicate names, which would merge two rules' edges.
    """
    attributes = _rule_attributes(gfds_by_name(sigma))
    consumers: Dict[str, List[str]] = defaultdict(list)
    for name, (consumed, _) in attributes.items():
        for attr in consumed:
            consumers[attr].append(name)
    edges: Dict[str, Set[str]] = {}
    for name, (_, produced) in attributes.items():
        targets: Set[str] = set()
        for attr in produced:
            targets.update(consumers.get(attr, ()))
        targets.discard(name)
        edges[name] = targets
    return edges


def gfd_dependency_order(sigma: Sequence[GFD]) -> List[GFD]:
    """Order ``Σ`` for sequential processing.

    Empty-antecedent GFDs first (they seed the initial attribute batch,
    paper Section IV-C(a)), then a topological order of the attribute-feed
    graph with deterministic cycle breaking. Raises :class:`GFDError` on
    duplicate names rather than silently ordering only one of the rules.
    """
    by_name = gfds_by_name(sigma)
    edges = gfd_dependency_edges(sigma)
    order_names = _topological_order(
        list(by_name),
        edges,
        priority=lambda name: (not by_name[name].has_empty_antecedent(), name),
    )
    return [by_name[name] for name in order_names]


def unit_dependency_edges(
    units: Sequence[WorkUnit],
    sigma_by_name: Mapping[str, GFD],
    graph: PropertyGraph,
) -> Dict[int, Set[int]]:
    """Unit-level dependency edges (indices into *units*).

    ``w1 -> w2`` when (a) attrs(Y1) ∩ attrs(X2) ≠ ∅ and (b) pivot(w2) lies
    within ``d_{Q1}`` hops of pivot(w1). Grouped units take the union over
    their members on both sides of the attribute test (any member may
    produce or consume); units without a pivot node take no part. Only
    units with at least one dependent get a key.

    Consumers are bucketed by (attribute, pivot node), so a producer sees
    only the units that consume what it produces. A producer with no
    consumer runs no BFS; the others run one BFS per distinct (pivot,
    radius), cached, and look each node of that reach up in the buckets of
    the attributes they produce, so the scan costs no more than the BFS
    per produced attribute.
    """
    rule_attrs = _rule_attributes(sigma_by_name)
    group_attrs: Dict[Tuple[str, ...], Tuple[FrozenSet[str], FrozenSet[str]]] = {}
    # attribute -> pivot node -> indices of the units consuming it there.
    consumers: Dict[str, Dict[NodeId, List[int]]] = {}
    producers: List[Tuple[int, NodeId, int, FrozenSet[str]]] = []
    for index, unit in enumerate(units):
        pivot = unit.pivot_node()
        if pivot is None:
            continue
        names = unit.gfd_names
        if names not in group_attrs:
            group_attrs[names] = (
                frozenset().union(*(rule_attrs[name][0] for name in names)),
                frozenset().union(*(rule_attrs[name][1] for name in names)),
            )
        consumed, produced = group_attrs[names]
        for attr in consumed:
            consumers.setdefault(attr, {}).setdefault(pivot, []).append(index)
        if produced:
            radius = unit.radius if unit.radius is not None else graph.num_nodes
            producers.append((index, pivot, radius, produced))

    edges: Dict[int, Set[int]] = {}
    hop_cache: Dict[Tuple[NodeId, int], Dict[NodeId, int]] = {}
    for index, pivot, radius, produced in producers:
        buckets = [consumers[attr] for attr in produced if attr in consumers]
        if not buckets:
            continue
        if (pivot, radius) not in hop_cache:
            hop_cache[pivot, radius] = bfs_hops(graph, pivot, max_hops=radius)
        reachable = hop_cache[pivot, radius]
        targets: Set[int] = set()
        for bucket in buckets:
            for node in reachable:
                targets.update(bucket.get(node, ()))
        targets.discard(index)
        if targets:
            edges[index] = targets
    return edges


def order_units(
    units: Sequence[WorkUnit],
    sigma_by_name: Mapping[str, GFD],
    graph: PropertyGraph,
    high_priority: Optional[Callable[[WorkUnit], bool]] = None,
) -> List[WorkUnit]:
    """Topologically order *units* by the unit dependency graph.

    *high_priority* marks units to put at the front regardless of
    dependencies among equals (empty-antecedent units by default; the
    implication variant passes "antecedent subsumed by Eq_X" instead).
    Grouped units are high-priority when any member is.
    """
    if high_priority is None:
        high_priority = lambda unit: any(
            sigma_by_name[name].has_empty_antecedent() for name in unit.gfd_names
        )
    order = _topological_order(
        list(range(len(units))),
        unit_dependency_edges(units, sigma_by_name, graph),
        priority=lambda i: (not high_priority(units[i]), units[i].gfd_name, str(units[i].assignment)),
    )
    return [units[i] for i in order]


def _topological_order(
    nodes: List,
    edges: Mapping,
    priority: Callable,
) -> List:
    """Kahn's algorithm with a priority tie-break and cycle tolerance.

    When only cyclic nodes remain, the minimum-priority one is released
    (its incoming edges are ignored), so the result is always a total order.
    """
    indegree: Dict = {node: 0 for node in nodes}
    for source, targets in edges.items():
        for target in targets:
            if target in indegree:
                indegree[target] += 1
    import heapq

    ready = [(priority(node), node) for node in nodes if indegree[node] == 0]
    heapq.heapify(ready)
    blocked = {node for node in nodes if indegree[node] > 0}
    order: List = []
    while ready or blocked:
        if not ready:
            # Cycle: release the best blocked node.
            victim = min(blocked, key=priority)
            blocked.discard(victim)
            heapq.heappush(ready, (priority(victim), victim))
            indegree[victim] = 0
        _, node = heapq.heappop(ready)
        if node in blocked:
            continue
        order.append(node)
        for target in edges.get(node, ()):
            if target in indegree and indegree[target] > 0:
                indegree[target] -= 1
                if indegree[target] == 0 and target in blocked:
                    blocked.discard(target)
                    heapq.heappush(ready, (priority(target), target))
    return order
