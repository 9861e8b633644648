"""Graph (dual) simulation, used as a cheap necessary condition.

The paper (Section V, optimization) avoids exponential homomorphism checks
between patterns by first testing *graph simulation*: "if Q1 does not match
Q'2 by simulation, then Q1 is not homomorphic to Q'2". Simulation runs in
O(|Q1|·|Q2|) time and is sound for pruning: an empty simulation set for any
pattern variable proves no homomorphism exists.

We implement dual simulation (both edge directions constrained), which is a
stronger — still sound — filter than forward simulation alone.

The refinement engine is index-driven: initial candidate sets come from the
compiled :class:`~repro.graph.index.GraphIndex` label buckets (never a
``set(graph.nodes())`` scan), neighbor tests go through the index's
label-grouped adjacency, and the fixpoint is computed by a worklist of
*(variable, constraint)* pairs — one pattern edge viewed from one endpoint
— re-enqueued only when the constraint's other endpoint actually shrank.
Each dequeued item re-tests its one constraint, so a variable's survivors
are never rescanned against edges whose counterpart sets did not change
(the old implementation re-ran every edge of every survivor per pass).

Two candidate-set representations share that engine (``use_bitsets``):

* **bitset** (default) — the returned mapping holds
  :class:`~repro.graph.bitset.NodeBitset` vectors packed over
  ``GraphIndex.position``, seeded O(1) from the index's cached bucket
  vectors and shrunk by word-level and-not as refinement removes nodes;
  the matcher then intersects them with its label-bucket / allowed-set
  pools by single word-level ANDs;
* **set** — plain ``set`` values with per-neighbor membership tests, kept
  as the ablation baseline and the fallback for exotic consumers.

Both compute the same (unique) maximal dual simulation, so downstream
match streams are byte-identical under either representation.

``dual_simulation`` never mutates its input: an unfrozen pattern is left
unfrozen, so a caller may keep building the pattern after the call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from ..errors import PatternError
from ..gfd.pattern import Pattern
from ..graph.bitset import NodeBitset, pack_positions
from ..graph.elements import NodeId, is_wildcard
from ..graph.graph import PropertyGraph
from ..graph.index import NO_LABEL

#: A per-variable candidate set as returned by :func:`dual_simulation` —
#: either a plain ``set`` or a :class:`NodeBitset`; both support ``in``,
#: ``iter`` and ``len``, which is all downstream consumers use.
CandidateSet = Union[Set[NodeId], NodeBitset]

#: One dual-simulation constraint, a pattern edge seen from one endpoint:
#: ``(other_var, edge_label_id, outgoing)`` — a candidate for the owning
#: variable must have an *outgoing* (or incoming) edge with the label into
#: the current candidate set of ``other_var``.
_Constraint = Tuple[str, Optional[int], bool]


@dataclass
class SimulationStats:
    """Cost counters of one :func:`dual_simulation` call.

    ``checks`` counts (node, constraint) evaluations — the refinement
    engine's unit of work, comparable across both representations. The
    tick-regression test pins this against the quadratic re-scan behavior
    of the pre-worklist implementation.
    """

    checks: int = 0
    rounds: int = 0


def dual_simulation(
    pattern: Pattern,
    graph: PropertyGraph,
    use_bitsets: bool = True,
    stats: Optional[SimulationStats] = None,
) -> Optional[Dict[str, CandidateSet]]:
    """Compute the maximal dual simulation of *pattern* in *graph*.

    Returns a mapping variable -> candidate set of simulating nodes, or
    ``None`` when some variable has no simulating node (hence no
    homomorphism exists). With ``use_bitsets`` (default) the candidate
    sets are :class:`NodeBitset` views over ``graph.index()``; otherwise
    plain ``set`` objects. *pattern* is read-only here — unfrozen patterns
    are not frozen behind the caller's back.
    """
    variables = pattern.variables
    if not variables:
        raise PatternError("pattern must have at least one variable")
    index = graph.index()

    # Constraints per variable, and the reverse map: when var u shrinks,
    # exactly the (w, constraint-on-u) pairs in triggers[u] must re-run.
    constraints: Dict[str, List[_Constraint]] = {var: [] for var in variables}
    triggers: Dict[str, List[Tuple[str, _Constraint]]] = {
        var: [] for var in variables
    }
    for edge in pattern.edges:
        if is_wildcard(edge.label):
            lid: Optional[int] = None
        else:
            lid = index.label_id(edge.label)
            if lid == NO_LABEL:
                # The edge label does not occur in the graph at all: no
                # node can satisfy this constraint.
                return None
        out_con: _Constraint = (edge.dst, lid, True)
        in_con: _Constraint = (edge.src, lid, False)
        constraints[edge.src].append(out_con)
        constraints[edge.dst].append(in_con)
        triggers[edge.dst].append((edge.src, out_con))
        triggers[edge.src].append((edge.dst, in_con))

    if use_bitsets:
        return _refine_bitsets(pattern, index, constraints, triggers, stats)
    return _refine_sets(pattern, index, constraints, triggers, stats)


def _initial_worklist(
    constraints: Dict[str, List[_Constraint]],
) -> Tuple[deque, set]:
    """Seed the worklist with every (variable, constraint) pair once.

    Variables without incident pattern edges never enter: their label
    bucket is already final and nothing downstream can shrink it.
    """
    items = [
        (var, con) for var, cons in constraints.items() for con in cons
    ]
    return deque(items), set(items)


def _refine_bitsets(
    pattern: Pattern,
    index,
    constraints: Dict[str, List[_Constraint]],
    triggers: Dict[str, List[Tuple[str, _Constraint]]],
    stats: Optional[SimulationStats],
) -> Optional[Dict[str, NodeBitset]]:
    nodes = index.nodes
    position = index.position
    # Candidate sets are kept in *both* forms during refinement: the packed
    # vector (shrunk by word-level and-not, handed to the matcher for pool
    # intersection) and a mirror set driving the refinement itself. The
    # mirror is deliberate: per-member bigint bit-iteration costs O(|G|/64)
    # words *per member* and a neighbor-group AND pays the same regardless
    # of group size, so early-exit membership scans win the refinement
    # loop in pure Python — the word-level payoff belongs to the matcher's
    # bucket ∩ allowed ∩ restriction intersections, which consume the
    # returned vectors wholesale.
    sim_bits: Dict[str, int] = {}
    sim_set: Dict[str, set] = {}
    for var in pattern.variables:
        label = pattern.label_of(var)
        if is_wildcard(label):
            bits = index.all_bits()
            members = set(nodes)
        else:
            lid = index.label_id(label)
            bits = index.label_bucket_bits(lid)
            members = set(index.nodes_with_label_id(lid))
        if not bits:
            return None
        sim_bits[var] = bits
        sim_set[var] = members

    queue, queued = _initial_worklist(constraints)
    out_neighbors = index.out_neighbors
    in_neighbors = index.in_neighbors
    while queue:
        item = queue.popleft()
        queued.discard(item)
        var, (other, lid, outgoing) = item
        target_set = sim_set[other]
        neighbors = out_neighbors if outgoing else in_neighbors
        members = sim_set[var]
        removed = None
        checks = 0
        for node in members:
            checks += 1
            for neighbor in neighbors(node, lid):
                if neighbor in target_set:
                    break
            else:
                if removed is None:
                    removed = []
                removed.append(node)
        if stats is not None:
            stats.checks += checks
            stats.rounds += 1
        if removed:
            if len(removed) == len(members):
                return None
            sim_bits[var] &= ~pack_positions(removed, position)
            members.difference_update(removed)
            for dep in triggers[var]:
                if dep not in queued:
                    queued.add(dep)
                    queue.append(dep)
    return {var: NodeBitset(index, bits) for var, bits in sim_bits.items()}


def _refine_sets(
    pattern: Pattern,
    index,
    constraints: Dict[str, List[_Constraint]],
    triggers: Dict[str, List[Tuple[str, _Constraint]]],
    stats: Optional[SimulationStats],
) -> Optional[Dict[str, Set[NodeId]]]:
    sim: Dict[str, Set[NodeId]] = {}
    for var in pattern.variables:
        label = pattern.label_of(var)
        if is_wildcard(label):
            candidates = set(index.nodes)
        else:
            candidates = set(index.nodes_with_label(label))
        if not candidates:
            return None
        sim[var] = candidates

    queue, queued = _initial_worklist(constraints)
    out_neighbors = index.out_neighbors
    in_neighbors = index.in_neighbors
    while queue:
        item = queue.popleft()
        queued.discard(item)
        var, (other, lid, outgoing) = item
        target = sim[other]
        members = sim[var]
        neighbors = out_neighbors if outgoing else in_neighbors
        removed = None
        checks = 0
        for node in members:
            checks += 1
            for neighbor in neighbors(node, lid):
                if neighbor in target:
                    break
            else:
                if removed is None:
                    removed = set()
                removed.add(node)
        if stats is not None:
            stats.checks += checks
            stats.rounds += 1
        if removed:
            members -= removed
            if not members:
                return None
            for dep in triggers[var]:
                if dep not in queued:
                    queued.add(dep)
                    queue.append(dep)
    return sim


def may_have_homomorphism(
    pattern: Pattern, graph: PropertyGraph, use_bitsets: bool = True
) -> bool:
    """Sound necessary condition: False guarantees no homomorphism."""
    return dual_simulation(pattern, graph, use_bitsets=use_bitsets) is not None


def simulation_candidates(
    pattern: Pattern,
    graph: PropertyGraph,
    use_bitsets: bool = True,
    stats: Optional[SimulationStats] = None,
) -> Optional[Dict[str, CandidateSet]]:
    """The candidate pre-filter entry point for pivoted matching.

    This is the function the reasoning layers
    (:func:`~repro.reasoning.seqsat.seq_sat`,
    :func:`~repro.reasoning.seqimp.seq_imp`, ``UnitContext``,
    :func:`~repro.reasoning.validation.find_violations`) call to obtain
    ``candidate_sets`` for :class:`~repro.matching.homomorphism.MatcherRun`:
    the maximal dual simulation restricted per variable
    (``candidates(v) ⊆ sim(v)``), or ``None`` when the pattern provably has
    no match. Semantically identical to :func:`dual_simulation`; the
    separate name marks call sites using it as a matcher pre-filter rather
    than for its own verdict.
    """
    return dual_simulation(pattern, graph, use_bitsets=use_bitsets, stats=stats)
