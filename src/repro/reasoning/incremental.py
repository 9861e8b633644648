"""Incremental satisfiability checking.

The paper motivates satisfiability as *rule validation*: check a (mined or
hand-written) rule set before using it. In practice rules arrive one at a
time — a miner emits candidates, a user edits a rule file — and re-running
SeqSat from scratch after every addition wastes all previous work.

:class:`IncrementalSat` maintains the SeqSat state (canonical graph,
equivalence relation, inverted index) across additions. Adding a GFD ``φ``
appends its pattern copy as a fresh component of ``GΣ``; because a
*connected* pattern only matches within a single component, the only new
matches are

* matches of existing (connected) patterns inside the new component, and
* matches of ``φ``'s own pattern anywhere in the (extended) ``GΣ``,

so the incremental step enforces exactly those, and lets the shared
inverted-index cascade propagate consequences into older components.
Disconnected patterns may span components; any of those present triggers a
sound fallback to full recomputation for the affected step. Both kinds of
step match through one shared-prefix
:class:`~repro.matching.ruleset.RuleSetPlan` trie, grown by one rule path
per addition.

``Eq`` is monotone, so a conflict is permanent: once unsatisfiable, every
extension stays unsatisfiable and additions become no-ops.

Index economics of one ``add`` (PR 3): appending a pattern component used
to invalidate the canonical graph's compiled
:class:`~repro.graph.index.GraphIndex`, forcing an O(|GΣ|) recompile — and
discarding every cached :class:`~repro.matching.plan.MatchPlan` — per
step. The graph now journals the component's nodes/edges and the index
absorbs them in place (:meth:`GraphIndex.apply_delta`), so per-step index
upkeep is O(|pattern|) and the existing GFDs' plans survive via epoch
revalidation; each :class:`IncrementalStep` reports the number of delta
ops absorbed. See ``benchmarks/bench_incremental.py`` for the measured
per-add effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..eq.eqrelation import Conflict, EqRelation
from ..eq.inverted_index import InvertedIndex
from ..errors import GFDError
from ..gfd.gfd import GFD
from ..graph.elements import NodeId
from ..graph.graph import PropertyGraph
from ..matching.ruleset import RuleSetPlan
from .enforce import EnforcementEngine


@dataclass
class IncrementalStep:
    """Outcome of one :meth:`IncrementalSat.add` call."""

    gfd_name: str
    satisfiable: bool
    conflict: Optional[Conflict]
    new_matches: int
    recomputed: bool = False
    #: Journal ops the compiled index absorbed in place for this step
    #: (the added component's nodes and edges) — the O(|delta|) cost that
    #: replaced the former O(|GΣ|) index recompile.
    index_delta_ops: int = 0


class IncrementalSat:
    """SeqSat state that survives GFD additions."""

    def __init__(
        self, sigma: Iterable[GFD] = (), capture_provenance: bool = True
    ) -> None:
        self.graph = PropertyGraph()
        self.eq = EqRelation()
        #: Whether the persistent engine interns evidence and stamps
        #: structured provenance on ΔEq ops (see the layered result model).
        self.capture_provenance = capture_provenance
        self.engine = EnforcementEngine(
            self.eq, {}, InvertedIndex(), capture_provenance=capture_provenance
        )
        self.engine.set_evidence_context(origin="incremental")
        self._gfds: Dict[str, GFD] = {}
        self._components: Dict[str, Set[NodeId]] = {}  # gfd name -> its copy
        self._has_disconnected = False
        #: The trie of every non-trivial rule added so far, grown rule by
        #: rule and revalidated against the delta-maintained index by each
        #: walk.
        self._ruleset = RuleSetPlan(self.graph)
        self.steps: List[IncrementalStep] = []
        for gfd in sigma:
            self.add(gfd)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def satisfiable(self) -> bool:
        return not self.eq.has_conflict()

    @property
    def conflict(self) -> Optional[Conflict]:
        return self.eq.conflict

    @property
    def sigma(self) -> List[GFD]:
        return list(self._gfds.values())

    @property
    def results(self) -> "ResultStore":
        """The layered result store over the current persistent state."""
        from ..results.store import ResultStore

        return ResultStore.from_engine(self.engine)

    def __len__(self) -> int:
        return len(self._gfds)

    # ------------------------------------------------------------------
    # Additions
    # ------------------------------------------------------------------
    def add(self, gfd: GFD) -> IncrementalStep:
        """Add *gfd* and return the step outcome.

        Raises :class:`GFDError` on duplicate names (names key the shared
        engine registry). Adding to an already-unsatisfiable state is a
        recorded no-op (monotone conflicts).
        """
        if gfd.name in self._gfds:
            raise GFDError(f"duplicate GFD name {gfd.name!r}")
        if self.eq.has_conflict():
            self._register(gfd)
            step = IncrementalStep(gfd.name, False, self.eq.conflict, 0)
            self.steps.append(step)
            return step

        new_nodes = self._register(gfd)
        # Absorb the new component into the compiled index up front
        # (O(|delta|) via the mutation journal) so every matcher run below
        # starts from a current index and surviving plans.
        delta_ops = self.graph.pending_delta_ops
        self.graph.index()
        if not gfd.is_trivial():
            # Grow the persistent trie by this rule's path (O(|Q|)).
            self._ruleset.add(gfd)
        if not gfd.pattern.is_connected():
            self._has_disconnected = True
        if self._has_disconnected:
            step = self._recompute(gfd.name)
        else:
            step = self._incremental_step(gfd, new_nodes)
        step.index_delta_ops = delta_ops
        self.steps.append(step)
        return step

    def add_many(self, sigma: Sequence[GFD]) -> bool:
        """Add several GFDs; returns the final satisfiability verdict."""
        for gfd in sigma:
            self.add(gfd)
        return self.satisfiable

    def _register(self, gfd: GFD) -> Set[NodeId]:
        """Extend ``GΣ`` with *gfd*'s pattern copy; returns its node ids."""
        self._gfds[gfd.name] = gfd
        self.engine.gfds[gfd.name] = gfd
        mapping: Dict[str, NodeId] = {}
        for var in gfd.pattern.variables:
            node_id = f"{gfd.name}.{var}"
            self.graph.add_node(gfd.pattern.label_of(var), node_id=node_id)
            mapping[var] = node_id
        for edge in gfd.pattern.edges:
            self.graph.add_edge(mapping[edge.src], mapping[edge.dst], edge.label)
        nodes = set(mapping.values())
        self._components[gfd.name] = nodes
        return nodes

    def _incremental_step(self, gfd: GFD, new_nodes: Set[NodeId]) -> IncrementalStep:
        """Enforce the new matches, each set in one walk of the trie:
        (a) every *existing* rule restricted to the new component, and
        (b) the new rule across the whole ``GΣ`` — whole-graph rather than
        per component, which is sound because a connected pattern cannot
        cross components. The verdict is order-independent under
        interleaved enforcement (monotone ``Eq``).
        """
        matches = 0
        existing = frozenset(self._ruleset.gfds) - {gfd.name}
        if existing:
            # The component's bitset is packed over the *current* index:
            # positions are append-only across deltas, so this is
            # O(|component|) against a live universe.
            run = self._ruleset.run(
                active=existing, allowed_nodes=self.graph.index().bitset(new_nodes)
            )
            for name, assignment in run.matches():
                matches += 1
                self.engine.enforce(self._gfds[name], assignment)
                if self.eq.has_conflict():
                    return IncrementalStep(gfd.name, False, self.eq.conflict, matches)
        if not gfd.is_trivial():
            run = self._ruleset.run(active={gfd.name})
            for _, assignment in run.matches():
                matches += 1
                self.engine.enforce(gfd, assignment)
                if self.eq.has_conflict():
                    return IncrementalStep(gfd.name, False, self.eq.conflict, matches)
        return IncrementalStep(gfd.name, True, None, matches)

    def _recompute(self, trigger_name: str) -> IncrementalStep:
        """Sound fallback: rebuild Eq from scratch over the full ``GΣ``."""
        self.eq = EqRelation()
        self.engine = EnforcementEngine(
            self.eq,
            dict(self._gfds),
            InvertedIndex(),
            capture_provenance=self.capture_provenance,
        )
        self.engine.set_evidence_context(origin="incremental")
        matches = 0
        for name, assignment in self._ruleset.matches():
            matches += 1
            self.engine.enforce(self._gfds[name], assignment)
            if self.eq.has_conflict():
                return IncrementalStep(
                    trigger_name, False, self.eq.conflict, matches, recomputed=True
                )
        return IncrementalStep(trigger_name, True, None, matches, recomputed=True)
