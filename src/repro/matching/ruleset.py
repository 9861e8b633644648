"""Rule-set compilation: one shared-prefix plan trie for all of Σ.

Matching rules one at a time re-matches the pattern prefixes that
production rule sets share heavily — wall time grows linearly in |Σ| even
when most of the per-rule work is identical. :class:`RuleSetPlan` merges
the compiled variable orders of *all* patterns in Σ into a trie whose
nodes are shared (label, edge-constraint) prefixes: each shared prefix is
matched **once** per pivot and partial assignments fan out only where
rules diverge. Leaves carry the per-GFD residual — the slot→variable
renaming that turns a trie assignment back into that rule's match, on
which the caller evaluates literals. (The same prefix-reuse trick makes
CbO/LCM-style closed-set enumeration fast — see "LCM from FCA Point of
View" in PAPERS.md.) Every sequential caller — ``seq_sat``, ``seq_imp``,
error detection and ``IncrementalSat`` — matches through this trie, and
so do ParSat/ParImp's grouped work units.

**Why sharing is sound, per rule and byte-for-byte.** Each rule's root-to-
leaf path in the trie is exactly its compiled :class:`~repro.matching.plan.
PlanLayout` order: trie nodes merge on :func:`~repro.matching.plan.
step_signature`, which equates two steps only when their candidate pools
and residual checks are indistinguishable under the slot renaming. The walk
draws candidates from the same :class:`~repro.matching.homomorphism.
PoolEngine` pools as the per-rule matcher — graph insertion order
throughout — so the per-GFD *projection* of the interleaved trie stream is
byte-identical to that rule's own :class:`~repro.matching.homomorphism.
MatcherRun` stream. Verdicts are then order-independent by the
Church-Rosser property of the monotone ``Eq`` chase, which is what lets the
reasoning layers interleave enforcement across rules mid-walk.

**Simulation cuts stay sound.** :func:`sequential_run` prunes by dual
simulation inside the walk: a rule whose simulation is empty never enters
the trie, and each node's pool is cut to the union of the simulation sets
of the variables its rules bind there. Every match of a rule maps each
variable into that variable's simulation set, so the cut removes no
candidate any rule's match passes through; pools keep graph insertion
order, so per-rule projections stay byte-identical to :class:`MatcherRun`
with or without the cut.

**Splitting keeps the walk shared.** :class:`RuleSetRun` keeps its
depth-first state in an explicit frame stack, so a straggling walk can
strip its shallowest unexplored work into pieces — a member subset plus a
slot prefix — that resume the same trie elsewhere (paper, Example 6). The
pieces partition the unexplored search tree, so the union of all their
streams is the unsplit stream, and each still matches its shared prefix
once for all its members.

**Epoch discipline.** Compiled slot steps intern label ids like
:class:`~repro.matching.plan.MatchPlan` layouts do, and the same
absent-label watch-set argument applies: the only delta that can stale the
trie is a watched absent label appearing (or the index object itself being
replaced by a compaction rebuild). :meth:`RuleSetPlan.revalidate` is an
O(1) epoch check on the hot path and rebuilds the trie from the shared
per-pattern plans otherwise.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..gfd.gfd import GFD
from ..gfd.pattern import Pattern
from ..graph.elements import NodeId, is_wildcard
from ..graph.graph import PropertyGraph
from ..graph.index import NO_LABEL
from . import simulation
from .homomorphism import (
    Assignment,
    PoolEngine,
    edge_label_matches,
    node_label_matches,
)
from .plan import StepSignature, VarStep, get_plan, step_signature
from .simulation import CandidateSet

__all__ = [
    "PIVOT_SLOT",
    "RuleLeaf",
    "RuleSetPlan",
    "RuleSetRun",
    "TrieNode",
    "pivot_signature",
    "sequential_run",
]

#: The slot name of the preassigned pivot variable in pivoted tries.
PIVOT_SLOT = "@p"


def pivot_signature(pattern: Pattern, pivot_var: str) -> Tuple:
    """The shareable content of a pivot preassignment.

    Two pivoted rules can share one work unit per pivot node exactly when
    validating the pivot asks the same questions: same node label (or
    wildcard) and the same multiset of self-loop edge labels. Everything
    else about the pivot is per-rule residual handled along the trie path.
    """
    label = pattern.label_of(pivot_var)
    self_loops = tuple(
        sorted(
            (
                None if is_wildcard(edge.label) else edge.label
                for edge in pattern.edges
                if edge.src == pivot_var and edge.dst == pivot_var
            ),
            key=lambda lbl: (lbl is None, str(lbl)),
        )
    )
    return (None if is_wildcard(label) else label, self_loops)


class TrieNode:
    """One shared (label, edge-constraint) prefix step of the trie."""

    __slots__ = ("signature", "step", "children", "leaves", "rules", "variables", "depth")

    def __init__(self, signature: StepSignature, step: VarStep, depth: int) -> None:
        self.signature = signature
        #: The slot-space :class:`VarStep` executed once for every rule
        #: passing through this node.
        self.step = step
        self.children: Dict[StepSignature, "TrieNode"] = {}
        self.leaves: List[RuleLeaf] = []
        #: Names of every rule whose path passes through this node — the
        #: subtree-skip filter for walks restricted to a unit's group.
        self.rules: Set[str] = set()
        #: Each of those rules' pattern variable bound at this node — what
        #: a simulation cut unions over.
        self.variables: Dict[str, str] = {}
        self.depth = depth

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"TrieNode(depth={self.depth}, rules={len(self.rules)}, "
            f"children={len(self.children)}, leaves={len(self.leaves)})"
        )


class RuleLeaf:
    """Terminal marker of one rule's path: the slot→variable renaming."""

    __slots__ = ("gfd_name", "slot_vars")

    def __init__(self, gfd_name: str, slot_vars: Tuple[Tuple[str, str], ...]) -> None:
        self.gfd_name = gfd_name
        self.slot_vars = slot_vars

    def assignment(self, slots: Mapping[str, NodeId]) -> Assignment:
        return {var: slots[slot] for slot, var in self.slot_vars}

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"RuleLeaf({self.gfd_name})"


class RuleSetPlan:
    """The compiled shared-prefix trie for one rule set over one graph.

    Unpivoted (``pivot_vars is None`` entries absent): paths follow each
    pattern's whole-graph layout — the sequential reasoning walk. Pivoted
    (``pivot_vars[name]`` given): paths follow the layout preassigning that
    rule's pivot variable, mapped to the shared :data:`PIVOT_SLOT` — the
    work-unit walk, where one (group, pivot-node) unit replaces k
    near-identical per-rule units.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        gfds: Iterable[GFD] = (),
        pivot_vars: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.graph = graph
        self.index = graph.index()
        self.epoch = self.index.epoch
        self.gfds: Dict[str, GFD] = {}
        self.pivot_vars: Dict[str, str] = {}
        #: Explicit variable orders (see :meth:`add`), kept for rebuilds.
        self.orders: Dict[str, Sequence[str]] = {}
        self.roots: Dict[StepSignature, TrieNode] = {}
        #: Leaves of rules with no free steps (pivoted single-variable
        #: patterns): the validated pivot itself is the whole match.
        self.root_leaves: List[RuleLeaf] = []
        self._absent_labels: Set[str] = set()
        pivots = pivot_vars or {}
        for gfd in gfds:
            self.add(gfd, pivots.get(gfd.name))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(
        self,
        gfd: GFD,
        pivot_var: Optional[str] = None,
        order: Optional[Sequence[str]] = None,
    ) -> None:
        """Insert one rule's compiled path (O(|Q|); shared prefixes merge).

        *order* pins the rule's variable order (the pivot, if listed, is
        skipped) instead of the one this graph's statistics pick. Slot
        names are positions on a rule's path, so a trie that must agree
        slot for slot with another graph's — a fragment replica's with the
        whole graph's — is built from that graph's orders.
        """
        name = gfd.name
        if name in self.gfds:
            raise ValueError(f"duplicate GFD name in rule set: {name!r}")
        self.gfds[name] = gfd
        if pivot_var is not None:
            self.pivot_vars[name] = pivot_var
        if order is not None:
            self.orders[name] = tuple(order)
        self._insert(gfd, pivot_var)

    def _insert(self, gfd: GFD, pivot_var: Optional[str]) -> None:
        name = gfd.name
        plan = get_plan(gfd.pattern, self.graph)
        self._absent_labels.update(plan._absent_labels)
        preassigned = (pivot_var,) if pivot_var is not None else ()
        layout = plan.layout(preassigned, order=self.orders.get(name))
        slot_of: Dict[str, str] = {}
        if pivot_var is not None:
            slot_of[pivot_var] = PIVOT_SLOT
        node: Optional[TrieNode] = None
        for depth, step in enumerate(layout.steps):
            self_slot = f"@{depth}"
            signature = step_signature(step, slot_of, self_slot)
            children = self.roots if node is None else node.children
            child = children.get(signature)
            if child is None:
                child = TrieNode(signature, self._compile_slot_step(signature, depth), depth)
                children[signature] = child
            child.rules.add(name)
            child.variables[name] = step.var
            node = child
            slot_of[step.var] = self_slot
        slot_vars = tuple((slot, var) for var, slot in slot_of.items())
        leaf = RuleLeaf(name, slot_vars)
        if node is None:
            self.root_leaves.append(leaf)
        else:
            node.leaves.append(leaf)

    def _compile_slot_step(self, signature: StepSignature, depth: int) -> VarStep:
        label_str, anchor_slot, anchor_out, anchor_label_str, checks_sig = signature
        index = self.index
        label_id = None if label_str is None else index.label_id(label_str)
        if anchor_slot is None:
            anchor_label_id: Optional[int] = NO_LABEL
        elif anchor_label_str is None:
            anchor_label_id = None
        else:
            anchor_label_id = index.label_id(anchor_label_str)
        self_slot = f"@{depth}"
        checks = tuple(
            (src == self_slot, dst == self_slot, src, dst, label)
            for src, dst, label in checks_sig
        )
        return VarStep(
            self_slot,
            label_id,
            label_str,
            anchor_slot,
            anchor_out,
            anchor_label_id,
            anchor_label_str,
            checks,
        )

    # ------------------------------------------------------------------
    # Epoch discipline (mirrors MatchPlan.revalidate)
    # ------------------------------------------------------------------
    def revalidate(self) -> "RuleSetPlan":
        """Bring the trie up to the graph's current index state.

        O(1) when nothing changed. A rebuild is needed only when the index
        object was replaced (compaction) or a watched absent label appeared
        — interning is append-only, so compiled label ids cannot otherwise
        stale. Rebuilding re-pulls the shared per-pattern plans, so the
        trie and per-rule matchers always agree on layouts.
        """
        index = self.graph.index()
        if index is self.index and index.epoch == self.epoch:
            return self
        needs_rebuild = index is not self.index or any(
            index.label_id(label) != NO_LABEL for label in self._absent_labels
        )
        self.index = index
        self.epoch = index.epoch
        if needs_rebuild:
            self._rebuild()
        return self

    def _rebuild(self) -> None:
        self.roots = {}
        self.root_leaves = []
        self._absent_labels = set()
        for name, gfd in self.gfds.items():
            self._insert(gfd, self.pivot_vars.get(name))

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[TrieNode]:
        """All trie nodes, preorder (diagnostics and tests)."""
        stack = list(self.roots.values())
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    # ------------------------------------------------------------------
    # Walks
    # ------------------------------------------------------------------
    def run(
        self,
        active: Optional[AbstractSet[str]] = None,
        pivot_node: Optional[NodeId] = None,
        allowed_nodes: Optional[AbstractSet[NodeId]] = None,
        prefix: Optional[Mapping[str, NodeId]] = None,
    ) -> "RuleSetRun":
        return RuleSetRun(
            self,
            active=active,
            pivot_node=pivot_node,
            allowed_nodes=allowed_nodes,
            prefix=prefix,
        )

    def matches(
        self,
        active: Optional[AbstractSet[str]] = None,
        pivot_node: Optional[NodeId] = None,
        allowed_nodes: Optional[AbstractSet[NodeId]] = None,
    ) -> Iterator[Tuple[str, Assignment]]:
        """Convenience: one walk's ``(gfd_name, match)`` stream."""
        return self.run(
            active=active, pivot_node=pivot_node, allowed_nodes=allowed_nodes
        ).matches()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"RuleSetPlan(rules={len(self.gfds)}, roots={len(self.roots)}, "
            f"pivoted={bool(self.pivot_vars)})"
        )


#: A trie node as one walk sees it: ``(node, step, children, leaves,
#: weight)`` — its active child subtrees and leaves, and its weight on the
#: straggler clock (the number of active rules whose path passes through
#: it). Built once per node per run, not once per candidate.
_NodeInfo = Tuple[Optional[TrieNode], Optional[VarStep], List[TrieNode], List[RuleLeaf], int]


class RuleSetRun(PoolEngine):
    """One interleaved walk of the trie — all active rules in one pass.

    Candidate pools and residual checks come from the shared
    :class:`~repro.matching.homomorphism.PoolEngine`, driven over slot-space
    steps with a slot-keyed assignment; the per-rule projection of the
    emitted stream is therefore byte-identical to that rule's own
    :class:`MatcherRun` (same pools, same insertion order, same checks).

    Parameters mirror the pivoted :class:`MatcherRun` surface: *active*
    restricts the walk to a subset of rules (a work unit's group; subtrees
    owned entirely by inactive rules are skipped), *pivot_node* binds the
    shared :data:`PIVOT_SLOT` (pivoted tries only) and is validated per
    rule the way ``_preassignment_consistent`` validates a preassignment,
    and *allowed_nodes* confines every free slot to the unit's dQ-ball —
    sound for the whole group at the group's maximum radius, by
    homomorphism data locality (a larger ball only adds nodes no smaller-
    radius rule can reach). *candidate_sets* maps rule names to their
    per-variable candidate restrictions (dual-simulation sets; a rule
    absent from it is unrestricted); each node's pool is cut to the union
    over its active rules (see :meth:`_cut`).

    **Resumable and splittable.** The depth-first state lives in an
    explicit frame stack (per trie node on the current path: its
    candidates and two cursors), so :meth:`split` can strip unexplored
    work while the stream is suspended. This is the trie's counterpart of
    :meth:`MatcherRun.split` (paper, Example 6), and CbO/LCM's
    decomposition of a prefix-sharing search tree. Each stripped piece is
    a member subset plus a slot *prefix*; passing that *prefix* here
    resumes it: a bound slot's pool is its bound node, so the walk
    retraces the shared path and still shares everything below it.

    ``ticks`` counts the consistency checks actually made (the cost
    model's price of shared work); :attr:`clock` is the straggler clock,
    which counts each check once per active rule whose path passes through
    the checked node — what the members' own searches would have spent.
    """

    def __init__(
        self,
        plan: RuleSetPlan,
        active: Optional[AbstractSet[str]] = None,
        pivot_node: Optional[NodeId] = None,
        allowed_nodes: Optional[AbstractSet[NodeId]] = None,
        prefix: Optional[Mapping[str, NodeId]] = None,
        candidate_sets: Optional[Mapping[str, Mapping[str, CandidateSet]]] = None,
    ) -> None:
        plan.revalidate()
        self.plan = plan
        index = plan.index
        self._index = index
        self._edge_labels = index.edge_labels
        self._node_label_id = index.node_label_id
        self.allowed_nodes = allowed_nodes
        self.candidate_sets = candidate_sets
        self._cuts: Dict[TrieNode, Optional[CandidateSet]] = {}
        self.ticks = 0
        self.match_count = 0
        self._assignment: Dict[str, NodeId] = {}
        if pivot_node is not None:
            self._assignment[PIVOT_SLOT] = pivot_node
            self._preassigned_values = {pivot_node}
        else:
            self._preassigned_values: Set[NodeId] = set()
        self._exempt_bits_cache: Optional[int] = None
        self._prefix = dict(prefix) if prefix else None
        names: Iterable[str] = plan.gfds if active is None else [
            name for name in plan.gfds if name in active
        ]
        if pivot_node is not None:
            names = [
                name
                for name in names
                if plan.pivot_vars.get(name) is not None
                and self._pivot_ok(plan.gfds[name], plan.pivot_vars[name], pivot_node)
            ]
        self._active: FrozenSet[str] = frozenset(names)
        #: True when every rule of the plan survived activation — lets the
        #: walk skip per-node membership filtering entirely.
        self._all_active = len(self._active) == len(plan.gfds)
        #: The straggler clock. Pivot validation is per rule already.
        self.clock = self.ticks
        self._infos: Dict[TrieNode, _NodeInfo] = {}
        #: One frame per trie node on the current path, root frame first:
        #: ``[info, candidates, index, child_index]`` — the untried
        #: candidates are ``candidates[index:]`` and, under the accepted
        #: one, the unwalked child subtrees ``info[2][child_index:]``.
        self._stack: List[list] = []
        self._started = False

    def active_names(self) -> List[str]:
        """The rules this walk serves (activation ∩ pivot-validated), in
        plan insertion (Σ) order."""
        return [name for name in self.plan.gfds if name in self._active]

    def _info(self, node: TrieNode) -> _NodeInfo:
        """*node* filtered to this walk's active rules (see :data:`_NodeInfo`)."""
        info = self._infos.get(node)
        if info is None:
            if self._all_active:
                children = list(node.children.values())
                info = (node, node.step, children, node.leaves, len(node.rules))
            else:
                active = self._active
                info = (
                    node,
                    node.step,
                    [
                        child
                        for child in node.children.values()
                        if not active.isdisjoint(child.rules)
                    ],
                    [leaf for leaf in node.leaves if leaf.gfd_name in active],
                    len(active.intersection(node.rules)),
                )
            self._infos[node] = info
        return info

    def _cut(self, node: TrieNode) -> Optional[CandidateSet]:
        """The pool cut of *node*: the union of the candidate sets of the
        variables its active rules bind there (one rule's set as is), or
        ``None`` when one of those rules is unrestricted."""
        if node not in self._cuts:
            sets = self.candidate_sets
            names = [name for name in node.variables if name in self._active]
            self._cuts[node] = (
                reduce(or_, (sets[name][node.variables[name]] for name in names))
                if all(name in sets for name in names)
                else None
            )
        return self._cuts[node]

    # ------------------------------------------------------------------
    # Pivot validation (the slot-space _preassignment_consistent)
    # ------------------------------------------------------------------
    def _pivot_ok(self, gfd: GFD, pivot_var: str, node: NodeId) -> bool:
        graph = self.plan.graph
        self.ticks += 1
        if not graph.has_node(node):
            return False
        if not node_label_matches(gfd.pattern.label_of(pivot_var), graph.label(node)):
            return False
        for edge in gfd.pattern.edges:
            if edge.src == pivot_var and edge.dst == pivot_var:
                self.ticks += 1
                labels = graph.edge_labels_between(node, node)
                if not edge_label_matches(edge.label, labels):
                    return False
        return True

    # ------------------------------------------------------------------
    # The walk
    # ------------------------------------------------------------------
    def matches(self) -> Iterator[Tuple[str, Assignment]]:
        """Yield ``(gfd_name, match)`` pairs, depth-first over the trie.

        Sibling order is trie insertion order (= Σ order), so the stream is
        deterministic; per-rule projections equal the per-rule streams.
        One pass per run, resumable across :meth:`split`.
        """
        active = self._active
        if not active or self._started:
            return
        self._started = True
        plan = self.plan
        assignment = self._assignment
        stack = self._stack
        roots = [
            child
            for child in plan.roots.values()
            if self._all_active or not active.isdisjoint(child.rules)
        ]
        frame = [(None, None, roots, [], 0), [], 0, 0]
        stack.append(frame)
        for leaf in plan.root_leaves:
            if leaf.gfd_name in active:
                self.match_count += 1
                yield leaf.gfd_name, leaf.assignment(assignment)
        prefix = self._prefix
        candidates_of = self._candidates
        cut_of = None if self.candidate_sets is None else self._cut
        edge_labels = self._edge_labels
        infos = self._infos
        info = frame[0]
        children = info[2]
        # Checks made since ticks and clock were last stored; both are
        # stored before every yield, so callers always read them current.
        ticks = clock = 0
        while True:
            child_index = frame[3]
            if child_index < len(children):
                # Descend into the next child subtree of the accepted
                # candidate (an empty pool needs no frame).
                child = children[child_index]
                frame[3] = child_index + 1
                step = child.step
                if prefix is not None and step.var in prefix:
                    pool = [prefix[step.var]]
                else:
                    pool = candidates_of(step, None if cut_of is None else cut_of(child))
                    if not pool:
                        continue
                info = infos.get(child) or self._info(child)
                frame = [info, pool, 0, 0]
                stack.append(frame)
                start = 0
            else:
                # The accepted candidate's subtrees are done: try the next.
                step = info[1]
                if step is None:  # the root: the walk is complete
                    stack.pop()
                    self.ticks += ticks
                    self.clock += clock
                    return
                pool = frame[1]
                start = frame[2]
            # The first consistent candidate from ``start``: the residual
            # check of PoolEngine._node_ok, inlined (one tick per candidate
            # tried) because a call per candidate is the walk's main cost.
            checks = step.checks
            end = len(pool)
            position = start
            while position < end:
                candidate = pool[position]
                position += 1
                for src_is_self, dst_is_self, src_var, dst_var, label in checks:
                    labels = edge_labels.get(
                        (
                            candidate if src_is_self else assignment[src_var],
                            candidate if dst_is_self else assignment[dst_var],
                        )
                    )
                    if not labels or (label is not None and label not in labels):
                        break
                else:
                    break
            else:
                ticks += end - start
                clock += (end - start) * info[4]
                stack.pop()
                assignment.pop(step.var, None)
                frame = stack[-1]
                info = frame[0]
                children = info[2]
                continue
            ticks += position - start
            clock += (position - start) * info[4]
            frame[2] = position
            frame[3] = 0
            assignment[step.var] = candidate
            children = info[2]
            leaves = info[3]
            if leaves:
                self.ticks += ticks
                self.clock += clock
                ticks = clock = 0
                for leaf in leaves:
                    self.match_count += 1
                    yield leaf.gfd_name, leaf.assignment(assignment)

    # ------------------------------------------------------------------
    # Splitting (paper, Example 6)
    # ------------------------------------------------------------------
    def _pending_counts(self) -> List[int]:
        """Unexplored pieces per level, shallowest first: level ``i`` holds
        the untried candidates of the path's ``i``-th node and its untried
        sibling subtrees; the last level, the untried subtrees under the
        deepest node's current candidate."""
        stack = self._stack
        counts = []
        for level in range(1, len(stack) + 1):
            parent = stack[level - 1]
            count = len(parent[0][2]) - parent[3]
            if level < len(stack):
                frame = stack[level]
                count += len(frame[1]) - frame[2]
            counts.append(count)
        return counts

    def can_split(self) -> bool:
        """True if unexplored work exists off the current branch: anywhere
        above the deepest node, or more than one piece at its level."""
        counts = self._pending_counts()
        deepest = max(0, len(counts) - 2)
        return any(counts[:deepest]) or sum(counts[deepest:]) > 1

    def split(
        self, max_units: Optional[int] = None
    ) -> List[Tuple[Tuple[str, ...], Dict[str, NodeId]]]:
        """Strip unexplored work at the shallowest level holding some.

        Returns ``(group, prefix)`` pieces in depth-first order, at most
        *max_units* of them (the rest stay local). An untried candidate of
        a trie node becomes a piece binding that node's slot, grouping the
        active rules through the node; an untried sibling subtree becomes
        a piece whose prefix stops at its parent, grouping the active
        rules under it. Groups list rules in Σ order; prefixes exclude
        :data:`PIVOT_SLOT`. The local walk keeps its current branch.
        """
        stack = self._stack
        for level in range(1, len(stack) + 1):
            parent = stack[level - 1]
            frame = stack[level] if level < len(stack) else None
            candidates = frame[1][frame[2]:] if frame is not None else []
            siblings = parent[0][2][parent[3]:]
            if not candidates and not siblings:
                continue
            if max_units is not None:
                candidates = candidates[:max_units]
                siblings = siblings[: max_units - len(candidates)]
            if frame is not None:
                frame[2] += len(candidates)
            parent[3] += len(siblings)
            assignment = self._assignment
            slots = [upper[0][1].var for upper in stack[1:level]]
            prefix = {slot: assignment[slot] for slot in slots}
            names = self.active_names()
            pieces = []
            if candidates:
                node = frame[0][0]
                group = tuple(name for name in names if name in node.rules)
                for candidate in candidates:
                    bound = dict(prefix)
                    bound[node.step.var] = candidate
                    pieces.append((group, bound))
            for child in siblings:
                group = tuple(name for name in names if name in child.rules)
                pieces.append((group, dict(prefix)))
            return pieces
        return []


def sequential_run(
    graph: PropertyGraph, gfds: Iterable[GFD], use_simulation_pruning: bool = True
) -> Tuple[RuleSetRun, int]:
    """One whole-graph walk over the non-trivial rules of *gfds*, and the
    number of rules dual simulation pruned.

    Rules enter the trie in the given order, which is therefore the walk's
    sibling order. With *use_simulation_pruning* (the paper's ablation), a
    rule whose dual simulation on *graph* is empty never enters the trie,
    and the others' simulation sets cut the pools along their paths.
    ``simulation_candidates`` is looked up on its module at call time, so
    the benchmark suite's tracer, which rebinds it there, sees the calls.
    """
    rules = [gfd for gfd in gfds if not gfd.is_trivial()]
    if not use_simulation_pruning:
        return RuleSetRun(RuleSetPlan(graph, rules)), 0
    candidate_sets = {}
    for gfd in rules:
        found = simulation.simulation_candidates(gfd.pattern, graph)
        if found is not None:
            candidate_sets[gfd.name] = found
    kept = [gfd for gfd in rules if gfd.name in candidate_sets]
    run = RuleSetRun(RuleSetPlan(graph, kept), candidate_sets=candidate_sets)
    return run, len(rules) - len(kept)
