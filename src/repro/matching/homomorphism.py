"""Backtracking graph-homomorphism matching.

The paper finds matches "along the same lines as VF2 ... except enforcing
homomorphism rather than isomorphism" (Section IV-C). :class:`MatcherRun`
implements that search with three extras needed by the parallel algorithms:

* **pivoting** — any subset of pattern variables can be preassigned to
  target nodes, and the search can be confined to an ``allowed_nodes`` set
  (the ``dQ``-neighborhood of the pivot, by homomorphism data locality);
* **tick accounting** — every candidate consistency check increments a
  counter, which doubles as the virtual-time cost model of the simulated
  cluster; and
* **work-unit splitting** — the DFS stack can be split at its shallowest
  level with unexplored sibling candidates, emitting partial assignments
  that resume elsewhere (paper, Example 6), while the current branch keeps
  running locally.

Matches are *homomorphisms*: two variables may map to the same node, labels
must agree except that a pattern wildcard matches any label, and every
pattern edge must exist in the target with a compatible label.

The search itself consumes a compiled :class:`repro.matching.plan.MatchPlan`
(variable order, anchors, residual edge checks) over the target graph's
:class:`repro.graph.index.GraphIndex` (label-grouped adjacency). The
``MatcherRun(pattern, graph, ...)`` constructor remains the compatibility
entry point — it fetches the shared plan from the graph's index cache — but
hot callers that fan one pattern out into many pivoted runs pass ``plan=``
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Iterator, List, Optional, Sequence, Set

from ..errors import PatternError
from ..gfd.pattern import Pattern
from ..graph.bitset import NodeBitset, bit_count, bit_positions, pack_positions
from ..graph.elements import NodeId, is_wildcard
from ..graph.graph import PropertyGraph

# Re-exported from the plan module (moved there to break an import cycle);
# part of this module's public API since the seed.
from .plan import MatchPlan, VarStep, default_variable_order, get_plan
from .simulation import CandidateSet

__all__ = [
    "Assignment",
    "MatcherRun",
    "PoolEngine",
    "default_variable_order",
    "edge_label_matches",
    "find_homomorphisms",
    "has_homomorphism",
    "node_label_matches",
]

Assignment = Dict[str, NodeId]

_NO_LABELS: AbstractSet[str] = frozenset()


def node_label_matches(pattern_label: str, node_label: str) -> bool:
    """Pattern node label compatibility (wildcard matches anything)."""
    return is_wildcard(pattern_label) or pattern_label == node_label


def edge_label_matches(pattern_label: str, target_labels: AbstractSet[str]) -> bool:
    """True if some target edge label is compatible with *pattern_label*."""
    if not target_labels:
        return False
    return is_wildcard(pattern_label) or pattern_label in target_labels


@dataclass
class _Frame:
    """One DFS level: a variable, its candidate list, and a cursor."""

    var: str
    candidates: List[NodeId]
    index: int = 0  # next candidate to try
    step: Optional[VarStep] = field(default=None, repr=False)

    def current(self) -> NodeId:
        """The candidate currently assigned (the one before the cursor)."""
        return self.candidates[self.index - 1]

    def pending(self) -> List[NodeId]:
        return self.candidates[self.index:]

    def strip_pending(self) -> List[NodeId]:
        pending = self.candidates[self.index:]
        del self.candidates[self.index:]
        return pending


class PoolEngine:
    """The candidate-pool and consistency core shared by every walker.

    Everything here is expressed against *compiled steps* and an
    *assignment dict* — it does not care whether the keys are pattern
    variables (:class:`MatcherRun`) or shared trie slots
    (:class:`repro.matching.ruleset.RuleSetRun`). Subclasses provide:

    ``_index`` / ``_edge_labels`` / ``_node_label_id``
        hot shortcuts into the compiled :class:`~repro.graph.index.
        GraphIndex`;
    ``_assignment``
        the current (partial) assignment the checks read;
    ``allowed_nodes``
        the optional locality filter (a set or a bitset view);
    ``_preassigned_values`` / ``_exempt_bits_cache``
        the pivot images exempt from ``allowed_nodes``;
    ``ticks``
        the virtual-cost counter (one per candidate checked).

    Keeping a single implementation is what makes the per-rule and
    rule-set paths byte-identical per rule: both pull candidates from the
    same pools in the same (graph insertion) order.
    """

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------
    def _node_ok(self, step: VarStep, node: NodeId) -> bool:
        """Residual edge consistency of assigning ``step.var -> node``.

        Candidate pools are pre-filtered by node label, allowed set and
        candidate restriction (and pool membership proves the anchor edge),
        so only the remaining check-edges need verifying here. One call is
        one tick — the virtual cost unit.
        """
        self.ticks += 1
        assignment = self._assignment
        edge_labels = self._edge_labels
        for src_is_self, dst_is_self, src_var, dst_var, label in step.checks:
            src = node if src_is_self else assignment[src_var]
            dst = node if dst_is_self else assignment[dst_var]
            labels = edge_labels.get((src, dst))
            if not labels or (label is not None and label not in labels):
                return False
        return True

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    def _candidates(
        self, step: VarStep, restriction: Optional["CandidateSet"] = None
    ) -> List[NodeId]:
        """Candidate target nodes for *step* given the current assignment.

        Anchored variables expand through the index's label-grouped
        adjacency of the anchor's image, falling back to the label-index
        bucket when it is estimated smaller (candidate-strategy pick); the
        first variable of a component scans its label bucket. Pools are
        pre-filtered by node label, allowed set and candidate restriction,
        so ticks are only spent on structurally plausible candidates. All
        pools iterate in graph insertion order — match streams are
        deterministic regardless of set hashing.

        *restriction* is the step's candidate cut (a dual-simulation set,
        or ``None``). It and ``allowed_nodes`` may be plain sets or
        :class:`~repro.graph.bitset.NodeBitset` views. When a bitset was
        packed over *this* run's index (universe identity), every filter
        whose base pool already iterates in graph insertion order — label
        buckets, the all-nodes scan, the bucket-strategy anchored pool —
        collapses into word-level ANDs producing the identical list; any
        other combination degrades to per-node membership filtering, which
        both representations support. The two paths therefore emit
        byte-identical candidate pools (the ``use_bitsets`` ablation
        contract).
        """
        index = self._index
        allowed = self.allowed_nodes
        # Word-level views, valid only when the filter was packed over this
        # very index; a bitset over some other index (e.g. a component
        # subgraph's) falls back to membership filtering below.
        allowed_bits = (
            allowed.bits
            if isinstance(allowed, NodeBitset) and allowed.universe is index
            else None
        )
        restriction_bits = (
            restriction.bits
            if isinstance(restriction, NodeBitset) and restriction.universe is index
            else None
        )
        # True once ``pool`` is a list built here (safe to hand out); the
        # index's internal groups are live, delta-maintained lists and must
        # be copied before frames mutate them during split striping.
        owned = False
        pool: Sequence[NodeId]
        # Word-level intersection pays when the base pool outgrows the
        # universe's word count (an AND chain costs O(|G|/64) regardless of
        # pool size) *and* the chain prunes hard — per-member decode
        # arithmetic costs several C-level membership probes, so dense
        # survivors fall back to list filtering (``_sparse_pool``). Every
        # base pool iterates in ascending node position, so either route
        # emits the identical candidate list.
        bits_cutoff = len(index.nodes) >> 6
        if step.anchor_var is not None:
            anchor = self._assignment[step.anchor_var]
            if step.anchor_out:
                pool = index.out_neighbors(anchor, step.anchor_label_id)
            else:
                pool = index.in_neighbors(anchor, step.anchor_label_id)
            has_filter_bits = allowed_bits is not None or restriction_bits is not None
            if step.label_id is not None:
                bucket = index.nodes_with_label_id(step.label_id)
                sparse = None
                if has_filter_bits and min(len(bucket), len(pool)) > bits_cutoff:
                    # bucket ∩ allowed ∩ restriction ∩ group as word ANDs.
                    # Filters first — their vectors are already packed; the
                    # anchor group's vector is only packed (lazily, cached
                    # per (anchor, label)) once the filters alone prove
                    # sparse, so a dense fallback never pays packing.
                    bits = index.label_bucket_bits(step.label_id)
                    if allowed_bits is not None:
                        bits &= allowed_bits | self._exempt_bits()
                    if restriction_bits is not None:
                        bits &= restriction_bits
                    base_len = min(len(bucket), len(pool))
                    if bit_count(bits) * 3 <= base_len:
                        if step.anchor_out:
                            bits &= index.out_neighbor_bits(
                                anchor, step.anchor_label_id
                            )
                        else:
                            bits &= index.in_neighbor_bits(
                                anchor, step.anchor_label_id
                            )
                        sparse = self._bits_to_list(bits)
                if sparse is not None:
                    pool = sparse
                    if allowed_bits is not None:
                        allowed = None  # consumed by the AND chain
                    if restriction_bits is not None:
                        restriction = None
                elif len(bucket) < len(pool):
                    pool = self._bucket_via_anchor(bucket, anchor, step)
                else:
                    label_ids = self._node_label_id
                    want = step.label_id
                    pool = [n for n in pool if label_ids[n] == want]
                owned = True
            elif has_filter_bits and len(pool) > bits_cutoff:
                # Wildcard-labeled step: the filters themselves are the
                # only cut — AND them first, pack the group only if they
                # prove sparse against it.
                bits = None
                if allowed_bits is not None:
                    bits = allowed_bits | self._exempt_bits()
                if restriction_bits is not None:
                    bits = restriction_bits if bits is None else bits & restriction_bits
                if bit_count(bits) * 3 <= len(pool):
                    if step.anchor_out:
                        bits &= index.out_neighbor_bits(anchor, step.anchor_label_id)
                    else:
                        bits &= index.in_neighbor_bits(anchor, step.anchor_label_id)
                    pool = self._bits_to_list(bits)
                    owned = True
                    if allowed_bits is not None:
                        allowed = None
                    if restriction_bits is not None:
                        restriction = None
            if allowed is not None:
                if isinstance(allowed, NodeBitset):
                    allowed = allowed.as_set()  # C-level probes per element
                exempt = self._preassigned_values
                pool = [n for n in pool if n in allowed or n in exempt]
                owned = True
        elif step.label_id is None:  # unanchored wildcard variable
            if allowed is not None:
                if allowed_bits is not None:
                    bits = allowed_bits
                    if restriction_bits is not None:
                        bits &= restriction_bits
                        restriction = None
                    pool = self._bits_to_list(bits)
                else:
                    position = index.position
                    pool = sorted(
                        (n for n in allowed if n in position), key=position.__getitem__
                    )
                owned = True
            elif restriction_bits is not None and (
                sparse := self._sparse_pool(restriction_bits, len(index.nodes))
            ) is not None:
                pool = sparse
                restriction = None
                owned = True
            else:
                pool = index.nodes
        else:  # unanchored labeled variable: label-index scan
            bucket = index.nodes_with_label_id(step.label_id)
            if allowed is not None:
                sparse = None
                if allowed_bits is not None and len(bucket) > bits_cutoff:
                    bits = index.label_bucket_bits(step.label_id) & allowed_bits
                    if restriction_bits is not None:
                        bits &= restriction_bits
                    sparse = self._sparse_pool(bits, len(bucket))
                if sparse is not None:
                    pool = sparse
                    if restriction_bits is not None:
                        restriction = None
                # Iterate the smaller side of the intersection; both sides
                # produce graph insertion order.
                elif len(allowed) * 4 < len(bucket):
                    members = index.label_members(step.label_str)
                    position = index.position
                    pool = sorted(
                        (n for n in allowed if n in members), key=position.__getitem__
                    )
                else:
                    if isinstance(allowed, NodeBitset):
                        allowed = allowed.as_set()
                    pool = [n for n in bucket if n in allowed]
                owned = True
            elif restriction_bits is not None and len(bucket) > bits_cutoff and (
                sparse := self._sparse_pool(
                    index.label_bucket_bits(step.label_id) & restriction_bits,
                    len(bucket),
                )
            ) is not None:
                pool = sparse
                restriction = None
                owned = True
            else:
                pool = bucket
        if restriction is not None:
            if isinstance(restriction, NodeBitset):
                restriction = restriction.as_set()
            pool = [n for n in pool if n in restriction]
            owned = True
        # Frames mutate their candidate lists (split striping), so never
        # hand out the index's shared, delta-maintained groups.
        return pool if owned else list(pool)

    def _bits_to_list(self, bits: int) -> List[NodeId]:
        """Materialize a packed candidate vector in ascending position —
        graph insertion order, the same order every list pool produces."""
        nodes = self._index.nodes
        return [nodes[pos] for pos in bit_positions(bits)]

    def _sparse_pool(self, bits: int, base_len: int) -> Optional[List[NodeId]]:
        """Decode an AND-chain result when decoding is the cheaper route.

        Per-member decode arithmetic costs several times a C-level
        membership probe, so the packed result only pays off when the
        chain pruned hard; for dense survivors the caller falls back to
        its (already order-identical) list-filtering route and the cheap
        AND is discarded. Returns ``None`` on fallback.
        """
        if bit_count(bits) * 3 > base_len:
            return None
        return self._bits_to_list(bits)

    def _exempt_bits(self) -> int:
        bits = self._exempt_bits_cache
        if bits is None:
            bits = pack_positions(self._preassigned_values, self._index.position)
            self._exempt_bits_cache = bits
        return bits

    def _bucket_via_anchor(
        self, bucket: Sequence[NodeId], anchor: NodeId, step: VarStep
    ) -> List[NodeId]:
        """Label-bucket scan filtered by the anchor edge's existence.

        Chosen when the bucket is smaller than the anchor's adjacency group;
        keeps the pool's anchor-edge guarantee intact.
        """
        edge_labels = self._edge_labels
        label = step.anchor_label_str
        if step.anchor_out:  # anchor -> candidate
            if label is None:
                return [n for n in bucket if edge_labels.get((anchor, n))]
            return [n for n in bucket if label in edge_labels.get((anchor, n), _NO_LABELS)]
        if label is None:  # candidate -> anchor
            return [n for n in bucket if edge_labels.get((n, anchor))]
        return [n for n in bucket if label in edge_labels.get((n, anchor), _NO_LABELS)]


class MatcherRun(PoolEngine):
    """A resumable homomorphism search for one pattern/target pair.

    Parameters
    ----------
    pattern:
        The frozen pattern to match.
    graph:
        The target property graph.
    preassigned:
        Variable -> node bindings fixed before the search (pivots, or the
        prefix of a split work unit). Inconsistent preassignments simply
        yield no matches.
    allowed_nodes:
        When given, every variable must map into this set (used for
        ``dQ``-neighborhood locality). Preassigned nodes are exempt — they
        define the neighborhood. A plain ``set`` or a
        :class:`~repro.graph.bitset.NodeBitset`; a bitset packed over this
        graph's index additionally unlocks word-level pool intersection.
    variable_order:
        Search order for the free variables; computed greedily when omitted.
    candidate_sets:
        Optional per-variable candidate restrictions (e.g. from
        :func:`~repro.matching.simulation.simulation_candidates`); a
        variable absent from the mapping is unrestricted. Values may be
        plain sets or :class:`~repro.graph.bitset.NodeBitset` views — both
        produce byte-identical match streams.
    plan:
        A precompiled :class:`~repro.matching.plan.MatchPlan` for this
        pattern over ``graph.index()``. When omitted, the shared plan is
        fetched from (and cached on) the graph's compiled index — callers
        spawning many runs from one pattern should fetch it once via
        :func:`~repro.matching.plan.get_plan` and pass it through.
    """

    def __init__(
        self,
        pattern: Pattern,
        graph: PropertyGraph,
        preassigned: Optional[Assignment] = None,
        allowed_nodes: Optional[AbstractSet[NodeId]] = None,
        variable_order: Optional[Sequence[str]] = None,
        candidate_sets: Optional[Dict[str, "CandidateSet"]] = None,
        plan: Optional[MatchPlan] = None,
    ) -> None:
        if not pattern.frozen:
            pattern.freeze()
        if (
            plan is None
            or plan.index.graph is not graph
            or plan.index.stale
            or plan.pattern != pattern
        ):
            # Missing, mismatched, or lagging plans (the graph has journaled
            # mutations the plan's index has not absorbed) are silently
            # replaced by the shared one — get_plan applies the pending
            # delta and usually hands the *same* plan object back,
            # revalidated. A wrong explicit plan must never produce wrong
            # matches.
            plan = get_plan(pattern, graph)
        else:
            # Same graph, index current: an O(1) epoch check covers the
            # case where another pattern's lookup already absorbed a delta.
            plan.revalidate()
        self.plan = plan
        self.pattern = pattern
        self.graph = graph
        self.preassigned: Assignment = dict(preassigned or {})
        self.allowed_nodes = allowed_nodes
        self.candidate_sets = candidate_sets
        for var in self.preassigned:
            if not pattern.has_var(var):
                raise PatternError(f"preassigned variable {var!r} not in pattern")
        # Both branches go through the plan's layout cache: the pivot
        # fan-out of explicit-order runs (fragment replicas pinning the
        # coordinator's whole-graph order) compiles once per order, not
        # once per work unit.
        layout = plan.layout(self.preassigned, order=variable_order)
        self.order: List[str] = list(layout.order)
        self._steps: List[VarStep] = layout.steps
        #: Number of consistency checks performed so far (virtual cost).
        self.ticks = 0
        #: Number of matches yielded so far.
        self.match_count = 0
        self._assignment: Assignment = dict(self.preassigned)
        self._stack: List[_Frame] = []
        self._exhausted = False
        # Hot-loop shortcuts into the compiled index.
        index = plan.index
        self._index = index
        self._edge_labels = index.edge_labels
        self._node_label_id = index.node_label_id
        self._preassigned_values = set(self.preassigned.values())
        # Packed preassigned-value vector, built on first bitset-filtered
        # allowed-set intersection (pivot images are exempt from allowed).
        self._exempt_bits_cache: Optional[int] = None

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------
    def _preassignment_consistent(self) -> bool:
        """Validate labels and edges among the preassigned variables."""
        for var, node in self.preassigned.items():
            self.ticks += 1
            if not self.graph.has_node(node):
                return False
            if not node_label_matches(self.pattern.label_of(var), self.graph.label(node)):
                return False
        for edge in self.pattern.edges:
            if edge.src in self.preassigned and edge.dst in self.preassigned:
                self.ticks += 1
                labels = self.graph.edge_labels_between(
                    self.preassigned[edge.src], self.preassigned[edge.dst]
                )
                if not edge_label_matches(edge.label, labels):
                    return False
        return True

    # ------------------------------------------------------------------
    # The search itself
    # ------------------------------------------------------------------
    def matches(self) -> Iterator[Assignment]:
        """Yield full matches as fresh dicts. Resumable across ``split``."""
        if self._exhausted:
            return
        if not self._preassignment_consistent():
            self._exhausted = True
            return
        if not self.order:
            # All variables preassigned: the prefix itself is the match.
            self._exhausted = True
            self.match_count += 1
            yield dict(self._assignment)
            return
        stack = self._stack
        steps = self._steps
        if not stack:
            first = steps[0]
            stack.append(_Frame(first.var, self._pool(first), step=first))
        while stack:
            frame = stack[-1]
            advanced = False
            while frame.index < len(frame.candidates):
                node = frame.candidates[frame.index]
                frame.index += 1
                if self._node_ok(frame.step, node):
                    self._assignment[frame.var] = node
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                self._assignment.pop(frame.var, None)
                if stack:
                    # Parent keeps its binding; loop continues with parent.
                    continue
                break
            if len(stack) == len(self.order):
                self.match_count += 1
                yield dict(self._assignment)
                # Stay at this depth; try the next candidate on next loop.
                self._assignment.pop(frame.var, None)
                continue
            next_step = steps[len(stack)]
            stack.append(_Frame(next_step.var, self._pool(next_step), step=next_step))
        self._exhausted = True

    def _pool(self, step: VarStep) -> List[NodeId]:
        sets = self.candidate_sets
        return self._candidates(step, None if sets is None else sets.get(step.var))

    # ------------------------------------------------------------------
    # Splitting (paper, Example 6)
    # ------------------------------------------------------------------
    @property
    def clock(self) -> int:
        """The straggler clock the TTL is measured on: one rule's search
        counts its own checks (a trie walk counts them per member rule)."""
        return self.ticks

    def can_split(self) -> bool:
        """True if some DFS level still has unexplored sibling candidates."""
        return any(frame.pending() for frame in self._stack[:-1]) or (
            len(self._stack) >= 1 and len(self._stack[-1].pending()) > 1
        )

    def split(self, max_units: Optional[int] = None) -> List[Assignment]:
        """Strip unexplored siblings at the shallowest splittable level.

        Returns partial assignments — each extends the preassignment with
        the bindings above the split level plus one sibling candidate — to
        be resumed as new work units. The local search keeps only the branch
        currently being explored at that level.
        """
        for depth, frame in enumerate(self._stack):
            pending = frame.pending()
            if not pending:
                continue
            if max_units is not None and len(pending) > max_units:
                # Keep the overflow locally; ship only max_units of them.
                keep_from = len(frame.candidates) - (len(pending) - max_units)
                shipped = frame.candidates[frame.index:keep_from]
                del frame.candidates[frame.index:keep_from]
                pending = shipped
            else:
                frame.strip_pending()
            if not pending:
                continue
            prefix = dict(self.preassigned)
            for upper in self._stack[:depth]:
                prefix[upper.var] = upper.current()
            units = []
            for candidate in pending:
                assignment = dict(prefix)
                assignment[frame.var] = candidate
                units.append(assignment)
            return units
        return []


def find_homomorphisms(
    pattern: Pattern,
    graph: PropertyGraph,
    preassigned: Optional[Assignment] = None,
    allowed_nodes: Optional[AbstractSet[NodeId]] = None,
    limit: Optional[int] = None,
    plan: Optional[MatchPlan] = None,
) -> List[Assignment]:
    """Convenience wrapper: collect up to *limit* matches into a list."""
    run = MatcherRun(
        pattern, graph, preassigned=preassigned, allowed_nodes=allowed_nodes, plan=plan
    )
    result = []
    for match in run.matches():
        result.append(match)
        if limit is not None and len(result) >= limit:
            break
    return result


def has_homomorphism(
    pattern: Pattern,
    graph: PropertyGraph,
    preassigned: Optional[Assignment] = None,
) -> bool:
    """True if at least one match of *pattern* exists in *graph*."""
    return bool(find_homomorphisms(pattern, graph, preassigned=preassigned, limit=1))
