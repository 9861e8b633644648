"""Compiled, reusable match plans for the homomorphism search.

One Sat/Imp experiment constructs thousands of
:class:`~repro.matching.homomorphism.MatcherRun` objects — one per pivot /
work unit — for a handful of *patterns*. The seed matcher recomputed the
variable order and the per-variable check-edge analysis on every
construction; :class:`MatchPlan` hoists that work to one compilation per
``(pattern, graph-index)`` pair and shares it across the whole fan-out.

A plan is a set of :class:`PlanLayout` objects, one per distinct preassigned
variable set (all work units pivoted on the same variable share a layout).
Each layout fixes, per free variable in search order:

* the **anchor**: the first pattern edge connecting the variable to an
  already-placed variable. Candidates come from the graph index's
  label-grouped adjacency of the anchor's image — ``O(result)`` instead of
  a scan over full edge lists;
* the **candidate strategy**: anchor-expansion is compared at runtime
  against the label-index bucket by estimated cardinality, and the smaller
  side wins (cf. the CbO-style "speed-up features" discipline). When the
  run carries packed candidate filters (``allowed_nodes`` /
  ``candidate_sets`` as :class:`~repro.graph.bitset.NodeBitset`), the
  matcher additionally collapses bucket ∩ anchor-group ∩ filters into
  word-level ANDs of the index's bitset views — the compiled label ids
  stored here key those views directly;
* the residual **edge checks** (anchor edge excluded — pool membership
  already proves it), pre-resolved into ``(endpoint-is-self, endpoint
  variable, label)`` tuples so the inner loop does no pattern introspection.

Plans are cached on :attr:`repro.graph.index.GraphIndex.plan_cache`, weakly
keyed by pattern; :func:`get_plan` is the lookup used by ``MatcherRun``'s
compatibility constructor, and the reasoning/parallel layers pass plans
explicitly to make the reuse visible.

Because the index is maintained in place across topology mutations (PR 3),
a cached plan can outlive many graph changes. Compiled steps store interned
label ids, and interning is append-only — an id never changes — so the only
way a delta can invalidate a plan is by *introducing* a label the plan had
resolved as absent (:data:`~repro.graph.index.NO_LABEL`). Each plan records
the index :attr:`~repro.graph.index.GraphIndex.epoch` it last validated
against plus that absent-label watch set; :meth:`MatchPlan.revalidate`
compares epochs (an integer check on the hot path) and recompiles layouts
only when a watched label has appeared. Deltas that do not touch a plan's
labels therefore cost it nothing.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..gfd.pattern import Pattern, PatternEdge
from ..graph.elements import is_wildcard
from ..graph.graph import PropertyGraph
from ..graph.index import NO_LABEL, GraphIndex

#: One precompiled residual edge check:
#: ``(src_is_self, dst_is_self, src_var, dst_var, label_or_None)`` where a
#: ``None`` label means wildcard (any edge label satisfies the check).
EdgeCheck = Tuple[bool, bool, str, str, Optional[str]]

#: A prefix-comparable summary of one :class:`VarStep` — see
#: :func:`step_signature`.
StepSignature = Tuple[
    Optional[str],  # node label (None = wildcard)
    Optional[str],  # anchor slot (None = component-opening step)
    bool,  # anchor direction
    Optional[str],  # anchor edge label (None = wildcard)
    Tuple[Tuple[str, str, Optional[str]], ...],  # residual checks, sorted
]


def step_signature(
    step: "VarStep", slot_of: Mapping[str, str], self_slot: str
) -> StepSignature:
    """The label/edge-constraint content of *step* in slot space.

    Two steps of different patterns are interchangeable — same candidate
    pools, same residual-check outcomes — exactly when their signatures are
    equal under a renaming of already-placed variables to shared *slots*
    (``slot_of``; the step's own variable maps to *self_slot*). Signatures
    use label *strings*, not interned ids, so they are stable across index
    epochs; residual checks are sorted canonically (``_node_ok`` evaluates a
    conjunction, so check order cannot change its outcome). This is what
    :class:`repro.matching.ruleset.RuleSetPlan` merges on.
    """
    checks = tuple(
        sorted(
            (
                self_slot if src_is_self else slot_of[src_var],
                self_slot if dst_is_self else slot_of[dst_var],
                label,
            )
            for src_is_self, dst_is_self, src_var, dst_var, label in step.checks
        )
    )
    anchor_slot = None if step.anchor_var is None else slot_of[step.anchor_var]
    return (
        step.label_str,
        anchor_slot,
        step.anchor_out if anchor_slot is not None else False,
        step.anchor_label_str if anchor_slot is not None else None,
        checks,
    )


def step_branch_estimate(index: GraphIndex, step: "VarStep") -> float:
    """Expected candidates one expansion of *step* contributes.

    An anchored step branches by ``min(label-bucket size, avg adjacency-
    group size × label selectivity)`` — the same estimate the candidate
    strategy compares at run time — and an unanchored step by its full
    label bucket. Summed over prefixes by
    :meth:`MatchPlan.estimated_fanout`.
    """
    num_nodes = max(1, len(index.nodes))
    if step.label_id is None:
        bucket = num_nodes
    else:
        bucket = len(index.nodes_with_label_id(step.label_id))
    if step.anchor_var is None:
        return float(bucket)
    if step.anchor_out:
        fanout = index.avg_out_fanout(step.anchor_label_id)
    else:
        fanout = index.avg_in_fanout(step.anchor_label_id)
    # Anchor candidates must also carry the step's node label; assume
    # label independence for the selectivity factor.
    return min(float(bucket), fanout * (bucket / num_nodes))


def default_variable_order(
    pattern: Pattern,
    graph: PropertyGraph,
    preassigned: Iterable[str] = (),
) -> List[str]:
    """A connected search order over the non-preassigned variables.

    Greedy: repeatedly pick the cheapest variable adjacent to the already
    ordered/preassigned set (estimated by label frequency in *graph*); when
    none is adjacent (a fresh pattern component), pick the globally most
    selective remaining variable.
    """
    placed = set(preassigned)
    remaining = [var for var in pattern.variables if var not in placed]

    def selectivity(var: str) -> Tuple[int, str]:
        label = pattern.label_of(var)
        count = graph.num_nodes if is_wildcard(label) else len(graph.nodes_with_label(label))
        return (count, var)

    order: List[str] = []
    while remaining:
        adjacent = [var for var in remaining if pattern.adjacent(var) & placed]
        pool = adjacent if adjacent else remaining
        best = min(pool, key=selectivity)
        order.append(best)
        placed.add(best)
        remaining.remove(best)
    return order


class VarStep:
    """The compiled expansion recipe for one variable of a layout."""

    __slots__ = (
        "var",
        "label_id",
        "label_str",
        "anchor_var",
        "anchor_out",
        "anchor_label_id",
        "anchor_label_str",
        "checks",
    )

    def __init__(
        self,
        var: str,
        label_id: Optional[int],
        label_str: Optional[str],
        anchor_var: Optional[str],
        anchor_out: bool,
        anchor_label_id: Optional[int],
        anchor_label_str: Optional[str],
        checks: Tuple[EdgeCheck, ...],
    ) -> None:
        self.var = var
        #: Interned node-label id; ``None`` for wildcard variables,
        #: :data:`~repro.graph.index.NO_LABEL` when absent from the graph.
        self.label_id = label_id
        self.label_str = label_str
        #: Already-placed variable whose image anchors candidate expansion
        #: (``None`` for the first variable of a pattern component).
        self.anchor_var = anchor_var
        #: True when the anchor edge runs ``anchor -> var`` (candidates are
        #: out-neighbors of the anchor's image), False for ``var -> anchor``.
        self.anchor_out = anchor_out
        self.anchor_label_id = anchor_label_id
        self.anchor_label_str = anchor_label_str
        #: Residual consistency checks, anchor edge excluded.
        self.checks = checks

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        via = f" via {self.anchor_var}" if self.anchor_var is not None else ""
        return f"VarStep({self.var}{via}, checks={len(self.checks)})"


class PlanLayout:
    """Variable order + compiled steps for one preassigned-variable set."""

    __slots__ = ("preassigned_vars", "order", "steps")

    def __init__(
        self,
        preassigned_vars: FrozenSet[str],
        order: List[str],
        steps: List[VarStep],
    ) -> None:
        self.preassigned_vars = preassigned_vars
        self.order = order
        self.steps = steps


class MatchPlan:
    """A per-``(pattern, graph-index)`` compiled matching plan.

    Valid across index delta epochs: :meth:`revalidate` keeps the compiled
    layouts as long as no label the pattern uses has newly appeared in the
    graph (appearing labels are the only delta that can stale a compiled
    label id — ids are append-only otherwise).
    """

    __slots__ = ("pattern", "index", "epoch", "_layouts", "_absent_labels")

    def __init__(self, pattern: Pattern, index: GraphIndex) -> None:
        if not pattern.frozen:
            pattern.freeze()
        self.pattern = pattern
        self.index = index
        #: The index epoch the compiled layouts are known valid for.
        self.epoch = index.epoch
        self._layouts: Dict[FrozenSet[str], PlanLayout] = {}
        self._absent_labels = self._collect_absent_labels()

    def _collect_absent_labels(self) -> FrozenSet[str]:
        """Non-wildcard pattern labels currently absent from the index.

        These compile to :data:`~repro.graph.index.NO_LABEL` inside the
        layouts; if a later delta interns one of them, the affected layouts
        would silently produce empty candidate pools — so they are the
        watch set that forces recompilation.
        """
        pattern = self.pattern
        index = self.index
        labels = {
            pattern.label_of(var)
            for var in pattern.variables
            if not is_wildcard(pattern.label_of(var))
        }
        labels.update(
            edge.label for edge in pattern.edges if not is_wildcard(edge.label)
        )
        return frozenset(
            label for label in labels if index.label_id(label) == NO_LABEL
        )

    def revalidate(self) -> "MatchPlan":
        """Bring this plan up to the index's current delta epoch.

        O(1) when the epoch is unchanged. When the index has absorbed
        deltas since the last validation, compiled layouts are kept unless
        one of the watched absent labels has appeared — then layouts are
        dropped (they recompile lazily) and the watch set is refreshed.
        """
        index = self.index
        if self.epoch != index.epoch:
            if any(
                index.label_id(label) != NO_LABEL for label in self._absent_labels
            ):
                self._layouts.clear()
                self._absent_labels = self._collect_absent_labels()
            self.epoch = index.epoch
        return self

    def layout(
        self,
        preassigned_vars: Iterable[str],
        order: Optional[Sequence[str]] = None,
    ) -> PlanLayout:
        """The (cached) layout for runs preassigning *preassigned_vars*.

        All pivoted runs of one GFD preassign the same variable(s), so the
        entire fan-out hits one cache entry. An explicit *order* (already
        preassigned variables are ignored) caches under its own key: a
        fragment replica pinning the coordinator's whole-graph order
        compiles it once, not per work unit.
        """
        key = frozenset(preassigned_vars)
        cache_key = key if order is None else (key, tuple(order))
        cached = self._layouts.get(cache_key)
        if cached is None:
            if order is None:
                order_seq = default_variable_order(self.pattern, self.index.graph, key)
            else:
                order_seq = [var for var in order if var not in key]
            cached = self.compile_layout(order_seq, key)
            self._layouts[cache_key] = cached
        return cached

    def compile_layout(
        self, order: Sequence[str], preassigned_vars: FrozenSet[str]
    ) -> PlanLayout:
        """Compile steps for an explicit *order* (used uncached for caller-
        supplied variable orders)."""
        pattern = self.pattern
        index = self.index
        placed = set(preassigned_vars)
        steps: List[VarStep] = []
        for var in order:
            placed.add(var)
            touching = [
                edge
                for edge in pattern.edges
                if (edge.src == var and edge.dst in placed)
                or (edge.dst == var and edge.src in placed)
            ]
            anchor_edge: Optional[PatternEdge] = None
            for edge in touching:
                other = edge.dst if edge.src == var else edge.src
                if other != var:  # self-loops cannot anchor
                    anchor_edge = edge
                    break
            var_label = pattern.label_of(var)
            if is_wildcard(var_label):
                label_id: Optional[int] = None
                label_str: Optional[str] = None
            else:
                label_id = index.label_id(var_label)
                label_str = var_label
            anchor_var: Optional[str] = None
            anchor_out = False
            anchor_label_id: Optional[int] = NO_LABEL
            anchor_label_str: Optional[str] = None
            if anchor_edge is not None:
                # Candidates for ``var -> anchor`` edges are in-neighbors of
                # the anchor's image; for ``anchor -> var``, out-neighbors.
                anchor_out = anchor_edge.src != var
                anchor_var = anchor_edge.src if anchor_out else anchor_edge.dst
                if is_wildcard(anchor_edge.label):
                    anchor_label_id = None
                    anchor_label_str = None
                else:
                    anchor_label_id = index.label_id(anchor_edge.label)
                    anchor_label_str = anchor_edge.label
            checks = tuple(
                (
                    edge.src == var,
                    edge.dst == var,
                    edge.src,
                    edge.dst,
                    None if is_wildcard(edge.label) else edge.label,
                )
                for edge in touching
                if edge is not anchor_edge
            )
            steps.append(
                VarStep(
                    var,
                    label_id,
                    label_str,
                    anchor_var,
                    anchor_out,
                    anchor_label_id,
                    anchor_label_str,
                    checks,
                )
            )
        return PlanLayout(frozenset(preassigned_vars), list(order), steps)

    # ------------------------------------------------------------------
    # Cardinality estimates (plan-aware pivot selection)
    # ------------------------------------------------------------------
    def estimated_fanout(self, pivot_var: str) -> float:
        """Expected node expansions of a run pivoted at *pivot_var*.

        Walks the compiled layout for ``{pivot_var}`` and accumulates the
        prefix products of per-step branch factors: an anchored step
        branches by ``min(label-bucket size, avg adjacency-group size ×
        label selectivity)`` — the same estimate the candidate strategy
        compares at run time — and an unanchored step by its full label
        bucket. The sum over prefixes approximates the search-tree size
        *per pivot candidate*; work-unit generation multiplies by the
        number of pivot candidates, so both terms feed
        :func:`repro.reasoning.workunits.choose_pivot`.
        """
        index = self.index
        layout = self.layout({pivot_var})
        total = 0.0
        branch = 1.0
        for step in layout.steps:
            branch *= step_branch_estimate(index, step)
            total += branch
            if branch == 0.0:
                break
        return total

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"MatchPlan(pattern={self.pattern!r}, layouts={len(self._layouts)}, "
            f"index={self.index!r})"
        )


def get_plan(pattern: Pattern, graph: PropertyGraph) -> MatchPlan:
    """The shared plan for *pattern* over *graph*'s current compiled index.

    Plans are cached on the index (weakly keyed by pattern), so repeated
    ``MatcherRun`` constructions — the pivot fan-out of the parallel
    algorithms — compile once. Fetching the index first absorbs any pending
    mutation journal; cached plans then revalidate against the index epoch,
    surviving every delta that does not introduce a label they watch. Only
    a compaction rebuild (fresh index object) discards the cache wholesale.
    """
    if not pattern.frozen:
        pattern.freeze()
    index = graph.index()
    plan = index.plan_cache.get(pattern)
    if plan is None:
        plan = MatchPlan(pattern, index)
        index.plan_cache[pattern] = plan
    else:
        plan.revalidate()
    return plan
