"""Execution of individual work units — ``HomMatch`` + ``CheckAttr``.

A work unit ``(Q[z], φ)`` is executed by running the pivoted homomorphism
matcher inside the ``dQ``-neighborhood of ``z`` and enforcing ``φ`` on each
match as it is produced (the pipelined shape of Fig. 3). The function is
runtime-agnostic: the simulated backend calls it to obtain true operation
counts for its virtual clock, and process workers call it on their
replicas.

Splitting: when a unit's straggler clock crosses the TTL budget and
unexplored branches exist, they are stripped into sub-units (paper,
Example 6) and returned to the caller, which routes them back to the
coordinator's queue; the local search then finishes only its current
branch (and any budget-sized chunks after further splits). A per-rule
unit splits its :class:`MatcherRun` into longer variable prefixes. A
grouped unit splits its resumable trie walk into grouped sub-units — a
member subset plus a slot prefix — that resume the same trie, so the
members keep sharing every prefix below the split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set

from ..eq.eqrelation import EqRelation
from ..gfd.gfd import GFD
from ..graph.elements import NodeId
from ..graph.graph import PropertyGraph
from ..graph.neighborhood import bfs_hops
from ..matching.homomorphism import MatcherRun
from ..matching.plan import MatchPlan, get_plan
from ..matching.simulation import CandidateSet, simulation_candidates
from ..reasoning.enforce import EnforcementEngine
from ..reasoning.workunits import WorkUnit


class UnitContext:
    """Shared read-only state for unit execution.

    Caches ``dQ``-neighborhoods, per-GFD dual-simulation candidate sets,
    and per-GFD compiled match plans — all depend only on the canonical
    graph's topology, which never changes during a run. The plan cache is
    the unit-level face of the :class:`~repro.matching.plan.MatchPlan`
    reuse: every work unit of one GFD (there are typically thousands)
    shares a single compiled plan.

    Neighborhoods are backed by one BFS *hop map* per pivot, kept at the
    largest radius requested so far: all GFDs pivoting at the same node
    share the BFS regardless of their individual ``dQ`` radii (equal radii
    share the derived node set too, via a ``(pivot, radius)`` view cache).
    :meth:`precompute_neighborhoods` warms the maps coordinator-side for
    hot pivots, so workers — in particular forked process workers, which
    inherit the warm cache — never repeat the traversal.
    """

    #: Above this many target nodes, global dual simulation is skipped —
    #: the per-unit ``dQ``-neighborhood restriction already bounds search,
    #: and an O(|Q|·|G|) pre-pass per GFD would dominate at scale.
    SIMULATION_NODE_LIMIT = 600

    def __init__(
        self,
        graph: PropertyGraph,
        gfds_by_name: Mapping[str, GFD],
        use_simulation_pruning: bool = True,
        use_bitsets: bool = True,
        fragment=None,
        plan_orders: Optional[Mapping[str, Sequence[str]]] = None,
        pivot_overrides: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.graph = graph
        self.gfds = dict(gfds_by_name)
        #: The :class:`~repro.graph.fragment.FragmentIndex` this context is
        #: bound to, when *graph* is a fragment replica rather than the
        #: whole canonical graph. Fragment-bound contexts pickle without
        #: their dQ-ball/candidate caches (see :meth:`__getstate__`).
        self.fragment = fragment
        #: gfd name -> full pivot-first variable order, computed against
        #: the *whole* graph coordinator-side. Fragment replicas pass their
        #: entry to :class:`MatcherRun` so the search order — and hence the
        #: match stream — is byte-identical to whole-graph execution even
        #: though the replica's own statistics would order differently.
        self.plan_orders = dict(plan_orders) if plan_orders is not None else None
        #: gfd name -> pivot variable chosen against the whole graph, so a
        #: replica's :meth:`ruleset_plan` trie paths agree with the
        #: coordinator's grouped units regardless of local statistics.
        self.pivot_overrides = (
            dict(pivot_overrides) if pivot_overrides is not None else None
        )
        #: Coordinator-side only: the :class:`~repro.graph.fragment.Fragmenter`
        #: routing table. When set, :meth:`locality_key` pins every radius-
        #: bounded unit to its pivot's owning fragment. Never pickled.
        self.fragment_router = None
        # The caller's request, kept separately: the effective flag below
        # also depends on graph size, which deltas can change — it is
        # re-derived in :meth:`note_topology_change`.
        self._simulation_requested = use_simulation_pruning
        self.use_simulation_pruning = (
            use_simulation_pruning and graph.num_nodes <= self.SIMULATION_NODE_LIMIT
        )
        #: Candidate-set representation: packed NodeBitset vectors over the
        #: graph's compiled index (default) vs plain sets (ablation). Both
        #: produce byte-identical match streams.
        self.use_bitsets = use_bitsets
        # pivot -> (radius the map was computed to, node -> hop distance).
        self._hop_maps: Dict[NodeId, tuple] = {}
        # pivot -> affinity routing key (dominant neighbor); node -> degree.
        self._locality_keys: Dict[NodeId, NodeId] = {}
        self._degrees: Dict[NodeId, int] = {}
        # (pivot, radius) -> materialized allowed-node set (shared object,
        # so repeated units of equal radius reuse one set instance).
        self._neighborhoods: Dict[tuple, object] = {}
        self._candidates: Dict[str, Optional[Dict[str, CandidateSet]]] = {}
        self._plans: Dict[str, MatchPlan] = {}
        #: Lazily-built shared-prefix trie over all pivotable rules, for
        #: grouped work units (one plan per context; epoch revalidation is
        #: the walk's responsibility). Excluded from worker pickles — it
        #: holds compiled, index-bound steps — and rebuilt worker-side on
        #: first grouped unit.
        self._ruleset_plan = None
        # Graph mutation count the topology caches are valid for; checked
        # lazily at every cache entry point so a context reused across
        # mutations (any backend, or direct execute_unit) never serves
        # stale neighborhoods or candidate sets.
        self._topology_version = graph.mutation_count

    def plan_for(self, gfd: GFD) -> MatchPlan:
        """The compiled match plan shared by all of *gfd*'s work units.

        Delta-aware: a cached plan whose index has pending journal ops (or
        was superseded by a compaction rebuild) is re-fetched through
        :func:`~repro.matching.plan.get_plan`, which absorbs the journal
        and revalidates — normally handing the same plan object back.
        """
        plan = self._plans.get(gfd.name)
        if plan is None or plan.index.graph is not self.graph or plan.index.stale:
            plan = get_plan(gfd.pattern, self.graph)
            self._plans[gfd.name] = plan
        return plan

    def note_topology_change(self) -> None:
        """Invalidate every topology-derived cache after graph mutations.

        Invoked lazily by the cache entry points whenever the graph's
        mutation count has advanced (so *any* run-mutate-run reuse of a
        context is safe, regardless of backend), and explicitly by
        standing process workers when replaying a coordinator delta: BFS
        hop maps, materialized ``dQ``-neighborhood sets and
        dual-simulation candidate sets may all have changed, so they are
        dropped and recomputed on demand. Compiled match plans are *kept*
        — they revalidate against the index epoch on next use
        (:meth:`plan_for`).
        """
        self._hop_maps.clear()
        self._neighborhoods.clear()
        self._candidates.clear()
        self._locality_keys.clear()
        self._degrees.clear()
        self._topology_version = self.graph.mutation_count
        # Re-derive the size-gated simulation decision: deltas may have
        # grown the graph past SIMULATION_NODE_LIMIT (or a caller may
        # construct contexts small and grow them), and the global
        # dual-simulation pre-pass is exactly the cost the limit avoids.
        self.use_simulation_pruning = (
            self._simulation_requested
            and self.graph.num_nodes <= self.SIMULATION_NODE_LIMIT
        )

    def precompile_plans(self, gfds=None) -> None:
        """Compile plans for *gfds* (default: all registered) up front, so
        worker-side unit execution never pays compilation latency."""
        for gfd in self.gfds.values() if gfds is None else gfds:
            self.plan_for(gfd)

    def ruleset_plan(self):
        """The shared-prefix trie over all pivotable registered rules.

        Built once per context (O(Σ|Q|), pulling the same cached per-rule
        plans as :meth:`plan_for`, so trie paths and per-rule layouts
        always agree) and revalidated against the index epoch by every
        walk. Pivot variables come from the same deterministic
        :func:`~repro.reasoning.workunits.choose_pivot` the grouped unit
        generator uses, so a unit's ``group`` and the trie's pivoted paths
        line up on any replica holding an identical graph. Fragment
        replicas and dQ-balls build their paths from the whole graph's
        :attr:`plan_orders`, so every trie slot binds the same variable as
        on the coordinator and split sub-units' slot prefixes mean the same
        bindings everywhere. Trivial and disconnected rules are excluded —
        the former execute as no-ops, the latter keep classic ungrouped
        units.
        """
        if self._ruleset_plan is None:
            from ..matching.ruleset import RuleSetPlan
            from ..reasoning.workunits import choose_pivot

            plan = RuleSetPlan(self.graph)
            for gfd in self.gfds.values():
                if gfd.is_trivial() or not gfd.pattern.is_connected():
                    continue
                pivot = None
                if self.pivot_overrides is not None:
                    pivot = self.pivot_overrides.get(gfd.name)
                if pivot is None:
                    pivot = choose_pivot(gfd, self.graph)
                order = None
                if self.plan_orders is not None:
                    order = self.plan_orders.get(gfd.name)
                plan.add(gfd, pivot, order)
            self._ruleset_plan = plan
        return self._ruleset_plan

    def _ensure_current(self) -> None:
        """Drop topology caches if the graph has mutated since last use."""
        if self.graph.mutation_count != self._topology_version:
            self.note_topology_change()

    def _hop_map(self, pivot: NodeId, radius: int) -> Dict[NodeId, int]:
        self._ensure_current()
        cached = self._hop_maps.get(pivot)
        if cached is None or cached[0] < radius:
            cached = (radius, bfs_hops(self.graph, pivot, max_hops=radius))
            self._hop_maps[pivot] = cached
        return cached[1]

    def allowed_nodes(self, pivot: NodeId, radius: Optional[int]):
        """The materialized ``dQ``-neighborhood of *pivot* at *radius*.

        A :class:`~repro.graph.bitset.NodeBitset` over the graph's compiled
        index when :attr:`use_bitsets` (the matcher then intersects it with
        candidate pools by word-level AND), else a plain set. ``None`` when
        the unit has no radius (disconnected patterns search globally).
        """
        if radius is None:
            return None
        self._ensure_current()
        key = (pivot, radius)
        allowed = self._neighborhoods.get(key)
        if allowed is None:
            hops = self._hop_map(pivot, radius)
            members = {node for node, distance in hops.items() if distance <= radius}
            allowed = self.graph.index().bitset(members) if self.use_bitsets else members
            self._neighborhoods[key] = allowed
        return allowed

    def _degree(self, node: NodeId) -> int:
        degree = self._degrees.get(node)
        if degree is None:
            degree = len(self.graph.neighbors(node))
            self._degrees[node] = degree
        return degree

    def locality_key(self, unit: WorkUnit) -> Optional[NodeId]:
        """The pivot-affinity routing key of *unit* (``None`` = unpinned).

        Units whose pivots share a dense neighborhood — the spokes of one
        hub — must map to the same key, so the
        :class:`~repro.parallel.scheduler.Scheduler` can pin them to one
        worker replica whose warm hop maps and already-applied ``ΔEq``
        ops serve the whole group. The key is the *dominant node of the
        pivot's closed neighborhood*: the pivot's highest-degree neighbor
        when that neighbor out-ranks the pivot itself, else the pivot.
        Ties break on the compiled index's ``position`` (graph insertion
        order), keeping the key deterministic under hash randomization.
        """
        pivot = unit.pivot_node()
        if pivot is None:
            return None
        if self.fragment_router is not None:
            # Fragmented dispatch: the owning fragment's id is the key, so
            # every unit pivoting inside one fragment pins to the worker
            # holding that fragment's replica (composing with affinity
            # routing and grouped units — the key is per unit, however the
            # unit was generated). Radius-less units search the whole
            # graph and stay unpinned.
            if unit.radius is None:
                return None
            return ("frag", self.fragment_router.fragment_of(pivot))
        self._ensure_current()
        key = self._locality_keys.get(pivot)
        if key is None:
            graph = self.graph
            key = pivot
            if graph.has_node(pivot):
                position = graph.index().position
                best_rank = (-self._degree(pivot), position[pivot])
                for neighbor in graph.neighbors(pivot):
                    rank = (-self._degree(neighbor), position[neighbor])
                    if rank < best_rank:
                        key, best_rank = neighbor, rank
            self._locality_keys[pivot] = key
        return key

    def precompute_neighborhoods(
        self, units: Sequence[WorkUnit], min_units: int = 2
    ) -> int:
        """Warm the hop-map cache for hot pivots, coordinator-side.

        A pivot is *hot* when at least *min_units* queued units share it
        (one BFS then serves them all — and every GFD pivoting there). Each
        hot pivot's map is computed once at the largest radius any of its
        units needs. Returns the number of pivots precomputed.
        """
        demand: Dict[NodeId, int] = {}
        count: Dict[NodeId, int] = {}
        for unit in units:
            pivot = unit.pivot_node()
            if pivot is None or unit.radius is None:
                continue
            count[pivot] = count.get(pivot, 0) + 1
            demand[pivot] = max(demand.get(pivot, 0), unit.radius)
        warmed = 0
        for pivot, radius in demand.items():
            if count[pivot] >= min_units:
                self._hop_map(pivot, radius)
                warmed += 1
        return warmed

    # ------------------------------------------------------------------
    # Pickling (process-backend worker shipping)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        """Ship graph, GFDs, hop maps, and candidate sets — not the plans
        or materialized neighborhoods.

        Compiled plans hold the graph's :class:`GraphIndex` (weak-ref plan
        cache, unpicklable); the index travels separately as a snapshot and
        plans recompile worker-side in O(|Q|) per pattern. Neighborhood
        sets are dropped — they may be :class:`NodeBitset` views bound to
        the coordinator's index object, and workers re-derive them cheaply
        from the shipped hop maps. Dual-simulation candidate sets are
        *kept* (recomputing them is an O(|G|·|Q|) fixpoint per GFD, per
        worker) by downgrading any bitset values to plain picklable sets;
        the matcher accepts either representation with identical streams.

        Fragment-bound contexts (:attr:`fragment` set) additionally drop
        the hop maps and candidate sets: those caches were computed
        against whatever graph the context wrapped *when they warmed* —
        for a context handed a :class:`FragmentIndex` they must be
        rebuilt against the replica, not inherited from a whole-graph
        index whose node universe the fragment does not share.
        """
        state = dict(self.__dict__)
        state["_plans"] = {}
        state["_neighborhoods"] = {}
        # The routing table is coordinator-side state (it wraps the whole
        # graph); replicas never route.
        state["fragment_router"] = None
        # The compiled trie binds the coordinator's index object; workers
        # rebuild it lazily (O(Σ|Q|)) from the shipped graph snapshot.
        state["_ruleset_plan"] = None
        # Affinity routing runs coordinator-side only; workers never ask.
        state["_locality_keys"] = {}
        state["_degrees"] = {}
        state["_candidates"] = {
            name: sim
            if sim is None
            else {var: set(members) for var, members in sim.items()}
            for name, sim in self._candidates.items()
        }
        if self.fragment is not None:
            state["_hop_maps"] = {}
            state["_candidates"] = {}
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)

    def candidate_sets(self, gfd: GFD) -> Optional[Dict[str, CandidateSet]]:
        """Dual-simulation candidates, or None when pruning is off.

        Computed through :func:`simulation_candidates` in the context's
        candidate-set representation (:attr:`use_bitsets`). A GFD whose
        simulation is empty can never match; that case is encoded as
        ``{var: set()}`` so the matcher terminates immediately.
        """
        self._ensure_current()
        if not self.use_simulation_pruning:
            return None
        if gfd.name not in self._candidates:
            sim = simulation_candidates(
                gfd.pattern, self.graph, use_bitsets=self.use_bitsets
            )
            if sim is None:
                sim = {var: set() for var in gfd.pattern.variables}
            self._candidates[gfd.name] = sim
        return self._candidates[gfd.name]


def attach_fragmentation(context: UnitContext, sigma, num_fragments: int):
    """Fragment *context*'s graph and pin whole-graph matching decisions.

    Builds the :class:`~repro.graph.fragment.Fragmenter` routing table
    (halo radius = Σ's maximum pivot eccentricity) and records, per rule,
    the pivot variable and full variable order the *whole* graph's
    statistics choose. Those travel to every fragment replica and dQ-ball
    — and are installed on the coordinator context itself — so that every
    execution site searches in the same order and the fragmented match
    streams reproduce the unfragmented ones byte for byte. Returns the
    fragmenter (also reachable as ``context.fragment_router``).
    """
    from ..graph.fragment import Fragmenter
    from ..reasoning.workunits import choose_pivot, fragment_radius

    radius = fragment_radius(sigma, context.graph)
    router = Fragmenter(context.graph, num_fragments, radius)
    pivots: Dict[str, str] = {}
    orders: Dict[str, tuple] = {}
    for gfd in sigma:
        if gfd.is_trivial() or not gfd.pattern.is_connected():
            continue
        pivot = choose_pivot(gfd, context.graph)
        pivots[gfd.name] = pivot
        layout = context.plan_for(gfd).layout({pivot})
        orders[gfd.name] = (pivot,) + tuple(layout.order)
    context.fragment_router = router
    context.pivot_overrides = pivots
    context.plan_orders = orders
    return router


@dataclass
class UnitResult:
    """What happened while executing one work unit.

    Counts and control flow only: the unit's evidence stays in the
    executing engine's log (a process worker ships it once per batch
    reply, not per unit).
    """

    unit: WorkUnit
    matches: int = 0
    match_ticks: int = 0
    enforce_ops: int = 0
    delta_ops: int = 0
    conflict: bool = False
    goal_reached: bool = False
    splits: List[WorkUnit] = field(default_factory=list)
    completed: bool = True

    @property
    def terminated_early(self) -> bool:
        return self.conflict or self.goal_reached

    @property
    def unit_uid(self) -> str:
        """The executed unit's stable id (cross-process reconciliation)."""
        return self.unit.uid


def execute_unit(
    unit: WorkUnit,
    context: UnitContext,
    engine: EnforcementEngine,
    ttl_ticks: Optional[float] = None,
    max_split_units: int = 16,
    goal_check: Optional[Callable[[EqRelation], bool]] = None,
) -> UnitResult:
    """Run one work unit to completion (or early termination).

    *engine* wraps the (shared) ``Eq`` and inverted index; *goal_check* is
    the implication variant's ``Y ⊆ Eq_H`` test, evaluated after every
    change. The returned result carries exact operation counts for the
    simulated cost model. Grouped units (``unit.group``) take the
    shared-prefix trie path (:func:`_execute_grouped_unit`) instead of the
    per-rule matcher.
    """
    if not unit.group and context.gfds[unit.gfd_name].is_trivial():
        return UnitResult(unit)
    if engine.eq.has_conflict():
        return UnitResult(unit, conflict=True, completed=False)
    if unit.group:
        return _execute_grouped_unit(
            unit,
            context,
            engine,
            ttl_ticks=ttl_ticks,
            max_split_units=max_split_units,
            goal_check=goal_check,
        )
    gfd = context.gfds[unit.gfd_name]
    pivot = unit.pivot_node()
    allowed = context.allowed_nodes(pivot, unit.radius) if pivot is not None else None
    # Fragment replicas pin the whole-graph variable order (shipped via
    # plan_orders) so their match streams reproduce the coordinator's
    # byte for byte; whole-graph contexts leave it None (default layout).
    order = None
    if context.plan_orders is not None:
        order = context.plan_orders.get(unit.gfd_name)
    run = MatcherRun(
        gfd.pattern,
        context.graph,
        preassigned=unit.assignment_dict(),
        allowed_nodes=allowed,
        variable_order=order,
        candidate_sets=context.candidate_sets(gfd),
        plan=context.plan_for(gfd),
    )

    def sub_unit(assignment) -> WorkUnit:
        return WorkUnit.make(
            unit.gfd_name,
            assignment,
            radius=unit.radius,
            generation=unit.generation + 1,
            pivot_var=unit.pivot_var,
        )

    stream = ((gfd, match) for match in run.matches())
    return _enforce_stream(
        unit, context, engine, run, stream, sub_unit, "per-rule",
        ttl_ticks, max_split_units, goal_check,
    )


def _execute_grouped_unit(
    unit: WorkUnit,
    context: UnitContext,
    engine: EnforcementEngine,
    ttl_ticks: Optional[float] = None,
    max_split_units: int = 16,
    goal_check: Optional[Callable[[EqRelation], bool]] = None,
) -> UnitResult:
    """Run one grouped unit: all member rules in a single trie walk.

    The shared ``dQ``-ball (the unit's maximum member radius) confines
    every free slot; the walk validates the pivot per rule and enforces
    each emitted ``(rule, match)`` pair as it appears — the pipelined
    shape, across the whole group. A split sub-unit resumes the walk from
    its slot prefix.

    Straggler handling splits the resumable walk: when its clock (each
    check counted once per member whose path passes through the checked
    trie node) crosses the TTL budget, the shallowest unexplored work is
    stripped into grouped sub-units at generation+1. Each keeps this
    unit's pivot and radius, binds a slot prefix and groups only the
    members under it, so the sub-units still share their walk; together
    with the finished local branch they cover the unsplit walk exactly.
    """
    from ..matching.ruleset import PIVOT_SLOT

    pivot = unit.pivot_node()
    allowed = context.allowed_nodes(pivot, unit.radius) if pivot is not None else None
    prefix = {slot: node for slot, node in unit.assignment if slot != unit.pivot_var}
    run = context.ruleset_plan().run(
        active=frozenset(unit.group),
        pivot_node=pivot,
        allowed_nodes=allowed,
        prefix=prefix,
    )

    def sub_unit(piece) -> WorkUnit:
        group, bound = piece
        bound[PIVOT_SLOT] = pivot
        return WorkUnit.make(
            group[0],
            bound,
            radius=unit.radius,
            generation=unit.generation + 1,
            group=group,
            pivot_var=PIVOT_SLOT,
        )

    gfds = context.gfds
    stream = ((gfds[name], match) for name, match in run.matches())
    return _enforce_stream(
        unit, context, engine, run, stream, sub_unit, "ruleset",
        ttl_ticks, max_split_units, goal_check,
    )


def _enforce_stream(
    unit: WorkUnit,
    context: UnitContext,
    engine: EnforcementEngine,
    run,
    stream,
    sub_unit: Callable[[object], WorkUnit],
    plan_label: str,
    ttl_ticks: Optional[float],
    max_split_units: int,
    goal_check: Optional[Callable[[EqRelation], bool]],
) -> UnitResult:
    """Enforce each ``(gfd, match)`` of *run*'s *stream* as it appears.

    Stops at a conflict or a reached goal. Whenever the run's straggler
    clock passes the TTL budget and the run can split, its split pieces
    become sub-units (via *sub_unit*) and the clock budget restarts
    (paper: "resets τ = 0").
    """
    result = UnitResult(unit)
    eq = engine.eq
    engine.set_evidence_context(
        origin="unit",
        plan=plan_label,
        pivot=unit.pivot_node(),
        fragment=(context.fragment.spec.fragment_id if context.fragment else None),
        unit_uid=unit.uid,
    )
    ops_before = engine.ops
    delta_mark = eq.log_position()
    next_split_at = ttl_ticks
    for gfd, match in stream:
        result.matches += 1
        engine.enforce(gfd, match)
        if eq.has_conflict():
            result.conflict = True
            result.completed = False
            break
        if goal_check is not None and goal_check(eq):
            result.goal_reached = True
            result.completed = False
            break
        if next_split_at is not None and run.clock > next_split_at and run.can_split():
            for piece in run.split(max_units=max_split_units):
                result.splits.append(sub_unit(piece))
            next_split_at = run.clock + ttl_ticks
    result.match_ticks = run.ticks
    result.enforce_ops = engine.ops - ops_before
    result.delta_ops = eq.log_position() - delta_mark
    return result
