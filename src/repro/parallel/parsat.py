"""``ParSat`` — parallel satisfiability checking (paper, Section V).

ParSat parallelizes SeqSat over work units ``(Q[z], φ)``: the canonical
graph ``GΣ`` is replicated (shared, here), the coordinator orders all units
topologically by the unit dependency graph (empty-antecedent units first)
and assigns them dynamically to ``p`` workers; workers match locally in the
``dQ``-neighborhood of their pivot, enforce GFDs through the shared
monotone ``Eq``, split stragglers after TTL, and the run stops at the first
conflict. ParSat is parallel scalable relative to SeqSat — the benchmark
suite measures ``T(|Σ|, p)`` against ``t(|Σ|)/p``.

The ``np``/``nb`` ablation variants of the paper's evaluation are exposed
as :func:`par_sat_np` (no pipelining) and :func:`par_sat_nb` (no work-unit
splitting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..eq.eqrelation import Conflict, EqRelation
from ..gfd.canonical import CanonicalGraph, build_canonical_graph
from ..gfd.gfd import GFD
from ..matching.component_index import ComponentIndex
from ..reasoning.enforce import EnforcementEngine
from ..reasoning.workunits import (
    WorkUnit,
    generate_grouped_work_units,
    generate_pruned_work_units,
    generate_work_units,
    order_units,
)
from .backends import get_backend
from .config import RuntimeConfig
from .coordinator import ParallelOutcome
from .units import UnitContext, attach_fragmentation


@dataclass
class ParSatResult:
    """Outcome of a parallel satisfiability check."""

    satisfiable: bool
    conflict: Optional[Conflict]
    outcome: ParallelOutcome
    canonical: CanonicalGraph
    eq: EqRelation
    engine: Optional[EnforcementEngine] = None

    def __bool__(self) -> bool:
        return self.satisfiable

    @property
    def virtual_seconds(self) -> float:
        return self.outcome.virtual_seconds

    @property
    def wall_seconds(self) -> float:
        return self.outcome.wall_seconds

    @property
    def results(self) -> "ResultStore":
        """The layered result store merged by the coordinator — same
        evidence/derivation refs as the sequential run (stable ids)."""
        from ..results.store import ResultStore

        if self.engine is None:
            return ResultStore(derivation=list(self.eq.delta_since(0)), eq=self.eq)
        return ResultStore.from_engine(self.engine)


@dataclass
class PreparedSat:
    """A rule set compiled for repeated parallel satisfiability runs.

    Splits :func:`par_sat` into a *build* phase (canonical graph, unit
    context, compiled match plans, warm hop maps — everything that is pure
    in Σ and the config) and a *run* phase (fresh work units + enforcement
    engine per call). Because :meth:`run` reuses one :class:`UnitContext`
    across calls, a ``persistent_workers`` process backend recognizes the
    context on the second run and refreshes its standing replicas through
    :meth:`~repro.graph.graph.PropertyGraph.delta_ops_since` instead of
    cold-starting — the serving layer keeps one ``PreparedSat`` per active
    rule set for exactly this reason.
    """

    sigma: Sequence[GFD]
    config: RuntimeConfig
    canonical: CanonicalGraph
    context: UnitContext

    @classmethod
    def build(cls, sigma: Sequence[GFD], config: Optional[RuntimeConfig] = None) -> "PreparedSat":
        config = config or RuntimeConfig()
        canonical = build_canonical_graph(sigma)
        context = UnitContext(
            canonical.graph,
            canonical.gfds,
            use_simulation_pruning=config.use_simulation_pruning,
            use_bitsets=config.use_bitsets,
        )
        # Coordinator-side precomputation: one compiled match plan per GFD
        # (shared by every pivoted work unit the backend executes) —
        # process workers inherit these instead of recomputing per replica.
        context.precompile_plans(sigma)
        if config.use_ruleset_plan:
            context.ruleset_plan()
        return cls(sigma=list(sigma), config=config, canonical=canonical, context=context)

    def make_units(self) -> "list[WorkUnit]":
        """Generate this run's work units (consumed by the scheduler)."""
        # Coordinator-side pruning: per-component dual simulation discards
        # zero-match pivot candidates before queueing (the paper's
        # simulation-based multi-query optimization, Section V-B).
        if self.config.use_ruleset_plan:
            # Rule-set compilation: one grouped unit per (pivot-signature
            # group, pivot), executed as a single shared-prefix trie walk.
            units = generate_grouped_work_units(
                self.sigma,
                self.canonical.graph,
                use_simulation=self.config.use_simulation_pruning,
                use_bitsets=self.config.use_bitsets,
            )
        else:
            index = ComponentIndex(self.canonical.graph)
            units = generate_pruned_work_units(
                self.sigma,
                self.canonical.graph,
                index=index,
                use_simulation=self.config.use_simulation_pruning,
                use_bitsets=self.config.use_bitsets,
            )
        if self.config.use_dependency_order:
            units = order_units(units, self.canonical.gfds, self.canonical.graph)
        return units

    def run(self, backend) -> ParSatResult:
        """Execute one satisfiability check on *backend* (a Backend
        instance, owned by the caller — not closed here)."""
        units = self.make_units()
        # Warm dQ-neighborhood hop maps for hot pivots (cached on the
        # context, so repeat runs start warm).
        self.context.precompute_neighborhoods(units)
        if self.config.fragments is not None:
            # Fragmented execution: edge-cut the canonical graph, pin
            # units to their pivot's owning fragment, and fix the
            # whole-graph pivot and variable-order choices so fragment
            # replicas match identically.
            attach_fragmentation(self.context, self.sigma, self.config.fragments)
        engine = EnforcementEngine(
            EqRelation(),
            self.canonical.gfds,
            capture_provenance=self.config.capture_provenance,
        )
        outcome = backend.run(units, self.context, engine)
        return ParSatResult(
            satisfiable=outcome.conflict is None,
            conflict=outcome.conflict,
            outcome=outcome,
            canonical=self.canonical,
            eq=engine.eq,
            engine=engine,
        )


def par_sat(
    sigma: Sequence[GFD],
    config: Optional[RuntimeConfig] = None,
    backend: str = "simulated",
) -> ParSatResult:
    """Decide satisfiability of *sigma* with ``p = config.workers`` workers.

    *backend* selects the execution runtime: the virtual-clock simulator
    (``'simulated'``, default; deterministic, used for the scalability
    figures) or multiprocessing on real cores (``'process'``). One-shot:
    builds a fresh :class:`PreparedSat` and a fresh backend per call —
    long-lived callers that want standing pools reuse a ``PreparedSat``
    and their own backend instance instead.
    """
    config = config or RuntimeConfig()
    prepared = PreparedSat.build(sigma, config)
    return prepared.run(get_backend(backend, config))


def par_sat_np(
    sigma: Sequence[GFD],
    config: Optional[RuntimeConfig] = None,
    backend: str = "simulated",
) -> ParSatResult:
    """``ParSatnp``: ParSat without pipelined parallelism (ablation)."""
    config = (config or RuntimeConfig()).without_pipelining()
    return par_sat(sigma, config, backend)


def par_sat_nb(
    sigma: Sequence[GFD],
    config: Optional[RuntimeConfig] = None,
    backend: str = "simulated",
) -> ParSatResult:
    """``ParSatnb``: ParSat without work-unit splitting (ablation)."""
    config = (config or RuntimeConfig()).without_splitting()
    return par_sat(sigma, config, backend)
