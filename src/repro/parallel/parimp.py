"""``ParImp`` — parallel implication checking (paper, Section VI-C).

ParImp parallelizes SeqImp: work units enforce the GFDs of ``Σ`` on the
canonical graph ``G^X_Q`` of ``φ``, expanding ``Eq_H`` (initialized to
``Eq_X``) across workers. Differences from ParSat (faithful to the paper):

* units whose GFD's antecedent is already subsumed by ``Eq_X`` get the
  highest queue priority;
* a worker signals early termination not only on a conflict but also when
  ``Y ⊆ Eq_H`` — and in *both* cases the answer is ``True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..eq.eqrelation import Conflict, EqRelation
from ..gfd.canonical import build_implication_canonical
from ..gfd.gfd import GFD, gfds_by_name
from ..reasoning.enforce import EnforcementEngine, consequent_entailed
from ..reasoning.seqimp import _subsumed_by_eqx
from ..reasoning.workunits import (
    generate_grouped_work_units,
    generate_pruned_work_units,
    order_units,
)
from .backends import get_backend
from .config import RuntimeConfig
from .coordinator import ParallelOutcome
from .goals import EntailmentGoal
from .units import UnitContext, attach_fragmentation


@dataclass
class ParImpResult:
    """Outcome of a parallel implication check ``Σ |= φ``.

    *reason* mirrors :class:`repro.reasoning.seqimp.ImpResult`.
    """

    implied: bool
    reason: str
    conflict: Optional[Conflict]
    outcome: ParallelOutcome
    eq: EqRelation
    engine: Optional[EnforcementEngine] = None

    def __bool__(self) -> bool:
        return self.implied

    @property
    def virtual_seconds(self) -> float:
        return self.outcome.virtual_seconds

    @property
    def wall_seconds(self) -> float:
        return self.outcome.wall_seconds

    @property
    def results(self) -> "ResultStore":
        """The layered result store merged by the coordinator.

        Trivial short-circuits ran no workers; their store carries only
        the ``Eq_X`` derivation (plus the conflict claim for trivial-X).
        """
        from ..results.claims import ConflictClaim
        from ..results.store import ResultStore

        if self.engine is not None:
            return ResultStore.from_engine(self.engine)
        return ResultStore(
            derivation=list(self.eq.delta_since(0)),
            conflict=ConflictClaim.from_conflict(self.conflict) if self.conflict else None,
            eq=self.eq,
        )


def par_imp(
    sigma: Sequence[GFD],
    phi: GFD,
    config: Optional[RuntimeConfig] = None,
    backend: str = "simulated",
) -> ParImpResult:
    """Decide ``Σ |= φ`` with ``p = config.workers`` workers.

    *backend* selects ``'simulated'`` (default) or ``'process'``. Raises
    :class:`~repro.errors.GFDError` when two rules of Σ share a name.
    """
    config = config or RuntimeConfig()
    by_name = gfds_by_name(sigma)
    canonical = build_implication_canonical(phi)
    eq = canonical.fresh_eq()
    identity = canonical.identity_match()

    empty_outcome = ParallelOutcome(eq=eq)
    if eq.has_conflict():
        return ParImpResult(True, "trivial-X", eq.conflict, empty_outcome, eq)
    if phi.is_trivial():
        return ParImpResult(True, "trivial-Y", None, empty_outcome, eq)
    if consequent_entailed(eq, phi, identity):
        return ParImpResult(True, "derived", None, empty_outcome, eq)

    if config.use_ruleset_plan:
        units = generate_grouped_work_units(
            sigma,
            canonical.graph,
            use_simulation=config.use_simulation_pruning,
            use_bitsets=config.use_bitsets,
        )
    else:
        units = generate_pruned_work_units(
            sigma,
            canonical.graph,
            use_simulation=config.use_simulation_pruning,
            use_bitsets=config.use_bitsets,
        )
    if config.use_dependency_order:
        subsumed = {gfd.name for gfd in sigma if _subsumed_by_eqx(gfd, canonical)}
        units = order_units(
            units,
            by_name,
            canonical.graph,
            high_priority=lambda unit: any(
                name in subsumed for name in unit.gfd_names
            ),
        )
    context = UnitContext(
        canonical.graph,
        by_name,
        use_simulation_pruning=config.use_simulation_pruning,
        use_bitsets=config.use_bitsets,
    )
    # One compiled match plan per GFD, shared across all of its work
    # units; hop maps for hot pivots warmed coordinator-side.
    context.precompile_plans(sigma)
    if config.use_ruleset_plan:
        context.ruleset_plan()
    context.precompute_neighborhoods(units)
    if config.fragments is not None:
        attach_fragmentation(context, sigma, config.fragments)
    engine = EnforcementEngine(
        eq, by_name, capture_provenance=config.capture_provenance
    )

    # The goal ``Y ⊆ Eq_H`` as a picklable value object, so the process
    # backend can ship it to worker replicas (plain closures cannot cross
    # the process boundary).
    goal_check = EntailmentGoal.make(phi, identity)

    outcome = get_backend(backend, config).run(
        units, context, engine, goal_check=goal_check
    )
    if outcome.conflict is not None:
        return ParImpResult(True, "conflict", outcome.conflict, outcome, eq, engine)
    if outcome.goal_reached:
        return ParImpResult(True, "derived", None, outcome, eq, engine)
    return ParImpResult(False, "not-implied", None, outcome, eq, engine)


def par_imp_np(
    sigma: Sequence[GFD],
    phi: GFD,
    config: Optional[RuntimeConfig] = None,
    backend: str = "simulated",
) -> ParImpResult:
    """``ParImpnp``: ParImp without pipelined parallelism (ablation)."""
    config = (config or RuntimeConfig()).without_pipelining()
    return par_imp(sigma, phi, config, backend)


def par_imp_nb(
    sigma: Sequence[GFD],
    phi: GFD,
    config: Optional[RuntimeConfig] = None,
    backend: str = "simulated",
) -> ParImpResult:
    """``ParImpnb``: ParImp without work-unit splitting (ablation)."""
    config = (config or RuntimeConfig()).without_splitting()
    return par_imp(sigma, phi, config, backend)
