"""``SeqImp`` — the sequential exact implication checker (Section VI-B).

Built on Corollary 4: ``Σ |= φ`` (with ``φ = Q[x̄](X → Y)``) iff some
partial enforcement ``H`` of ``Σ`` on the canonical graph ``G^X_Q`` yields a
conflicting ``Eq_H``, or deduces ``Y ⊆ Eq_H``. SeqImp

1. builds ``G^X_Q`` (the pattern ``Q`` with ``Eq_X`` encoding ``F^X_A``),
2. enforces the GFDs of ``Σ`` on their matches in ``G^X_Q`` in dependency
   order — GFDs whose antecedent is subsumed by ``Eq_X`` first — and
3. returns ``True`` the moment ``Eq_H`` conflicts (``Q ∧ X ∧ Σ``
   inconsistent, as with ``φ14`` in the paper's Example 8) or ``Y``
   becomes deducible; ``False`` once every match is processed.

Special cases: an inconsistent ``X`` (conflicting ``Eq_X``) or an empty
``Y`` make ``φ`` trivially implied.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..eq.eqrelation import Conflict, EqRelation
from ..eq.inverted_index import InvertedIndex
from ..gfd.canonical import ImplicationCanonical, build_implication_canonical
from ..gfd.gfd import GFD, gfds_by_name
from ..matching.ruleset import sequential_run
from .enforce import (
    AntecedentStatus,
    EnforcementEngine,
    EnforcementStats,
    antecedent_status,
    consequent_entailed,
)
from .workunits import gfd_dependency_order


@dataclass
class ImpStats:
    """Cost counters of one implication run."""

    sigma_size: int = 0
    matches: int = 0
    match_ticks: int = 0
    enforcement: EnforcementStats = field(default_factory=EnforcementStats)
    pruned_by_simulation: int = 0
    wall_seconds: float = 0.0


@dataclass
class ImpResult:
    """Outcome of an implication check ``Σ |= φ``.

    *reason* is one of ``"trivial-X"`` (inconsistent antecedent),
    ``"trivial-Y"`` (empty consequent), ``"conflict"`` (Eq_H inconsistent),
    ``"derived"`` (Y ⊆ Eq_H), or ``"not-implied"``.
    """

    implied: bool
    reason: str
    conflict: Optional[Conflict]
    eq: EqRelation
    stats: ImpStats
    engine: Optional[EnforcementEngine] = None

    def __bool__(self) -> bool:
        return self.implied

    @property
    def results(self) -> "ResultStore":
        """The layered result store (evidence / derivation / claims).

        Trivial short-circuits (``trivial-X``/``trivial-Y``/pre-enforcement
        ``derived``) never built an engine; their store carries only the
        ``Eq_X`` derivation and, for ``trivial-X``, the conflict claim.
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


def _subsumed_by_eqx(gfd: GFD, canonical: ImplicationCanonical) -> bool:
    """True if every literal of *gfd*'s antecedent is decided by ``Eq_X``
    under the identity embedding — such GFDs get the highest priority
    (paper, Section VI-C(a))."""
    identity = canonical.identity_match()
    usable = {var for var in gfd.pattern.variables if var in identity}
    if usable != set(gfd.pattern.variables):
        return False
    status, _ = antecedent_status(canonical.eq_x, gfd, identity)
    return status is AntecedentStatus.SATISFIED


def seq_imp(
    sigma: Sequence[GFD],
    phi: GFD,
    use_dependency_order: bool = True,
    use_simulation_pruning: bool = True,
    capture_provenance: bool = True,
) -> ImpResult:
    """Decide whether ``Σ |= φ`` (exact).

    All of Σ is enforced in one walk of its shared-prefix
    :class:`~repro.matching.ruleset.RuleSetPlan` trie over ``G^X_Q``; the
    conflict and derivation checks fire after every enforcement, and the
    verdict is order-independent (monotone ``Eq``, Church-Rosser).
    *use_dependency_order* enters rules into the trie in dependency order,
    those decided by ``Eq_X`` first, which orders the walk's siblings.
    *use_simulation_pruning* drops rules with an empty dual simulation on
    ``G^X_Q`` and cuts the walk's candidate pools to the simulation sets.
    Raises :class:`~repro.errors.GFDError` when two rules of Σ share a
    name.
    """
    started = time.perf_counter()
    stats = ImpStats(sigma_size=len(sigma))
    # Names key enforcement and ordering: a duplicate would drop a rule and
    # could turn a true implication false, so it is rejected up front.
    by_name = gfds_by_name(sigma)
    canonical = build_implication_canonical(phi)
    eq = canonical.fresh_eq()
    identity = canonical.identity_match()

    if eq.has_conflict():
        stats.wall_seconds = time.perf_counter() - started
        return ImpResult(True, "trivial-X", eq.conflict, eq, stats)
    if phi.is_trivial():
        stats.wall_seconds = time.perf_counter() - started
        return ImpResult(True, "trivial-Y", None, eq, stats)
    if consequent_entailed(eq, phi, identity):
        stats.wall_seconds = time.perf_counter() - started
        return ImpResult(True, "derived", None, eq, stats)

    engine = EnforcementEngine(
        eq, by_name, InvertedIndex(), capture_provenance=capture_provenance
    )
    engine.set_evidence_context(origin="seq", plan="ruleset")

    if use_dependency_order:
        ordered = gfd_dependency_order(sigma)
        # Promote GFDs whose antecedent is already decided by Eq_X — the
        # implication-specific priority of Section VI-C(a). Stable sort
        # keeps the dependency order within each priority band.
        subsumed = {gfd.name for gfd in sigma if _subsumed_by_eqx(gfd, canonical)}
        ordered = sorted(ordered, key=lambda gfd: gfd.name not in subsumed)
    else:
        ordered = list(sigma)

    run, stats.pruned_by_simulation = sequential_run(
        canonical.graph, ordered, use_simulation_pruning
    )
    implied, reason = False, "not-implied"
    for name, assignment in run.matches():
        stats.matches += 1
        changed = engine.enforce(by_name[name], assignment)
        if eq.has_conflict():
            implied, reason = True, "conflict"
            break
        if changed and consequent_entailed(eq, phi, identity):
            implied, reason = True, "derived"
            break
    stats.match_ticks = run.ticks
    stats.enforcement = engine.stats
    stats.wall_seconds = time.perf_counter() - started
    return ImpResult(implied, reason, eq.conflict, eq, stats, engine)


def implies(sigma: Sequence[GFD], phi: GFD) -> bool:
    """Convenience wrapper returning just the verdict of ``Σ |= φ``."""
    return seq_imp(sigma, phi).implied
