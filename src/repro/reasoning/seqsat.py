"""``SeqSat`` — the sequential exact satisfiability checker (Section IV-C).

Built on the small model property (Theorem 1): ``Σ`` is satisfiable iff some
``Σ``-bounded population of the canonical graph ``GΣ`` is a model. SeqSat

1. builds ``GΣ`` (disjoint union of all patterns),
2. processes GFDs in dependency order — empty-antecedent GFDs first — and
3. for every match ``h(x̄)`` of a GFD's pattern in ``GΣ``, *enforces* the
   GFD by expanding the equivalence relation ``Eq`` (Rules 1–2), parking
   undecided matches in an inverted index that re-fires on ``Eq`` growth.

It terminates with ``False`` the moment a conflict appears (two distinct
constants in one class) and with ``True`` after all GFDs are processed —
uninstantiated classes can always be completed with fresh distinct values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..eq.eqrelation import Conflict, EqRelation
from ..eq.inverted_index import InvertedIndex
from ..gfd.canonical import CanonicalGraph, build_canonical_graph
from ..gfd.gfd import GFD
from ..matching.ruleset import sequential_run
from .enforce import EnforcementEngine, EnforcementStats
from .workunits import gfd_dependency_order


@dataclass
class SatStats:
    """Cost counters of one satisfiability run."""

    gfds: int = 0
    matches: int = 0
    match_ticks: int = 0
    enforcement: EnforcementStats = field(default_factory=EnforcementStats)
    pruned_by_simulation: int = 0
    wall_seconds: float = 0.0


@dataclass
class SatResult:
    """Outcome of a satisfiability check.

    *engine* holds the evidence log and the provenance-stamped ``Eq``;
    :attr:`results` assembles them into the layered
    :class:`~repro.results.store.ResultStore` on first access.
    """

    satisfiable: bool
    conflict: Optional[Conflict]
    eq: EqRelation
    canonical: CanonicalGraph
    stats: SatStats
    engine: Optional[EnforcementEngine] = None

    def __bool__(self) -> bool:
        return self.satisfiable

    @property
    def results(self) -> "ResultStore":
        """The layered result store (evidence / derivation / claims)."""
        from ..results.store import ResultStore

        if self.engine is None:
            return ResultStore(derivation=list(self.eq.delta_since(0)), eq=self.eq)
        return ResultStore.from_engine(self.engine)


def seq_sat(
    sigma: Sequence[GFD],
    use_dependency_order: bool = True,
    use_simulation_pruning: bool = True,
    capture_provenance: bool = True,
) -> SatResult:
    """Decide whether *sigma* is satisfiable (exact).

    All of Σ is enforced in one walk of its shared-prefix
    :class:`~repro.matching.ruleset.RuleSetPlan` trie over ``GΣ``: each
    shared pattern prefix is matched once, and enforcement interleaves
    across rules mid-walk. The verdict agrees with any per-rule order by
    the Church-Rosser property of the monotone ``Eq`` chase. One walk over
    the whole disjoint union also covers per-component scoping: a
    connected pattern cannot match across components.

    The parameters are the paper's optimizations, so ablations can turn
    them off: *use_dependency_order* enters rules into the trie in the
    GFD-level topological order, which orders the walk's siblings;
    *use_simulation_pruning* drops rules with an empty dual simulation and
    cuts the walk's candidate pools to the simulation sets (per-rule match
    streams are identical either way). *capture_provenance* (default on)
    interns evidence records and stamps structured provenance on ΔEq ops;
    disable it for the overhead ablation (explanations degrade to bare
    source names).
    """
    started = time.perf_counter()
    stats = SatStats(gfds=len(sigma))
    canonical = build_canonical_graph(sigma)
    eq = EqRelation()
    engine = EnforcementEngine(
        eq, canonical.gfds, InvertedIndex(), capture_provenance=capture_provenance
    )
    engine.set_evidence_context(origin="seq", plan="ruleset")

    ordered = gfd_dependency_order(sigma) if use_dependency_order else list(sigma)
    run, stats.pruned_by_simulation = sequential_run(
        canonical.graph, ordered, use_simulation_pruning
    )
    for name, assignment in run.matches():
        stats.matches += 1
        engine.enforce(canonical.gfds[name], assignment)
        if eq.has_conflict():
            break
    stats.match_ticks = run.ticks
    stats.enforcement = engine.stats
    stats.wall_seconds = time.perf_counter() - started
    return SatResult(not eq.has_conflict(), eq.conflict, eq, canonical, stats, engine)


def is_satisfiable(sigma: Sequence[GFD]) -> bool:
    """Convenience wrapper returning just the verdict."""
    return seq_sat(sigma).satisfiable
