"""Explanations over the layered result model: unsat *and* violations.

When ``SeqSat`` rejects a rule set, the raw verdict ("x.A = 0 and 1") is
rarely enough to fix the rules — the clash is usually the end of a chain
of enforcements across several GFDs (paper Example 4: ϕ7 seeds ``y.B = 1``,
ϕ9 turns it into ``w.C = 1``, ϕ10 closes the loop). Every ``Eq`` mutation
carries structured :class:`~repro.eq.eqrelation.Provenance` — the enforcing
GFD, the evidence ref of the match that fired it, and the match's
antecedent (premise) terms — so the chain is reconstructed by **backward
slicing** over the derivation layer (see
:func:`repro.results.store.slice_derivation`), with no engine
side-channel and zero re-matching.

The same machinery now also explains *violations* from error detection
(:meth:`repro.results.store.ResultStore.explain_violation`), not just
unsatisfiability; :func:`render_explanation` prints either as a numbered
derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..eq.eqrelation import Conflict, DeltaOp
from ..gfd.gfd import GFD
from .seqsat import SatResult, seq_sat


@dataclass
class Explanation:
    """A conflict plus the sliced derivation chain that produced it."""

    conflict: Conflict
    steps: List[DeltaOp] = field(default_factory=list)
    #: Names of the GFDs that participated in the derivation.
    gfds_involved: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)


def explain_unsatisfiability(
    sigma: Sequence[GFD], result: Optional[SatResult] = None
) -> Optional[Explanation]:
    """Explain why *sigma* is unsatisfiable, or None if it is satisfiable.

    Pass an existing :class:`SatResult` to avoid re-running ``seq_sat``.
    The slice is the result store's conflict explanation
    (:meth:`~repro.results.store.ResultStore.explain_conflict`). The
    explanation's final step is implicit: the conflicting class holds
    two distinct constants (recorded in ``conflict``).
    """
    if result is None:
        result = seq_sat(sigma)
    if result.satisfiable:
        return None
    sliced = result.results.explain_conflict()
    return Explanation(result.conflict, sliced.steps, sliced.gfds_involved)


def render_explanation(explanation: Explanation) -> str:
    """A numbered, human-readable derivation ending in the clash."""
    lines = ["unsatisfiable: derivation of the conflict"]
    for number, op in enumerate(explanation.steps, start=1):
        lines.append(f"  {number}. {op}")
    lines.append(f"  ✗ clash: {explanation.conflict}")
    if explanation.gfds_involved:
        lines.append(f"  rules involved: {', '.join(explanation.gfds_involved)}")
    return "\n".join(lines)
