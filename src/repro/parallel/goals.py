"""Picklable early-termination goals for the parallel runtimes.

The implication variant terminates early when ``Y ⊆ Eq_H`` (paper,
Section VI-C). The simulated backend can evaluate any callable against
the shared ``Eq``; the process backend must *ship* the
goal to worker replicas, so it needs a picklable value object rather than
a closure. :class:`EntailmentGoal` is that object — it is itself callable
with the usual ``goal_check(eq) -> bool`` signature, so every backend
accepts it uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from ..eq.eqrelation import EqRelation
from ..gfd.gfd import GFD
from ..graph.elements import NodeId
from ..reasoning.enforce import consequent_entailed


@dataclass(frozen=True)
class EntailmentGoal:
    """``Y ⊆ Eq`` under a fixed match — the ParImp goal, as a value.

    *assignment* is stored as a sorted tuple of ``(variable, node)`` pairs
    (the same normal form :class:`~repro.reasoning.workunits.WorkUnit`
    uses) so equal goals compare and pickle identically.
    """

    gfd: GFD
    assignment: Tuple[Tuple[str, NodeId], ...]

    @staticmethod
    def make(gfd: GFD, assignment: Mapping[str, NodeId]) -> "EntailmentGoal":
        pairs = tuple(sorted(assignment.items(), key=lambda kv: kv[0]))
        return EntailmentGoal(gfd, pairs)

    def __call__(self, eq: EqRelation) -> bool:
        return consequent_entailed(eq, self.gfd, dict(self.assignment))
