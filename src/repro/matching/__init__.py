"""Pattern matching: homomorphism search, compiled plans, and simulation
pruning.

The candidate pipeline: :func:`simulation_candidates` computes the dual-
simulation pre-filter (Section V optimization) that cuts the pools of the
sequential rule-set walk (:func:`~repro.matching.ruleset.sequential_run`)
and of ParSat's per-rule :class:`MatcherRun` units (as
``candidate_sets``); the walkers intersect it with label buckets,
anchored adjacency groups and ``allowed_nodes`` neighborhoods — as plain
sets or word-level :class:`~repro.graph.bitset.NodeBitset` vectors,
interchangeably.
"""

from .homomorphism import (
    Assignment,
    MatcherRun,
    default_variable_order,
    edge_label_matches,
    find_homomorphisms,
    has_homomorphism,
    node_label_matches,
)
from .plan import MatchPlan, PlanLayout, VarStep, get_plan
from .simulation import (
    CandidateSet,
    SimulationStats,
    dual_simulation,
    may_have_homomorphism,
    simulation_candidates,
)

__all__ = [
    "Assignment",
    "CandidateSet",
    "MatcherRun",
    "MatchPlan",
    "PlanLayout",
    "SimulationStats",
    "VarStep",
    "default_variable_order",
    "edge_label_matches",
    "find_homomorphisms",
    "get_plan",
    "has_homomorphism",
    "node_label_matches",
    "dual_simulation",
    "may_have_homomorphism",
    "simulation_candidates",
]
