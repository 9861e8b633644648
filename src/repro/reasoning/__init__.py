"""Sequential reasoning: enforcement, SeqSat, SeqImp, validation, cover."""

from .enforce import (
    AntecedentStatus,
    EnforcementEngine,
    EnforcementStats,
    antecedent_status,
    consequent_entailed,
    enforce_consequent,
    literal_status,
)
from .seqsat import SatResult, SatStats, is_satisfiable, seq_sat
from .seqimp import ImpResult, ImpStats, implies, seq_imp
from .workunits import (
    WorkUnit,
    choose_pivot,
    generate_work_units,
    gfd_dependency_edges,
    gfd_dependency_order,
    order_units,
    pivot_candidates,
    unit_dependency_edges,
)
from .validation import (
    Violation,
    detect_errors,
    detect_errors_store,
    extract_model,
    find_violations,
    graph_satisfies,
    graph_satisfies_sigma,
    is_model_of,
    match_satisfies,
    match_satisfies_literal,
)
from .cover import CoverResult, minimal_cover, redundant_gfds
from .explain import Explanation, explain_unsatisfiability, render_explanation
from .incremental import IncrementalSat, IncrementalStep

__all__ = [
    "AntecedentStatus",
    "EnforcementEngine",
    "EnforcementStats",
    "antecedent_status",
    "consequent_entailed",
    "enforce_consequent",
    "literal_status",
    "SatResult",
    "SatStats",
    "is_satisfiable",
    "seq_sat",
    "ImpResult",
    "ImpStats",
    "implies",
    "seq_imp",
    "WorkUnit",
    "choose_pivot",
    "generate_work_units",
    "gfd_dependency_edges",
    "gfd_dependency_order",
    "order_units",
    "pivot_candidates",
    "unit_dependency_edges",
    "Violation",
    "detect_errors",
    "detect_errors_store",
    "extract_model",
    "find_violations",
    "graph_satisfies",
    "graph_satisfies_sigma",
    "is_model_of",
    "match_satisfies",
    "match_satisfies_literal",
    "CoverResult",
    "minimal_cover",
    "redundant_gfds",
    "IncrementalSat",
    "IncrementalStep",
    "Explanation",
    "explain_unsatisfiability",
    "render_explanation",
]
