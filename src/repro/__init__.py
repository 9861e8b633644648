"""repro — Parallel Reasoning of Graph Functional Dependencies.

A production-quality reproduction of Fan, Liu & Cao, "Parallel Reasoning of
Graph Functional Dependencies" (ICDE 2018). The package provides:

* property graphs and synthetic dataset generators (:mod:`repro.graph`,
  :mod:`repro.datasets`);
* the GFD model, a text DSL, canonical graphs and a GFD generator
  (:mod:`repro.gfd`);
* homomorphism matching with pivoting and work-unit splitting
  (:mod:`repro.matching`);
* sequential exact reasoning — ``SeqSat`` / ``SeqImp`` — plus validation
  and rule-cover utilities (:mod:`repro.reasoning`);
* parallel scalable reasoning — ``ParSat`` / ``ParImp`` — on a simulated
  cluster or real worker processes (:mod:`repro.parallel`);
* chase baselines (:mod:`repro.chase`); and
* the benchmark harness reproducing every table/figure of the paper
  (:mod:`repro.bench`).

Quick start::

    from repro import parse_gfds, seq_sat, seq_imp

    sigma = parse_gfds('''
        gfd phi5 { x: _; then x.A = 0; }
        gfd phi6 { x: _; then x.A = 1; }
    ''')
    assert not seq_sat(sigma).satisfiable   # phi5 and phi6 conflict
"""

from .errors import (
    BudgetExceeded,
    GFDError,
    GraphError,
    LiteralError,
    ParseError,
    PatternError,
    ReproError,
    RuntimeConfigError,
    WorkerFault,
    WorkerPoolError,
)
from .graph import PropertyGraph, WILDCARD
from .gfd import (
    FALSE,
    GFD,
    ConstantLiteral,
    Pattern,
    VariableLiteral,
    build_canonical_graph,
    build_implication_canonical,
    eq as lit_eq,
    make_gfd,
    make_pattern,
    parse_gfd,
    parse_gfds,
    render_gfd,
    render_gfds,
    vareq as lit_vareq,
)
from .reasoning import (
    detect_errors,
    detect_errors_store,
    extract_model,
    find_violations,
    graph_satisfies,
    graph_satisfies_sigma,
    implies,
    is_model_of,
    is_satisfiable,
    minimal_cover,
    seq_imp,
    seq_sat,
)
from .results import (
    ConflictClaim,
    EvidenceLog,
    MatchEvidence,
    ResultStore,
    Violation,
)

__version__ = "1.0.0"

__all__ = [
    "BudgetExceeded",
    "GFDError",
    "GraphError",
    "LiteralError",
    "ParseError",
    "PatternError",
    "ReproError",
    "RuntimeConfigError",
    "WorkerFault",
    "WorkerPoolError",
    "PropertyGraph",
    "WILDCARD",
    "FALSE",
    "GFD",
    "ConstantLiteral",
    "Pattern",
    "VariableLiteral",
    "build_canonical_graph",
    "build_implication_canonical",
    "lit_eq",
    "make_gfd",
    "make_pattern",
    "parse_gfd",
    "parse_gfds",
    "render_gfd",
    "render_gfds",
    "lit_vareq",
    "detect_errors",
    "detect_errors_store",
    "extract_model",
    "find_violations",
    "graph_satisfies",
    "graph_satisfies_sigma",
    "implies",
    "is_model_of",
    "is_satisfiable",
    "minimal_cover",
    "seq_imp",
    "seq_sat",
    "ConflictClaim",
    "EvidenceLog",
    "MatchEvidence",
    "ResultStore",
    "Violation",
    "__version__",
]
