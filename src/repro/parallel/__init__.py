"""Parallel reasoning: ParSat / ParImp on pluggable execution backends.

Backends (``backend=`` on :func:`par_sat` / :func:`par_imp`, or
:func:`get_backend`): ``'simulated'`` virtual clock, ``'process'``
multiprocessing on real cores.
"""

from .backends import (
    BACKENDS,
    Backend,
    ProcessBackend,
    SimulatedBackend,
    available_backends,
    get_backend,
)
from .config import DEFAULT_TTL_SECONDS, CostModel, RuntimeConfig
from .coordinator import ParallelOutcome, QuarantinedUnit, drain_in_process
from .faults import FaultEvent, FaultPlan, InjectedFault, RetryTracker
from .goals import EntailmentGoal
from .parimp import ParImpResult, par_imp, par_imp_nb, par_imp_np
from .parsat import ParSatResult, par_sat, par_sat_nb, par_sat_np
from .scheduler import Scheduler
from .tracing import Trace, TraceEvent, render_gantt, summarize
from .units import UnitContext, UnitResult, execute_unit

__all__ = [
    "BACKENDS",
    "Backend",
    "DEFAULT_TTL_SECONDS",
    "CostModel",
    "EntailmentGoal",
    "FaultEvent",
    "FaultPlan",
    "InjectedFault",
    "QuarantinedUnit",
    "RetryTracker",
    "RuntimeConfig",
    "ParallelOutcome",
    "drain_in_process",
    "ProcessBackend",
    "SimulatedBackend",
    "available_backends",
    "get_backend",
    "ParImpResult",
    "par_imp",
    "par_imp_nb",
    "par_imp_np",
    "ParSatResult",
    "par_sat",
    "par_sat_nb",
    "par_sat_np",
    "Scheduler",
    "UnitContext",
    "UnitResult",
    "execute_unit",
    "Trace",
    "TraceEvent",
    "render_gantt",
    "summarize",
]
