"""Execution backends: one coordinator/worker protocol, two runtimes.

========== ===================== ==========================================
key        class                 what the workers are
========== ===================== ==========================================
simulated  SimulatedBackend      virtual-clock discrete events (exact
                                 verdicts, deterministic timing figures)
process    ProcessBackend        ``multiprocessing`` replicas with ΔEq
                                 exchange (real cores)
========== ===================== ==========================================

All backends satisfy the :class:`~repro.parallel.backends.base.Backend`
protocol and produce identical verdicts; select one by key through
:func:`get_backend` or the ``backend=`` parameter of
:func:`~repro.parallel.parsat.par_sat` / :func:`~repro.parallel.parimp.par_imp`.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from ..config import RuntimeConfig
from .base import Backend, GoalCheck
from .process import ProcessBackend
from .simulated import SimulatedBackend

#: Registry of selectable backends, keyed by their ``name``.
BACKENDS: Dict[str, Type[Backend]] = {
    backend.name: backend for backend in (SimulatedBackend, ProcessBackend)
}


def available_backends() -> Tuple[str, ...]:
    """The selectable backend keys, in registry order."""
    return tuple(BACKENDS)


def get_backend(name: str, config: RuntimeConfig) -> Backend:
    """Instantiate the backend registered under *name*.

    Raises ``ValueError`` (listing the choices) for unknown names, so CLI
    and API callers get a uniform error.
    """
    backend_cls = BACKENDS.get(name)
    if backend_cls is None:
        choices = ", ".join(repr(key) for key in BACKENDS)
        raise ValueError(f"unknown backend {name!r} (use one of {choices})")
    return backend_cls(config)


__all__ = [
    "BACKENDS",
    "Backend",
    "GoalCheck",
    "ProcessBackend",
    "SimulatedBackend",
    "available_backends",
    "get_backend",
]
