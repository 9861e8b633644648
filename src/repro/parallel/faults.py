"""Deterministic fault injection for the parallel runtime.

The supervision layer (batch timeouts, retry/quarantine, respawn,
degradation) only earns its keep if every failure path can be exercised
on demand. A :class:`FaultPlan` is a *seeded, declarative script* of
failures carried by :class:`~repro.parallel.config.RuntimeConfig`
into both backends:

* **worker events** are keyed by ``(worker_id, batch_index)`` — the
  ``batch_index``-th ``units`` dispatch the coordinator hands worker
  ``worker_id`` (settlement syncs never trigger events, and the index
  keeps counting across respawns, so one event fires at most once):

  - ``crash`` — the worker dies abruptly (``os._exit`` on the process
    backend; the simulated worker stops serving). Its in-flight units
    are recovered by the supervisor;
  - ``hang`` — the worker goes silent without dying (process backend:
    sleeps past any deadline until the coordinator's hang detection
    kills it; the simulated runtime cannot suspend a worker it could
    never preempt, so it degrades it to ``crash``);
  - ``error`` — the first unit of the batch raises
    :class:`InjectedFault` (a worker-side exception: the unit enters the
    retry/quarantine path, the worker survives);
  - ``slow`` — the worker stalls ``seconds`` before executing the batch
    (wall sleep; virtual-clock charge on the simulated backend);

* **poisoned units** fail *everywhere*: any unit whose ``uid`` or
  ``gfd_name`` is listed raises :class:`InjectedFault` on every replica
  (and on the coordinator's degraded path), so after
  ``max_unit_retries`` failures it lands in
  ``ParallelOutcome.quarantined`` with the traceback attached.

Plans are plain picklable data: the process backend ships them inside
the worker snapshot/fork state. :meth:`FaultPlan.random` generates a
seeded plan for the cross-backend equivalence fuzz — restricted to
*recoverable* kinds by default, so verdicts must still match a clean
sequential run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..errors import ReproError

#: Recognized worker-event kinds.
FAULT_KINDS = ("crash", "hang", "error", "slow")

#: Default stall for ``slow`` events (seconds) when none is given.
DEFAULT_SLOW_SECONDS = 0.05

#: Default sleep for ``hang`` events: long enough that only the
#: coordinator's batch deadline — never the event itself — ends the wait.
DEFAULT_HANG_SECONDS = 3600.0


class InjectedFault(ReproError):
    """The exception a :class:`FaultPlan` injection raises worker-side.

    Deliberately a :class:`ReproError` subclass and nothing more specific:
    the supervision layer must treat it exactly like any organic
    worker-side exception, which is the point of injecting it.
    """


@dataclass(frozen=True)
class FaultEvent:
    """One scripted worker failure at ``(worker_id, batch_index)``."""

    kind: str
    worker_id: int
    batch_index: int
    #: Stall length for ``slow``/``hang`` (``None`` = the kind's default).
    seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (use one of {FAULT_KINDS})"
            )

    @property
    def stall_seconds(self) -> float:
        if self.seconds is not None:
            return self.seconds
        return DEFAULT_HANG_SECONDS if self.kind == "hang" else DEFAULT_SLOW_SECONDS


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic script of worker events and poisoned units.

    *events* maps ``(worker_id, batch_index)`` to a :class:`FaultEvent`;
    *poisoned* lists unit ``uid``\\ s and/or GFD names whose units raise
    :class:`InjectedFault` on every replica. Both are immutable so a plan
    can be shared (and pickled to process workers) safely.
    """

    events: Tuple[FaultEvent, ...] = ()
    poisoned: FrozenSet[str] = frozenset()
    _by_slot: Dict[Tuple[int, int], FaultEvent] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        by_slot = {(event.worker_id, event.batch_index): event for event in self.events}
        if len(by_slot) != len(self.events):
            raise ValueError("FaultPlan has multiple events for one (worker, batch)")
        object.__setattr__(self, "_by_slot", by_slot)

    # -- construction ---------------------------------------------------
    @classmethod
    def make(
        cls,
        events: Iterable[FaultEvent] = (),
        poisoned: Iterable[str] = (),
    ) -> "FaultPlan":
        return cls(events=tuple(events), poisoned=frozenset(poisoned))

    @classmethod
    def single(
        cls,
        kind: str,
        worker_id: int = 0,
        batch_index: int = 0,
        seconds: Optional[float] = None,
    ) -> "FaultPlan":
        """A plan with exactly one worker event (the common test shape)."""
        return cls.make([FaultEvent(kind, worker_id, batch_index, seconds)])

    @classmethod
    def random(
        cls,
        seed: int,
        workers: int,
        events: int = 2,
        max_batch_index: int = 4,
        kinds: Tuple[str, ...] = ("crash", "error", "slow"),
    ) -> "FaultPlan":
        """A seeded plan of *events* recoverable faults for fuzzing.

        The default *kinds* exclude ``hang`` (recovery then depends on a
        wall-clock deadline — correct but slow in a fuzz loop) and never
        poison units (quarantine deliberately drops work, so verdicts
        could legitimately diverge from the clean baseline).
        """
        rng = random.Random(seed)
        slots = [(wid, bidx) for wid in range(workers) for bidx in range(max_batch_index)]
        rng.shuffle(slots)
        chosen: List[FaultEvent] = []
        for wid, bidx in slots[: max(0, events)]:
            kind = rng.choice(list(kinds))
            seconds = 0.01 if kind in ("slow", "hang") else None
            chosen.append(FaultEvent(kind, wid, bidx, seconds))
        return cls.make(chosen)

    # -- queries --------------------------------------------------------
    def event_at(self, worker_id: int, batch_index: int) -> Optional[FaultEvent]:
        """The scripted event for this dispatch, or ``None``."""
        return self._by_slot.get((worker_id, batch_index))

    def poisons(self, unit) -> bool:
        """Whether *unit* (a :class:`WorkUnit`) is poisoned everywhere.

        Grouped units are poisoned when *any* member GFD is listed — a
        group containing a poisoned rule must fail wherever the singleton
        unit would have.
        """
        if not self.poisoned:
            return False
        if unit.uid in self.poisoned:
            return True
        return any(name in self.poisoned for name in unit.gfd_names)

    def check_unit(self, unit) -> None:
        """Raise :class:`InjectedFault` if *unit* is poisoned."""
        if self.poisons(unit):
            raise InjectedFault(
                f"poisoned unit {unit.uid} (gfd {unit.gfd_name!r}) "
                "injected by FaultPlan"
            )

    def __bool__(self) -> bool:
        return bool(self.events or self.poisoned)

    # _by_slot is derived state; keep pickles minimal and rebuildable.
    def __getstate__(self):
        return {"events": self.events, "poisoned": self.poisoned}

    def __setstate__(self, state):
        object.__setattr__(self, "events", state["events"])
        object.__setattr__(self, "poisoned", state["poisoned"])
        object.__setattr__(
            self,
            "_by_slot",
            {(e.worker_id, e.batch_index): e for e in self.events},
        )


def inject_faults(
    plan: Optional[FaultPlan],
    event: Optional[FaultEvent],
    unit,
    position: int,
) -> None:
    """Raise :class:`InjectedFault` where *plan* says *unit* fails.

    A poisoned unit fails wherever it runs; an ``error`` *event* fails
    the first unit (*position* 0) of the batch it is keyed to. Workers of
    both backends and the in-process executor call this before executing
    each unit, so an injected failure takes the organic failure path.
    """
    if plan is not None:
        plan.check_unit(unit)
    if event is not None and event.kind == "error" and position == 0:
        raise InjectedFault(
            f"injected worker-side error (worker {event.worker_id}, "
            f"batch {event.batch_index})"
        )


class RetryTracker:
    """Per-unit failure accounting shared by every backend.

    A unit may fail ``max_retries`` times and still be retried; the
    failure after that quarantines it. The tracker only counts — the
    backend owns the requeue/quarantine mechanics — so the same instance
    serves worker-side exceptions, worker crashes attributed to a
    singleton batch, and degraded-mode in-process failures alike.
    """

    def __init__(self, max_retries: int) -> None:
        self.max_retries = max_retries
        self._attempts: Dict[str, int] = {}

    def record_failure(self, unit) -> bool:
        """Count one failure of *unit*; True = retry, False = quarantine."""
        attempts = self._attempts.get(unit.uid, 0) + 1
        self._attempts[unit.uid] = attempts
        return attempts <= self.max_retries

    def attempts(self, unit) -> int:
        return self._attempts.get(unit.uid, 0)

    @property
    def total_failures(self) -> int:
        return sum(self._attempts.values())
