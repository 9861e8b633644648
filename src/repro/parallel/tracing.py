"""Execution traces of the simulated cluster, with ASCII rendering.

A :class:`Trace` records one :class:`TraceEvent` per executed work unit
(worker id, virtual start/finish, match/enforcement counts, splits). The
renderers turn a trace into terminal-friendly views:

* :func:`render_gantt` — one lane per worker, time binned into columns;
  stragglers show up as long runs of the same unit marker, and the effect
  of TTL splitting is directly visible as the long runs break apart;
* :func:`summarize` — per-worker utilization and the heaviest units.

Tracing is off by default (zero overhead); pass ``trace=Trace()`` to
:meth:`repro.parallel.backends.simulated.SimulatedBackend.run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..reasoning.workunits import WorkUnit


@dataclass(frozen=True)
class TraceEvent:
    """One executed unit on the virtual timeline."""

    worker: int
    unit: WorkUnit
    start: float
    finish: float
    matches: int
    match_ticks: int
    splits: int
    conflict: bool = False
    goal_reached: bool = False

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class Trace:
    """A recorded run: events plus the final makespan."""

    events: List[TraceEvent] = field(default_factory=list)
    makespan: float = 0.0

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)
        self.makespan = max(self.makespan, event.finish)

    def worker_ids(self) -> List[int]:
        return sorted({event.worker for event in self.events})

    def events_of(self, worker: int) -> List[TraceEvent]:
        return sorted(
            (event for event in self.events if event.worker == worker),
            key=lambda e: e.start,
        )

    def busy_time(self, worker: int) -> float:
        return sum(event.duration for event in self.events_of(worker))

    def utilization(self, worker: int) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.busy_time(worker) / self.makespan

    def heaviest(self, count: int = 5) -> List[TraceEvent]:
        return sorted(self.events, key=lambda e: -e.duration)[:count]


_MARKERS = "abcdefghijklmnopqrstuvwxyz"


def render_gantt(trace: Trace, width: int = 72) -> str:
    """ASCII Gantt chart: one lane per worker, one column per time bin.

    Each unit gets a letter marker (cycled by the GFD it enforces); ``.``
    is idle time, ``!`` marks the bin where a conflict/goal fired.
    """
    if not trace.events or trace.makespan <= 0:
        return "(empty trace)"
    bin_width = trace.makespan / width
    gfd_names = sorted({event.unit.gfd_name for event in trace.events})
    marker_of = {
        name: _MARKERS[index % len(_MARKERS)] for index, name in enumerate(gfd_names)
    }
    lines = [f"virtual makespan: {trace.makespan:.3f}s  ({width} cols, "
             f"{bin_width:.4f}s/col)"]
    for worker in trace.worker_ids():
        lane = ["."] * width
        for event in trace.events_of(worker):
            first = min(width - 1, int(event.start / bin_width))
            last = min(width - 1, int(max(event.finish - 1e-12, event.start) / bin_width))
            for column in range(first, last + 1):
                lane[column] = marker_of[event.unit.gfd_name]
            if event.conflict or event.goal_reached:
                lane[last] = "!"
        lines.append(f"w{worker:<3}|{''.join(lane)}|")
    legend = ", ".join(f"{marker}={name}" for name, marker in sorted(marker_of.items(), key=lambda kv: kv[1]))
    lines.append(f"legend: {legend}")
    return "\n".join(lines)


def summarize(trace: Trace, top: int = 5) -> str:
    """Plain-text utilization and straggler summary."""
    if not trace.events:
        return "(empty trace)"
    lines = [f"units executed: {len(trace.events)}, makespan: {trace.makespan:.3f}s"]
    for worker in trace.worker_ids():
        busy = trace.busy_time(worker)
        lines.append(
            f"  w{worker}: {len(trace.events_of(worker))} units, "
            f"busy {busy:.3f}s ({trace.utilization(worker):.0%})"
        )
    lines.append("heaviest units:")
    for event in trace.heaviest(top):
        flags = "".join(
            marker for condition, marker in ((event.conflict, "C"), (event.splits, "S"),
                                             (event.goal_reached, "G"))
            if condition
        )
        lines.append(
            f"  {event.duration:8.3f}s  {event.unit.gfd_name:<16} "
            f"matches={event.matches} ticks={event.match_ticks} "
            f"splits={event.splits} {flags}"
        )
    return "\n".join(lines)
