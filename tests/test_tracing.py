"""Tests for simulated-cluster execution traces."""

import pytest

from repro.eq.eqrelation import EqRelation
from repro.gfd import build_canonical_graph
from repro.gfd.generator import random_gfds, straggler_workload
from repro.parallel import (
    RuntimeConfig,
    SimulatedBackend,
    Trace,
    UnitContext,
    render_gantt,
    summarize,
)
from repro.reasoning.enforce import EnforcementEngine
from repro.reasoning.workunits import generate_pruned_work_units


def run_traced(sigma, workers=3, ttl=None):
    canonical = build_canonical_graph(sigma)
    units = generate_pruned_work_units(sigma, canonical.graph)
    context = UnitContext(canonical.graph, canonical.gfds)
    engine = EnforcementEngine(EqRelation(), canonical.gfds)
    trace = Trace()
    config = RuntimeConfig(workers=workers, ttl_seconds=ttl)
    outcome = SimulatedBackend(config).run(units, context, engine, trace=trace)
    return trace, outcome


class TestTrace:
    def test_events_recorded_per_unit(self):
        sigma = random_gfds(10, 4, 3, seed=4)
        trace, outcome = run_traced(sigma)
        assert len(trace.events) == outcome.units_executed
        assert trace.makespan == pytest.approx(outcome.virtual_seconds, rel=1e-6)

    def test_events_do_not_overlap_per_worker(self):
        sigma = random_gfds(15, 4, 3, seed=5)
        trace, _ = run_traced(sigma, workers=2)
        for worker in trace.worker_ids():
            events = trace.events_of(worker)
            for previous, current in zip(events, events[1:]):
                assert current.start >= previous.finish - 1e-9

    def test_busy_time_and_utilization(self):
        sigma = random_gfds(15, 4, 3, seed=6)
        trace, outcome = run_traced(sigma, workers=2)
        for worker in trace.worker_ids():
            busy = trace.busy_time(worker)
            assert 0 < busy <= trace.makespan + 1e-9
            assert 0 < trace.utilization(worker) <= 1.0 + 1e-9

    def test_heaviest_sorted(self):
        sigma = straggler_workload(
            num_anchor=1, num_seekers=1, num_background=8, anchor_size=8,
            seeker_length=4, seed=7,
        )
        trace, _ = run_traced(sigma, workers=2, ttl=None)
        heaviest = trace.heaviest(3)
        assert heaviest == sorted(heaviest, key=lambda e: -e.duration)
        assert heaviest[0].match_ticks >= heaviest[-1].match_ticks / 1000

    def test_splits_visible_in_trace(self):
        sigma = straggler_workload(
            num_anchor=1, num_seekers=1, num_background=5, anchor_size=9,
            seeker_length=4, seed=8,
        )
        trace, outcome = run_traced(sigma, workers=2, ttl=0.05)
        assert outcome.splits > 0
        assert sum(event.splits for event in trace.events) == outcome.splits


class TestRendering:
    def test_gantt_contains_all_workers(self):
        sigma = random_gfds(12, 4, 3, seed=9)
        trace, _ = run_traced(sigma, workers=3)
        art = render_gantt(trace, width=40)
        for worker in trace.worker_ids():
            assert f"w{worker}" in art
        assert "legend:" in art

    def test_gantt_empty_trace(self):
        assert render_gantt(Trace()) == "(empty trace)"

    def test_summary_lists_heaviest(self):
        sigma = random_gfds(12, 4, 3, seed=10)
        trace, _ = run_traced(sigma, workers=2)
        text = summarize(trace, top=2)
        assert "units executed" in text
        assert "heaviest units" in text

    def test_summary_empty(self):
        assert summarize(Trace()) == "(empty trace)"
