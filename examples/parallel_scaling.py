#!/usr/bin/env python3
"""Parallel scalability demo: ParSat/ParImp speed up as workers grow.

Runs a straggler-heavy satisfiable workload through ParSat (and an
implication instance through ParImp) on the simulated cluster for
p ∈ {1, 2, 4, 8, 16}, printing the virtual running time, the speedup over
p=1 and the contribution of the paper's two optimizations (pipelining,
work-unit splitting). Finishes with a process-backend run to show the same
verdict on real cores.

Run:  python examples/parallel_scaling.py
"""

from repro.bench.harness import implication_workload
from repro.gfd.generator import straggler_workload
from repro.parallel import (
    RuntimeConfig,
    par_imp,
    par_sat,
    par_sat_nb,
    par_sat_np,
)


def scaling_table() -> None:
    sigma = straggler_workload(seed=11)
    print(f"satisfiability workload: {len(sigma)} GFDs (satisfiable, straggler-heavy)")
    print(f"{'p':>3}  {'ParSat':>9}  {'speedup':>7}  {'no-pipeline':>11}  {'no-split':>9}")
    baseline = None
    for p in (1, 2, 4, 8, 16):
        config = RuntimeConfig(workers=p)
        full = par_sat(sigma, config)
        assert full.satisfiable
        no_pipeline = par_sat_np(sigma, config)
        no_split = par_sat_nb(sigma, config)
        if baseline is None:
            baseline = full.virtual_seconds
        print(
            f"{p:>3}  {full.virtual_seconds:>8.1f}s  {baseline / full.virtual_seconds:>6.1f}x"
            f"  {no_pipeline.virtual_seconds:>10.1f}s  {no_split.virtual_seconds:>8.1f}s"
        )


def implication_scaling() -> None:
    workload = implication_workload(seed=11)
    print(f"\nimplication workload: |Σ|={len(workload.sigma)}, φ={workload.phi.name}")
    print(f"{'p':>3}  {'ParImp':>9}  {'speedup':>7}")
    baseline = None
    for p in (1, 4, 16):
        result = par_imp(workload.sigma, workload.phi, RuntimeConfig(workers=p))
        if baseline is None:
            baseline = result.virtual_seconds
        print(f"{p:>3}  {result.virtual_seconds:>8.1f}s  {baseline / result.virtual_seconds:>6.1f}x")


def trace_demo() -> None:
    """Visualize one simulated run: stragglers and how splitting breaks
    them apart across workers."""
    from repro.eq.eqrelation import EqRelation
    from repro.gfd import build_canonical_graph
    from repro.parallel import SimulatedBackend, Trace, UnitContext, render_gantt, summarize
    from repro.reasoning.enforce import EnforcementEngine
    from repro.reasoning.workunits import generate_pruned_work_units

    sigma = straggler_workload(
        num_anchor=1, num_seekers=2, num_background=15, anchor_size=9,
        seeker_length=4, seed=11,
    )
    canonical = build_canonical_graph(sigma)
    units = generate_pruned_work_units(sigma, canonical.graph)
    context = UnitContext(canonical.graph, canonical.gfds)
    engine = EnforcementEngine(EqRelation(), canonical.gfds)
    trace = Trace()
    SimulatedBackend(RuntimeConfig(workers=4, ttl_seconds=0.2)).run(
        units, context, engine, trace=trace
    )
    print("\n=== execution trace (p=4, TTL=0.2s) ===")
    print(render_gantt(trace, width=64))
    print(summarize(trace, top=3))


def process_parity() -> None:
    sigma = straggler_workload(num_anchor=1, num_seekers=2, num_background=20, seed=11)
    simulated = par_sat(sigma, RuntimeConfig(workers=2))
    process = par_sat(sigma, RuntimeConfig(workers=2), backend="process")
    print(
        f"\nprocess parity: simulated verdict={simulated.satisfiable}, "
        f"process verdict={process.satisfiable} "
        f"(processes took {process.wall_seconds:.2f}s wall)"
    )
    assert simulated.satisfiable == process.satisfiable


def main() -> None:
    scaling_table()
    implication_scaling()
    trace_demo()
    process_parity()
    print("\nParallel scaling demo complete.")


if __name__ == "__main__":
    main()
