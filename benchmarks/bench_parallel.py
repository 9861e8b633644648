"""Wall-clock benchmark: execution backends and the scheduling layer.

Two workloads exercise the parallel runtime from opposite ends:

* ``straggler`` — dense anchors explode seeker matching (heavy per-unit
  CPU, heavy enforcement): the backend comparison. The process backend
  runs against a timed ``seq_sat`` call on the same rules, the baseline
  it must beat on real cores (``process_speedup_vs_seq``);
* ``delta_hub`` — hub-and-spoke topology where every spoke's match
  re-derives hub-level ``ΔEq`` facts: broadcast volume, not matching,
  dominates. This is the scheduler comparison: ``RuntimeConfig.affinity``
  (the default: pivot-affinity pinning, work stealing, the fair-share
  batch cap and adaptive batching) against the FIFO fixed-``batch_size``
  ablation (``RuntimeConfig.without_affinity()``), measured in wall
  seconds *and* in ``ParallelOutcome.broadcast_volume`` / ``sync_rounds``.

A ``simulated`` section records the virtual-clock numbers for both
workloads and both scheduler configs. Those are exactly reproducible
(no wall-clock noise), which makes them the regression signal
``tools/check_bench_regression.py`` gates CI on.

The numbers feed ``BENCH_parallel.json`` so successive PRs can track the
runtime trajectory; every run must report the same verdict across
backends, ``seq_sat`` and scheduler configs or the script exits nonzero.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--output FILE]

``--smoke`` runs a seconds-scale configuration for CI. ``--chaos`` runs
the fault-tolerance suite instead: the ``delta_hub`` workload under a
seeded :class:`~repro.parallel.faults.FaultPlan` (one worker killed
mid-run, one hung past the batch deadline, one unit poisoned), asserting
verdict equivalence with the clean run and reporting the recovery
overhead (``recovery_efficiency`` = clean wall / faulted wall, higher is
better) for the CI regression gate. ``--fragments`` runs the fragmented-
execution suite: per-worker snapshot bytes (cold-start kit + largest
fragment replica) and wall clock at ``F`` edge-cut fragments against
whole-graph pickling on ``delta_hub`` — the snapshot footprint should
scale roughly ``1/F`` while verdicts stay byte-identical. ``--results``
runs the provenance-capture suite: wall clock with the layered result
model's evidence/derivation capture on vs the
``RuntimeConfig.without_provenance()`` ablation (target < 10% overhead),
asserting the process backend's merged evidence refs equal the
sequential run's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List

from repro.gfd.generator import delta_hub_workload, straggler_workload
from repro.parallel import FaultEvent, FaultPlan, RuntimeConfig, par_sat
from repro.reasoning.seqsat import seq_sat

#: The multi-core workload: dense anchors explode seeker matching (heavy
#: per-unit CPU) and every match funnels through enforcement.
STRAGGLER_FULL = dict(
    num_anchor=2, num_seekers=5, num_background=40,
    anchor_size=13, seeker_length=7, seed=11,
)
STRAGGLER_SMOKE = dict(
    num_anchor=2, num_seekers=3, num_background=20,
    anchor_size=10, seeker_length=5, seed=11,
)

#: The delta-heavy, hub-skewed workload: ΔEq broadcast dominates, work
#: units cluster in hub neighborhoods — the scheduler's home turf.
DELTA_HUB_FULL = dict(
    num_hubs=8, spokes_per_hub=24, num_writers=10, num_pairers=4,
    num_background=20, seed=7,
)
DELTA_HUB_SMOKE = dict(
    num_hubs=4, spokes_per_hub=10, num_writers=5, num_pairers=2,
    num_background=8, seed=7,
)

def outcome_record(outcome) -> Dict:
    """The per-run counters worth tracking across PRs."""
    return {
        "units_executed": outcome.units_executed,
        "splits": outcome.splits,
        "match_ticks": outcome.match_ticks,
        "enforce_ops": outcome.enforce_ops,
        "broadcast_ops": outcome.broadcast_ops,
        "broadcast_volume": outcome.broadcast_volume,
        "sync_rounds": outcome.sync_rounds,
        "affinity_hits": outcome.affinity_hits,
        "affinity_misses": outcome.affinity_misses,
        "batch_sizes": outcome.batch_sizes,
        # Supervision counters (all 0/False on a clean run).
        "retries": outcome.retries,
        "respawns": outcome.respawns,
        "worker_deaths": outcome.worker_deaths,
        "quarantined": len(outcome.quarantined),
        "degraded": outcome.degraded,
        # Fragmented-execution shipping counters (all 0 when off).
        "fragments_shipped": outcome.fragments_shipped,
        "balls_shipped": outcome.balls_shipped,
        "coordinator_units": outcome.coordinator_units,
    }


def bench_config(sigma, backend: str, config: RuntimeConfig, repeats: int) -> Dict:
    walls: List[float] = []
    verdict = None
    counters: Dict = {}
    for _ in range(repeats):
        started = time.perf_counter()
        result = par_sat(sigma, config, backend=backend)
        walls.append(time.perf_counter() - started)
        verdict = result.satisfiable
        counters = outcome_record(result.outcome)
        # Drop the run's evidence before the next repeat starts, so peak
        # memory is one run's, not two.
        del result
    record = {
        "verdict": verdict,
        "wall_seconds_min": round(min(walls), 4),
        "wall_seconds_all": [round(w, 4) for w in walls],
    }
    record.update(counters)
    return record


def bench_seq_sat(sigma, repeats: int, capture_provenance: bool = True):
    """Time ``seq_sat`` on *sigma*; returns the last result and a record."""
    walls: List[float] = []
    result = None
    for _ in range(repeats):
        result = None  # one run's evidence alive at a time, not two
        started = time.perf_counter()
        result = seq_sat(sigma, capture_provenance=capture_provenance)
        walls.append(time.perf_counter() - started)
    record = {
        "verdict": result.satisfiable,
        "wall_seconds_min": round(min(walls), 4),
        "wall_seconds_all": [round(w, 4) for w in walls],
    }
    return result, record


def bench_simulated(sigma, config: RuntimeConfig) -> Dict:
    """Deterministic virtual-clock record (the CI regression signal)."""
    result = par_sat(sigma, config, backend="simulated")
    record = {
        "verdict": result.satisfiable,
        "virtual_seconds": round(result.virtual_seconds, 6),
    }
    record.update(outcome_record(result.outcome))
    return record


def run_suite(smoke: bool = False, workers: int = 4, repeats: int = 2) -> Dict:
    straggler = straggler_workload(**(STRAGGLER_SMOKE if smoke else STRAGGLER_FULL))
    delta_hub = delta_hub_workload(**(DELTA_HUB_SMOKE if smoke else DELTA_HUB_FULL))
    config = RuntimeConfig(workers=workers, ttl_seconds=2.0)
    ablation = config.without_affinity()
    results: Dict = {
        "mode": "smoke" if smoke else "full",
        "workers": workers,
        "repeats": repeats,
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workloads": {
            "straggler": dict(
                STRAGGLER_SMOKE if smoke else STRAGGLER_FULL,
                kind="straggler", sigma_size=len(straggler),
            ),
            "delta_hub": dict(
                DELTA_HUB_SMOKE if smoke else DELTA_HUB_FULL,
                kind="delta_hub", sigma_size=len(delta_hub),
            ),
        },
    }
    verdicts = set()

    # Backend comparison on the straggler workload (scheduler at defaults):
    # the process backend against the sequential run it must beat.
    backends: Dict = {
        "process": bench_config(straggler, "process", config, repeats),
        "seq_sat": bench_seq_sat(straggler, repeats)[1],
    }
    for record in backends.values():
        verdicts.add(("straggler", record["verdict"]))
    results["backends"] = backends
    seq = backends["seq_sat"]["wall_seconds_min"]
    process = backends["process"]["wall_seconds_min"]
    results["process_speedup_vs_seq"] = round(seq / process, 3) if process else None

    # Scheduler comparison on the delta-heavy hub workload (process
    # backend: affinity + adaptive batching vs the fixed-batch ablation).
    scheduler: Dict = {}
    for key, cfg in (("affinity", config), ("fixed", ablation)):
        scheduler[key] = bench_config(delta_hub, "process", cfg, repeats)
        verdicts.add(("delta_hub", scheduler[key]["verdict"]))
    results["scheduler"] = scheduler
    fixed_wall = scheduler["fixed"]["wall_seconds_min"]
    affinity_wall = scheduler["affinity"]["wall_seconds_min"]
    results["affinity_speedup_vs_fixed"] = (
        round(fixed_wall / affinity_wall, 3) if affinity_wall else None
    )
    affinity_volume = scheduler["affinity"]["broadcast_volume"]
    results["broadcast_volume_vs_fixed"] = (
        round(affinity_volume / scheduler["fixed"]["broadcast_volume"], 3)
        if scheduler["fixed"]["broadcast_volume"]
        else None
    )

    # Deterministic virtual-clock trajectories (per workload × scheduler
    # config) — exactly reproducible, gated by CI.
    simulated: Dict = {}
    for workload_name, sigma in (("straggler", straggler), ("delta_hub", delta_hub)):
        for key, cfg in (("affinity", config), ("fixed", ablation)):
            record = bench_simulated(sigma, cfg)
            simulated[f"{workload_name}_{key}"] = record
            verdicts.add((workload_name, record["verdict"]))
    results["simulated"] = simulated

    mismatches = sum(
        1
        for workload_name in ("straggler", "delta_hub")
        if len({verdict for name, verdict in verdicts if name == workload_name}) != 1
    )
    results["equivalence_mismatches"] = mismatches
    if mismatches:
        raise SystemExit(f"verdict mismatch across backends/configs: {sorted(verdicts)}")
    if not smoke:
        # The full artifact (BENCH_parallel.json) carries the chaos and
        # fragmentation sections too; the smoke/CI path runs each as its
        # own gate cell (--chaos / --fragments) so the gates stay
        # independent.
        results["chaos"] = run_chaos(smoke=False, workers=workers, repeats=repeats)
        results["fragmentation"] = run_fragments(
            smoke=False, workers=workers, repeats=repeats
        )
        results["results_model"] = run_results(
            smoke=False, workers=workers, repeats=repeats
        )
    return results


def chaos_plan() -> FaultPlan:
    """The seeded chaos script: kill worker 1 mid-run, hang worker 0 on
    its second batch, and poison the ``bg0`` unit everywhere."""
    return FaultPlan.make(
        [FaultEvent("crash", 1, 0), FaultEvent("hang", 0, 1)],
        poisoned=["bg0"],
    )


def run_chaos(smoke: bool = False, workers: int = 4, repeats: int = 2) -> Dict:
    """Chaos smoke: the delta_hub workload under a seeded FaultPlan.

    Runs the workload clean and faulted on the process backend (plus a
    deterministic faulted simulated run) and asserts all verdicts agree —
    supervision must cost time, never correctness. The poisoned unit is a
    background GFD of a satisfiable workload, so quarantining it cannot
    flip the verdict.
    """
    params = DELTA_HUB_SMOKE if smoke else DELTA_HUB_FULL
    sigma = delta_hub_workload(**params)
    plan = chaos_plan()
    clean_config = RuntimeConfig(workers=workers, ttl_seconds=2.0)
    chaos_config = RuntimeConfig(
        workers=workers,
        ttl_seconds=2.0,
        fault_plan=plan,
        # A short explicit deadline keeps the injected hang's recovery in
        # benchmark scale (the event itself sleeps for an hour).
        batch_timeout_seconds=0.5 if smoke else 2.0,
        respawn_backoff_seconds=0.01,
    )
    results: Dict = {
        "mode": "smoke" if smoke else "full",
        "workers": workers,
        "repeats": repeats,
        "workload": dict(params, kind="delta_hub", sigma_size=len(sigma)),
        "plan": {
            "events": [
                {"kind": e.kind, "worker_id": e.worker_id, "batch_index": e.batch_index}
                for e in plan.events
            ],
            "poisoned": sorted(plan.poisoned),
        },
    }
    results["clean"] = bench_config(sigma, "process", clean_config, repeats)
    results["process"] = bench_config(sigma, "process", chaos_config, repeats)
    results["simulated"] = bench_simulated(sigma, chaos_config)
    verdicts = {
        results["clean"]["verdict"],
        results["process"]["verdict"],
        results["simulated"]["verdict"],
    }
    results["verdicts_agree"] = len(verdicts) == 1
    clean_wall = results["clean"]["wall_seconds_min"]
    chaos_wall = results["process"]["wall_seconds_min"]
    results["recovery_overhead_seconds"] = round(chaos_wall - clean_wall, 4)
    results["recovery_efficiency"] = (
        round(clean_wall / chaos_wall, 4) if chaos_wall else None
    )
    if not results["verdicts_agree"]:
        raise SystemExit(f"chaos verdict mismatch: {sorted(verdicts)}")
    if results["process"]["quarantined"] != 1 or results["simulated"]["quarantined"] != 1:
        raise SystemExit(
            "chaos run did not quarantine exactly the poisoned unit: "
            f"process={results['process']['quarantined']} "
            f"simulated={results['simulated']['quarantined']}"
        )
    return results


def run_fragments(smoke: bool = False, workers: int = 4, repeats: int = 2) -> Dict:
    """Fragmented execution vs whole-graph pickling on ``delta_hub``.

    Measures the process backend's shipping footprint: the whole-graph
    worker snapshot (every worker gets the full canonical graph + caches)
    against the fragmented cold-start payload (a graph-free kit) plus the
    largest single fragment replica — the *peak* bytes any one worker
    receives under demand-driven placement. Wall clock and verdicts are
    recorded for both modes; verdicts must agree or the script exits
    nonzero. A deterministic simulated run at ``F = 4`` feeds the CI
    regression gate.
    """
    import pickle

    from repro.eq.eqrelation import EqRelation
    from repro.gfd.canonical import build_canonical_graph
    from repro.parallel.backends.process import (
        make_fragment_snapshot,
        make_worker_snapshot,
    )
    from repro.parallel.units import UnitContext, attach_fragmentation
    from repro.reasoning.enforce import EnforcementEngine

    params = DELTA_HUB_SMOKE if smoke else DELTA_HUB_FULL
    sigma = delta_hub_workload(**params)
    canonical = build_canonical_graph(sigma)
    config = RuntimeConfig(workers=workers, ttl_seconds=2.0)
    fragment_counts = (2, 4) if smoke else (2, 4, 8)

    results: Dict = {
        "mode": "smoke" if smoke else "full",
        "workers": workers,
        "repeats": repeats,
        "workload": dict(params, kind="delta_hub", sigma_size=len(sigma)),
        "graph_nodes": canonical.graph.num_nodes,
    }

    # Whole-graph ablation: what every worker replica costs today.
    context = UnitContext(canonical.graph, canonical.gfds)
    context.precompile_plans(sigma)
    engine = EnforcementEngine(EqRelation(), canonical.gfds)
    whole_bytes = len(
        make_worker_snapshot(context, engine, None, None, config.max_split_units)
    )
    whole = {"snapshot_bytes": whole_bytes}
    whole.update(bench_config(sigma, "process", config, repeats))
    results["whole"] = whole
    verdicts = {whole["verdict"]}

    fragments: Dict = {}
    for count in fragment_counts:
        # A fresh context per F: attach_fragmentation pins pivots/orders
        # and installs the routing table used for replica construction.
        fctx = UnitContext(canonical.graph, canonical.gfds)
        fctx.precompile_plans(sigma)
        router = attach_fragmentation(fctx, sigma, count)
        kit_bytes = len(
            make_fragment_snapshot(fctx, engine, None, None, config.max_split_units)
        )
        replica_bytes = [
            len(pickle.dumps(router.build(fid))) for fid in range(count)
        ]
        peak = kit_bytes + max(replica_bytes)
        record = {
            "kit_bytes": kit_bytes,
            "fragment_bytes_max": max(replica_bytes),
            "fragment_bytes_mean": round(sum(replica_bytes) / count, 1),
            "peak_worker_bytes": peak,
            # >1 means a fragmented worker's snapshot is smaller than the
            # whole-graph one; should grow roughly linearly in F.
            "snapshot_scaling": round(whole_bytes / peak, 3) if peak else None,
        }
        record.update(
            bench_config(sigma, "process", config.with_fragments(count), repeats)
        )
        fragments[str(count)] = record
        verdicts.add(record["verdict"])
    results["fragments"] = fragments

    # Deterministic virtual-clock cell for the CI gate.
    results["simulated_f4"] = bench_simulated(sigma, config.with_fragments(4))
    verdicts.add(results["simulated_f4"]["verdict"])

    results["verdicts_agree"] = len(verdicts) == 1
    if not results["verdicts_agree"]:
        raise SystemExit(f"fragmented verdict mismatch: {sorted(verdicts)}")
    return results


def run_results(smoke: bool = False, workers: int = 4, repeats: int = 2) -> Dict:
    """Provenance-capture overhead: what the layered result model costs.

    Runs ``delta_hub`` with evidence/derivation capture on (the default)
    and off (``RuntimeConfig.without_provenance()`` /
    ``seq_sat(capture_provenance=False)``), sequentially and on the
    process backend. Target: capture costs < 10% wall
    (``capture_overhead`` ≤ 1.10); the CI gate tracks the inverse
    ``capture_efficiency`` (off wall / on wall, higher is better) with
    the loose ratio tolerance so runner noise cannot flake it. The suite
    also asserts the layered-result invariant end to end: the process
    backend's merged evidence refs must equal the sequential run's
    (stable cross-worker ids) and all verdicts must agree, or the script
    exits nonzero.
    """
    params = DELTA_HUB_SMOKE if smoke else DELTA_HUB_FULL
    sigma = delta_hub_workload(**params)
    config = RuntimeConfig(workers=workers, ttl_seconds=2.0)
    ablation = config.without_provenance()

    results: Dict = {
        "mode": "smoke" if smoke else "full",
        "workers": workers,
        "repeats": repeats,
        "workload": dict(params, kind="delta_hub", sigma_size=len(sigma)),
    }

    seq_on_result, seq_on = bench_seq_sat(sigma, repeats)
    _, seq_off = bench_seq_sat(sigma, repeats, capture_provenance=False)
    seq_store = seq_on_result.results
    seq_on["evidence_records"] = len(seq_store.evidence)
    seq_on["derivation_ops"] = len(seq_store.derivation)
    results["sequential"] = {"on": seq_on, "off": seq_off}

    process_on = bench_config(sigma, "process", config, repeats)
    process_off = bench_config(sigma, "process", ablation, repeats)
    # Re-run once outside the timing loop to compare the merged store's
    # refs against the sequential run (bench_config discards the result).
    merged = par_sat(sigma, config, backend="process").results
    process_on["evidence_records"] = len(merged.evidence)
    results["process"] = {"on": process_on, "off": process_off}

    # Deterministic virtual-clock cell with capture on for the CI gate;
    # the evidence count is a reproducible work counter.
    sim_result = par_sat(sigma, config, backend="simulated")
    simulated = {
        "verdict": sim_result.satisfiable,
        "virtual_seconds": round(sim_result.virtual_seconds, 6),
        "evidence_records": len(sim_result.results.evidence),
    }
    simulated.update(outcome_record(sim_result.outcome))
    results["simulated"] = simulated

    def efficiency(off_wall: float, on_wall: float):
        return round(off_wall / on_wall, 4) if on_wall else None

    def overhead(on_wall: float, off_wall: float):
        return round(on_wall / off_wall, 4) if off_wall else None

    results["capture_overhead_seq"] = overhead(
        seq_on["wall_seconds_min"], seq_off["wall_seconds_min"]
    )
    results["capture_efficiency_seq"] = efficiency(
        seq_off["wall_seconds_min"], seq_on["wall_seconds_min"]
    )
    results["capture_overhead_process"] = overhead(
        process_on["wall_seconds_min"], process_off["wall_seconds_min"]
    )
    results["capture_efficiency_process"] = efficiency(
        process_off["wall_seconds_min"], process_on["wall_seconds_min"]
    )

    # Layered-result invariants: same verdict everywhere, and (the run
    # being satisfiable, hence run to completion) the same evidence refs
    # from the sequential engine and the coordinator's merged log.
    verdicts = {
        seq_on["verdict"], seq_off["verdict"],
        process_on["verdict"], process_off["verdict"], simulated["verdict"],
    }
    results["verdicts_agree"] = len(verdicts) == 1
    results["refs_agree"] = set(seq_store.evidence.refs()) == set(merged.evidence.refs())
    if not results["verdicts_agree"]:
        raise SystemExit(f"results verdict mismatch: {sorted(verdicts)}")
    if not results["refs_agree"]:
        only_seq = set(seq_store.evidence.refs()) - set(merged.evidence.refs())
        only_par = set(merged.evidence.refs()) - set(seq_store.evidence.refs())
        raise SystemExit(
            f"evidence refs diverge: {len(only_seq)} sequential-only, "
            f"{len(only_par)} process-only"
        )
    return results


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", help="write results JSON to this file")
    parser.add_argument(
        "--smoke", action="store_true", help="seconds-scale configuration (CI smoke)"
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the fault-injection suite instead of the perf suite",
    )
    parser.add_argument(
        "--fragments",
        action="store_true",
        help="run the fragmented-execution suite instead of the perf suite",
    )
    parser.add_argument(
        "--results",
        action="store_true",
        help="run the provenance-capture overhead suite instead of the perf suite",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args(argv)
    if args.chaos:
        results = run_chaos(smoke=args.smoke, workers=args.workers, repeats=args.repeats)
    elif args.fragments:
        results = run_fragments(
            smoke=args.smoke, workers=args.workers, repeats=args.repeats
        )
    elif args.results:
        results = run_results(
            smoke=args.smoke, workers=args.workers, repeats=args.repeats
        )
    else:
        results = run_suite(smoke=args.smoke, workers=args.workers, repeats=args.repeats)
    payload = json.dumps(results, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(payload + "\n")
    print(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
