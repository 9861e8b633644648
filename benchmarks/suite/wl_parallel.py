"""Workload ``parallel``: closed-loop ``par_sat`` on a fresh process pool.

Each call is ``par_sat(Σ, RuntimeConfig(workers=2, ttl_seconds=2.0),
backend="process")`` — the CLI ``sat --parallel 2 --backend process`` path,
which builds a fresh pool per call. Stream ``a`` runs a delta-hub rule set,
bound by ΔEq broadcast and settlement with little matching; stream ``b``
runs a straggler rule set, bound by matching and TTL splits with little
broadcast. Supervisor or scheduler work therefore moves one stream and
not the other.
"""

from __future__ import annotations

import random
import time

from repro.gfd.generator import delta_hub_workload, straggler_workload
from repro.parallel.config import RuntimeConfig
from repro.parallel.parsat import par_sat
from repro.reasoning.seqsat import seq_sat

from common import SETUP_REPEATS, closed_loop, coverage, pass_result, peak_rss_mb, reshuffle, roll_up, rss_mb

STRUCTURE_SEED = 42
WORKERS = 2

#: Sized so one call costs a few tenths of a second: enough calls fit in
#: a run for a stable p75 (the full ``bench_parallel.py`` straggler set
#: costs ~30 s and ~3.9 GB per call).
HUB = dict(num_hubs=6, spokes_per_hub=16, num_writers=8, num_pairers=3, num_background=12)
STRAGGLER = dict(num_anchor=2, num_seekers=2, num_background=20, anchor_size=10, seeker_length=6)
SMOKE_HUB = dict(num_hubs=2, spokes_per_hub=6, num_writers=3, num_pairers=1, num_background=4)
SMOKE_STRAGGLER = dict(num_anchor=1, num_seekers=1, num_background=6, anchor_size=6, seeker_length=4)


def build_inputs(seed: int, smoke: bool):
    rng = random.Random(seed)
    hub = delta_hub_workload(seed=STRUCTURE_SEED, **(SMOKE_HUB if smoke else HUB))
    straggler = straggler_workload(seed=STRUCTURE_SEED, **(SMOKE_STRAGGLER if smoke else STRAGGLER))
    return {"a": reshuffle(hub, rng, "h"), "b": reshuffle(straggler, rng, "t")}


def run(args, recorder=None):
    config = RuntimeConfig(workers=WORKERS, ttl_seconds=2.0)
    # Each set-up builds the inputs, computes the reference verdicts with
    # seq_sat, and warms up with one call per stream.
    setup_times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        started = time.perf_counter()
        inputs = build_inputs(args.seed, args.smoke)
        expected = {op: seq_sat(sigma).satisfiable for op, sigma in inputs.items()}
        for sigma in inputs.values():
            par_sat(sigma, config, backend="process")
        setup_times.append(time.perf_counter() - started)

    outcomes = {}
    planted = [args.plant]

    def call(op):
        result = par_sat(inputs[op], config, backend="process")
        outcomes.setdefault(op, []).append(result.outcome)
        return result

    def check(op, result):
        verdict = result.satisfiable
        if planted[0]:
            planted[0] = False
            verdict = not verdict
        outcome = result.outcome
        if verdict != expected[op]:
            return f"verdict {verdict}, seq_sat says {expected[op]}"
        if outcome.quarantined:
            return f"{len(outcome.quarantined)} quarantined units"
        if outcome.worker_deaths:
            return f"{outcome.worker_deaths} worker deaths"
        return None

    calls = {op: (lambda op=op: call(op)) for op in inputs}
    rss = rss_mb()
    samples, failures, kinds = closed_loop(calls, check, args.seconds, recorder)
    result = pass_result(
        ops={
            "a": f"par_sat delta_hub |Σ|={len(inputs['a'])}",
            "b": f"par_sat straggler |Σ|={len(inputs['b'])}",
        },
        setup_s=setup_times,
        rss_mb=rss,
        extra={"peak_rss_mb": (peak_rss_mb(), "MB")},
        samples=samples,
        attempted=len(kinds),
        failures=failures,
    )
    if recorder is not None:
        tables = recorder.tables()
        layers = roll_up(tables, kinds)
        layers.update(outcome_metrics([o for runs in outcomes.values() for o in runs], layers))
        result["layers"] = layers
        result["coverage"] = coverage(tables, kinds)
    return result


def outcome_metrics(outcomes, layers):
    """Worker-side work, as the coordinator's ``ParallelOutcome`` reports it.

    Workers run in forked processes whose spans are not collected, so the
    matching counts of this workload come from the outcome as well.
    """
    n = len(outcomes) or 1
    busy = sum(sum(o.worker_busy) for o in outcomes)
    wall = sum(o.wall_seconds * WORKERS for o in outcomes)
    hits = sum(o.affinity_hits for o in outcomes)
    misses = sum(o.affinity_misses for o in outcomes)
    matches = sum(o.matches for o in outcomes)
    ticks = sum(o.match_ticks for o in outcomes)
    metrics = {
        "parallel.worker_busy.s": busy / n,
        "parallel.worker_util": busy / wall if wall else 0.0,
        "parallel.affinity_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "matching.matches": layers["matching.matches"] + matches / n,
        "matching.ticks": layers["matching.ticks"] + ticks / n,
    }
    metrics["matching.yield"] = metrics["matching.matches"] / metrics["matching.ticks"] if metrics["matching.ticks"] else 0.0
    for field in ("units_executed", "splits", "broadcast_ops", "broadcast_volume", "sync_rounds", "retries", "worker_deaths"):
        metrics[f"parallel.{field}"] = sum(getattr(o, field) for o in outcomes) / n
    return metrics
