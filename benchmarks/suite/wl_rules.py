"""Workload ``rules``: closed-loop ``seq_sat`` / ``seq_imp`` library calls.

One thread calls the public entry points at their defaults, alternating
``seq_sat`` on a 200-rule synthetic set (stream ``a``) with ``seq_imp`` on
a 25-rule set (stream ``b``). Matching and enforcement on the canonical
graph dominate, with no server or pool involved. Large-Σ sat is where the
shared-prefix trie wins and small-Σ imp is where folding to one matching
path could regress, so one workload shows both outcomes.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

from repro.bench.harness import synthetic_imp_sweep, synthetic_sat_sweep
from repro.reasoning.seqimp import seq_imp
from repro.reasoning.seqsat import seq_sat

from common import SETUP_REPEATS, closed_loop, coverage, pass_result, peak_rss_mb, reshuffle, roll_up, rss_mb

#: Generator seed of the rule structure; ``--seed`` reorders and renames.
STRUCTURE_SEED = 42


def build_inputs(seed: int, smoke: bool):
    sat_size, imp_size = (40, 10) if smoke else (200, 25)
    rng = random.Random(seed)
    sat = synthetic_sat_sweep((sat_size,), k=6, l=5, seed=STRUCTURE_SEED)[sat_size]
    imp = synthetic_imp_sweep((imp_size,), k=6, l=5, seed=STRUCTURE_SEED)[imp_size]
    return {
        "sat": reshuffle(sat.sigma, rng, "s"),
        "sat_expected": sat.expected_satisfiable,
        "imp": reshuffle(imp.sigma, rng, "i"),
        "phi": replace(imp.phi, name="phi"),
        "imp_expected": imp.expected_implied,
        "sizes": (sat_size, imp_size),
    }


def run(args, recorder=None):
    # Each set-up builds the inputs and warms up with one pair of calls.
    setup_times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        started = time.perf_counter()
        inputs = build_inputs(args.seed, args.smoke)
        seq_sat(inputs["sat"])
        seq_imp(inputs["imp"], inputs["phi"])
        setup_times.append(time.perf_counter() - started)

    calls = {
        "a": lambda: seq_sat(inputs["sat"]),
        "b": lambda: seq_imp(inputs["imp"], inputs["phi"]),
    }
    expected = {"a": inputs["sat_expected"], "b": inputs["imp_expected"]}
    counts = {}
    planted = [args.plant]

    def check(op, result):
        verdict = result.satisfiable if op == "a" else result.implied
        if planted[0]:
            planted[0] = False
            verdict = not verdict
        if verdict != expected[op]:
            return f"verdict {verdict}, generator expects {expected[op]}"
        work = (result.stats.matches, result.stats.match_ticks)
        if counts.setdefault(op, work) != work:
            return f"(matches, ticks) {work} differ from the first call's {counts[op]}"
        return None

    rss = rss_mb()
    samples, failures, kinds = closed_loop(calls, check, args.seconds, recorder)
    sat_size, imp_size = inputs["sizes"]
    result = pass_result(
        ops={"a": f"seq_sat |Σ|={sat_size}", "b": f"seq_imp |Σ|={imp_size}"},
        setup_s=setup_times,
        rss_mb=rss,
        extra={"peak_rss_mb": (peak_rss_mb(), "MB")},
        samples=samples,
        attempted=len(kinds),
        failures=failures,
    )
    if recorder is not None:
        tables = recorder.tables()
        result["layers"] = roll_up(tables, kinds)
        result["coverage"] = coverage(tables, kinds)
    return result
