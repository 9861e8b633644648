"""Benchmark: rule-set compilation (shared-prefix plan trie) vs per-rule.

Measures rule-set compilation on the Fig. 6(e)/(f) sigma sweeps: `seq_sat`
and `seq_imp`, which match all of Σ in one trie walk, against a per-rule
reference loop kept in this script (``per_rule_sat`` / ``per_rule_imp``):
one :class:`MatcherRun` per rule over the same canonical graph, with the
same simulation pruning, the same :class:`EnforcementEngine` and the same
rule order. Sweep points are *prefixes* of one rule set (see
``synthetic_sat_sweep``), so the growth-in-|Σ| comparison is honest.

Reported per sweep point:

* wall seconds for both sides (best of ``REPEATS`` runs) and their ratio;
* deterministic matcher tick counts for both sides — the
  machine-independent version of the same signal;
* verdict and match-count mismatches (must be 0 — the differential check
  rides along with the timing).

Plus trie sharing stats at the largest point: compiled plan steps summed
over rules vs trie nodes actually allocated (the prefix-sharing factor).

Numbers land in ``BENCH_ruleset.json``; ``--smoke`` runs |Σ| ∈ {8, 64}
for the CI regression gate (``tools/check_bench_regression.py``).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_ruleset.py [--smoke] [--output FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Tuple

from repro.bench.harness import synthetic_imp_sweep, synthetic_sat_sweep
from repro.eq.eqrelation import EqRelation
from repro.eq.inverted_index import InvertedIndex
from repro.gfd.canonical import build_canonical_graph, build_implication_canonical
from repro.gfd.gfd import gfds_by_name
from repro.matching.homomorphism import MatcherRun
from repro.matching.plan import get_plan
from repro.matching.ruleset import RuleSetPlan
from repro.matching.simulation import simulation_candidates
from repro.reasoning.enforce import EnforcementEngine, consequent_entailed
from repro.reasoning.seqimp import _subsumed_by_eqx, seq_imp
from repro.reasoning.seqsat import seq_sat
from repro.reasoning.workunits import gfd_dependency_order

FULL_SIZES = (50, 100, 200)
SMOKE_SIZES = (8, 64)

#: Wall timings take the best of this many runs — same-run ratios are
#: machine-portable, but a single sample can still catch a GC pause.
REPEATS = 2


def best_wall(fn, *args, **kwargs):
    """(result, best wall seconds) over ``REPEATS`` runs."""
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - started)
    return result, best


def per_rule_runs(sigma, graph):
    """One simulation-cut :class:`MatcherRun` per non-trivial rule of
    *sigma*, in order; a rule whose simulation is empty gets none."""
    for gfd in sigma:
        if gfd.is_trivial():
            continue
        candidate_sets = simulation_candidates(gfd.pattern, graph)
        if candidate_sets is not None:
            plan = get_plan(gfd.pattern, graph)
            yield gfd, MatcherRun(gfd.pattern, graph, candidate_sets=candidate_sets, plan=plan)


def per_rule_sat(sigma) -> Tuple[bool, int, int]:
    """SeqSat's chase rule by rule: (satisfiable, matches, ticks)."""
    canonical = build_canonical_graph(sigma)
    engine = EnforcementEngine(EqRelation(), canonical.gfds, InvertedIndex())
    matches = ticks = 0
    for gfd, run in per_rule_runs(gfd_dependency_order(sigma), canonical.graph):
        for assignment in run.matches():
            matches += 1
            engine.enforce(canonical.gfds[gfd.name], assignment)
            if engine.eq.has_conflict():
                return False, matches, ticks + run.ticks
        ticks += run.ticks
    return True, matches, ticks


def per_rule_imp(sigma, phi) -> Tuple[bool, int]:
    """SeqImp's chase rule by rule, in its order (rules decided by
    ``Eq_X`` first): (implied, ticks)."""
    canonical = build_implication_canonical(phi)
    eq = canonical.fresh_eq()
    identity = canonical.identity_match()
    if eq.has_conflict() or phi.is_trivial() or consequent_entailed(eq, phi, identity):
        return True, 0
    engine = EnforcementEngine(eq, gfds_by_name(sigma), InvertedIndex())
    ordered = sorted(
        gfd_dependency_order(sigma), key=lambda gfd: not _subsumed_by_eqx(gfd, canonical)
    )
    ticks = 0
    for gfd, run in per_rule_runs(ordered, canonical.graph):
        for assignment in run.matches():
            changed = engine.enforce(gfd, assignment)
            if eq.has_conflict() or (changed and consequent_entailed(eq, phi, identity)):
                return True, ticks + run.ticks
        ticks += run.ticks
    return False, ticks


def run_sat_sweep(sizes) -> Dict[str, object]:
    sweep = synthetic_sat_sweep(tuple(sizes), k=6, l=5)
    out: Dict[str, object] = {"sizes": {}}
    verdict_mismatches = match_mismatches = 0
    largest = max(sizes)
    for size in sizes:
        sigma = sweep[size].sigma
        (satisfiable, matches, ticks), per_rule_s = best_wall(per_rule_sat, sigma)
        trie, ruleset_s = best_wall(seq_sat, sigma)
        if satisfiable != trie.satisfiable:
            verdict_mismatches += 1
        if matches != trie.stats.matches:
            match_mismatches += 1
        point = {
            "per_rule_seconds": round(per_rule_s, 4),
            "ruleset_seconds": round(ruleset_s, 4),
            "speedup": round(per_rule_s / ruleset_s, 2),
            "per_rule_ticks": ticks,
            "ruleset_ticks": trie.stats.match_ticks,
            "matches": matches,
        }
        out["sizes"][str(size)] = point
        if size == largest:
            out["speedup_at_max"] = point["speedup"]
            out["per_rule_seconds_at_max"] = point["per_rule_seconds"]
            out["ruleset_seconds_at_max"] = point["ruleset_seconds"]
    out["verdict_mismatches"] = verdict_mismatches
    out["match_mismatches"] = match_mismatches
    return out


def run_imp_sweep(sizes) -> Dict[str, object]:
    sweep = synthetic_imp_sweep(tuple(sizes), k=6, l=5)
    out: Dict[str, object] = {"sizes": {}}
    verdict_mismatches = 0
    largest = max(sizes)
    for size in sizes:
        workload = sweep[size]
        (implied, ticks), per_rule_s = best_wall(per_rule_imp, workload.sigma, workload.phi)
        trie, ruleset_s = best_wall(seq_imp, workload.sigma, workload.phi)
        if implied != trie.implied:
            verdict_mismatches += 1
        point = {
            "per_rule_seconds": round(per_rule_s, 4),
            "ruleset_seconds": round(ruleset_s, 4),
            "speedup": round(per_rule_s / ruleset_s, 2),
            "per_rule_ticks": ticks,
            "ruleset_ticks": trie.stats.match_ticks,
        }
        out["sizes"][str(size)] = point
        if size == largest:
            out["speedup_at_max"] = point["speedup"]
            out["per_rule_seconds_at_max"] = point["per_rule_seconds"]
            out["ruleset_seconds_at_max"] = point["ruleset_seconds"]
    out["verdict_mismatches"] = verdict_mismatches
    return out


def trie_sharing_stats(size: int) -> Dict[str, object]:
    """How much of Σ's compiled step mass the trie deduplicates."""
    sigma = [
        gfd
        for gfd in synthetic_sat_sweep((size,), k=6, l=5)[size].sigma
        if not gfd.is_trivial()
    ]
    graph = build_canonical_graph(sigma).graph
    plan = RuleSetPlan(graph, sigma)
    plan_steps = sum(
        len(get_plan(gfd.pattern, graph).layout(()).steps) for gfd in sigma
    )
    trie_nodes = sum(1 for _ in plan.nodes())
    return {
        "rules": len(sigma),
        "plan_steps": plan_steps,
        "trie_nodes": trie_nodes,
        "sharing_factor": round(plan_steps / max(1, trie_nodes), 2),
    }


def run_suite(smoke: bool = False) -> Dict[str, object]:
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    return {
        "sizes": list(sizes),
        "sat": run_sat_sweep(sizes),
        "imp": run_imp_sweep(sizes),
        "trie": trie_sharing_stats(max(sizes)),
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", help="write results JSON to this file")
    parser.add_argument(
        "--smoke", action="store_true", help="run the reduced |Σ| sweep (CI smoke)"
    )
    args = parser.parse_args(argv)
    results = run_suite(smoke=args.smoke)
    payload = json.dumps(results, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(payload + "\n")
    print(payload)
    mismatches = (
        results["sat"]["verdict_mismatches"]
        + results["sat"]["match_mismatches"]
        + results["imp"]["verdict_mismatches"]
    )
    if mismatches:
        print(f"EQUIVALENCE FAILURE: {mismatches} mismatches", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
