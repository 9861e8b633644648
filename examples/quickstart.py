#!/usr/bin/env python3
"""Quickstart: define GFDs, check satisfiability and implication.

Reproduces the paper's running examples:

* Example 2 — two GFDs that are individually satisfiable but conflict when
  put together (``ϕ5``/``ϕ6`` and ``ϕ7``/``ϕ8``);
* Example 8 — an implication ``Σ |= ϕ13`` that holds only because two GFDs
  interact, and ``Σ |= ϕ14`` that holds because the antecedent is
  inconsistent with Σ.

It also peeks under the hood of the matching hot path: every graph compiles
a read-only ``GraphIndex`` (label-grouped adjacency) on demand, and every
pattern compiles a reusable ``MatchPlan`` against it, shared by all the
pivoted matcher runs the reasoning algorithms spawn.

Run:  python examples/quickstart.py
"""

from repro import parse_gfds, seq_sat, seq_imp, extract_model, is_model_of
from repro.gfd.pattern import make_pattern
from repro.graph.graph import PropertyGraph
from repro.matching.homomorphism import MatcherRun
from repro.matching.plan import get_plan


def satisfiability_demo() -> None:
    print("=== Satisfiability (paper Example 2) ===")
    # Two GFDs over the same single-wildcard-node pattern requiring A=0 and
    # A=1 simultaneously: no graph can satisfy both.
    sigma = parse_gfds(
        """
        gfd phi5 { x: _; then x.A = 0; }
        gfd phi6 { x: _; then x.A = 1; }
        """
    )
    result = seq_sat(sigma)
    print(f"{{phi5, phi6}} satisfiable? {result.satisfiable}")
    print(f"  conflict witness: {result.conflict}")

    # GFDs with *different* patterns can still interact through shared
    # labels (Q6/Q7 of the paper).
    sigma2 = parse_gfds(
        """
        gfd phi7 {
            x: a; y: b; z: b; w: c;
            x -[p]-> y; x -[p]-> z; x -[p]-> w;
            then x.A = 0, y.B = 1;
        }
        gfd phi8 {
            x: a; y: b; z: c; w: c;
            x -[p]-> y; x -[p]-> z; x -[p]-> w;
            when y.B = 1;
            then x.A = 1;
        }
        """
    )
    print(f"phi7 alone satisfiable? {seq_sat([sigma2[0]]).satisfiable}")
    print(f"phi8 alone satisfiable? {seq_sat([sigma2[1]]).satisfiable}")
    print(f"{{phi7, phi8}} satisfiable? {seq_sat(sigma2).satisfiable}")

    # For a satisfiable set we can materialize an actual model (Theorem 1's
    # bounded population of the canonical graph) and verify it.
    single = seq_sat([sigma2[0]])
    model = extract_model(single)
    print(f"extracted model: {model} — is a model of phi7? {is_model_of(model, [sigma2[0]])}")


def implication_demo() -> None:
    print("\n=== Implication (paper Example 8) ===")
    sigma = parse_gfds(
        """
        gfd phi11 { x: a; y: b; x -[p]-> y; then x.A = 1; }
        gfd phi12 { x: a; y: c; x -[p]-> y; when x.A = 1, y.B = 2; then y.C = 2; }
        """
    )
    phi13 = parse_gfds(
        """
        gfd phi13 {
            x: a; y: b; z: c; w: c;
            x -[p]-> y; x -[p]-> z; x -[p]-> w;
            when z.B = 2;
            then z.C = 2;
        }
        """
    )[0]
    result = seq_imp(sigma, phi13)
    print(f"Sigma |= phi13? {result.implied} (reason: {result.reason})")
    print(f"  phi11 alone: {seq_imp([sigma[0]], phi13).implied}")
    print(f"  phi12 alone: {seq_imp([sigma[1]], phi13).implied}")

    phi14 = parse_gfds(
        """
        gfd phi14 {
            x: a; y: b; z: c; w: c;
            x -[p]-> y; x -[p]-> z; x -[p]-> w;
            when x.A = 0;
            then z.C = 2;
        }
        """
    )[0]
    result14 = seq_imp(sigma, phi14)
    print(f"Sigma |= phi14? {result14.implied} (reason: {result14.reason})")
    print(f"  conflict witness: {result14.conflict}")


def matching_internals_demo() -> None:
    print("\n=== Under the hood: GraphIndex + MatchPlan ===")
    graph = PropertyGraph()
    people = [graph.add_node("person") for _ in range(4)]
    city = graph.add_node("city")
    for i, person in enumerate(people):
        graph.add_edge(person, people[(i + 1) % len(people)], "knows")
        graph.add_edge(person, city, "lives_in")

    # The compiled index is built lazily and then *maintained*: topology
    # mutations are journaled and absorbed in place on the next index()
    # call (O(|delta|)), so this object — and the plans cached on it —
    # survives graph growth.
    index = graph.index()
    print(f"compiled index: {index}")
    lives = index.label_id("lives_in")
    print(f"in-neighbors of the city via 'lives_in': {index.in_neighbors(city, lives)}")

    # One plan per (pattern, index); every pivoted run reuses it.
    pattern = make_pattern(
        {"x": "person", "y": "person", "z": "city"},
        [("x", "y", "knows"), ("y", "z", "lives_in")],
    )
    plan = get_plan(pattern, graph)
    total = 0
    for pivot in index.nodes_with_label("person"):
        run = MatcherRun(pattern, graph, preassigned={"x": pivot}, plan=plan)
        total += sum(1 for _ in run.matches())
    print(f"pivoted fan-out over one shared plan found {total} matches")


def backend_selection_demo() -> None:
    print("\n=== Execution backends: simulated / process ===")
    from repro.gfd.generator import random_gfds
    from repro.parallel import RuntimeConfig, available_backends, par_sat

    sigma = random_gfds(20, 4, 3, seed=3)
    config = RuntimeConfig(workers=4)
    print(f"available backends: {', '.join(available_backends())}")
    for backend in available_backends():
        result = par_sat(sigma, config, backend=backend)
        # The simulated backend reports deterministic *virtual* seconds
        # (the paper's cost model); the process backend reports wall time.
        clock = (
            f"virtual {result.virtual_seconds:.3f}s"
            if backend == "simulated"
            else f"wall {result.wall_seconds:.3f}s"
        )
        print(
            f"  {backend:<9} satisfiable={result.satisfiable} "
            f"units={result.outcome.units_executed} ({clock})"
        )
    # The process backend forks workers against the prebuilt GraphIndex
    # and merges their ΔEq deltas — use it to put real cores on big Σ:
    #   par_sat(sigma, RuntimeConfig(workers=8), backend="process")
    #   par_imp(sigma, phi, RuntimeConfig(workers=8), backend="process")
    # or from the CLI:  gfd-reason sat rules.gfd --parallel 8 --backend process


def scheduler_demo() -> None:
    print("\n=== Scheduling: pivot affinity + adaptive ΔEq batching ===")
    from repro.gfd.generator import delta_hub_workload
    from repro.parallel import RuntimeConfig, par_sat

    # Delta-heavy, hub-skewed: every spoke's match re-derives hub-level
    # ΔEq facts, so broadcast volume — not matching — dominates.
    sigma = delta_hub_workload(
        num_hubs=3, spokes_per_hub=8, num_writers=4, num_pairers=2,
        num_background=6,
    )
    config = RuntimeConfig(workers=3)
    for label, cfg in (("scheduler", config), ("ablation ", config.without_affinity())):
        outcome = par_sat(sigma, cfg, backend="process").outcome
        print(
            f"  {label}: sync_rounds={outcome.sync_rounds} "
            f"broadcast_volume={outcome.broadcast_volume} "
            f"affinity_hits={outcome.affinity_hits} "
            f"final_batches={outcome.batch_sizes}"
        )
    # Units sharing a pivot neighborhood stick to one worker replica
    # (warm caches, duplicate-ΔEq absorption); batch sizes adapt per
    # worker to observed round-trip cost vs ΔEq payload. The ablation
    # (RuntimeConfig.without_affinity(), or --no-affinity on the CLI)
    # is PR-2's fixed-batch FIFO dispatch.


def main() -> None:
    satisfiability_demo()
    implication_demo()
    matching_internals_demo()
    backend_selection_demo()
    scheduler_demo()
    print("\nQuickstart complete.")


if __name__ == "__main__":
    main()
