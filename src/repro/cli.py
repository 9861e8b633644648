"""Command-line interface for GFD reasoning.

Subcommands::

    gfd-reason parse  RULES            validate + pretty-print a rule file
    gfd-reason sat    RULES            satisfiability (exit 0 sat / 3 unsat)
    gfd-reason imp    RULES --phi NAME implication of one rule by the rest
    gfd-reason detect GRAPH RULES      violations of the rules in a graph
    gfd-reason explain RULES           derivation chain behind an unsat verdict
    gfd-reason cover  RULES [-o OUT]   implication-based minimal cover
    gfd-reason bench  [FIG ...]        regenerate paper tables/figures
    gfd-reason serve  [GRAPH]          long-lived validation service
                                       (concurrent sessions, ndjson/TCP)

``explain`` queries the layered result store post-run — evidence (which
match), derivation (which merge steps), claims (which rule, where) — with
zero re-matching. Without ``--graph`` it explains the conflict of an
unsatisfiable rule file; with ``--graph`` it explains each violation the
rules flag in the graph. ``--json`` dumps the full three-layer store
instead of the rendered chains.

Rule files use the text DSL (``.gfd``) or JSON (``.json``); graphs are the
JSON format of :mod:`repro.graph.io`. ``--parallel P`` switches ``sat`` and
``imp`` to the parallel algorithms with ``P`` workers; ``--backend``
selects the execution runtime (``simulated``, ``process``);
``--batch-size`` seeds the scheduler's per-worker batches and
``--no-affinity`` turns off pivot-affinity routing + adaptive batching
(the fixed-batch ablation). ``--max-unit-retries`` bounds how often the
supervision layer retries a unit that fails worker-side before
quarantining it, and ``--strict-faults`` turns supervision off entirely:
the first worker fault aborts the run with a typed error instead of being
retried, respawned, or degraded around. ``--fragments N`` edge-cuts the
canonical graph into N partitions with halo replication: fragment id
becomes the scheduler's locality key, and process workers hold per-
fragment replicas (cross-fragment pivots get shipped dQ-balls) instead
of whole-graph snapshots. Sequential ``sat``, ``imp``, ``detect`` and
``explain`` runs match all of Σ in one pass over a shared-prefix plan
trie, and parallel runs group their work units per pivot the same way;
``--ruleset-plan`` is still accepted, and changes nothing.

Exit codes: 0 success (satisfiable / implied / no violations), 2 usage or
input error, 3 negative verdict (unsatisfiable / not implied / violations
found) — so scripts can branch on the outcome.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .errors import ReproError
from .gfd.gfd import GFD
from .gfd.parser import dump_gfds, load_gfds, parse_gfds, render_gfds
from .graph.io import load_graph
from .parallel.backends import available_backends
from .parallel.config import RuntimeConfig
from .parallel.parimp import par_imp
from .parallel.parsat import par_sat
from .reasoning.cover import minimal_cover
from .reasoning.seqimp import seq_imp
from .reasoning.seqsat import seq_sat
from .reasoning.validation import detect_errors, detect_errors_store

#: Exit code for negative verdicts (vs 2 for usage/input errors).
EXIT_NEGATIVE = 3


def load_rules(path: str) -> List[GFD]:
    """Load a rule file; format chosen by extension (.json vs DSL text)."""
    file_path = Path(path)
    if not file_path.exists():
        raise ReproError(f"rule file not found: {path}")
    if file_path.suffix == ".json":
        return load_gfds(file_path)
    return parse_gfds(file_path.read_text(encoding="utf-8"))


def _pick_phi(sigma: List[GFD], name: Optional[str]) -> GFD:
    if name is None:
        return sigma[-1]
    for gfd in sigma:
        if gfd.name == name:
            return gfd
    raise ReproError(f"no GFD named {name!r} in the rule file")


def _runtime_config(args: argparse.Namespace) -> RuntimeConfig:
    """Build the parallel runtime config from the shared CLI knobs."""
    config = RuntimeConfig(
        workers=args.parallel,
        ttl_seconds=args.ttl,
        batch_size=args.batch_size,
        max_unit_retries=args.max_unit_retries,
        strict_faults=args.strict_faults,
        fragments=args.fragments,
    )
    if args.no_affinity:
        config = config.without_affinity()
    return config


def cmd_parse(args: argparse.Namespace) -> int:
    sigma = load_rules(args.rules)
    print(render_gfds(sigma))
    print(f"# {len(sigma)} GFD(s) parsed OK", file=sys.stderr)
    return 0


def cmd_sat(args: argparse.Namespace) -> int:
    sigma = load_rules(args.rules)
    if args.parallel:
        result = par_sat(
            sigma,
            _runtime_config(args),
            backend=args.backend,
        )
        verdict, conflict = result.satisfiable, result.conflict
        # Only the simulated backend runs the paper's virtual cost clock;
        # the real-concurrency backends report wall time.
        if args.backend == "simulated":
            clock = f"virtual_seconds={result.virtual_seconds:.3f}"
        else:
            clock = f"wall_seconds={result.wall_seconds:.3f}"
        print(f"units={result.outcome.units_executed} {clock}")
    else:
        result = seq_sat(sigma)
        verdict, conflict = result.satisfiable, result.conflict
        print(f"matches={result.stats.matches} wall_seconds={result.stats.wall_seconds:.3f}")
    if verdict:
        print("SATISFIABLE")
        return 0
    print(f"UNSATISFIABLE: {conflict}")
    if args.explain:
        from .reasoning.explain import explain_unsatisfiability, render_explanation

        sequential = result if not args.parallel else seq_sat(sigma)
        explanation = explain_unsatisfiability(sigma, sequential)
        if explanation is not None:
            print(render_explanation(explanation))
    return EXIT_NEGATIVE


def cmd_imp(args: argparse.Namespace) -> int:
    sigma = load_rules(args.rules)
    if len(sigma) < 2:
        raise ReproError("implication needs at least two GFDs in the rule file")
    phi = _pick_phi(sigma, args.phi)
    rest = [gfd for gfd in sigma if gfd.name != phi.name]
    if args.parallel:
        result = par_imp(
            rest,
            phi,
            _runtime_config(args),
            backend=args.backend,
        )
    else:
        result = seq_imp(rest, phi)
    if result.implied:
        print(f"IMPLIED ({result.reason}): Σ \\ {{{phi.name}}} |= {phi.name}")
        return 0
    print(f"NOT IMPLIED: {phi.name} adds constraints beyond the rest of Σ")
    return EXIT_NEGATIVE


def cmd_detect(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    sigma = load_rules(args.rules)
    violations = detect_errors(graph, sigma, limit_per_gfd=args.limit)
    for violation in violations:
        print(violation)
    print(f"# {len(violations)} violation(s) in {graph.num_nodes}-node graph", file=sys.stderr)
    return EXIT_NEGATIVE if violations else 0


def _render_evidence(ev) -> str:
    bound = ", ".join(f"{var}→{node}" for var, node in ev.assignment)
    where = f" [{ev.origin}]" if ev.origin else ""
    return f"evidence {ev.ref}: match of {ev.gfd} at [{bound}]{where}"


def cmd_explain(args: argparse.Namespace) -> int:
    sigma = load_rules(args.rules)
    if args.graph:
        graph = load_graph(args.graph)
        store = detect_errors_store(graph, sigma, limit_per_gfd=args.limit)
        if args.json:
            print(store.dumps())
            return EXIT_NEGATIVE if store.violations else 0
        if not store.violations:
            print("no violations: nothing to explain")
            return 0
        for violation in store.violations:
            explanation = store.explain_violation(violation)
            print(violation)
            for record in explanation.evidence:
                print(f"  {_render_evidence(record)}")
            for number, op in enumerate(explanation.steps, start=1):
                print(f"  {number}. {op}")
            print(f"  rules involved: {', '.join(explanation.gfds_involved)}")
        return EXIT_NEGATIVE
    result = seq_sat(sigma)
    store = result.results
    if args.json:
        print(store.dumps())
        return 0 if result.satisfiable else EXIT_NEGATIVE
    if result.satisfiable:
        print("SATISFIABLE: nothing to explain")
        return 0
    explanation = store.explain_conflict()
    print("unsatisfiable: derivation of the conflict")
    for record in explanation.evidence:
        print(f"  {_render_evidence(record)}")
    for number, op in enumerate(explanation.steps, start=1):
        print(f"  {number}. {op}")
    print(f"  ✗ clash: {store.conflict}")
    if explanation.gfds_involved:
        print(f"  rules involved: {', '.join(explanation.gfds_involved)}")
    return EXIT_NEGATIVE


def cmd_cover(args: argparse.Namespace) -> int:
    sigma = load_rules(args.rules)
    result = minimal_cover(sigma)
    for gfd in result.removed:
        print(f"removed {gfd.name} (implied by the rest)")
    print(
        f"# cover: {len(result.cover)}/{len(sigma)} kept "
        f"({result.reduction:.0%} reduction)",
        file=sys.stderr,
    )
    if args.output:
        dump_gfds(result.cover, args.output)
        print(f"# cover written to {args.output}", file=sys.stderr)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .graph.graph import PropertyGraph
    from .serve.server import ServerConfig, ValidationServer
    from .serve.session import SessionQuota

    graph = load_graph(args.graph) if args.graph else PropertyGraph()
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_inflight_queries=args.max_inflight,
        mutation_queue_depth=args.mutation_queue,
        query_threads=args.query_threads,
        quota=SessionQuota(
            max_inflight=args.session_inflight,
            max_requests=args.session_requests,
            max_mutation_ops=args.session_mutation_ops,
        ),
        parallel_workers=args.parallel or 0,
        trim_interval_batches=args.trim_interval,
    )
    server = ValidationServer(graph, config)

    async def _serve() -> None:
        host, port = await server.start()
        # Parsable by wrappers/scripts: the ephemeral-port announcement.
        print(f"serving on {host}:{port}", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.aclose()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted — server stopped", file=sys.stderr)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench.experiments import ALL_EXPERIMENTS

    requested = args.figures or list(ALL_EXPERIMENTS)
    unknown = [fig for fig in requested if fig not in ALL_EXPERIMENTS]
    if unknown:
        raise ReproError(f"unknown figure ids {unknown}; choose from {sorted(ALL_EXPERIMENTS)}")
    for figure in requested:
        print(ALL_EXPERIMENTS[figure]().render())
        print()
    return 0


def _add_scheduler_flags(parser: argparse.ArgumentParser) -> None:
    """Scheduler knobs shared by the ``sat`` and ``imp`` subcommands."""
    parser.add_argument(
        "--batch-size",
        type=int,
        default=RuntimeConfig.batch_size,
        metavar="N",
        help="initial units per coordinator round-trip (with --parallel)",
    )
    parser.add_argument(
        "--no-affinity",
        action="store_true",
        help="disable pivot-affinity routing and adaptive batching "
        "(the fixed-batch scheduler ablation)",
    )
    parser.add_argument(
        "--max-unit-retries",
        type=int,
        default=RuntimeConfig.max_unit_retries,
        metavar="N",
        help="retries before a unit that fails worker-side is quarantined "
        "(with --parallel)",
    )
    parser.add_argument(
        "--strict-faults",
        action="store_true",
        help="fail fast on the first worker fault instead of retrying, "
        "respawning, or degrading (with --parallel)",
    )
    parser.add_argument(
        "--fragments",
        type=int,
        default=None,
        metavar="N",
        help="edge-cut the graph into N fragments: fragment id becomes the "
        "scheduler locality key, and process workers receive per-fragment "
        "replicas plus on-demand dQ-balls instead of whole-graph snapshots "
        "(with --parallel)",
    )
    _add_ruleset_flag(parser)


def _add_ruleset_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ruleset-plan",
        action="store_true",
        help="no effect, kept so existing scripts still parse: every "
        "sequential run walks one shared-prefix plan trie over Σ, and "
        "sat --parallel groups its work units the same way",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfd-reason",
        description="Reasoning about graph functional dependencies (ICDE 2018).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="validate and pretty-print a rule file")
    p_parse.add_argument("rules")
    p_parse.set_defaults(func=cmd_parse)

    p_sat = sub.add_parser("sat", help="check satisfiability of a rule file")
    p_sat.add_argument("rules")
    p_sat.add_argument("--parallel", type=int, metavar="P", help="use ParSat with P workers")
    p_sat.add_argument(
        "--backend",
        choices=sorted(available_backends()),
        default="simulated",
        help="parallel execution backend (with --parallel)",
    )
    p_sat.add_argument("--ttl", type=float, default=2.0, help="straggler TTL (virtual s)")
    _add_scheduler_flags(p_sat)
    p_sat.add_argument(
        "--explain",
        action="store_true",
        help="on UNSATISFIABLE, print the derivation chain of the conflict",
    )
    p_sat.set_defaults(func=cmd_sat)

    p_imp = sub.add_parser("imp", help="check whether one rule is implied by the rest")
    p_imp.add_argument("rules")
    p_imp.add_argument("--phi", help="name of the candidate rule (default: last)")
    p_imp.add_argument("--parallel", type=int, metavar="P", help="use ParImp with P workers")
    p_imp.add_argument(
        "--backend",
        choices=sorted(available_backends()),
        default="simulated",
        help="parallel execution backend (with --parallel)",
    )
    p_imp.add_argument("--ttl", type=float, default=2.0)
    _add_scheduler_flags(p_imp)
    p_imp.set_defaults(func=cmd_imp)

    p_detect = sub.add_parser("detect", help="find rule violations in a graph")
    p_detect.add_argument("graph", help="graph JSON file")
    p_detect.add_argument("rules")
    p_detect.add_argument("--limit", type=int, default=None, help="max violations per rule")
    _add_ruleset_flag(p_detect)
    p_detect.set_defaults(func=cmd_detect)

    p_explain = sub.add_parser(
        "explain",
        help="explain an unsat verdict (or, with --graph, each violation) "
        "from the layered result store",
    )
    p_explain.add_argument("rules")
    p_explain.add_argument(
        "--graph",
        help="graph JSON file: explain the rules' violations in it instead "
        "of the rule set's own (un)satisfiability",
    )
    p_explain.add_argument("--limit", type=int, default=None, help="max violations per rule")
    p_explain.add_argument(
        "--json",
        action="store_true",
        help="dump the full evidence/derivation/claims store as JSON",
    )
    _add_ruleset_flag(p_explain)
    p_explain.set_defaults(func=cmd_explain)

    p_cover = sub.add_parser("cover", help="remove rules implied by the rest")
    p_cover.add_argument("rules")
    p_cover.add_argument("-o", "--output", help="write the cover as JSON")
    p_cover.set_defaults(func=cmd_cover)

    p_bench = sub.add_parser("bench", help="regenerate the paper's tables/figures")
    p_bench.add_argument("figures", nargs="*", help="figure ids (default: all)")
    p_bench.set_defaults(func=cmd_bench)

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived validation service (ndjson over TCP)",
    )
    p_serve.add_argument(
        "graph", nargs="?", help="initial data graph (JSON; default: empty)"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=0, help="bind port (0 picks an ephemeral one)"
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        metavar="N",
        help="admission control: queries in flight at once, across sessions",
    )
    p_serve.add_argument(
        "--mutation-queue",
        type=int,
        default=64,
        metavar="N",
        help="queued mutation batches before writers feel backpressure",
    )
    p_serve.add_argument(
        "--query-threads",
        type=int,
        default=8,
        metavar="N",
        help="threads executing pinned-snapshot queries",
    )
    p_serve.add_argument(
        "--session-inflight",
        type=int,
        default=4,
        metavar="N",
        help="per-session concurrent-query quota",
    )
    p_serve.add_argument(
        "--session-requests",
        type=int,
        default=None,
        metavar="N",
        help="per-session lifetime request budget (default: unlimited)",
    )
    p_serve.add_argument(
        "--session-mutation-ops",
        type=int,
        default=None,
        metavar="N",
        help="per-session lifetime mutation-op budget (default: unlimited)",
    )
    p_serve.add_argument(
        "--parallel",
        type=int,
        metavar="P",
        help="enable parallel sat/imp queries on a standing process pool "
        "of P workers",
    )
    p_serve.add_argument(
        "--trim-interval",
        type=int,
        default=32,
        metavar="N",
        help="applied batches between delta-history trims (clamped to "
        "pinned read views)",
    )
    p_serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
