"""TTL splitting of work units: the pivot survives, no match is lost.

Two contracts, each checked on both unit shapes (per-rule ``(Q[z], φ)``
units and grouped trie units):

* **a split unit knows its pivot** — every sub-unit is centred on the
  parent's pivot node, whatever the sort order of the variables or slots
  it binds, so its dQ-ball, fragment routing and locality key are the
  parent's. A sub-unit centred elsewhere searches the wrong ball, loses
  matches, and can make ParSat call an unsatisfiable Σ satisfiable;
* **splits never lose or invent a match** — running a unit and, in turn,
  every sub-unit its splits produce enumerates exactly the matches of the
  unsplit run: the pieces partition the search tree.
"""

from collections import Counter, deque

import pytest

from repro.eq.eqrelation import EqRelation
from repro.gfd import build_canonical_graph, parse_gfds
from repro.gfd.generator import delta_hub_workload, straggler_workload
from repro.graph.graph import PropertyGraph
from repro.matching.ruleset import PIVOT_SLOT
from repro.parallel import RuntimeConfig, par_sat
from repro.parallel.units import UnitContext, execute_unit
from repro.reasoning.enforce import EnforcementEngine
from repro.reasoning.seqsat import seq_sat
from repro.reasoning.workunits import (
    WorkUnit,
    generate_grouped_work_units,
    generate_pruned_work_units,
)

PATH_RULE = """
gfd path {
  p: P; q: Q; z: Z; r: R; s: S;
  p -[e]-> q; q -[e]-> z; z -[e]-> r; r -[e]-> s;
  then s.A = 1;
}
"""

STAR_RULE = """
gfd star {
  z: Z; t: T;
  p0: P; q0: Q; r0: R; s0: S;
  p1: P; q1: Q; r1: R; s1: S;
  p2: P; q2: Q; r2: R; s2: S;
  p3: P; q3: Q; r3: R; s3: S;
  p0 -[e]-> q0; q0 -[e]-> z; z -[e]-> r0; r0 -[e]-> s0;
  p1 -[e]-> q1; q1 -[e]-> z; z -[e]-> r1; r1 -[e]-> s1;
  p2 -[e]-> q2; q2 -[e]-> z; z -[e]-> r2; r2 -[e]-> s2;
  p3 -[e]-> q3; q3 -[e]-> z; z -[e]-> r3; r3 -[e]-> s3;
  s3 -[m]-> t;
  then s3.B = 1;
}
"""

CLASH_RULE = """
gfd clash {
  s: S;
  when s.B = 1;
  then s.A = 2;
}
"""

#: bench_parallel.py's smoke sizes (seeds included).
SMOKE_STRAGGLER = dict(
    num_anchor=2, num_seekers=3, num_background=20,
    anchor_size=10, seeker_length=5, seed=11,
)
SMOKE_HUB = dict(
    num_hubs=4, spokes_per_hub=10, num_writers=5, num_pairers=2,
    num_background=8, seed=7,
)


class RecordingEngine(EnforcementEngine):
    """Records every ``(rule, match)`` it is handed and enforces nothing,
    so ``Eq`` never changes and no conflict cuts a walk short."""

    def __init__(self, gfds):
        super().__init__(EqRelation(), gfds, capture_provenance=False)
        self.seen = []

    def enforce(self, gfd, assignment):
        self.seen.append((gfd.name, tuple(sorted(assignment.items()))))
        return False


def run_with_splits(units, context, ttl_ticks, max_split_units=16):
    """Execute *units* and every sub-unit their splits produce.

    Returns the multiset of ``(rule, match)`` pairs, the units executed,
    and the sub-units created."""
    engine = RecordingEngine(context.gfds)
    queue = deque(units)
    executed, sub_units = 0, []
    while queue:
        unit = queue.popleft()
        result = execute_unit(
            unit, context, engine, ttl_ticks=ttl_ticks, max_split_units=max_split_units
        )
        executed += 1
        sub_units.extend(result.splits)
        queue.extend(result.splits)
    return Counter(engine.seen), executed, sub_units


def hub_graph():
    """A ``Z`` hub ``z0`` with 4 ``Q`` in-neighbours (3 ``P`` each) and 4
    ``R`` out-neighbours (3 ``S`` each): 144 path matches through z0."""
    graph = PropertyGraph()
    graph.add_node("Z", node_id="z0")
    for i in range(4):
        graph.add_node("Q", node_id=f"q{i}")
        graph.add_edge(f"q{i}", "z0", "e")
        graph.add_node("R", node_id=f"r{i}")
        graph.add_edge("z0", f"r{i}", "e")
        for j in range(3):
            graph.add_node("P", node_id=f"p{i}{j}")
            graph.add_edge(f"p{i}{j}", f"q{i}", "e")
            graph.add_node("S", node_id=f"s{i}{j}")
            graph.add_edge(f"r{i}", f"s{i}{j}", "e")
    return graph


class TestSplitUnitsKeepTheirPivot:
    def test_split_sub_units_find_every_path_match(self):
        (path,) = parse_gfds(PATH_RULE)
        context = UnitContext(hub_graph(), {"path": path})
        unit = WorkUnit.make("path", {"z": "z0"}, radius=path.pattern.eccentricity("z"))
        seen, executed, sub_units = run_with_splits(
            [unit], context, ttl_ticks=3, max_split_units=2
        )
        assert sub_units, "the tiny TTL must split the unit"
        assert all(sub.pivot_var == "z" for sub in sub_units)
        assert {sub.pivot_node() for sub in sub_units} == {"z0"}
        assert sum(seen.values()) == 144
        unsplit, _, _ = run_with_splits([unit], context, ttl_ticks=None)
        assert seen == unsplit

    def test_grouped_sub_units_name_the_pivot_slot(self):
        (path,) = parse_gfds(PATH_RULE)
        context = UnitContext(hub_graph(), {"path": path})
        radius = path.pattern.eccentricity("z")
        unit = WorkUnit.make(
            "path", {PIVOT_SLOT: "z0"}, radius=radius, group=("path",)
        )
        # The trie's pivot is the rule's chosen pivot; pin it to z.
        context.pivot_overrides = {"path": "z"}
        seen, _, sub_units = run_with_splits([unit], context, ttl_ticks=3, max_split_units=2)
        assert sub_units
        # "@0" sorts before "@p", so the pivot cannot be "the first binding".
        assert all(sub.assignment[0][0] != PIVOT_SLOT for sub in sub_units)
        assert all(sub.pivot_var == PIVOT_SLOT for sub in sub_units)
        assert {sub.pivot_node() for sub in sub_units} == {"z0"}
        assert sum(seen.values()) == 144

    def test_ungrouped_split_uid_names_pivot(self):
        fresh = WorkUnit.make("path", {"z": "z0"}, radius=2)
        assert fresh.pivot_var == "z"
        split = WorkUnit.make("path", {"z": "z0", "q": "q0"}, radius=2, pivot_var="z")
        other = WorkUnit.make("path", {"z": "z0", "q": "q0"}, radius=2, pivot_var="q")
        assert split.pivot_node() == "z0" and other.pivot_node() == "q0"
        assert split.uid != other.uid

    @pytest.mark.parametrize("fragments", [None, 2])
    @pytest.mark.parametrize("backend", ["simulated", "process"])
    @pytest.mark.parametrize("grouped", [False, True])
    def test_unsatisfiable_sigma_stays_unsatisfiable_under_splits(
        self, backend, fragments, grouped
    ):
        sigma = parse_gfds(STAR_RULE + PATH_RULE + CLASH_RULE)
        assert not seq_sat(sigma).satisfiable
        config = RuntimeConfig(
            workers=2,
            ttl_seconds=0.003,
            fragments=fragments,
            use_ruleset_plan=grouped,
        )
        result = par_sat(sigma, config, backend=backend)
        assert result.outcome.splits > 0
        assert not result.satisfiable


def _suite_cell(kind):
    if kind == "hub":
        return delta_hub_workload(**SMOKE_HUB)
    if kind == "straggler":
        return straggler_workload(**SMOKE_STRAGGLER)
    return parse_gfds(STAR_RULE + PATH_RULE)


class TestSplitsNeverLoseOrInventMatches:
    @pytest.fixture(scope="class")
    def cells(self):
        """Per input: the context, both unit shapes, and the unsplit
        per-rule run's matches — the oracle every cell is held to."""
        built = {}
        for kind in ("hub", "straggler", "path-star"):
            sigma = _suite_cell(kind)
            canonical = build_canonical_graph(sigma)
            context = UnitContext(canonical.graph, canonical.gfds)
            shapes = {
                "per-rule": generate_pruned_work_units(sigma, canonical.graph),
                "grouped": generate_grouped_work_units(sigma, canonical.graph),
            }
            oracle, _, _ = run_with_splits(shapes["per-rule"], context, ttl_ticks=None)
            built[kind] = (context, shapes, oracle)
        return built

    @pytest.mark.parametrize("ttl_ticks", [3, 20, 200])
    @pytest.mark.parametrize("shape", ["per-rule", "grouped"])
    @pytest.mark.parametrize("kind", ["hub", "straggler", "path-star"])
    def test_split_runs_enumerate_the_unsplit_matches(self, cells, kind, shape, ttl_ticks):
        context, shapes, oracle = cells[kind]
        seen, executed, sub_units = run_with_splits(shapes[shape], context, ttl_ticks)
        if ttl_ticks == 3:
            assert sub_units, "the tightest TTL must split some unit"
        assert executed == len(shapes[shape]) + len(sub_units)
        assert seen == oracle

    @pytest.mark.parametrize("backend", ["simulated", "process"])
    @pytest.mark.parametrize("fragments", [2, 4])
    @pytest.mark.parametrize("kind,refs", [("straggler", 12004), ("hub", 1077)])
    def test_fragmented_split_runs_keep_the_evidence(self, kind, refs, fragments, backend):
        sigma = _suite_cell(kind)
        expected = set(seq_sat(sigma).results.evidence.refs())
        assert len(expected) == refs
        config = RuntimeConfig(workers=2, ttl_seconds=0.05, fragments=fragments)
        result = par_sat(sigma, config, backend=backend)
        if kind == "straggler":  # the hub's units finish inside the TTL
            assert result.outcome.splits > 0
        assert not result.outcome.quarantined
        assert set(result.results.evidence.refs()) == expected
