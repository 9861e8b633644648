"""Candidate-pipeline bitset tests: representation equivalence end to end.

The ``use_bitsets`` contract: packed and set candidate paths produce
byte-identical match streams (and therefore identical reasoning verdicts
and cost counters) everywhere a candidate set flows — dual simulation,
``MatcherRun`` pools, ``UnitContext`` neighborhoods, and the rule-set
walk's simulation cuts and allowed sets that SeqSat/SeqImp, the
incremental checker and validation run on. Plus the PR's bugfix regressions:
``dual_simulation`` no longer freezes caller patterns, and its worklist
refinement can't silently regress to full per-variable rescans.
"""

import os
import subprocess
import sys

import random

import pytest

from repro.gfd.canonical import build_canonical_graph, build_implication_canonical
from repro.gfd.generator import add_random_conflicts, random_gfds
from repro.gfd.pattern import Pattern, make_pattern
from repro.graph.bitset import NodeBitset
from repro.graph.elements import WILDCARD
from repro.graph.graph import PropertyGraph
from repro.matching import CandidateSet, SimulationStats, simulation_candidates
from repro.matching.homomorphism import MatcherRun
from repro.matching.ruleset import RuleSetPlan, RuleSetRun
from repro.matching.simulation import SimulationStats as DirectStats
from repro.matching.simulation import dual_simulation
from repro.parallel import RuntimeConfig, par_sat
from repro.parallel.units import UnitContext, execute_unit
from repro.reasoning.enforce import EnforcementEngine
from repro.reasoning.seqsat import seq_sat
from repro.reasoning.validation import detect_errors, match_satisfies
from repro.reasoning.workunits import generate_pruned_work_units
from repro.results import Violation, evidence_ref


def cut_walk(sigma, graph, use_bitsets):
    """The sequential walk's simulation cut over *graph*, with the
    simulation sets in one representation: (stream, ticks, pruned)."""
    rules = [gfd for gfd in sigma if not gfd.is_trivial()]
    found = {
        gfd.name: dual_simulation(gfd.pattern, graph, use_bitsets=use_bitsets)
        for gfd in rules
    }
    sets = {name: members for name, members in found.items() if members is not None}
    run = RuleSetRun(
        RuleSetPlan(graph, [gfd for gfd in rules if gfd.name in sets]), candidate_sets=sets
    )
    return list(run.matches()), run.ticks, len(rules) - len(sets)


def random_instance(seed):
    rng = random.Random(seed)
    g = PropertyGraph()
    labels = ["a", "b", "c"]
    nodes = [g.add_node(rng.choice(labels)) for _ in range(rng.randint(1, 14))]
    for _ in range(rng.randint(0, 30)):
        g.add_edge(rng.choice(nodes), rng.choice(nodes), rng.choice(["e", "f", WILDCARD]))
    nv = rng.randint(1, 4)
    pattern = make_pattern(
        {f"v{i}": rng.choice(labels + [WILDCARD]) for i in range(nv)},
        [
            (f"v{rng.randrange(nv)}", f"v{rng.randrange(nv)}", rng.choice(["e", "f", WILDCARD]))
            for _ in range(rng.randint(0, 4))
        ],
    )
    return rng, g, nodes, pattern


class TestFrozenPatternBugfix:
    def test_dual_simulation_does_not_mutate_unfrozen_pattern(self, small_graph):
        pattern = Pattern()
        pattern.add_var("x", "a")
        pattern.add_var("y", "b")
        pattern.add_edge("x", "y", "knows")
        assert not pattern.frozen
        sim = dual_simulation(pattern, small_graph)
        # The caller's object is untouched and still mutable.
        assert not pattern.frozen
        pattern.add_var("z", "c")  # would raise PatternError if frozen
        frozen = make_pattern({"x": "a", "y": "b"}, [("x", "y", "knows")])
        reference = dual_simulation(frozen, small_graph)
        assert sim is not None and reference is not None
        assert {v: set(s) for v, s in sim.items()} == {
            v: set(s) for v, s in reference.items()
        }

    def test_empty_pattern_still_rejected(self, small_graph):
        from repro.errors import PatternError

        with pytest.raises(PatternError):
            dual_simulation(Pattern(), small_graph)


class TestWorklistTickRegression:
    def chain_workload(self, n=400, length=12):
        g = PropertyGraph()
        nodes = [g.add_node("a") for _ in range(n)]
        for i in range(n - 1):
            g.add_edge(nodes[i], nodes[i + 1], "e")
        pattern = make_pattern(
            {f"v{j}": "a" for j in range(length + 1)},
            [(f"v{j}", f"v{j + 1}", "e") for j in range(length)],
        )
        return g, pattern

    def test_constraint_targeted_worklist_check_budget(self):
        """Pin the (node, constraint) evaluation count on a cascade.

        The old fixpoint re-ran *every* edge of *every* survivor whenever
        any neighbor shrank; the constraint-targeted worklist re-runs only
        the affected edge. On this 400-node path / 13-variable chain the
        engine measures ~62k checks — a full-rescan regression at least
        doubles that, so the budget below catches it while leaving head
        room for benign drift.
        """
        g, pattern = self.chain_workload()
        counts = {}
        for use_bitsets in (True, False):
            stats = SimulationStats()
            sim = dual_simulation(pattern, g, use_bitsets=use_bitsets, stats=stats)
            assert sim is not None
            counts[use_bitsets] = stats.checks
            assert stats.checks < 100_000, stats
        # Both representations drive the identical refinement engine.
        assert counts[True] == counts[False]

    def test_edgeless_variables_never_enter_the_worklist(self, small_graph):
        stats = SimulationStats()
        sim = dual_simulation(make_pattern({"w": WILDCARD}), small_graph, stats=stats)
        assert stats.checks == 0 and stats.rounds == 0
        assert set(sim["w"]) == set(small_graph.nodes())


class TestRepresentationEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_simulation_sets_equal(self, seed):
        _, g, _, pattern = random_instance(seed)
        packed = dual_simulation(pattern, g, use_bitsets=True)
        plain = dual_simulation(pattern, g, use_bitsets=False)
        assert (packed is None) == (plain is None)
        if packed is not None:
            for var in pattern.variables:
                assert isinstance(packed[var], NodeBitset)
                assert isinstance(plain[var], set)
                assert packed[var].to_set() == plain[var]

    @pytest.mark.parametrize("seed", range(60))
    def test_match_streams_byte_identical(self, seed):
        rng, g, nodes, pattern = random_instance(seed)
        packed = dual_simulation(pattern, g, use_bitsets=True)
        plain = dual_simulation(pattern, g, use_bitsets=False)
        allowed = (
            set(rng.sample(nodes, k=rng.randint(0, len(nodes))))
            if rng.random() < 0.7
            else None
        )
        preassigned = (
            {pattern.variables[0]: rng.choice(nodes)} if rng.random() < 0.5 else None
        )
        index = g.index()
        stream_plain = [
            sorted(m.items())
            for m in MatcherRun(
                pattern, g, preassigned=preassigned, allowed_nodes=allowed,
                candidate_sets=plain,
            ).matches()
        ]
        stream_packed = [
            sorted(m.items())
            for m in MatcherRun(
                pattern, g, preassigned=preassigned,
                allowed_nodes=index.bitset(allowed) if allowed is not None else None,
                candidate_sets=packed,
            ).matches()
        ]
        assert stream_plain == stream_packed

    @pytest.mark.parametrize("seed", range(6))
    def test_seqsat_and_seqimp_ablation_equivalence(self, seed):
        """SeqSat's and SeqImp's walks cut their pools by simulation sets;
        packed and plain sets give one stream, tick count and pruned
        count, on ``GΣ`` and on ``G^X_Q``."""
        sigma = random_gfds(10, 4, 3, seed=seed)
        canonical = build_canonical_graph(sigma).graph
        packed = cut_walk(sigma, canonical, use_bitsets=True)
        assert packed == cut_walk(sigma, canonical, use_bitsets=False)
        assert seq_sat(sigma).stats.pruned_by_simulation == packed[2]
        implication = build_implication_canonical(sigma[-1]).graph
        assert cut_walk(sigma[:-1], implication, use_bitsets=True) == cut_walk(
            sigma[:-1], implication, use_bitsets=False
        )

    def test_seqsat_conflicting_instances_equivalent(self):
        sigma = add_random_conflicts(random_gfds(8, 4, 3, seed=321), 3, seed=5)
        graph = build_canonical_graph(sigma).graph
        assert cut_walk(sigma, graph, use_bitsets=True) == cut_walk(
            sigma, graph, use_bitsets=False
        )

    def test_incremental_ablation_equivalence(self):
        """An incremental step walks the existing rules inside the new
        component, given as a packed allowed set; a plain set gives the
        same stream and tick count."""
        sigma = [gfd for gfd in random_gfds(10, 4, 3, seed=77) if not gfd.is_trivial()]
        canonical = build_canonical_graph(sigma)
        graph = canonical.graph
        plan = RuleSetPlan(graph, sigma)
        for gfd in sigma:
            component = set(canonical.embeddings[gfd.name].values())
            packed = plan.run(allowed_nodes=graph.index().bitset(component))
            plain = plan.run(allowed_nodes=component)
            assert list(packed.matches()) == list(plain.matches())
            assert packed.ticks == plain.ticks

    def test_validation_ablation_equivalence(self):
        """Detection (one walk, packed simulation cut) returns what the
        per-rule loop over set-filtered :class:`MatcherRun` streams finds."""
        sigma = random_gfds(8, 4, 3, seed=11)
        graph = build_canonical_graph(sigma).graph
        plain = []
        for gfd in sigma:
            if gfd.is_trivial():
                continue
            sets = dual_simulation(gfd.pattern, graph, use_bitsets=False)
            if sets is None:
                continue
            for match in MatcherRun(gfd.pattern, graph, candidate_sets=sets).matches():
                if match_satisfies(graph, gfd.antecedent, match) and not match_satisfies(
                    graph, gfd.consequent, match
                ):
                    plain.append(Violation(gfd.name, match, evidence_ref(gfd.name, match)))
        assert detect_errors(graph, sigma) == plain

    def test_par_sat_bitset_knob_equivalence(self):
        sigma = random_gfds(9, 4, 3, seed=13)
        expected = seq_sat(sigma).satisfiable
        for use_bitsets in (True, False):
            result = par_sat(
                sigma,
                RuntimeConfig(workers=2, use_bitsets=use_bitsets),
                backend="simulated",
            )
            assert result.satisfiable == expected


class TestUnitContextBitsets:
    def make_context(self, seed, use_bitsets):
        sigma = random_gfds(8, 4, 3, seed=seed)
        canonical = build_canonical_graph(sigma)
        units = generate_pruned_work_units(sigma, canonical.graph, use_bitsets=use_bitsets)
        context = UnitContext(canonical.graph, canonical.gfds, use_bitsets=use_bitsets)
        return canonical, units, context

    def test_allowed_nodes_and_candidates_are_bitsets(self):
        canonical, units, context = self.make_context(3, use_bitsets=True)
        unit = next(u for u in units if u.radius is not None)
        allowed = context.allowed_nodes(unit.pivot_node(), unit.radius)
        assert isinstance(allowed, NodeBitset)
        # Equal-radius requests share the materialized object.
        assert context.allowed_nodes(unit.pivot_node(), unit.radius) is allowed
        gfd = canonical.gfds[unit.gfd_name]
        candidates = context.candidate_sets(gfd)
        assert candidates is not None
        assert all(
            isinstance(c, (NodeBitset, set)) for c in candidates.values()
        )

    def test_execute_unit_equivalence(self):
        results = {}
        for use_bitsets in (True, False):
            canonical, units, context = self.make_context(4, use_bitsets=use_bitsets)
            from repro.eq.eqrelation import EqRelation

            engine = EnforcementEngine(EqRelation(), canonical.gfds)
            outcome = [
                (r.matches, r.match_ticks, r.conflict)
                for r in (execute_unit(u, context, engine) for u in units)
            ]
            results[use_bitsets] = outcome
        assert results[True] == results[False]

    def test_pickled_context_drops_bitset_caches_and_recovers(self):
        import pickle

        canonical, units, context = self.make_context(5, use_bitsets=True)
        unit = next(u for u in units if u.radius is not None)
        before = context.allowed_nodes(unit.pivot_node(), unit.radius)
        clone = pickle.loads(pickle.dumps(context))
        after = clone.allowed_nodes(unit.pivot_node(), unit.radius)
        assert isinstance(after, NodeBitset)
        assert after.to_set() == before.to_set()


class TestEntryPointWiring:
    def test_simulation_candidates_is_the_prefilter(self, small_graph):
        pattern = make_pattern({"x": "a", "y": "b"}, [("x", "y", "knows")])
        stats = SimulationStats()
        via_entry = simulation_candidates(pattern, small_graph, stats=stats)
        direct = dual_simulation(pattern, small_graph)
        assert via_entry is not None and direct is not None
        assert {v: set(s) for v, s in via_entry.items()} == {
            v: set(s) for v, s in direct.items()
        }
        assert stats.checks > 0
        assert isinstance(stats, DirectStats)

    def test_matching_package_exports(self):
        import repro.matching as matching

        for name in ("simulation_candidates", "SimulationStats", "CandidateSet"):
            assert name in matching.__all__
            assert hasattr(matching, name)
        assert CandidateSet is not None


class TestHashSeedDeterminismWithBitsets:
    SCRIPT = """
import random
from repro import PropertyGraph
from repro.gfd.pattern import make_pattern
from repro.matching.homomorphism import MatcherRun
from repro.matching.simulation import dual_simulation

rng = random.Random(5)
graph = PropertyGraph()
names = [f"node-{i}" for i in range(40)]
rng.shuffle(names)
for name in names:
    graph.add_node(rng.choice(["a", "b"]), node_id=name)
for _ in range(140):
    graph.add_edge(rng.choice(names), rng.choice(names), rng.choice(["e", "f"]))

pattern = make_pattern({"x": "_", "y": "a"}, [("x", "y", "e")])
index = graph.index()
# Hash-order-scrambled allowed set packed into a bitset + packed simulation
# candidates: iteration must stay graph insertion order under any seed.
allowed = set()
for name in sorted(names, key=lambda n: hash(n)):
    allowed.add(name)
candidates = dual_simulation(pattern, graph, use_bitsets=True)
run = MatcherRun(
    pattern, graph,
    allowed_nodes=index.bitset(allowed),
    candidate_sets=candidates,
)
for match in run.matches():
    print(sorted(match.items()))
"""

    def _stream(self, hashseed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(hashseed)
        src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return result.stdout

    def test_bitset_match_stream_independent_of_hash_seed(self):
        streams = {self._stream(seed) for seed in (0, 1, 4242)}
        assert len(streams) == 1
        assert streams.pop().strip()
