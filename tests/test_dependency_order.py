"""Differential and cost tests for the GFD and work-unit dependency graphs.

The reference below is the all-pairs construction that the attribute
index in ``repro.reasoning.workunits`` replaced: every producer tests every
other rule (or every unit at every reachable pivot) for a shared attribute
name. It is kept here as a test oracle only. Both constructions must yield
equal edge dicts, and therefore equal ``gfd_dependency_order`` /
``order_units`` lists, on the Fig. 6(e)/(f) sweeps, the benchmark-sized
delta-hub and straggler rule sets under every unit generator, and random
small rule sets.
"""

import pickle
import random
from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import synthetic_imp_sweep, synthetic_sat_sweep
from repro.gfd import build_canonical_graph, build_implication_canonical, make_gfd, make_pattern
from repro.gfd import gfd as gfd_module
from repro.gfd.generator import delta_hub_workload, straggler_workload
from repro.gfd.literals import eq, vareq
from repro.graph.neighborhood import bfs_hops
from repro.reasoning import workunits
from repro.reasoning.seqimp import _subsumed_by_eqx
from repro.reasoning.workunits import (
    WorkUnit,
    generate_grouped_work_units,
    generate_pruned_work_units,
    generate_work_units,
    gfd_dependency_edges,
    gfd_dependency_order,
    order_units,
    unit_dependency_edges,
)


# ----------------------------------------------------------------------
# The all-pairs reference
# ----------------------------------------------------------------------
def reference_gfd_edges(sigma):
    edges = {gfd.name: set() for gfd in sigma}
    for producer in sigma:
        if not producer.consequent_attributes():
            continue
        for consumer in sigma:
            if consumer.name == producer.name:
                continue
            if producer.consequent_attributes() & consumer.antecedent_attributes():
                edges[producer.name].add(consumer.name)
    return edges


def reference_unit_edges(units, sigma_by_name, graph):
    edges = defaultdict(set)
    by_pivot = defaultdict(list)
    for index, unit in enumerate(units):
        pivot = unit.pivot_node()
        if pivot is not None:
            by_pivot[pivot].append(index)

    def produced_attrs(unit):
        attrs = set()
        for name in unit.gfd_names:
            attrs |= sigma_by_name[name].consequent_attributes()
        return attrs

    def consumed_attrs(unit):
        attrs = set()
        for name in unit.gfd_names:
            attrs |= sigma_by_name[name].antecedent_attributes()
        return attrs

    for index, unit in enumerate(units):
        produced = produced_attrs(unit)
        pivot = unit.pivot_node()
        if not produced or pivot is None:
            continue
        radius = unit.radius if unit.radius is not None else graph.num_nodes
        reachable = bfs_hops(graph, pivot, max_hops=radius)
        for other_pivot, other_indices in by_pivot.items():
            if other_pivot not in reachable:
                continue
            for other_index in other_indices:
                if other_index != index and produced & consumed_attrs(units[other_index]):
                    edges[index].add(other_index)
    return dict(edges)


def reference_gfd_order(sigma):
    by_name = {gfd.name: gfd for gfd in sigma}
    names = workunits._topological_order(
        list(by_name),
        reference_gfd_edges(sigma),
        priority=lambda name: (not by_name[name].has_empty_antecedent(), name),
    )
    return [by_name[name] for name in names]


def reference_unit_order(units, sigma_by_name, graph, high_priority=None):
    if high_priority is None:
        high_priority = lambda unit: any(
            sigma_by_name[name].has_empty_antecedent() for name in unit.gfd_names
        )
    edges = reference_unit_edges(units, sigma_by_name, graph)
    indices = list(range(len(units)))
    order = workunits._topological_order(
        indices,
        {i: set(edges.get(i, ())) for i in indices},
        priority=lambda i: (not high_priority(units[i]), units[i].gfd_name, str(units[i].assignment)),
    )
    return [units[i] for i in order]


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def assert_gfd_level_matches(sigma):
    assert gfd_dependency_edges(sigma) == reference_gfd_edges(sigma)
    assert [g.name for g in gfd_dependency_order(sigma)] == [
        g.name for g in reference_gfd_order(sigma)
    ]


def assert_unit_level_matches(units, sigma_by_name, graph, high_priority=None):
    edges = unit_dependency_edges(units, sigma_by_name, graph)
    assert edges == reference_unit_edges(units, sigma_by_name, graph)
    assert order_units(units, sigma_by_name, graph, high_priority) == reference_unit_order(
        units, sigma_by_name, graph, high_priority
    )
    return edges


def unit_sets(sigma, graph):
    """Every unit generator's output on *graph*: fresh, pruned, grouped."""
    return {
        "fresh": generate_work_units(sigma, graph),
        "pruned": generate_pruned_work_units(sigma, graph),
        "unpruned": generate_pruned_work_units(sigma, graph, use_simulation=False),
        "grouped": generate_grouped_work_units(sigma, graph),
    }


def subsumed_priority(sigma, canonical):
    """ParImp's high-priority test: some member's antecedent is decided by Eq_X."""
    subsumed = {gfd.name for gfd in sigma if _subsumed_by_eqx(gfd, canonical)}
    return lambda unit: any(name in subsumed for name in unit.gfd_names)


def renamed(sigma, seed, prefix):
    """*sigma* reordered and renamed by *seed*, as the benchmark suite does."""
    rng = random.Random(seed)
    order = list(sigma)
    rng.shuffle(order)
    numbers = list(range(len(order)))
    rng.shuffle(numbers)
    return [replace(gfd, name=f"{prefix}{n:03d}") for gfd, n in zip(order, numbers)]


#: Benchmark-suite input sizes (``benchmarks/suite/wl_parallel.py``).
HUB = dict(num_hubs=6, spokes_per_hub=16, num_writers=8, num_pairers=3, num_background=12, seed=42)
STRAGGLER = dict(num_anchor=2, num_seekers=2, num_background=20, anchor_size=10, seeker_length=6, seed=42)


# ----------------------------------------------------------------------
# Differential tests
# ----------------------------------------------------------------------
class TestSweeps:
    """Fig. 6(e)/(f) prefix sweeps."""

    def test_sat_sweep_gfd_level(self):
        for point in synthetic_sat_sweep((10, 50, 100, 200), k=6, l=5, seed=42).values():
            assert_gfd_level_matches(point.sigma)
            assert_gfd_level_matches(renamed(point.sigma, 7, "s"))

    def test_imp_sweep_gfd_level(self):
        for point in synthetic_imp_sweep((5, 10, 25), k=6, l=5, seed=42).values():
            assert_gfd_level_matches(point.sigma)

    def test_sat_sweep_unit_level(self):
        found = 0
        for point in synthetic_sat_sweep((10, 40), k=6, l=5, seed=42).values():
            canonical = build_canonical_graph(point.sigma)
            for units in unit_sets(point.sigma, canonical.graph).values():
                edges = assert_unit_level_matches(units, canonical.gfds, canonical.graph)
                found += sum(map(len, edges.values()))
        # Not a vacuous comparison: the 40-rule point has unit edges under
        # every generator.
        assert found > 200

    def test_imp_sweep_unit_level_with_parimp_priority(self):
        for point in synthetic_imp_sweep((5, 10, 25), k=6, l=5, seed=42).values():
            canonical = build_implication_canonical(point.phi)
            by_name = {gfd.name: gfd for gfd in point.sigma}
            priority = subsumed_priority(point.sigma, canonical)
            for units in unit_sets(point.sigma, canonical.graph).values():
                assert_unit_level_matches(units, by_name, canonical.graph)
                assert_unit_level_matches(units, by_name, canonical.graph, priority)


class TestSuiteWorkloads:
    """The benchmark's delta-hub and straggler rule sets at suite size."""

    @pytest.mark.parametrize("build, options", [
        (delta_hub_workload, HUB),
        (straggler_workload, STRAGGLER),
    ], ids=["delta_hub", "straggler"])
    def test_sat_units(self, build, options):
        sigma = renamed(build(**options), 7, "w")
        assert_gfd_level_matches(sigma)
        canonical = build_canonical_graph(sigma)
        for units in unit_sets(sigma, canonical.graph).values():
            assert_unit_level_matches(units, canonical.gfds, canonical.graph)

    @pytest.mark.parametrize("build, options", [
        (delta_hub_workload, HUB),
        (straggler_workload, STRAGGLER),
    ], ids=["delta_hub", "straggler"])
    def test_imp_units_with_subsumed_priority(self, build, options):
        sigma = build(**options)
        by_name = {gfd.name: gfd for gfd in sigma}
        for phi in (sigma[0], sigma[len(sigma) // 2], sigma[-1]):
            canonical = build_implication_canonical(phi)
            priority = subsumed_priority(sigma, canonical)
            for units in unit_sets(sigma, canonical.graph).values():
                assert_unit_level_matches(units, by_name, canonical.graph, priority)


ATTRS = ("A", "B", "C")
VARS = ("x", "y", "z")


@st.composite
def small_rule_sets(draw):
    """A few rules over two labels, the wildcard and three attribute names,
    so attribute names overlap across rules and many rules share pivot
    candidates."""
    sigma = []
    for number in range(draw(st.integers(1, 6))):
        size = draw(st.integers(1, 3))
        variables = VARS[:size]
        nodes = {var: draw(st.sampled_from(("a", "b", "_"))) for var in variables}
        edges = draw(
            st.lists(
                st.tuples(st.sampled_from(variables), st.sampled_from(variables), st.sampled_from(("e", "f"))),
                max_size=3,
                unique=True,
            )
        )
        literal = st.one_of(
            st.builds(eq, st.sampled_from(variables), st.sampled_from(ATTRS), st.integers(0, 1)),
            st.builds(
                vareq,
                st.sampled_from(variables),
                st.sampled_from(ATTRS),
                st.sampled_from(variables),
                st.sampled_from(ATTRS),
            ),
        )
        antecedent = draw(st.lists(literal, max_size=2))
        consequent = draw(st.lists(literal, max_size=2))
        sigma.append(make_gfd(make_pattern(nodes, edges), antecedent, consequent, name=f"r{number}"))
    return sigma


class TestRandomRuleSets:
    @settings(max_examples=60, deadline=None)
    @given(small_rule_sets())
    def test_sat_canonical_graph(self, sigma):
        assert_gfd_level_matches(sigma)
        canonical = build_canonical_graph(sigma)
        for units in unit_sets(sigma, canonical.graph).values():
            assert_unit_level_matches(units, canonical.gfds, canonical.graph)

    @settings(max_examples=60, deadline=None)
    @given(small_rule_sets(), st.data())
    def test_implication_canonical_graph(self, sigma, data):
        """Every rule pivots inside one small G^X_Q: pivots are shared."""
        phi = data.draw(st.sampled_from(sigma))
        canonical = build_implication_canonical(phi)
        by_name = {gfd.name: gfd for gfd in sigma}
        priority = subsumed_priority(sigma, canonical)
        for units in unit_sets(sigma, canonical.graph).values():
            assert_unit_level_matches(units, by_name, canonical.graph)
            assert_unit_level_matches(units, by_name, canonical.graph, priority)


class TestUnitEdgeShape:
    def test_pivotless_and_duplicate_units(self):
        """Units without a pivot take no part; repeated units feed each
        other but never themselves."""
        sigma = [
            make_gfd(make_pattern({"x": "a"}), [], [eq("x", "A", 1)], name="w"),
            make_gfd(make_pattern({"x": "a"}), [eq("x", "A", 1)], [eq("x", "B", 1)], name="r"),
        ]
        canonical = build_canonical_graph(sigma)
        units = generate_work_units(sigma, canonical.graph)
        units = units + units + [WorkUnit.make("w", {}), WorkUnit.make("r", {})]
        edges = assert_unit_level_matches(units, canonical.gfds, canonical.graph)
        assert all(source not in targets for source, targets in edges.items())
        assert len(units) - 2 not in edges and len(units) - 1 not in edges


# ----------------------------------------------------------------------
# Cost guard: attribute sets are built per rule, not per pair or unit
# ----------------------------------------------------------------------
@pytest.fixture
def attribute_set_builds(monkeypatch):
    calls = []
    original = gfd_module.literal_attribute_names

    def counting(literals):
        calls.append(1)
        return original(literals)

    monkeypatch.setattr(gfd_module, "literal_attribute_names", counting)
    return calls


class TestAttributeSetBuilds:
    def test_gfd_order_builds_each_rule_once(self, attribute_set_builds):
        sigma = synthetic_sat_sweep((200,), k=6, l=5, seed=42)[200].sigma
        gfd_dependency_order(sigma)
        assert len(attribute_set_builds) <= 2 * len(sigma)

    def test_unit_order_is_independent_of_unit_count(self, attribute_set_builds):
        sigma = delta_hub_workload(**HUB)
        canonical = build_canonical_graph(sigma)
        unit_counts = []
        for units in unit_sets(sigma, canonical.graph).values():
            attribute_set_builds.clear()
            order_units(units, canonical.gfds, canonical.graph)
            assert len(attribute_set_builds) <= 2 * len(sigma)
            unit_counts.append(len(units))
        assert max(unit_counts) > 50 * len(sigma)

    def test_gfd_identity_untouched_by_ordering(self):
        sigma = delta_hub_workload(**HUB)
        canonical = build_canonical_graph(sigma)
        units = generate_work_units(sigma, canonical.graph)
        before = [(repr(g), hash(g), pickle.dumps(g)) for g in sigma]
        gfd_dependency_order(sigma)
        order_units(units, canonical.gfds, canonical.graph)
        assert [(repr(g), hash(g), pickle.dumps(g)) for g in sigma] == before
