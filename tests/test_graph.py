"""Unit tests for the property-graph substrate."""

import pytest

from repro import PropertyGraph
from repro.errors import GraphError
from repro.graph.elements import Edge, Node, format_attrs, is_wildcard


class TestNodeAndEdge:
    def test_node_attrs(self):
        node = Node(1, "person", {"name": "ada"})
        assert node.has_attr("name")
        assert node.get_attr("name") == "ada"
        assert node.get_attr("missing") is None
        assert not node.has_attr("missing")

    def test_node_copy_is_independent(self):
        node = Node(1, "person", {"name": "ada"})
        clone = node.copy()
        clone.attrs["name"] = "grace"
        assert node.get_attr("name") == "ada"

    def test_edge_reversed(self):
        edge = Edge("a", "b", "knows")
        assert edge.reversed() == Edge("b", "a", "knows")

    def test_wildcard_predicate(self):
        assert is_wildcard("_")
        assert not is_wildcard("a")
        assert not is_wildcard("")

    def test_format_attrs_sorted(self):
        assert format_attrs({"b": 2, "a": 1}) == "(a=1, b=2)"


class TestPropertyGraphConstruction:
    def test_auto_ids_are_consecutive(self):
        graph = PropertyGraph()
        assert graph.add_node("a") == 0
        assert graph.add_node("b") == 1

    def test_explicit_and_auto_ids_coexist(self):
        graph = PropertyGraph()
        graph.add_node("a", node_id=0)
        other = graph.add_node("b")
        assert other != 0
        assert graph.has_node(other)

    def test_duplicate_id_rejected(self):
        graph = PropertyGraph()
        graph.add_node("a", node_id="n")
        with pytest.raises(GraphError):
            graph.add_node("b", node_id="n")

    def test_edge_requires_existing_endpoints(self):
        graph = PropertyGraph()
        a = graph.add_node("a")
        with pytest.raises(GraphError):
            graph.add_edge(a, "ghost", "e")
        with pytest.raises(GraphError):
            graph.add_edge("ghost", a, "e")

    def test_duplicate_edge_ignored(self):
        graph = PropertyGraph()
        a, b = graph.add_node("a"), graph.add_node("b")
        graph.add_edge(a, b, "e")
        graph.add_edge(a, b, "e")
        assert graph.num_edges == 1

    def test_multi_label_edges_both_kept(self):
        graph = PropertyGraph()
        a, b = graph.add_node("a"), graph.add_node("b")
        graph.add_edge(a, b, "e1")
        graph.add_edge(a, b, "e2")
        assert graph.edge_labels_between(a, b) == {"e1", "e2"}
        assert graph.num_edges == 2

    def test_self_loop(self):
        graph = PropertyGraph()
        a = graph.add_node("a")
        graph.add_edge(a, a, "loop")
        assert graph.has_edge(a, a, "loop")
        assert a in graph.neighbors(a)


class TestPropertyGraphAccess:
    def test_unknown_node_raises(self):
        graph = PropertyGraph()
        with pytest.raises(GraphError):
            graph.node("missing")

    def test_label_index(self, small_graph):
        assert small_graph.nodes_with_label("a") == {"a0", "a1"}
        assert small_graph.nodes_with_label("nope") == set()
        assert small_graph.labels() == {"a", "b", "c"}

    def test_edge_label_set(self, small_graph):
        assert small_graph.edge_label_set() == {"knows", "likes"}

    def test_has_edge_any_label(self, small_graph):
        assert small_graph.has_edge("a0", "b0")
        assert small_graph.has_edge("a0", "b0", "knows")
        assert not small_graph.has_edge("a0", "b0", "likes")
        assert not small_graph.has_edge("b0", "a0")

    def test_successors_predecessors(self, small_graph):
        assert set(small_graph.successors("a0")) == {"b0", "c0"}
        assert set(small_graph.predecessors("b1")) == {"b0"}

    def test_neighbors_undirected(self, small_graph):
        assert small_graph.neighbors("b0") == {"a0", "b1"}

    def test_set_attr(self, small_graph):
        small_graph.set_attr("a0", "x", 42)
        assert small_graph.attrs("a0")["x"] == 42

    def test_set_attr_rejected_while_replicas_or_pins_depend_on_history(self, small_graph):
        # Attribute writes are not journaled: on a graph that feeds
        # replicas (retained deltas) or pinned read views they would
        # silently diverge, so they raise until both are undone.
        small_graph.retain_deltas(True)
        with pytest.raises(GraphError, match="not journaled"):
            small_graph.set_attr("a0", "x", 42)
        version = small_graph.pin_version()
        small_graph.retain_deltas(False)
        with pytest.raises(GraphError, match="not journaled"):
            small_graph.set_attr("a0", "x", 42)
        assert small_graph.attrs("a0")["x"] == 1
        small_graph.release_version(version)
        small_graph.set_attr("a0", "x", 42)
        assert small_graph.attrs("a0")["x"] == 42

    def test_contains_and_len(self, small_graph):
        assert "a0" in small_graph
        assert "zz" not in small_graph
        assert len(small_graph) == 5

    def test_size_counts_attrs(self):
        graph = PropertyGraph()
        a = graph.add_node("a", {"p": 1, "q": 2})
        b = graph.add_node("b")
        graph.add_edge(a, b, "e")
        assert graph.size() == 2 + 1 + 2


class TestDerivedGraphs:
    def test_subgraph_induced(self, small_graph):
        sub = small_graph.subgraph(["a0", "b0", "c0"])
        assert sub.num_nodes == 3
        assert sub.has_edge("a0", "b0", "knows")
        assert sub.has_edge("a0", "c0", "likes")
        assert not sub.has_edge("b0", "b1")

    def test_subgraph_copies_attrs(self, small_graph):
        sub = small_graph.subgraph(["a0"])
        sub.set_attr("a0", "x", 99)
        assert small_graph.attrs("a0")["x"] == 1

    def test_copy_equals_original_structure(self, small_graph):
        clone = small_graph.copy()
        assert clone.num_nodes == small_graph.num_nodes
        assert clone.num_edges == small_graph.num_edges
        assert clone.nodes_with_label("a") == {"a0", "a1"}

    def test_disjoint_union_remaps(self, small_graph):
        target = PropertyGraph()
        target.add_node("z", node_id="keep")
        mapping = target.disjoint_union(small_graph)
        assert target.num_nodes == 1 + small_graph.num_nodes
        assert set(mapping) == set(small_graph.nodes())
        assert target.has_edge(mapping["a0"], mapping["b0"], "knows")
