"""Directed property graphs with label and adjacency indices.

:class:`PropertyGraph` is the single graph type used throughout the library:
data graphs, canonical graphs and (via :class:`repro.gfd.pattern.Pattern`)
the underlying graphs of patterns are all property graphs. The class keeps

* a node table ``id -> Node`` (label + attribute tuple),
* forward and backward adjacency indexed by endpoint,
* per-(pair) edge-label sets for O(1) edge-label membership tests, and
* a label index ``label -> set of node ids`` for candidate filtering.

All mutators keep the indices consistent; there is no "commit" step. For
the matching hot path, :meth:`PropertyGraph.index` additionally compiles a
:class:`repro.graph.index.GraphIndex` (label-grouped adjacency, interned
labels). Topology mutations performed after that compilation are recorded
in a *mutation journal* (:mod:`repro.graph.delta`); the next ``index()``
call replays the journal onto the live index in place — O(|delta|) — and
falls back to a full recompile only when the journal has outgrown the
compaction threshold (:attr:`INDEX_COMPACTION_FRACTION` of |G|). Mutation-
heavy workloads (``IncrementalSat.add``, chase-style canonical-graph
extension) therefore pay per-delta index upkeep instead of O(|G|) per step.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import GraphError
from .delta import AddEdge, AddNode, SetLabel
from .elements import AttrValue, Edge, Node, NodeId

#: Shared immutable sentinels returned on index misses — the hot matching
#: loop calls :meth:`PropertyGraph.edge_labels_between` once per candidate
#: edge check, and allocating a fresh empty container per miss showed up in
#: profiles of ``MatcherRun._node_ok``.
_NO_LABELS: AbstractSet[str] = frozenset()
_NO_EDGES: Sequence[Edge] = ()


class PropertyGraph:
    """A directed, labeled multigraph with node attributes.

    Examples
    --------
    >>> g = PropertyGraph()
    >>> a = g.add_node("person", {"name": "ada"})
    >>> b = g.add_node("city")
    >>> g.add_edge(a, b, "lives_in")
    Edge(src=0, dst=1, label='lives_in')
    >>> g.has_edge(a, b, "lives_in")
    True
    """

    #: Journal sizes up to this floor always take the in-place delta path,
    #: regardless of graph size (small graphs would otherwise compact on
    #: every call).
    INDEX_COMPACTION_MIN = 64
    #: Once the journal exceeds this fraction of |G| (nodes + edges), the
    #: next :meth:`index` call recompiles from scratch instead of replaying
    #: the delta — replay cost approaches rebuild cost at that point.
    INDEX_COMPACTION_FRACTION = 0.25
    #: Ablation/debug switch: ``False`` forces a full recompile on every
    #: post-mutation :meth:`index` call (the pre-delta behavior). May be set
    #: per instance.
    index_delta_enabled = True

    def __init__(self) -> None:
        self._nodes: Dict[NodeId, Node] = {}
        self._out: Dict[NodeId, List[Edge]] = defaultdict(list)
        self._in: Dict[NodeId, List[Edge]] = defaultdict(list)
        # (src, dst) -> set of edge labels, for O(1) membership checks.
        self._edge_labels: Dict[Tuple[NodeId, NodeId], Set[str]] = defaultdict(set)
        self._by_label: Dict[str, Set[NodeId]] = defaultdict(set)
        self._next_id = 0
        self._edge_count = 0
        # Compiled-index cache plus the mutation journal it consumes; the
        # journal only accumulates while a compiled index exists.
        self._mutations = 0
        self._compiled_index = None
        self._journal: List[tuple] = []
        # Optional retained delta history for replica synchronization
        # (process backend): (mutation-count-after-op, op) pairs.
        self._retain_deltas = False
        self._delta_history: List[Tuple[int, tuple]] = []
        # MVCC pins: version -> reference count. While a version is pinned,
        # trim_delta_history will not drop the ops needed to reconstruct
        # any state at or after it (serving-layer read views).
        self._pinned_versions: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        label: str,
        attrs: Optional[Mapping[str, AttrValue]] = None,
        node_id: Optional[NodeId] = None,
    ) -> NodeId:
        """Add a node and return its id.

        When *node_id* is omitted, consecutive integers are issued. Adding a
        duplicate id raises :class:`GraphError`.
        """
        if node_id is None:
            while self._next_id in self._nodes:
                self._next_id += 1
            node_id = self._next_id
            self._next_id += 1
        if node_id in self._nodes:
            raise GraphError(f"duplicate node id {node_id!r}")
        self._nodes[node_id] = Node(node_id, label, dict(attrs or {}))
        self._by_label[label].add(node_id)
        self._record(AddNode(node_id, label, dict(attrs) if attrs else None))
        return node_id

    def add_edge(self, src: NodeId, dst: NodeId, label: str) -> Edge:
        """Add a directed edge; duplicates (same triple) are ignored."""
        if src not in self._nodes:
            raise GraphError(f"unknown source node {src!r}")
        if dst not in self._nodes:
            raise GraphError(f"unknown target node {dst!r}")
        edge = Edge(src, dst, label)
        labels = self._edge_labels[(src, dst)]
        if label in labels:
            return edge
        labels.add(label)
        self._out[src].append(edge)
        self._in[dst].append(edge)
        self._edge_count += 1
        self._record(AddEdge(src, dst, label))
        return edge

    def set_attr(self, node_id: NodeId, name: str, value: AttrValue) -> None:
        """Set attribute *name* of node *node_id* to *value*, in place.

        Attribute updates are not journaled and do not age the compiled
        index — it stores topology and labels only. Because they are not
        journaled, they cannot reach replicas fed from the delta history or
        snapshots rebuilt by replay: on a graph that retains deltas
        (:meth:`retain_deltas`) or holds pinned versions
        (:meth:`pin_version`) the write would silently diverge, so it
        raises :class:`GraphError` instead. Plain graphs are unaffected.
        """
        if self._retain_deltas or self._pinned_versions:
            raise GraphError(
                f"cannot set attribute {name!r} of node {node_id!r}: attribute "
                "updates are not journaled, so replicas and pinned read views "
                "of a graph that retains deltas or holds pins would miss it"
            )
        self.node(node_id).attrs[name] = value

    def set_node_label(self, node_id: NodeId, label: str) -> None:
        """Relabel node *node_id* to *label* (a journaled topology mutation).

        Relabeling moves the node between label-index buckets; the compiled
        index absorbs the move in place through the delta path. Setting the
        label a node already carries is a no-op (nothing is journaled).
        """
        node = self.node(node_id)
        old_label = node.label
        if label == old_label:
            return
        node.label = label
        self._by_label[old_label].discard(node_id)
        self._by_label[label].add(node_id)
        self._record(SetLabel(node_id, old_label, label))

    # ------------------------------------------------------------------
    # Compiled index + mutation journal
    # ------------------------------------------------------------------
    def _record(self, op: tuple) -> None:
        """Count one topology mutation and journal it for the live index."""
        self._mutations += 1
        if self._compiled_index is not None:
            self._journal.append(op)
        if self._retain_deltas:
            self._delta_history.append((self._mutations, op))

    @property
    def mutation_count(self) -> int:
        """Monotone topology-mutation counter (index staleness checks)."""
        return self._mutations

    @property
    def pending_delta_ops(self) -> int:
        """Journal ops the compiled index has not absorbed yet."""
        return len(self._journal)

    def _compaction_limit(self) -> int:
        return max(
            self.INDEX_COMPACTION_MIN,
            int(self.INDEX_COMPACTION_FRACTION * (len(self._nodes) + self._edge_count)),
        )

    def index(self):
        """The compiled :class:`repro.graph.index.GraphIndex` for this graph.

        Built lazily on first use. After topology mutations the cached
        index is *maintained*, not discarded: the pending journal is
        replayed onto it in place (O(|delta|)), so the object — and the
        match plans cached on it — survives. Only when the journal exceeds
        the compaction threshold (or :attr:`index_delta_enabled` is off) is
        the index recompiled from scratch, producing a fresh object.
        """
        index = self._compiled_index
        if index is not None and self._journal:
            journal = self._journal
            self._journal = []
            if self.index_delta_enabled and len(journal) <= self._compaction_limit():
                index.apply_delta(journal)
            else:
                index = None  # compaction: fall through to a full rebuild
        if index is None:
            from .index import GraphIndex  # local import: avoids cycle

            index = GraphIndex(self)
        self._compiled_index = index
        return index

    def adopt_index(self, index) -> None:
        """Install a prebuilt :class:`GraphIndex` as this graph's cache.

        Used by process workers that reconstruct the coordinator's index
        from a serialized snapshot instead of recompiling O(|G|) state. The
        index must have been built at this graph's current mutation count;
        any journaled ops are already reflected in it and are discarded.
        """
        if index.version != self._mutations:
            raise GraphError(
                f"index snapshot version {index.version} does not match "
                f"graph mutation count {self._mutations}"
            )
        self._compiled_index = index
        self._journal = []

    # ------------------------------------------------------------------
    # Delta history (replica synchronization, process backend)
    # ------------------------------------------------------------------
    def retain_deltas(self, enabled: bool = True) -> None:
        """Keep (or stop keeping) a replayable history of topology ops.

        While enabled, every mutation is also appended — version-stamped —
        to a history that :meth:`delta_ops_since` can serve, independently
        of the index journal's consume-on-apply lifecycle. The process
        backend enables this to ship standing worker replicas *deltas*
        between runs instead of fresh snapshots; call
        :meth:`trim_delta_history` once all replicas have caught up.
        """
        self._retain_deltas = enabled
        if not enabled:
            self._delta_history = []

    def delta_ops_since(self, version: int) -> Optional[List[tuple]]:
        """Topology ops after mutation-count *version*, in order.

        Returns ``None`` when the retained history does not reach back far
        enough (history disabled, trimmed past *version*, or enabled only
        after *version*) — callers must then fall back to full state
        transfer.
        """
        if version > self._mutations:
            return None
        if version == self._mutations:
            return []
        history = self._delta_history
        ops = [op for stamp, op in history if stamp > version]
        # The history covers (version, now] only if it has one entry per
        # mutation in that range.
        if len(ops) != self._mutations - version:
            return None
        return ops

    def delta_ops_slice(self, since: int, until: int) -> Optional[List[tuple]]:
        """Topology ops with stamps in ``(since, until]``, in order.

        The bounded companion of :meth:`delta_ops_since`: read views pinned
        at *until* are reconstructed by replaying this slice onto a replica
        already synchronized at *since*. Returns ``None`` when the retained
        history does not cover the whole range (one entry per mutation in
        it) or the bounds are out of order / in the future.
        """
        if since > until or until > self._mutations:
            return None
        if since == until:
            return []
        ops = [op for stamp, op in self._delta_history if since < stamp <= until]
        if len(ops) != until - since:
            return None
        return ops

    # ------------------------------------------------------------------
    # MVCC version pins (serving-layer read views)
    # ------------------------------------------------------------------
    def pin_version(self, version: Optional[int] = None) -> int:
        """Pin mutation-count *version* (default: the current one).

        Pins are reference-counted; each successful call must be balanced
        by one :meth:`release_version`. While any version is pinned,
        :meth:`trim_delta_history` is clamped so it never drops ops with
        stamps above the minimum pinned version — a reader holding a pin
        at ``V`` can always replay history forward from ``V``, no matter
        how aggressively writers trim. Returns the pinned version.
        """
        if version is None:
            version = self._mutations
        elif version > self._mutations:
            raise GraphError(
                f"cannot pin future version {version} "
                f"(mutation count is {self._mutations})"
            )
        self._pinned_versions[version] = self._pinned_versions.get(version, 0) + 1
        return version

    def release_version(self, version: int) -> None:
        """Release one pin on *version* (raises if it is not pinned)."""
        count = self._pinned_versions.get(version)
        if count is None:
            raise GraphError(f"version {version} is not pinned")
        if count == 1:
            del self._pinned_versions[version]
        else:
            self._pinned_versions[version] = count - 1

    @property
    def min_pinned_version(self) -> Optional[int]:
        """The lowest pinned version, or ``None`` when nothing is pinned."""
        return min(self._pinned_versions) if self._pinned_versions else None

    @property
    def pinned_version_count(self) -> int:
        """Number of outstanding pins (reference counts summed)."""
        return sum(self._pinned_versions.values())

    def trim_delta_history(self, version: int) -> None:
        """Drop retained ops at or below mutation-count *version*.

        Clamped to the minimum pinned version: ops that a pinned read view
        may still need for forward replay survive the trim, regardless of
        the *version* requested (the process backend trims to the full
        mutation count after every pool refresh — pins keep that safe while
        the serving layer holds snapshots).
        """
        floor = self.min_pinned_version
        if floor is not None and floor < version:
            version = floor
        self._delta_history = [
            entry for entry in self._delta_history if entry[0] > version
        ]

    # ------------------------------------------------------------------
    # Pickling (process-backend worker shipping)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        """Drop the compiled-index cache (it holds weak references and is
        shipped separately as a plain snapshot, :meth:`GraphIndex.to_snapshot`)
        along with the journal/history that only make sense relative to it."""
        state = dict(self.__dict__)
        state["_compiled_index"] = None
        state["_journal"] = []
        state["_retain_deltas"] = False
        state["_delta_history"] = []
        state["_pinned_versions"] = {}
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def node(self, node_id: NodeId) -> Node:
        """Return the :class:`Node` for *node_id* (raises on unknown id)."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id!r}") from None

    def has_node(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def label(self, node_id: NodeId) -> str:
        return self.node(node_id).label

    def attrs(self, node_id: NodeId) -> Dict[str, AttrValue]:
        return self.node(node_id).attrs

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over all node ids."""
        return iter(self._nodes)

    def node_objects(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges (each once)."""
        for edges in self._out.values():
            yield from edges

    def out_edges(self, node_id: NodeId) -> Sequence[Edge]:
        return self._out.get(node_id, _NO_EDGES)

    def in_edges(self, node_id: NodeId) -> Sequence[Edge]:
        return self._in.get(node_id, _NO_EDGES)

    def successors(self, node_id: NodeId) -> Iterator[NodeId]:
        for edge in self.out_edges(node_id):
            yield edge.dst

    def predecessors(self, node_id: NodeId) -> Iterator[NodeId]:
        for edge in self.in_edges(node_id):
            yield edge.src

    def neighbors(self, node_id: NodeId) -> Set[NodeId]:
        """Undirected neighbor set (successors plus predecessors)."""
        result = {edge.dst for edge in self.out_edges(node_id)}
        result.update(edge.src for edge in self.in_edges(node_id))
        return result

    def has_edge(self, src: NodeId, dst: NodeId, label: Optional[str] = None) -> bool:
        """Edge existence; with *label* None any label counts."""
        labels = self._edge_labels.get((src, dst))
        if not labels:
            return False
        if label is None:
            return True
        return label in labels

    def edge_labels_between(self, src: NodeId, dst: NodeId) -> AbstractSet[str]:
        """The set of labels on edges from *src* to *dst* (possibly empty).

        The empty result is a shared immutable sentinel — do not mutate.
        """
        return self._edge_labels.get((src, dst), _NO_LABELS)

    def nodes_with_label(self, label: str) -> Set[NodeId]:
        """Node ids carrying exactly *label* (wildcard is not expanded)."""
        return self._by_label.get(label, set())

    def labels(self) -> Set[str]:
        """All node labels present in the graph."""
        return {label for label, ids in self._by_label.items() if ids}

    def edge_label_set(self) -> Set[str]:
        """All edge labels present in the graph."""
        return {edge.label for edge in self.edges()}

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return self._edge_count

    def size(self) -> int:
        """|G| as used in the paper: nodes + edges + attribute entries."""
        attr_entries = sum(len(node.attrs) for node in self._nodes.values())
        return self.num_nodes + self.num_edges + attr_entries

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, node_ids: Iterable[NodeId]) -> "PropertyGraph":
        """Return the induced subgraph on *node_ids* (copies nodes/attrs)."""
        keep = set(node_ids)
        sub = PropertyGraph()
        for node_id in keep:
            node = self.node(node_id)
            sub.add_node(node.label, node.attrs, node_id=node.id)
        for node_id in keep:
            for edge in self.out_edges(node_id):
                if edge.dst in keep:
                    sub.add_edge(edge.src, edge.dst, edge.label)
        return sub

    def copy(self) -> "PropertyGraph":
        return self.subgraph(self._nodes)

    def disjoint_union(self, other: "PropertyGraph", rename: str = "") -> Dict[NodeId, NodeId]:
        """Add a disjoint copy of *other* into this graph.

        Node ids of *other* are remapped to fresh ids here; the mapping
        old id -> new id is returned. *rename* is kept for diagnostics only.
        """
        mapping: Dict[NodeId, NodeId] = {}
        for node in other.node_objects():
            mapping[node.id] = self.add_node(node.label, node.attrs)
        for edge in other.edges():
            self.add_edge(mapping[edge.src], mapping[edge.dst], edge.label)
        return mapping

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"PropertyGraph(nodes={self.num_nodes}, edges={self.num_edges})"
