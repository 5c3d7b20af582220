"""The multi-labeled graph of Definition 1.

A :class:`LabeledGraph` is a triple ``G = (V, E, L)`` where nodes and edges
each carry zero or more labels from a finite label set ``L``, plus optional
attribute dictionaries that query-time labels (Definition 7) are evaluated
against.  Graphs may be directed or undirected and make no structural
assumptions (no acyclicity, no strong connectedness).

Nodes are dense integer ids ``0..n-1`` — the representation every other
subsystem (walks, BFS baselines, indexes) relies on for speed.  Use
:class:`repro.graph.builder.GraphBuilder` when constructing from named
entities.

Deletion support exists for the dynamic-graph extension: deleted nodes keep
their id (ids are never recycled) but disappear from adjacency and from
``nodes()`` iteration.

Every mutation bumps a monotone :attr:`~LabeledGraph.version` counter.
Derived structures — the lazily built :class:`CSRSnapshot` adjacency
arrays and anything stored in the ``_derived`` cache (e.g. the
walkLength estimate) — key themselves on it, so dynamic-graph semantics
are preserved: mutate freely, and the next access rebuilds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

import numpy as np
import numpy.typing as npt

from repro.errors import GraphError
from repro.labels import EMPTY_LABELS, LabelSet, as_label_set

_EMPTY_ATTRS: Mapping[str, Any] = {}


@dataclass(frozen=True)
class CSRSnapshot:
    """Frozen compressed-sparse-row adjacency of one graph version.

    ``indices[indptr[u]:indptr[u + 1]]`` are ``u``'s neighbours, in the
    same order as the adjacency lists.  Dead nodes have empty rows (their
    incident edges are removed with them), so the arrays cover every
    allocated id without indexing tricks.  The snapshot is immutable: the
    fields are frozen and both arrays are read-only, so a write through
    any alias or view raises ``ValueError``.  A graph mutation makes it
    stale (its ``version`` no longer matches) and the next
    :meth:`LabeledGraph.out_csr` / :meth:`LabeledGraph.in_csr` call
    rebuilds.
    """

    version: int
    indptr: npt.NDArray[np.int32]
    indices: npt.NDArray[np.int32]

    def neighbors(self, node: int) -> npt.NDArray[np.int32]:
        """The node's neighbour row as a numpy slice (no copy)."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def degree(self, node: int) -> int:
        """Row length."""
        return int(self.indptr[node + 1] - self.indptr[node])


class LabeledGraph:
    """A directed or undirected multi-labeled graph.

    Parameters
    ----------
    directed:
        If False, every edge is traversable both ways and ``(u, v)`` and
        ``(v, u)`` denote the same edge (labels/attrs are shared).
    """

    #: frozen graphs (e.g. shared-memory attachments, see
    #: :mod:`repro.core.shm`) reject every mutator: their storage is a
    #: snapshot shared read-only across processes
    _frozen = False

    def __init__(self, directed: bool = True) -> None:
        self.directed = directed
        #: which elements of a path contribute symbols to its label
        #: sequence: "nodes", "edges", "both", or None (= infer from where
        #: labels actually occur).  Datasets set this explicitly; e.g. the
        #: DBLP-like graph consumes node symbols even though its "labels"
        #: are query-time predicates over attributes.
        self.labeled_elements: Optional[str] = None
        self._out: List[List[int]] = []
        self._in: List[List[int]] = []
        self._node_labels: List[LabelSet] = []
        self._node_attrs: List[Optional[Dict[str, Any]]] = []
        self._edge_labels: Dict[Tuple[int, int], LabelSet] = {}
        self._edge_attrs: Dict[Tuple[int, int], Dict[str, Any]] = {}
        self._alive: List[bool] = []
        self._num_alive = 0
        self._num_edges = 0
        self._version = 0
        self._csr_cache: Dict[str, CSRSnapshot] = {}
        #: generic version-keyed cache for derived values (walkLength
        #: estimates, ...); entries are ``key -> (version, value)`` and
        #: stale entries are simply recomputed by their owners
        self._derived: Dict[Any, Tuple[int, Any]] = {}
        #: total CSR snapshot builds over the graph's lifetime (hot-path
        #: accounting; engines report per-query deltas)
        self.csr_rebuilds = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _check_mutable(self) -> None:
        if self._frozen:
            raise GraphError(
                "graph is frozen: shared-memory attachments are read-only "
                "snapshots (mutate the original and re-export, or copy())"
            )

    def add_node(self, labels: Any = None, attrs: Optional[Dict[str, Any]] = None) -> int:
        """Add a node and return its id."""
        self._check_mutable()
        node = len(self._out)
        self._out.append([])
        self._in.append([])
        self._node_labels.append(as_label_set(labels))
        self._node_attrs.append(dict(attrs) if attrs else None)
        self._alive.append(True)
        self._num_alive += 1
        self._version += 1
        return node

    def add_nodes(self, count: int) -> range:
        """Add ``count`` unlabeled nodes; returns their id range."""
        first = len(self._out)
        for _ in range(count):
            self.add_node()
        return range(first, first + count)

    def add_edge(
        self,
        u: int,
        v: int,
        labels: Any = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Add edge ``u -> v`` (both directions when undirected).

        Parallel edges are not supported: re-adding an existing edge
        replaces its labels/attributes instead.
        """
        self._check_mutable()
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loops are not supported (node {u})")
        key = self._edge_key(u, v)
        if key not in self._edge_labels:
            self._out[u].append(v)
            self._in[v].append(u)
            if not self.directed:
                self._out[v].append(u)
                self._in[u].append(v)
            self._num_edges += 1
        self._edge_labels[key] = as_label_set(labels)
        if attrs:
            self._edge_attrs[key] = dict(attrs)
        elif key in self._edge_attrs:
            del self._edge_attrs[key]
        self._version += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Remove edge ``u -> v``; raises GraphError if absent."""
        self._check_mutable()
        key = self._edge_key(u, v)
        if key not in self._edge_labels:
            raise GraphError(f"edge ({u}, {v}) does not exist")
        del self._edge_labels[key]
        self._edge_attrs.pop(key, None)
        self._out[u].remove(v)
        self._in[v].remove(u)
        if not self.directed:
            self._out[v].remove(u)
            self._in[u].remove(v)
        self._num_edges -= 1
        self._version += 1

    def remove_node(self, node: int) -> None:
        """Remove a node and all its incident edges.

        The id is retired, not recycled, so existing references stay
        meaningful in temporal replays.
        """
        self._check_mutable()
        self._check_node(node)
        for v in list(self._out[node]):
            self.remove_edge(node, v)
        for u in list(self._in[node]):
            if self.has_edge(u, node):
                self.remove_edge(u, node)
        self._alive[node] = False
        self._num_alive -= 1
        self._version += 1

    def set_node_labels(self, node: int, labels: Any) -> None:
        """Replace a node's label set (an "information change")."""
        self._check_mutable()
        self._check_node(node)
        self._node_labels[node] = as_label_set(labels)
        self._version += 1

    def set_node_attrs(self, node: int, attrs: Optional[Dict[str, Any]]) -> None:
        """Replace a node's attribute dict."""
        self._check_mutable()
        self._check_node(node)
        self._node_attrs[node] = dict(attrs) if attrs else None
        self._version += 1

    def set_edge_labels(self, u: int, v: int, labels: Any) -> None:
        """Replace an edge's label set."""
        self._check_mutable()
        key = self._edge_key(u, v)
        if key not in self._edge_labels:
            raise GraphError(f"edge ({u}, {v}) does not exist")
        self._edge_labels[key] = as_label_set(labels)
        self._version += 1

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of live nodes."""
        return self._num_alive

    @property
    def num_edges(self) -> int:
        """Number of edges (each undirected edge counted once)."""
        return self._num_edges

    @property
    def max_node_id(self) -> int:
        """One past the largest node id ever allocated."""
        return len(self._out)

    @property
    def version(self) -> int:
        """Monotone mutation counter.

        Bumped by every structural or label/attribute change; derived
        structures (CSR snapshots, cached walkLength estimates, engine
        graph views) compare against it to decide whether to rebuild.
        """
        return self._version

    def is_alive(self, node: int) -> bool:
        """True if the node exists and has not been removed."""
        return 0 <= node < len(self._alive) and self._alive[node]

    def nodes(self) -> Iterator[int]:
        """Iterate over live node ids."""
        for node, alive in enumerate(self._alive):
            if alive:
                yield node

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over edges as canonical ``(u, v)`` keys."""
        return iter(self._edge_labels)

    def out_neighbors(self, node: int) -> Tuple[int, ...]:
        """Nodes reachable by one outgoing edge from ``node``.

        Returns a fresh immutable tuple — a snapshot, not a live view.
        The internal adjacency lists only change through
        ``add_edge``/``remove_edge``/``remove_node`` (which also bump
        :attr:`version`); callers cannot mutate adjacency through the
        returned value.
        """
        return tuple(self._out[node])

    def in_neighbors(self, node: int) -> Tuple[int, ...]:
        """Nodes with an edge into ``node`` (immutable snapshot tuple)."""
        return tuple(self._in[node])

    def out_degree(self, node: int) -> int:
        """Number of outgoing edges."""
        return len(self._out[node])

    def in_degree(self, node: int) -> int:
        """Number of incoming edges."""
        return len(self._in[node])

    def has_edge(self, u: int, v: int) -> bool:
        """True if edge ``u -> v`` exists."""
        return self._edge_key(u, v) in self._edge_labels

    # ------------------------------------------------------------------
    # CSR snapshots (the walk engine's fast path)
    # ------------------------------------------------------------------
    def out_csr(self) -> CSRSnapshot:
        """Frozen CSR view of the out-adjacency (lazily built, cached
        until the next mutation)."""
        return self._csr("out", self._out)

    def in_csr(self) -> CSRSnapshot:
        """Frozen CSR view of the in-adjacency."""
        return self._csr("in", self._in)

    def _csr(self, direction: str, adjacency: List[List[int]]) -> CSRSnapshot:
        cached = self._csr_cache.get(direction)
        if cached is not None and cached.version == self._version:
            return cached
        n = len(adjacency)
        indptr = np.zeros(n + 1, dtype=np.int32)
        total = 0
        for node, row in enumerate(adjacency):
            total += len(row)
            indptr[node + 1] = total
        indices = np.empty(total, dtype=np.int32)
        position = 0
        for row in adjacency:
            if row:
                indices[position : position + len(row)] = row
                position += len(row)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        snapshot = CSRSnapshot(
            version=self._version, indptr=indptr, indices=indices
        )
        self._csr_cache[direction] = snapshot
        self.csr_rebuilds += 1
        return snapshot

    def node_labels(self, node: int) -> LabelSet:
        """The node's label set (possibly empty)."""
        return self._node_labels[node]

    def node_attrs(self, node: int) -> Mapping[str, Any]:
        """The node's attribute dict (read-only empty dict if unset)."""
        attrs = self._node_attrs[node]
        return attrs if attrs is not None else _EMPTY_ATTRS

    def edge_labels(self, u: int, v: int) -> LabelSet:
        """The edge's label set (empty frozenset if edge has no labels)."""
        return self._edge_labels.get(self._edge_key(u, v), EMPTY_LABELS)

    def edge_attrs(self, u: int, v: int) -> Mapping[str, Any]:
        """The edge's attribute dict."""
        return self._edge_attrs.get(self._edge_key(u, v), _EMPTY_ATTRS)

    # ------------------------------------------------------------------
    # label-set level views
    # ------------------------------------------------------------------
    @property
    def has_node_labels(self) -> bool:
        """True if any live node carries at least one label."""
        return any(
            self._node_labels[n] for n, a in enumerate(self._alive) if a
        )

    @property
    def has_edge_labels(self) -> bool:
        """True if any edge carries at least one label."""
        return any(self._edge_labels.values())

    def label_alphabet(self) -> LabelSet:
        """The set L of all labels appearing on live nodes or edges."""
        labels: Set[str] = set()
        for node, alive in enumerate(self._alive):
            if alive:
                labels.update(self._node_labels[node])
        for edge_labels in self._edge_labels.values():
            labels.update(edge_labels)
        return frozenset(labels)

    def node_label_counts(self) -> Dict[str, int]:
        """label -> number of live nodes carrying it."""
        counts: Dict[str, int] = {}
        for node, alive in enumerate(self._alive):
            if not alive:
                continue
            for label in self._node_labels[node]:
                counts[label] = counts.get(label, 0) + 1
        return counts

    def edge_label_counts(self) -> Dict[str, int]:
        """label -> number of edges carrying it."""
        counts: Dict[str, int] = {}
        for edge_labels in self._edge_labels.values():
            for label in edge_labels:
                counts[label] = counts.get(label, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def copy(self) -> "LabeledGraph":
        """Deep-enough copy: structure and labels copied, attrs re-dicted."""
        clone = LabeledGraph(directed=self.directed)
        clone.labeled_elements = self.labeled_elements
        clone._out = [list(adj) for adj in self._out]
        clone._in = [list(adj) for adj in self._in]
        clone._node_labels = list(self._node_labels)
        clone._node_attrs = [
            dict(a) if a is not None else None for a in self._node_attrs
        ]
        clone._edge_labels = dict(self._edge_labels)
        clone._edge_attrs = {k: dict(v) for k, v in self._edge_attrs.items()}
        clone._alive = list(self._alive)
        clone._num_alive = self._num_alive
        clone._num_edges = self._num_edges
        # same version, but fresh (empty) CSR/derived caches: nothing
        # built for the original is shared with the clone
        clone._version = self._version
        return clone

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"LabeledGraph({kind}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )

    def _edge_key(self, u: int, v: int) -> Tuple[int, int]:
        if self.directed or u <= v:
            return (u, v)
        return (v, u)

    def _check_node(self, node: int) -> None:
        if not (0 <= node < len(self._alive)) or not self._alive[node]:
            raise GraphError(f"node {node} does not exist")


def induced_subgraph(graph: LabeledGraph, nodes: Iterable[int]) -> Tuple[LabeledGraph, Dict[int, int]]:
    """Subgraph induced by ``nodes``; returns (subgraph, old_id -> new_id)."""
    mapping: Dict[int, int] = {}
    sub = LabeledGraph(directed=graph.directed)
    sub.labeled_elements = graph.labeled_elements
    for old in nodes:
        attrs = graph.node_attrs(old)
        mapping[old] = sub.add_node(
            graph.node_labels(old), dict(attrs) if attrs else None
        )
    for (u, v), labels in graph._edge_labels.items():
        if u in mapping and v in mapping:
            attrs = graph.edge_attrs(u, v)
            sub.add_edge(
                mapping[u], mapping[v], labels, dict(attrs) if attrs else None
            )
    return sub, mapping
