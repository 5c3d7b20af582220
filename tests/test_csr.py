"""CSR snapshot correctness and mutation-invalidation.

The walk engine's fast path trusts ``LabeledGraph.out_csr()`` /
``in_csr()`` to mirror the list adjacency of the *current* graph
version.  The property test drives a random graph through interleaved
``add_edge`` / ``remove_edge`` / ``remove_node`` / ``add_node``
mutations and re-checks the mirror after every step — the
dynamic-graph semantics the paper's index-free claim rests on.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRSnapshot, LabeledGraph

from strategies import diamond_graph, small_edge_labeled_graphs


def assert_csr_mirrors_adjacency(graph: LabeledGraph) -> None:
    out = graph.out_csr()
    into = graph.in_csr()
    for snapshot in (out, into):
        assert isinstance(snapshot, CSRSnapshot)
        assert snapshot.version == graph.version
        assert snapshot.indptr.dtype == np.int32
        assert snapshot.indices.dtype == np.int32
        assert len(snapshot.indptr) == graph.max_node_id + 1
        assert snapshot.indptr[0] == 0
        assert snapshot.indptr[-1] == len(snapshot.indices)
    for node in range(graph.max_node_id):
        assert tuple(out.neighbors(node)) == graph.out_neighbors(node)
        assert tuple(into.neighbors(node)) == graph.in_neighbors(node)
        assert out.degree(node) == graph.out_degree(node)
        assert into.degree(node) == graph.in_degree(node)
        if not graph.is_alive(node):
            # dead nodes keep their id but lose all incident edges
            assert out.degree(node) == 0
            assert into.degree(node) == 0


class TestCSRSnapshot:
    def test_diamond(self):
        assert_csr_mirrors_adjacency(diamond_graph())

    def test_empty_graph(self):
        assert_csr_mirrors_adjacency(LabeledGraph())

    def test_cached_until_mutation(self):
        graph = diamond_graph()
        builds = graph.csr_rebuilds
        first = graph.out_csr()
        assert graph.out_csr() is first  # same version: cached object
        assert graph.csr_rebuilds == builds + 1
        graph.add_node()
        rebuilt = graph.out_csr()
        assert rebuilt is not first
        assert rebuilt.version == graph.version
        assert graph.csr_rebuilds == builds + 2

    def test_out_and_in_cached_independently(self):
        graph = diamond_graph()
        out = graph.out_csr()
        into = graph.in_csr()
        assert graph.out_csr() is out
        assert graph.in_csr() is into

    def test_label_change_invalidates(self):
        # label edits bump the version: derived views carry label-set
        # ids, so they must rebuild even though adjacency is unchanged
        graph = diamond_graph()
        first = graph.out_csr()
        graph.set_edge_labels(0, 1, {"z"})
        assert graph.out_csr() is not first

    def test_copy_does_not_share_cache(self):
        graph = diamond_graph()
        original = graph.out_csr()
        clone = graph.copy()
        assert clone.version == graph.version
        assert clone.out_csr() is not original
        assert_csr_mirrors_adjacency(clone)

    def test_undirected_rows_are_symmetric(self):
        graph = LabeledGraph(directed=False)
        graph.add_nodes(3)
        graph.add_edge(0, 1, {"e"})
        graph.add_edge(1, 2, {"e"})
        assert_csr_mirrors_adjacency(graph)
        assert set(graph.out_csr().neighbors(1).tolist()) == {0, 2}


class TestSnapshotImmutability:
    """CSR snapshots are shared by every engine reading one graph
    version, so a write through any name would corrupt them all: the
    arrays are read-only and the dataclass fields frozen."""

    def test_item_writes_raise(self):
        graph = diamond_graph()
        with pytest.raises(ValueError):
            graph.out_csr().indices[0] = 1
        with pytest.raises(ValueError):
            graph.out_csr().indptr[0] = 1
        with pytest.raises(ValueError):
            graph.out_csr().neighbors(0)[0] = 1

    def test_writes_through_an_alias_raise(self):
        graph = diamond_graph()
        arr = graph.in_csr().indices
        with pytest.raises(ValueError):
            arr += 1
        view = arr[1:]
        with pytest.raises(ValueError):
            view.fill(0)
        assert_csr_mirrors_adjacency(graph)

    def test_snapshot_fields_and_graph_version_are_frozen(self):
        graph = diamond_graph()
        snapshot = graph.out_csr()
        with pytest.raises(dataclasses.FrozenInstanceError):
            snapshot.indices = snapshot.indices.copy()
        with pytest.raises(AttributeError):
            graph.version = 7


@st.composite
def mutation_scripts(draw):
    """A random graph plus a random interleaving of mutations."""
    graph = draw(small_edge_labeled_graphs(max_nodes=10))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["add_edge", "remove_edge", "remove_node", "add_node"]
                ),
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=0, max_value=63),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return graph, ops


def apply_mutation(graph: LabeledGraph, op: str, a: int, b: int) -> bool:
    """Best-effort application of one scripted mutation; returns whether
    the graph changed."""
    alive = [n for n in range(graph.max_node_id) if graph.is_alive(n)]
    if op == "add_node":
        graph.add_node()
        return True
    if not alive:
        return False
    u = alive[a % len(alive)]
    v = alive[b % len(alive)]
    if op == "add_edge":
        if u == v:
            return False
        graph.add_edge(u, v, {"a"})
        return True
    if op == "remove_edge":
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)
            return True
        return False
    if op == "remove_node":
        graph.remove_node(u)
        return True
    raise AssertionError(op)


class TestCSRInvalidationProperty:
    @settings(max_examples=60, deadline=None)
    @given(script=mutation_scripts())
    def test_csr_equals_adjacency_after_interleaved_mutations(self, script):
        graph, ops = script
        assert_csr_mirrors_adjacency(graph)
        for op, a, b in ops:
            version_before = graph.version
            changed = apply_mutation(graph, op, a, b)
            if changed:
                assert graph.version > version_before
            # every alive node's CSR row must equal the list adjacency,
            # every dead node's row must be empty
            assert_csr_mirrors_adjacency(graph)

    @settings(max_examples=30, deadline=None)
    @given(script=mutation_scripts())
    def test_version_monotone(self, script):
        graph, ops = script
        versions = [graph.version]
        for op, a, b in ops:
            apply_mutation(graph, op, a, b)
            versions.append(graph.version)
        assert versions == sorted(versions)
