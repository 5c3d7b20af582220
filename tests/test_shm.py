"""Tests for :mod:`repro.core.shm` — the zero-copy shared-memory plane.

Covers the exporter (`GraphPlane`), the attach side (`WorkerBundle` /
`SharedGraph`), the refcounted unlink lifecycle, warm-table state
round-trips, and the leak invariant: no ``rshm-`` segment may outlive
its owning plane.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.core import make_engine
from repro.core.plan import graph_stamp
from repro.core.shm import (
    GraphPlane,
    SharedGraph,
    WorkerBundle,
    attach_bundle,
    segment_prefix,
)
from repro.datasets import gplus_like
from repro.graph.labeled_graph import GraphError, LabeledGraph
from repro.queries import WorkloadGenerator

SEED = 42


def shm_entries():
    """Names of live plane segments on this host."""
    try:
        entries = os.listdir("/dev/shm")
    except FileNotFoundError:  # non-Linux: covered by unlink asserts
        return []
    return [name for name in entries if name.startswith(segment_prefix())]


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = set(shm_entries())
    yield
    leaked = [name for name in shm_entries() if name not in before]
    assert leaked == [], f"leaked shared-memory segments: {leaked}"


@pytest.fixture(scope="module")
def graph():
    return gplus_like(n_nodes=150, seed=5)


@pytest.fixture
def plane(graph):
    plane = GraphPlane.export(graph)
    yield plane
    plane.close()


# ---------------------------------------------------------------------------
# export / attach round trip
# ---------------------------------------------------------------------------
class TestRoundTrip:
    def test_graph_identical_through_plane(self, graph, plane):
        bundle = attach_bundle(plane.acquire())
        try:
            mirror = bundle.graph
            assert isinstance(mirror, SharedGraph)
            assert isinstance(mirror, LabeledGraph)
            assert mirror.num_nodes == graph.num_nodes
            assert mirror.num_edges == graph.num_edges
            assert mirror.max_node_id == graph.max_node_id
            assert mirror.directed == graph.directed
            assert list(mirror.nodes()) == list(graph.nodes())
            for node in graph.nodes():
                assert mirror.is_alive(node)
                assert sorted(mirror.out_neighbors(node)) == sorted(
                    graph.out_neighbors(node)
                )
                assert sorted(mirror.in_neighbors(node)) == sorted(
                    graph.in_neighbors(node)
                )
                assert mirror.out_degree(node) == graph.out_degree(node)
                assert mirror.in_degree(node) == graph.in_degree(node)
                assert mirror.node_labels(node) == graph.node_labels(node)
                assert mirror.node_attrs(node) == graph.node_attrs(node)
                for other in graph.out_neighbors(node):
                    assert mirror.edge_labels(node, other) == (
                        graph.edge_labels(node, other)
                    )
        finally:
            bundle.close()
            plane.release()

    def test_manifest_is_picklable(self, plane):
        manifest = plane.acquire()
        try:
            clone = pickle.loads(pickle.dumps(manifest))
            assert clone == manifest
            assert clone.stamp == manifest.stamp
            assert clone.segments == manifest.segments
        finally:
            plane.release()

    def test_shared_graph_adopts_stamp(self, graph, plane):
        bundle = attach_bundle(plane.acquire())
        try:
            assert graph_stamp(bundle.graph) == plane.manifest.stamp
            assert graph_stamp(bundle.graph) == graph_stamp(graph)
        finally:
            bundle.close()
            plane.release()

    def test_engine_on_shared_graph_matches_original(self, graph, plane):
        queries = WorkloadGenerator(graph, seed=7).generate(12)
        native = make_engine(
            "arrival", graph, walk_length=12, num_walks=40, seed=SEED
        )
        bundle = attach_bundle(plane.acquire())
        try:
            mirror = make_engine(
                "arrival", bundle.graph,
                walk_length=12, num_walks=40, seed=SEED,
            )
            mirror.adopt_shared_plane(
                bundle.view, bundle.interner, bundle.warm_tables
            )
            for query in queries:
                expected = native.query(query)
                got = mirror.query(query)
                assert got.reachable == expected.reachable
                assert got.path == expected.path
        finally:
            bundle.close()
            plane.release()


# ---------------------------------------------------------------------------
# immutability
# ---------------------------------------------------------------------------
class TestReadOnly:
    def test_attached_views_are_read_only(self, plane):
        bundle = attach_bundle(plane.acquire())
        try:
            assert bundle.plane.arrays
            for role, array in bundle.plane.arrays.items():
                assert array.flags.writeable is False, role
                if array.size:
                    with pytest.raises(ValueError):
                        array[0] = 0
        finally:
            bundle.close()
            plane.release()

    def test_shared_graph_mutators_raise(self, plane):
        bundle = attach_bundle(plane.acquire())
        mirror = bundle.graph
        try:
            with pytest.raises(GraphError, match="frozen"):
                mirror.add_node(labels=frozenset())
            with pytest.raises(GraphError, match="frozen"):
                mirror.add_edge(0, 1, labels=frozenset())
            with pytest.raises(GraphError, match="frozen"):
                mirror.remove_node(0)
            with pytest.raises(GraphError, match="frozen"):
                mirror.set_node_labels(0, frozenset())
        finally:
            bundle.close()
            plane.release()

    def test_copy_of_shared_graph_is_mutable(self, graph, plane):
        bundle = attach_bundle(plane.acquire())
        try:
            clone = bundle.graph.copy()
            assert not isinstance(clone, SharedGraph)
            node = clone.add_node(labels=frozenset({"X"}))
            assert clone.num_nodes == graph.num_nodes + 1
            assert clone.node_labels(node) == frozenset({"X"})
        finally:
            bundle.close()
            plane.release()


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_refcount_release_unlinks(self, graph):
        plane = GraphPlane.export(graph)
        names = [spec.name for spec in plane.manifest.segments]
        assert all(name in shm_entries() for name in names)
        plane.acquire()
        plane.release()  # back to the constructor's reference
        assert not plane.closed
        plane.release()  # last reference gone -> unlink
        assert plane.closed
        assert not any(name in shm_entries() for name in names)

    def test_close_is_idempotent(self, graph):
        plane = GraphPlane.export(graph)
        plane.close()
        plane.close()
        assert plane.closed

    def test_acquire_after_close_raises(self, graph):
        plane = GraphPlane.export(graph)
        plane.close()
        with pytest.raises(GraphError):
            plane.acquire()

    def test_attach_after_unlink_raises(self, graph):
        plane = GraphPlane.export(graph)
        manifest = plane.manifest
        plane.close()
        with pytest.raises(FileNotFoundError):
            WorkerBundle(manifest)

    def test_empty_graph_exports(self):
        plane = GraphPlane.export(LabeledGraph())
        try:
            bundle = WorkerBundle(plane.manifest)
            assert bundle.graph.num_nodes == 0
            assert bundle.graph.num_edges == 0
            bundle.close()
        finally:
            plane.close()


# ---------------------------------------------------------------------------
# warm transition tables
# ---------------------------------------------------------------------------
class TestWarmTables:
    def test_engine_tables_ride_the_plane(self, graph):
        queries = WorkloadGenerator(graph, seed=7).generate(6)
        donor = make_engine(
            "arrival", graph, walk_length=12, num_walks=40, seed=SEED
        )
        for query in queries:
            donor.query(query)
        plane = GraphPlane.export(graph, engine=donor)
        try:
            assert plane.manifest.n_tables > 0
            bundle = WorkerBundle(plane.manifest)
            assert len(bundle.warm_tables) == plane.manifest.n_tables
            for (fingerprint, forward), state in bundle.warm_tables.items():
                assert isinstance(fingerprint, str)
                assert isinstance(forward, bool)
                assert state["dense"].dtype == np.int32
            mirror = make_engine(
                "arrival", bundle.graph,
                walk_length=12, num_walks=40, seed=SEED,
            )
            mirror.adopt_shared_plane(
                bundle.view, bundle.interner, bundle.warm_tables
            )
            # a fresh reference engine: the donor's RNG already advanced
            # during warm-up, so the comparison needs pristine streams —
            # warm tables are a cache, they must not change answers
            reference = make_engine(
                "arrival", graph, walk_length=12, num_walks=40, seed=SEED
            )
            for query in queries:
                expected = reference.query(query)
                got = mirror.query(query)
                assert got.reachable == expected.reachable
                assert got.path == expected.path
            bundle.close()
        finally:
            plane.close()

    def test_plane_without_donor_has_no_tables(self, plane):
        assert plane.manifest.n_tables == 0

    def test_auto_engine_adopts_the_attached_view(self, plane):
        """Workers built from an ``auto`` factory reuse the attached view
        through the router's ARRIVAL route instead of rebuilding it."""
        bundle = attach_bundle(plane.acquire())
        try:
            worker = make_engine(
                "auto", bundle.graph,
                walk_length=12, num_walks=40, seed=SEED,
            )
            worker.adopt_shared_plane(
                bundle.view, bundle.interner, bundle.warm_tables
            )
            worker.prepare()
            assert worker.arrival.view_rebuilds == 0
        finally:
            bundle.close()
            plane.release()

    def test_auto_engine_donates_its_warm_tables(self, graph):
        queries = WorkloadGenerator(graph, seed=7).generate(6)
        donor = make_engine(
            "auto", graph, walk_length=12, num_walks=40, seed=SEED
        )
        for query in queries:
            donor.query(query)
        plane = GraphPlane.export(graph, engine=donor)
        try:
            assert plane.manifest.n_tables > 0
        finally:
            plane.close()
