"""Zero-copy shared-memory graph plane for the process backend.

The process backend used to ship the graph into every worker by value:
the pool initializer pickles the whole :class:`~repro.graph.
labeled_graph.LabeledGraph` (or, under ``fork``, copy-on-writes it) and
each worker then rebuilds its own CSR :class:`~repro.core.fastpath.
GraphView` and label-interner tables from scratch — an O(n + m) tax per
worker that dwarfs query time on large graphs.  This module exports the
already-built arrays **once** into ``multiprocessing.shared_memory``
segments and lets workers attach them zero-copy:

``GraphPlane.export(graph, engine=...)``
    Owner side.  Writes the CSR buffers of both walk directions
    (:class:`~repro.core.fastpath.SideArrays`), the node label-set ids,
    the alive bitmap, the interned label-set table and — when the donor
    engine has them — the dense :class:`~repro.regex.interner.
    InternedStepTable` mirrors into named segments, described by a
    small picklable :class:`GraphPlaneManifest` (segment names, dtypes,
    shapes, and the ``plan.graph_stamp`` of the snapshot).

``attach_bundle(manifest)``
    Worker side.  Attaches every segment read-only (``writeable=False``
    numpy views over the shared buffers — no copy, no unpickling) and
    reconstructs a :class:`SharedGraph`, a frozen ``LabeledGraph``
    whose CSR snapshots *are* the shared buffers.  Attachments are
    cached per process, so a warm worker pays nothing per batch.

**Lifecycle.**  Segments are owned by the exporting process.  A
:class:`GraphPlane` is refcounted (:meth:`~GraphPlane.acquire` /
:meth:`~GraphPlane.release`) and unlinks its segments when the count
drops to zero, on :meth:`~GraphPlane.close`, or — via
``weakref.finalize`` — at garbage collection and interpreter exit, so
nothing leaks even when timed-out workers are terminated mid-query.
Worker attachments are left registered with the shared
``multiprocessing`` resource tracker (see :func:`_attach_segment`):
registration is idempotent per name, the owner's single ``unlink()``
consumes it, and a crashed owner's segments still get reaped at
tracker shutdown.

Naming: every segment is ``rshm-<pid>-<seq>-<entropy>``; tests and
benchmarks scan ``/dev/shm`` for the prefix to assert zero leaks.
"""

from __future__ import annotations

import itertools
import os
import pickle
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro import obs
from repro.core.fastpath import (
    GraphView,
    LabelSetInterner,
    SideArrays,
    build_graph_view,
    view_from_side_arrays,
)
from repro.core.plan import GraphStamp, adopt_stamp, graph_stamp
from repro.errors import GraphError
from repro.graph.labeled_graph import CSRSnapshot, LabeledGraph
from repro.labels import LabelSet

__all__ = [
    "AttachedPlane",
    "GraphPlane",
    "GraphPlaneManifest",
    "SegmentSpec",
    "SharedGraph",
    "WorkerBundle",
    "attach_bundle",
    "segment_prefix",
]

#: prefix of every segment name this module creates — leak checks scan
#: ``/dev/shm`` for it
_NAME_PREFIX = "rshm"

_SEGMENT_SEQ = itertools.count(1)

#: roles of the eight core array segments, in manifest order
_ARRAY_ROLES = (
    "out_indptr",
    "out_indices",
    "out_edge_ls",
    "in_indptr",
    "in_indices",
    "in_edge_ls",
    "node_ls",
    "alive",
)
_BLOB_ROLE = "blob"

_EMPTY_ATTRS: Mapping[str, Any] = {}


def segment_prefix() -> str:
    """The shared-memory name prefix (``/dev/shm`` leak scans)."""
    return _NAME_PREFIX


def _segment_name() -> str:
    # pid + counter make the name unique within a process tree; the
    # entropy suffix keeps re-used pids from colliding across runs
    return (
        f"{_NAME_PREFIX}-{os.getpid()}"
        f"-{next(_SEGMENT_SEQ)}-{os.urandom(3).hex()}"
    )


@dataclass(frozen=True)
class SegmentSpec:
    """One shared-memory segment: where it lives and how to view it."""

    role: str
    name: str
    dtype: str
    shape: Tuple[int, ...]


@dataclass(frozen=True)
class GraphPlaneManifest:
    """Everything a worker needs to attach a plane (small, picklable).

    ``stamp`` is the owning graph's :func:`~repro.core.plan.graph_stamp`
    at export time; attached :class:`SharedGraph` instances adopt it, so
    plan-cache entries keyed on the stamp stay valid across the process
    boundary, and pools revalidate staleness by comparing stamps.
    """

    stamp: GraphStamp
    directed: bool
    labeled_elements: Optional[str]
    num_alive: int
    num_edges: int
    max_node_id: int
    segments: Tuple[SegmentSpec, ...]
    nbytes: int
    n_tables: int = 0

    @property
    def version(self) -> int:
        """The graph version baked into the plane."""
        return self.stamp[1]

    def spec(self, role: str) -> SegmentSpec:
        """The segment serving ``role`` (raises on unknown roles)."""
        for spec in self.segments:
            if spec.role == role:
                return spec
        raise KeyError(f"manifest has no segment for role {role!r}")

    def key(self) -> Tuple[int, int, str]:
        """Identity for worker-side attach caching.

        The stamp alone is not unique (tokens are per-process counters),
        so the blob segment's name — unique by construction — is mixed
        in.
        """
        return (self.stamp[0], self.stamp[1], self.spec(_BLOB_ROLE).name)


# ---------------------------------------------------------------------------
# owner side: export
# ---------------------------------------------------------------------------
def _unlink_segments(
    owner_pid: int, segments: List[shared_memory.SharedMemory]
) -> None:
    """Unlink every owned segment (idempotent, exception-proof).

    Guarded by the owner's pid: a forked worker inherits the parent's
    :class:`GraphPlane` (and with it this finalizer), and must never
    unlink segments the parent still serves.
    """
    if os.getpid() != owner_pid:
        return
    for segment in segments:
        try:
            segment.close()
        except OSError:
            pass
        try:
            segment.unlink()
        except (FileNotFoundError, OSError):
            pass
    segments.clear()


def _export_array(
    role: str,
    array: npt.NDArray[Any],
    segments: List[shared_memory.SharedMemory],
) -> SegmentSpec:
    """Copy ``array`` into a fresh named segment; record the handle."""
    array = np.ascontiguousarray(array)
    segment = shared_memory.SharedMemory(
        create=True, size=max(1, array.nbytes), name=_segment_name()
    )
    segments.append(segment)
    if array.size:
        view: npt.NDArray[Any] = np.ndarray(
            array.shape, dtype=array.dtype, buffer=segment.buf
        )
        view[...] = array
    return SegmentSpec(
        role=role,
        name=segment.name,
        dtype=str(array.dtype),
        shape=tuple(array.shape),
    )


def _collect_attrs(
    graph: LabeledGraph,
) -> Tuple[Dict[int, Dict[str, Any]], Dict[Tuple[int, int], Dict[str, Any]]]:
    """Sparse node/edge attribute maps (attrs are rare; ship only set ones)."""
    node_attrs: Dict[int, Dict[str, Any]] = {}
    for node in range(graph.max_node_id):
        if not graph.is_alive(node):
            continue
        attrs = graph.node_attrs(node)
        if attrs:
            node_attrs[node] = dict(attrs)
    edge_attrs: Dict[Tuple[int, int], Dict[str, Any]] = {}
    for u, v in graph.edges():
        attrs = graph.edge_attrs(u, v)
        if attrs:
            edge_attrs[(u, v)] = dict(attrs)
    return node_attrs, edge_attrs


class GraphPlane:
    """Owner-side handle on one exported graph plane (refcounted).

    Created by :meth:`export`; the creator holds the first reference.
    :meth:`release` drops one reference and unlinks every segment when
    none remain; :meth:`close` unlinks unconditionally.  A
    ``weakref.finalize`` guarantees unlink at GC / interpreter exit even
    when an executor dies on the abandoned-worker path.
    """

    def __init__(
        self,
        manifest: GraphPlaneManifest,
        segments: List[shared_memory.SharedMemory],
    ) -> None:
        self.manifest = manifest
        self._segments = segments
        self._refs = 1
        self._finalizer = weakref.finalize(
            self, _unlink_segments, os.getpid(), segments
        )

    @property
    def nbytes(self) -> int:
        """Total bytes held in shared memory."""
        return self.manifest.nbytes

    @property
    def closed(self) -> bool:
        """True once the segments have been unlinked."""
        return not self._finalizer.alive

    def acquire(self) -> GraphPlaneManifest:
        """Take one more reference; returns the manifest for shipping."""
        if self.closed:
            raise GraphError("shared-memory plane is already closed")
        self._refs += 1
        return self.manifest

    def release(self) -> None:
        """Drop one reference; unlink the segments when none remain."""
        self._refs -= 1
        if self._refs <= 0:
            self.close()

    def close(self) -> None:
        """Unlink every segment now (idempotent)."""
        self._finalizer()

    @classmethod
    def export(
        cls, graph: LabeledGraph, engine: Optional[Any] = None
    ) -> "GraphPlane":
        """Export ``graph`` (and a donor engine's warm state) to shm.

        When ``engine`` exposes ``shared_plane_state()`` (see
        :class:`~repro.core.arrival.Arrival`) and its view matches the
        graph's current version, the engine's already-built view,
        interner and dense step-table mirrors are exported — workers
        then start with warm transition tables.  Otherwise a fresh view
        is built here (one O(n + m) pass, paid once instead of once per
        worker).
        """
        stamp = graph_stamp(graph)
        view: Optional[GraphView] = None
        interner: Optional[LabelSetInterner] = None
        tables: List[Tuple[str, bool, Dict[str, Any]]] = []
        if engine is not None:
            state_fn = getattr(engine, "shared_plane_state", None)
            if callable(state_fn):
                view, interner, tables = state_fn()
        if (
            view is None
            or interner is None
            or view.version != graph.version
        ):
            interner = LabelSetInterner()
            view = build_graph_view(graph, interner)
            tables = []
        segments: List[shared_memory.SharedMemory] = []
        try:
            with obs.span("shm.export", version=graph.version):
                manifest = cls._export_segments(
                    graph, stamp, view, interner, tables, segments
                )
        except BaseException:
            _unlink_segments(os.getpid(), segments)
            raise
        return cls(manifest, segments)

    @classmethod
    def _export_segments(
        cls,
        graph: LabeledGraph,
        stamp: GraphStamp,
        view: GraphView,
        interner: LabelSetInterner,
        tables: List[Tuple[str, bool, Dict[str, Any]]],
        segments: List[shared_memory.SharedMemory],
    ) -> GraphPlaneManifest:
        specs: List[SegmentSpec] = []
        out_arrays = view.arrays(forward=True)
        in_arrays = view.arrays(forward=False)
        alive = np.fromiter(
            (graph.is_alive(node) for node in range(graph.max_node_id)),
            dtype=np.uint8,
            count=graph.max_node_id,
        )
        arrays: Tuple[Tuple[str, npt.NDArray[Any]], ...] = (
            ("out_indptr", out_arrays.indptr),
            ("out_indices", out_arrays.indices),
            ("out_edge_ls", out_arrays.edge_ls),
            ("in_indptr", in_arrays.indptr),
            ("in_indices", in_arrays.indices),
            ("in_edge_ls", in_arrays.edge_ls),
            ("node_ls", out_arrays.node_ls),
            ("alive", alive),
        )
        for role, array in arrays:
            specs.append(_export_array(role, array, segments))

        node_attrs, edge_attrs = _collect_attrs(graph)
        table_payload: List[Dict[str, Any]] = []
        for index, (fingerprint, forward, state) in enumerate(tables):
            sym_spec = _export_array(
                f"table{index}.sym_ids", state["sym_ids"], segments
            )
            dense_spec = _export_array(
                f"table{index}.dense", state["dense"], segments
            )
            specs.extend((sym_spec, dense_spec))
            table_payload.append(
                {
                    "fingerprint": fingerprint,
                    "forward": forward,
                    "state_sets": state["state_sets"],
                    "key_ids": state["key_ids"],
                    "sym_role": sym_spec.role,
                    "dense_role": dense_spec.role,
                }
            )
        payload = {
            "label_sets": list(interner.sets),
            "node_attrs": node_attrs,
            "edge_attrs": edge_attrs,
            "tables": table_payload,
        }
        blob = np.frombuffer(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
            dtype=np.uint8,
        )
        specs.append(_export_array(_BLOB_ROLE, blob, segments))
        return GraphPlaneManifest(
            stamp=stamp,
            directed=graph.directed,
            labeled_elements=graph.labeled_elements,
            num_alive=graph.num_nodes,
            num_edges=graph.num_edges,
            max_node_id=graph.max_node_id,
            segments=tuple(specs),
            nbytes=sum(segment.size for segment in segments),
            n_tables=len(table_payload),
        )


# ---------------------------------------------------------------------------
# worker side: attach
# ---------------------------------------------------------------------------
def _attach_segment(spec: SegmentSpec) -> shared_memory.SharedMemory:
    """Open one existing segment without adopting its lifetime.

    On Python <= 3.12 attaching registers the name with the resource
    tracker.  Our attachers are always multiprocessing children of the
    exporting process (or the exporter itself), and children share the
    parent's tracker process, where registration is an idempotent
    name-set add — so the duplicate attach-side registration is
    harmless and the owner's single ``unlink()`` consumes it.  An
    attach-side ``unregister`` here would instead erase the owner's
    create-time registration (same shared name set), turning the
    owner's unlink into tracker-noise *and* forfeiting the tracker's
    crash insurance: with the registration left in place, segments
    leaked by a crashed owner are unlinked at tracker shutdown.
    """
    return shared_memory.SharedMemory(name=spec.name, create=False)


def _view_segment(
    spec: SegmentSpec, segment: shared_memory.SharedMemory
) -> npt.NDArray[Any]:
    """A read-only numpy view over an attached segment (zero-copy)."""
    view: npt.NDArray[Any] = np.ndarray(
        spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf
    )
    view.setflags(write=False)
    return view


class AttachedPlane:
    """Worker-side handles on an attached plane's segments and views."""

    def __init__(self, manifest: GraphPlaneManifest) -> None:
        self.manifest = manifest
        self._segments: List[shared_memory.SharedMemory] = []
        self.arrays: Dict[str, npt.NDArray[Any]] = {}
        try:
            for spec in manifest.segments:
                segment = _attach_segment(spec)
                self._segments.append(segment)
                self.arrays[spec.role] = _view_segment(spec, segment)
        except BaseException:
            self.close()
            raise
        self.payload: Dict[str, Any] = pickle.loads(
            self.arrays[_BLOB_ROLE].tobytes()
        )

    def close(self) -> None:
        """Drop the local mappings (never unlinks — the owner does)."""
        self.arrays.clear()
        for segment in self._segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - already gone
                pass
        self._segments.clear()


def _adjacency_lists(csr: CSRSnapshot, max_node_id: int) -> List[List[int]]:
    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()
    return [
        indices[indptr[node] : indptr[node + 1]]
        for node in range(max_node_id)
    ]


class SharedGraph(LabeledGraph):
    """A frozen :class:`LabeledGraph` over an attached plane.

    CSR snapshots, the walk fast path and label lookups read the shared
    buffers directly (zero-copy); the rarely-touched adjacency *lists*
    and edge-label dict are materialised lazily from the CSR on first
    access (``copy()``, ad-hoc introspection).  All mutators raise
    :class:`~repro.errors.GraphError` — the plane is a snapshot, and a
    write through the shared buffers would corrupt every sibling
    worker (numpy refuses it at runtime: every attached view is
    ``writeable=False``, pinned by
    ``tests/test_shm.py::TestReadOnly::test_attached_views_are_read_only``).
    """

    _frozen = True

    def __init__(self, manifest: GraphPlaneManifest, view: GraphView) -> None:
        # deliberately no super().__init__(): every base field is either
        # reconstructed from the plane or served lazily by a property
        self.directed = manifest.directed
        self.labeled_elements = manifest.labeled_elements
        self._num_alive = manifest.num_alive
        self._num_edges = manifest.num_edges
        self._max_node_id = manifest.max_node_id
        self._version = manifest.version
        self._shared_view = view
        self._node_attr_map: Dict[int, Dict[str, Any]] = {}
        self._edge_attr_map: Dict[Tuple[int, int], Dict[str, Any]] = {}
        self._alive: List[bool] = []
        sets = view.label_sets
        self._node_labels: List[LabelSet] = [
            sets[lsid] for lsid in view.node_ls
        ]
        out = view.arrays(forward=True)
        in_ = view.arrays(forward=False)
        self._csr_cache: Dict[str, CSRSnapshot] = {
            "out": CSRSnapshot(manifest.version, out.indptr, out.indices),
            "in": CSRSnapshot(manifest.version, in_.indptr, in_.indices),
        }
        self._derived: Dict[str, Any] = {}
        self.csr_rebuilds = 0
        adopt_stamp(self, manifest.stamp)

    @classmethod
    def from_plane(cls, plane: AttachedPlane, view: GraphView) -> "SharedGraph":
        graph = cls(plane.manifest, view)
        graph._alive = [
            bool(flag) for flag in plane.arrays["alive"].tolist()
        ]
        graph._node_attr_map = plane.payload["node_attrs"]
        graph._edge_attr_map = plane.payload["edge_attrs"]
        return graph

    # -- overridden accessors (serve straight off the plane) -----------
    @property
    def max_node_id(self) -> int:
        return self._max_node_id

    def out_neighbors(self, node: int) -> Tuple[int, ...]:
        return tuple(
            int(x) for x in self._csr_cache["out"].neighbors(node)
        )

    def in_neighbors(self, node: int) -> Tuple[int, ...]:
        return tuple(int(x) for x in self._csr_cache["in"].neighbors(node))

    def out_degree(self, node: int) -> int:
        return self._csr_cache["out"].degree(node)

    def in_degree(self, node: int) -> int:
        return self._csr_cache["in"].degree(node)

    def node_attrs(self, node: int) -> Mapping[str, Any]:
        return self._node_attr_map.get(node, _EMPTY_ATTRS)

    # -- lazily materialised base-class fields --------------------------
    # LabeledGraph declares these as instance attributes; the overrides
    # below serve them on demand so inherited methods (has_edge, edges,
    # edge_labels, copy, ...) keep working without an eager O(n + m)
    # rebuild at attach time.
    @property  # type: ignore[override]
    def _out(self) -> List[List[int]]:
        cached = self.__dict__.get("_out_lists")
        if cached is None:
            cached = _adjacency_lists(
                self._csr_cache["out"], self._max_node_id
            )
            self.__dict__["_out_lists"] = cached
        return cached  # type: ignore[no-any-return]

    @property  # type: ignore[override]
    def _in(self) -> List[List[int]]:
        cached = self.__dict__.get("_in_lists")
        if cached is None:
            cached = _adjacency_lists(
                self._csr_cache["in"], self._max_node_id
            )
            self.__dict__["_in_lists"] = cached
        return cached  # type: ignore[no-any-return]

    @property  # type: ignore[override]
    def _edge_labels(self) -> Dict[Tuple[int, int], LabelSet]:
        cached = self.__dict__.get("_edge_label_map")
        if cached is None:
            cached = {}
            view = self._shared_view
            sets = view.label_sets
            indptr = view.out_indptr
            indices = view.out_indices
            edge_ls = view.out_edge_ls
            directed = self.directed
            for u in range(self._max_node_id):
                for slot in range(indptr[u], indptr[u + 1]):
                    v = indices[slot]
                    key = (u, v) if directed or u <= v else (v, u)
                    cached[key] = sets[edge_ls[slot]]
            self.__dict__["_edge_label_map"] = cached
        return cached  # type: ignore[no-any-return]

    @property  # type: ignore[override]
    def _edge_attrs(self) -> Dict[Tuple[int, int], Dict[str, Any]]:
        return self._edge_attr_map

    @property  # type: ignore[override]
    def _node_attrs(self) -> List[Optional[Dict[str, Any]]]:
        cached = self.__dict__.get("_node_attr_list")
        if cached is None:
            cached = [
                self._node_attr_map.get(node)
                for node in range(self._max_node_id)
            ]
            self.__dict__["_node_attr_list"] = cached
        return cached  # type: ignore[no-any-return]


class WorkerBundle:
    """Everything one worker reconstructs from one attached plane.

    Built once per (process, plane) by :func:`attach_bundle` and shared
    by every engine the worker constructs: the interner, the zero-copy
    :class:`~repro.core.fastpath.GraphView`, the :class:`SharedGraph`
    and the raw warm step-table state (adopted per compiled regex by
    :meth:`Arrival._fast_table <repro.core.arrival.Arrival>`).
    """

    def __init__(self, manifest: GraphPlaneManifest) -> None:
        with obs.span("shm.attach", segments=len(manifest.segments)):
            plane = AttachedPlane(manifest)
            self.plane = plane
            self.interner = LabelSetInterner.adopt(
                plane.payload["label_sets"]
            )
            out = SideArrays(
                plane.arrays["out_indptr"],
                plane.arrays["out_indices"],
                plane.arrays["out_edge_ls"],
                plane.arrays["node_ls"],
            )
            in_ = SideArrays(
                plane.arrays["in_indptr"],
                plane.arrays["in_indices"],
                plane.arrays["in_edge_ls"],
                plane.arrays["node_ls"],
            )
            self.view = view_from_side_arrays(
                manifest.version, out, in_, self.interner.sets
            )
            self.graph = SharedGraph.from_plane(plane, self.view)
            self.warm_tables: Dict[Tuple[str, bool], Dict[str, Any]] = {}
            for entry in plane.payload["tables"]:
                self.warm_tables[(entry["fingerprint"], entry["forward"])] = {
                    "state_sets": entry["state_sets"],
                    "key_ids": entry["key_ids"],
                    "sym_ids": plane.arrays[entry["sym_role"]],
                    "dense": plane.arrays[entry["dense_role"]],
                }

    def close(self) -> None:
        """Drop this worker's mappings (the owner unlinks)."""
        self.plane.close()


#: per-process attach cache: a warm worker re-attaches nothing
_BUNDLES: Dict[Tuple[int, int, str], WorkerBundle] = {}


def attach_bundle(manifest: GraphPlaneManifest) -> WorkerBundle:
    """The (cached) worker-side bundle for a manifest."""
    key = manifest.key()
    bundle = _BUNDLES.get(key)
    if bundle is None:
        bundle = WorkerBundle(manifest)
        _BUNDLES[key] = bundle
    return bundle
