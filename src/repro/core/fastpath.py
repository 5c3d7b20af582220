"""Walk-engine fast path: frozen graph views with interned label sets.

ARRIVAL's runtime is the candidate scan inside ``SideRunner.step``
(Algorithm 2 lines 20-21).  On the baseline path every examined
neighbour costs several dict probes keyed on frozensets: edge-label
lookup, edge-attr lookup, and a ``(state set, label set)`` step-cache
probe.  A :class:`GraphView` hoists all of that out of the loop:

* the graph's :class:`~repro.graph.labeled_graph.CSRSnapshot` arrays,
  flattened once to plain Python lists (per-element access on numpy
  arrays allocates a numpy scalar — poison in a pure-Python loop);
* per-CSR-slot **label-set ids** for edges and per-node ids for nodes,
  interned through a :class:`LabelSetInterner`, so the inner loop's
  automaton step is one dict probe on ``(state_id, label_set_id)``
  (see :class:`~repro.regex.interner.InternedStepTable`).

Views are immutable and version-stamped: the engine rebuilds on the
first query after a graph mutation (``graph.version`` mismatch), which
preserves dynamic-graph semantics — nothing here outlives its graph
version.  The :class:`LabelSetInterner` deliberately *does* outlive
rebuilds: label-set ids stay stable, so the per-regex transition tables
(which key on them) survive graph mutations unharmed.

Soundness: a view carries only label sets, never attributes, so it can
only serve queries where label-keyed memoisation is sound — exact mode,
no query-time predicates (the ``_StepCache.usable_for`` gate).  The
engine routes every other query down the frozenset path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np
import numpy.typing as npt

from repro.obs import profiled
from repro.graph.labeled_graph import LabeledGraph
from repro.labels import LabelSet


class LabelSetInterner:
    """Dense ids for label sets, stable for the owning engine's lifetime.

    ``sets`` is the live id -> label-set list; transition tables hold a
    reference to it and index it on cache misses.
    """

    __slots__ = ("_ids", "sets")

    def __init__(self) -> None:
        self._ids: Dict[LabelSet, int] = {}
        self.sets: List[LabelSet] = []

    def intern(self, labels: LabelSet) -> int:
        """The id of ``labels``, allocating one on first sight."""
        lsid = self._ids.get(labels)
        if lsid is None:
            lsid = len(self.sets)
            self._ids[labels] = lsid
            self.sets.append(labels)
        return lsid

    @classmethod
    def adopt(cls, sets: Sequence[LabelSet]) -> "LabelSetInterner":
        """An interner pre-seeded with ``sets`` in id order.

        Shared-memory attachment (:mod:`repro.core.shm`) ships the
        owner's id -> label-set table; adopting it verbatim keeps every
        interned id — and therefore every shipped transition-table entry
        keyed on those ids — valid in the attaching process.
        """
        interner = cls()
        for labels in sets:
            interner.intern(labels)
        return interner

    def __len__(self) -> int:
        return len(self.sets)


class SideArrays:
    """One walk direction of a :class:`GraphView` as numpy arrays.

    The walk inner loop wants plain lists (per-element numpy access
    allocates a scalar object); the shared-memory plane
    (:mod:`repro.core.shm`) wants contiguous buffers it can ship
    zero-copy.  A ``SideArrays`` carries the same CSR rows and label-set
    ids as the view's list fields, as ``int32`` arrays, frozen like
    everything else here: the constructor marks all four arrays
    read-only, so a write through any alias raises ``ValueError``.
    """

    __slots__ = ("indptr", "indices", "edge_ls", "node_ls")

    def __init__(
        self,
        indptr: npt.NDArray[np.int32],
        indices: npt.NDArray[np.int32],
        edge_ls: npt.NDArray[np.int32],
        node_ls: npt.NDArray[np.int32],
    ) -> None:
        for array in (indptr, indices, edge_ls, node_ls):
            array.setflags(write=False)
        self.indptr = indptr
        self.indices = indices
        self.edge_ls = edge_ls
        self.node_ls = node_ls


class GraphView:
    """One graph version, flattened for the walk inner loop.

    ``out_indices[out_indptr[u]:out_indptr[u + 1]]`` are ``u``'s
    out-neighbours and ``out_edge_ls`` carries the label-set id of the
    corresponding edge in the same slot; symmetrically for ``in_*``
    (where slot ``i`` of row ``v`` describes edge
    ``(in_indices[i], v)``).  ``node_ls[n]`` is node ``n``'s label-set
    id for every allocated id (dead nodes included — their rows are
    empty, so walks never reach them).

    :meth:`arrays` exposes the same data per direction as numpy arrays
    for the shared-memory plane (:mod:`repro.core.shm`), converted
    lazily once per view — i.e. once per graph version.
    """

    __slots__ = (
        "version",
        "out_indptr",
        "out_indices",
        "out_edge_ls",
        "in_indptr",
        "in_indices",
        "in_edge_ls",
        "node_ls",
        "label_sets",
        "_out_arrays",
        "_in_arrays",
    )

    def __init__(
        self,
        version: int,
        out_indptr: List[int],
        out_indices: List[int],
        out_edge_ls: List[int],
        in_indptr: List[int],
        in_indices: List[int],
        in_edge_ls: List[int],
        node_ls: List[int],
        label_sets: List[LabelSet],
    ) -> None:
        self.version = version
        self.out_indptr = out_indptr
        self.out_indices = out_indices
        self.out_edge_ls = out_edge_ls
        self.in_indptr = in_indptr
        self.in_indices = in_indices
        self.in_edge_ls = in_edge_ls
        self.node_ls = node_ls
        self.label_sets = label_sets
        self._out_arrays: Optional[SideArrays] = None
        self._in_arrays: Optional[SideArrays] = None

    def arrays(self, forward: bool) -> SideArrays:
        """The requested direction as frozen ``int32`` arrays."""
        cached = self._out_arrays if forward else self._in_arrays
        if cached is not None:
            return cached
        if forward:
            built = SideArrays(
                np.asarray(self.out_indptr, dtype=np.int32),
                np.asarray(self.out_indices, dtype=np.int32),
                np.asarray(self.out_edge_ls, dtype=np.int32),
                np.asarray(self.node_ls, dtype=np.int32),
            )
            self._out_arrays = built
        else:
            built = SideArrays(
                np.asarray(self.in_indptr, dtype=np.int32),
                np.asarray(self.in_indices, dtype=np.int32),
                np.asarray(self.in_edge_ls, dtype=np.int32),
                np.asarray(self.node_ls, dtype=np.int32),
            )
            self._in_arrays = built
        return built


def view_from_side_arrays(
    version: int,
    out: SideArrays,
    in_: SideArrays,
    label_sets: List[LabelSet],
) -> GraphView:
    """A :class:`GraphView` wrapped around pre-built side arrays.

    The shared-memory attach path (:mod:`repro.core.shm`) already holds
    both directions as (read-only, zero-copy) ``int32`` arrays; this
    installs them as the view's array caches and derives the scalar
    list fields from them — the only copies made, and they are plain
    Python lists the walk inner loop needs anyway.
    """
    view = GraphView(
        version=version,
        out_indptr=out.indptr.tolist(),
        out_indices=out.indices.tolist(),
        out_edge_ls=out.edge_ls.tolist(),
        in_indptr=in_.indptr.tolist(),
        in_indices=in_.indices.tolist(),
        in_edge_ls=in_.edge_ls.tolist(),
        node_ls=out.node_ls.tolist(),
        label_sets=label_sets,
    )
    view._out_arrays = out
    view._in_arrays = in_
    return view


@profiled("fastpath.build_graph_view")
def build_graph_view(
    graph: LabeledGraph, interner: LabelSetInterner
) -> GraphView:
    """Materialise a :class:`GraphView` of the graph's current version.

    One O(n + m) pass; amortised over every jump of every query until
    the next mutation.
    """
    out_csr = graph.out_csr()
    in_csr = graph.in_csr()
    out_indptr = out_csr.indptr.tolist()
    out_indices = out_csr.indices.tolist()
    in_indptr = in_csr.indptr.tolist()
    in_indices = in_csr.indices.tolist()

    intern = interner.intern
    node_ls = [
        intern(graph.node_labels(node)) for node in range(graph.max_node_id)
    ]

    edge_labels = graph.edge_labels
    out_edge_ls = [0] * len(out_indices)
    for u in range(graph.max_node_id):
        for slot in range(out_indptr[u], out_indptr[u + 1]):
            out_edge_ls[slot] = intern(edge_labels(u, out_indices[slot]))
    in_edge_ls = [0] * len(in_indices)
    for v in range(graph.max_node_id):
        for slot in range(in_indptr[v], in_indptr[v + 1]):
            in_edge_ls[slot] = intern(edge_labels(in_indices[slot], v))

    return GraphView(
        version=out_csr.version,
        out_indptr=out_indptr,
        out_indices=out_indices,
        out_edge_ls=out_edge_ls,
        in_indptr=in_indptr,
        in_indices=in_indices,
        in_edge_ls=in_edge_ls,
        node_ls=node_ls,
        label_sets=interner.sets,
    )
