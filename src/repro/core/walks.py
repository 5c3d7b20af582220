"""Random-walk machinery for ARRIVAL (Algorithm 2's inner loop).

A :class:`SideRunner` manages one direction of the bidirectional sampler:
it owns the current walk (path + automaton state set), restarts walks
from its origin when they die or hit ``walk_length``, records every
position into its :class:`~repro.core.meeting.MeetingIndex` and
:class:`~repro.core.meeting.WalkStore`, and checks Case 3 against the
*opposite* side after every jump.

Candidate neighbours must keep the walk simple (node not yet on the
path) and potentially compatible (non-empty automaton state set) —
lines 20-21 of Algorithm 2.  The backward side admits a neighbour when
its *meeting key* is non-empty: even if the node's own symbol kills the
continuation, the position is still a valid junction for a forward walk
that consumes that symbol itself (see :mod:`repro.regex.matcher` for the
key semantics); the walk then dies on the next step, which is the
paper's Case 1.

One walk loop, two candidate scans with the same semantics:

* the **interned scan** (``view=``/``tables=`` wired by the engine)
  reads a frozen :class:`~repro.core.fastpath.GraphView` and steps the
  automaton through an :class:`~repro.regex.interner.InternedStepTable`
  — every per-candidate operation is an int-keyed probe, and walk
  starts are memoised per runner (walks restart from the same origin
  constantly).  It serves every query where label-keyed memoisation is
  sound: exact mode, no query-time predicates;
* the **frozenset scan** walks the graph's adjacency through the
  trackers (:class:`~repro.regex.matcher.ForwardTracker` /
  :class:`~repro.regex.matcher.BackwardTracker`) — always sound, and
  what ``label_mode="sampled"`` and predicate queries take.

Both scans list candidates in CSR order and draw each jump from one
:class:`~repro.rng.BatchedIndexSampler` (1024-uniform blocks), so on
one seed they take identical walks.  Hot-path counters (``scanned``,
sampler refills, table hits/misses) feed ``QueryResult.stats``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fastpath import GraphView
from repro.core.meeting import (
    MeetingIndex,
    WalkStore,
    hashmap_meet,
    naive_meet,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.regex.compiler import CompiledRegex
from repro.regex.interner import EMPTY_STATE_ID, InternedStepTable
from repro.regex.matcher import BackwardTracker, ForwardTracker
from repro.regex.nfa import StateSet
from repro.rng import BatchedIndexSampler


class SideRunner:
    """One direction (forward or backward) of the bidirectional sampler."""

    def __init__(
        self,
        graph: LabeledGraph,
        compiled: CompiledRegex,
        elements: str,
        origin: int,
        forward: bool,
        walk_length: int,
        rng: np.random.Generator,
        mode: str = "exact",
        meeting: str = "hashmap",
        max_edges: Optional[int] = None,
        min_edges: Optional[int] = None,
        trace: Optional[list] = None,
        view: Optional[GraphView] = None,
        tables: Optional[InternedStepTable] = None,
    ):
        self.graph = graph
        self.compiled = compiled
        self.elements = elements
        self.origin = origin
        self.forward = forward
        self.walk_length = walk_length
        self.rng = rng
        self.mode = mode
        self.meeting = meeting
        self.max_edges = max_edges
        self.min_edges = min_edges
        #: optional event sink: one dict per registered position (the
        #: Fig. 3 walker/hashmap illustration is replayable from it)
        self.trace = trace

        self.store = WalkStore()
        self.index = MeetingIndex()
        self.completed_walks = 0
        self.jumps = 0
        #: candidate neighbours examined across all jumps (hot-path metric)
        self.scanned = 0
        #: endpoints of completed walks, for the stationary estimator
        self.endpoints: List[int] = []

        if forward:
            self._tracker = ForwardTracker(
                compiled, graph, elements, mode, rng
            )
            self._neighbors: Callable[[int], Sequence[int]] = (
                graph.out_neighbors
            )
        else:
            self._tracker = BackwardTracker(
                compiled, graph, elements, mode, rng
            )
            self._neighbors = graph.in_neighbors
        resolved = self._tracker.elements
        self._consume_nodes = resolved in ("nodes", "both")
        self._consume_edges = resolved in ("edges", "both")

        #: interned scan active iff the engine wired a view and tables
        #: — the soundness gate (exact mode, no predicates) lives there
        self.fast = view is not None and tables is not None
        self._view = view
        self._tables = tables
        if self.fast:
            if forward:
                self._indptr = view.out_indptr
                self._indices = view.out_indices
                self._edge_ls = view.out_edge_ls
            else:
                self._indptr = view.in_indptr
                self._indices = view.in_indices
                self._edge_ls = view.in_edge_ls
        self._sampler = BatchedIndexSampler(rng)

        # current-walk state
        self._path: List[int] = []
        self._path_set: set = set()
        self._states: StateSet = frozenset()
        self._sid: int = EMPTY_STATE_ID
        self._start_ids: Optional[Tuple[int, int]] = None
        self._walk_id: Optional[int] = None
        # the opposite side, wired by the engine after both exist
        self.opposite: Optional["SideRunner"] = None

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Is a walk currently in progress?"""
        return self._walk_id is not None

    @property
    def current_path(self) -> List[int]:
        """Node sequence of the in-progress walk."""
        return self._path

    @property
    def rng_refills(self) -> int:
        """Uniform blocks the jump sampler has drawn."""
        return self._sampler.refills

    def step(self) -> Optional[List[int]]:
        """One walker action: begin a walk or take one jump.

        Returns a simple compatible joined path if Case 3 fires, else
        None.  Walk termination (Cases 1-2) increments
        ``completed_walks`` and leaves the side inactive; the next call
        begins a fresh walk.
        """
        if not self.active:
            return self._begin()
        if len(self._path) >= self.walk_length:
            self._finish_walk()
            return None
        candidates = (
            self._candidates_fast() if self.fast else self._candidates()
        )
        if not candidates:
            self._finish_walk()
            return None
        node, key, next_state = candidates[
            self._sampler.index(len(candidates))
        ]
        if self.fast:
            self._sid = next_state
            key_states: Sequence[int] = self._tables.tuple_of(key)
        else:
            self._states = next_state
            key_states = key
        self._path.append(node)
        self._path_set.add(node)
        self.store.append(self._walk_id, node)
        self.jumps += 1
        return self._register(node, key_states)

    # ------------------------------------------------------------------
    def _begin(self) -> Optional[List[int]]:
        self._walk_id = self.store.new_walk(self.origin)
        self._path = [self.origin]
        self._path_set = {self.origin}
        self.jumps += 1
        if self.fast:
            if self._start_ids is None:
                # start states are identical for every walk of a side,
                # so the interned (meeting key, continuation) pair is
                # computed once through the frozenset tracker.  Forward
                # walks key and continue on the same set; backward walks
                # may have a live key with a dead continuation (the
                # origin's own symbol ends an accepted word but cannot be
                # extended — the paper's Case 1 on the next step).
                tables = self._tables
                if self.forward:
                    sid = tables.intern(self._tracker.start(self.origin))
                    self._start_ids = (sid, sid)
                else:
                    start_key, current = self._tracker.start(self.origin)
                    self._start_ids = (
                        tables.intern(start_key),
                        tables.intern(current),
                    )
            key_sid, self._sid = self._start_ids
            if key_sid == EMPTY_STATE_ID:
                self._finish_walk()
                return None
            key_states: Sequence[int] = self._tables.tuple_of(key_sid)
        else:
            if self.forward:
                self._states = self._tracker.start(self.origin)
                key_states = self._states
            else:
                key_states, self._states = self._tracker.start(self.origin)
            if not key_states:
                # the origin's own symbol cannot start/end any accepted
                # word; the walk is dead on arrival (Case 1 at length 1)
                self._finish_walk()
                return None
        return self._register(self.origin, key_states)

    def _candidates(self) -> List[Tuple[int, StateSet, StateSet]]:
        """Admissible next nodes with their (key, continuation) states."""
        if not self._states:
            return []
        current = self._path[-1]
        admissible = []
        neighbors = self._neighbors(current)
        self.scanned += len(neighbors)
        for neighbor in neighbors:
            if neighbor in self._path_set:
                continue  # simplicity (line 20-21 of Alg. 2)
            if self.forward:
                next_states = self._tracker.extend(
                    self._states, current, neighbor
                )
                if next_states:
                    admissible.append((neighbor, next_states, next_states))
            else:
                key_states, next_states = self._tracker.extend(
                    self._states, neighbor, current
                )
                # admission on the continuation set (the paper's
                # "potentially backward compatible", line 21): if it is
                # empty, no forward set can intersect the key either, so
                # nothing is lost (see tests/test_walks.py for the
                # property check)
                if next_states:
                    admissible.append((neighbor, key_states, next_states))
        return admissible

    def _candidates_fast(self) -> List[Tuple[int, int, int]]:
        """The interned candidate scan: same admission rule as
        :meth:`_candidates`, all int-keyed operations.

        The transition table is probed inline (``probe((sid, lsid))``)
        rather than through :meth:`InternedStepTable.step` — in the
        steady state nearly every transition hits, and a bound-method
        call per candidate costs more than the dict probe it wraps.
        Misses fall back to ``step`` (which also counts itself);
        inline hits are tallied locally and flushed once per scan.
        """
        sid = self._sid
        if sid == EMPTY_STATE_ID:
            return []
        current = self._path[-1]
        indptr = self._indptr
        start = indptr[current]
        end = indptr[current + 1]
        self.scanned += end - start
        if start == end:
            return []
        indices = self._indices
        edge_ls = self._edge_ls
        node_ls = self._view.node_ls
        path_set = self._path_set
        tables = self._tables
        probe = tables.table.get
        step = tables.step
        sym = tables.sym_ids
        consume_edges = self._consume_edges
        consume_nodes = self._consume_nodes
        hits = 0
        admissible: List[Tuple[int, int, int]] = []
        if self.forward:
            for slot in range(start, end):
                neighbor = indices[slot]
                if neighbor in path_set:
                    continue
                next_sid = sid
                if consume_edges:
                    cached = probe((next_sid, sym[edge_ls[slot]]))
                    if cached is None:
                        next_sid = step(next_sid, edge_ls[slot])
                    else:
                        hits += 1
                        next_sid = cached
                    if next_sid == EMPTY_STATE_ID:
                        continue
                if consume_nodes:
                    cached = probe((next_sid, sym[node_ls[neighbor]]))
                    if cached is None:
                        next_sid = step(next_sid, node_ls[neighbor])
                    else:
                        hits += 1
                        next_sid = cached
                    if next_sid == EMPTY_STATE_ID:
                        continue
                admissible.append((neighbor, next_sid, next_sid))
        else:
            for slot in range(start, end):
                neighbor = indices[slot]
                if neighbor in path_set:
                    continue
                # the edge symbol lies between the predecessor and the
                # suffix: consuming it yields the key; the predecessor's
                # own symbol only feeds the continuation
                key_sid = sid
                if consume_edges:
                    cached = probe((key_sid, sym[edge_ls[slot]]))
                    if cached is None:
                        key_sid = step(key_sid, edge_ls[slot])
                    else:
                        hits += 1
                        key_sid = cached
                    if key_sid == EMPTY_STATE_ID:
                        continue
                next_sid = key_sid
                if consume_nodes:
                    cached = probe((next_sid, sym[node_ls[neighbor]]))
                    if cached is None:
                        next_sid = step(next_sid, node_ls[neighbor])
                    else:
                        hits += 1
                        next_sid = cached
                if next_sid == EMPTY_STATE_ID:
                    continue
                admissible.append((neighbor, key_sid, next_sid))
        tables.hits += hits
        return admissible

    def _finish_walk(self) -> None:
        self.endpoints.append(self._path[-1])
        self.completed_walks += 1
        self._walk_id = None
        self._path = []
        self._path_set = set()
        self._states = frozenset()
        self._sid = EMPTY_STATE_ID

    def _register(
        self, node: int, key_states: Sequence[int]
    ) -> Optional[List[int]]:
        """Record the position and run the Case-3 check."""
        position = len(self._path) - 1
        if self.trace is not None:
            self.trace.append(
                {
                    "side": "forward" if self.forward else "backward",
                    "walk": self.completed_walks,
                    "node": node,
                    "position": position,
                    "states": tuple(sorted(key_states)),
                }
            )
        if self.meeting == "hashmap":
            self.index.add(node, key_states, self._walk_id, position)
            if self.opposite is None:
                return None
            return hashmap_meet(
                self.opposite.index,
                self.opposite.store,
                node,
                key_states,
                self._path,
                current_is_forward=self.forward,
                max_edges=self.max_edges,
                min_edges=self.min_edges,
            )
        if self.opposite is None:
            return None
        return naive_meet(
            self.compiled,
            self.graph,
            self.elements,
            self._path,
            self.opposite.store,
            current_is_forward=self.forward,
            max_edges=self.max_edges,
            min_edges=self.min_edges,
        )
