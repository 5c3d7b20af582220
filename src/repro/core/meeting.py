"""Case-3 meeting detection (Sec. 3.1.1 / 3.1.2).

Two implementations of the "does the current walk meet a stored opposite
walk into a simple compatible path" check:

* :class:`MeetingIndex` — the paper's efficient hashmap keyed on
  ``(node, automatonState)``.  Meeting **and** compatibility are a
  single O(1) lookup (Cor. 1): a shared key means the forward set F(n)
  and backward set B(n) intersect, which by the tracker semantics
  (:mod:`repro.regex.matcher`) is exactly "the joined label sequence is
  accepted".  Only the O(walkLength) simplicity check remains per
  candidate (Thm. 4).
* :func:`naive_meet` — the Thm. 2 baseline: scan every stored opposite
  path for a shared node, join, then run the full Algorithm 3
  compatibility check and the simplicity check.  Kept for the ablation
  benchmark that measures the speedup the hashmap buys.

Both operate on a :class:`WalkStore`, which records every sampled walk's
node sequence so joins can slice the exact prefix that produced a key.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.graph.labeled_graph import LabeledGraph
from repro.regex.compiler import CompiledRegex
from repro.regex.matcher import COMPATIBLE, check_path, join_paths
from repro.regex.nfa import StateSet


class WalkStore:
    """Node sequences of all walks sampled so far, by walk id.

    Walks are appended to incrementally as the walker jumps, so a
    ``(walk_id, position)`` pair recorded in the meeting index always
    addresses a valid prefix — even while the walk is still in progress.
    """

    def __init__(self) -> None:
        self._paths: List[List[int]] = []

    def new_walk(self, first_node: int) -> int:
        """Open a new walk starting at ``first_node``; returns its id."""
        self._paths.append([first_node])
        return len(self._paths) - 1

    def append(self, walk_id: int, node: int) -> None:
        """Record the walker's next jump."""
        self._paths[walk_id].append(node)

    def prefix(self, walk_id: int, position: int) -> Sequence[int]:
        """The walk's nodes up to and including ``position``."""
        return self._paths[walk_id][: position + 1]

    def path(self, walk_id: int) -> Sequence[int]:
        """The walk's full node sequence so far."""
        return self._paths[walk_id]

    def __len__(self) -> int:
        return len(self._paths)

    def __iter__(self) -> Iterator[Sequence[int]]:
        return iter(self._paths)


class MeetingIndex:
    """Hashmap from ``(node, automatonState)`` to walk positions.

    One entry is inserted per active NFA state per jump, so a lookup
    with the opposite side's state set finds exactly the walks whose
    state sets intersect — the compatibility condition of Theorem 3.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}

    def add(
        self, node: int, states: StateSet, walk_id: int, position: int
    ) -> None:
        """Record that ``walk_id`` sat at ``node`` in ``states`` at
        ``position``."""
        for state in states:
            self._entries.setdefault((node, state), []).append(
                (walk_id, position)
            )

    def lookup(
        self, node: int, states: StateSet
    ) -> Iterator[Tuple[int, int]]:
        """All distinct ``(walk_id, position)`` pairs whose recorded state
        intersects ``states`` at ``node``."""
        seen = set()
        for state in states:
            for entry in self._entries.get((node, state), ()):
                if entry not in seen:
                    seen.add(entry)
                    yield entry

    @property
    def n_keys(self) -> int:
        """Number of distinct ``(node, state)`` keys (storage metric)."""
        return len(self._entries)

    @property
    def n_entries(self) -> int:
        """Total stored positions (the O(walkLength x numWalks) bound)."""
        return sum(len(v) for v in self._entries.values())


def hashmap_meet(
    index: MeetingIndex,
    store: WalkStore,
    node: int,
    states: StateSet,
    current_path: Sequence[int],
    current_is_forward: bool,
    max_edges: Optional[int] = None,
    min_edges: Optional[int] = None,
) -> Optional[List[int]]:
    """Efficient Case-3 check: join the current walk against the opposite
    side's index; returns the first simple compatible joined path.

    Every candidate shares a ``(node, automatonState)`` key with the
    current walk, which already proves compatibility (Cor. 1), so only
    the simplicity check (inside :func:`~repro.regex.matcher.join_paths`)
    and the optional length range remain.  ``max_edges`` / ``min_edges``
    enforce that range on the join (the Sec. 5.5.2 query class and its
    range extension).
    """
    for walk_id, position in index.lookup(node, states):
        opposite_prefix = store.prefix(walk_id, position)
        if current_is_forward:
            joined = join_paths(current_path, opposite_prefix)
        else:
            joined = join_paths(opposite_prefix, current_path)
        if joined is None:
            continue
        if max_edges is not None and len(joined) - 1 > max_edges:
            continue
        if min_edges is not None and len(joined) - 1 < min_edges:
            continue
        return joined
    return None


def naive_meet(
    compiled: CompiledRegex,
    graph: LabeledGraph,
    elements: str,
    current_path: Sequence[int],
    opposite_store: WalkStore,
    current_is_forward: bool,
    max_edges: Optional[int] = None,
    min_edges: Optional[int] = None,
) -> Optional[List[int]]:
    """Naive Case-3 check (Thm. 2): scan all stored opposite walks.

    For every stored opposite walk sharing a node with the current walk,
    try every shared position: join, check simplicity (via the join),
    and run the full Algorithm 3 compatibility check on the result.
    """
    current_nodes = set(current_path)
    current_end = current_path[-1]
    for opposite_path in opposite_store:
        for position, node in enumerate(opposite_path):
            if node != current_end and node not in current_nodes:
                continue
            # the efficient variant only meets at the current walker
            # position; the naive one may join anywhere the paths cross,
            # truncating the current walk at the shared node
            try:
                cut = current_path.index(node)
            except ValueError:
                continue
            current_prefix = current_path[: cut + 1]
            opposite_prefix = opposite_path[: position + 1]
            if current_is_forward:
                joined = join_paths(current_prefix, opposite_prefix)
            else:
                joined = join_paths(opposite_prefix, current_prefix)
            if joined is None:
                continue
            if max_edges is not None and len(joined) - 1 > max_edges:
                continue
            if min_edges is not None and len(joined) - 1 < min_edges:
                continue
            if check_path(compiled, graph, joined, elements) == COMPATIBLE:
                return joined
    return None
