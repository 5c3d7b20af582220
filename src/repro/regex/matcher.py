"""Path-against-regex matching (Algorithm 3) and incremental trackers.

The engines never re-scan whole paths; they carry an automaton state set
along each walk and extend it one element at a time:

* :class:`ForwardTracker` consumes a path left-to-right.  Its state at
  node ``n`` is ``F(n)`` — every NFA state reachable by some label
  sequence contained in the path *including* ``n``'s own symbol.
* :class:`BackwardTracker` consumes right-to-left via the reversed NFA.
  At node ``n`` it produces two sets: the **key set** ``B(n)`` — states
  ``q`` such that consuming the suffix *after* ``n`` from ``q`` reaches an
  accept state — recorded *before* consuming ``n``'s own symbol, and the
  **current set** used to continue the walk.

The point of the asymmetry: a forward path ending at ``n`` and a backward
path starting (in original direction) at ``n`` join into a compatible
path **iff** ``F(n) ∩ B(n) ≠ ∅``, because ``n``'s symbol must be consumed
exactly once.  This is the exact multi-label version of the paper's
Theorem 3 and what the meeting hashmaps key on.

Which elements contribute symbols is per-graph: ``"nodes"``, ``"edges"``
or ``"both"`` (Definition 3 interleaves node and edge symbols; datasets
with labels on one kind only consume that kind).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.labeled_graph import LabeledGraph
from repro.regex.compiler import CompiledRegex
from repro.regex.nfa import EMPTY_STATES, StateSet

COMPATIBLE = 1
POTENTIAL = 0
DEAD = -1

_ELEMENT_CHOICES = ("nodes", "edges", "both")


def resolve_elements(graph: LabeledGraph, elements: Optional[str] = None) -> str:
    """Decide which path elements contribute symbols.

    Explicit ``elements`` wins, then the graph's own ``labeled_elements``
    hint, then inference from where labels actually occur (defaulting to
    node consumption for unlabeled graphs, where only predicates can
    match).
    """
    for candidate in (elements, graph.labeled_elements):
        if candidate is not None:
            if candidate not in _ELEMENT_CHOICES:
                raise ValueError(
                    f"elements must be one of {_ELEMENT_CHOICES}, "
                    f"got {candidate!r}"
                )
            return candidate
    node_labeled = graph.has_node_labels
    edge_labeled = graph.has_edge_labels
    if node_labeled and edge_labeled:
        return "both"
    if edge_labeled:
        return "edges"
    return "nodes"


class _StepCache:
    """Memoises ``(state set, label set) -> state set`` transitions.

    During walks the same transition recurs constantly (walks restart
    from the same endpoints; popular labels repeat), so caching pays.
    Only sound when the automaton has no query-time predicates (whose
    outcome depends on per-element attributes, not on the label set) and
    in exact mode (sampling draws randomness per step) — callers must
    check :func:`usable_for` first.
    """

    __slots__ = ("_table", "hits", "misses")

    def __init__(self) -> None:
        self._table: dict = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def usable_for(compiled: CompiledRegex, mode: str) -> bool:
        return mode == "exact" and not compiled.has_predicates

    def step(self, nfa, states: StateSet, labels) -> StateSet:
        key = (states, labels)
        cached = self._table.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = nfa.step(states, labels, {})
        self._table[key] = result
        return result


class ForwardTracker:
    """Incremental forward simulation of a compiled regex along a path.

    Predicate-free exact-mode trackers memoise transitions through a
    :class:`_StepCache` (shareable across trackers of the same compiled
    regex via the ``cache`` parameter).
    """

    def __init__(
        self,
        compiled: CompiledRegex,
        graph: LabeledGraph,
        elements: Optional[str] = None,
        mode: str = "exact",
        rng: Optional[np.random.Generator] = None,
        cache: Optional[_StepCache] = None,
    ):
        if mode not in ("exact", "sampled"):
            raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
        self.compiled = compiled
        self.graph = graph
        self.elements = resolve_elements(graph, elements)
        self.mode = mode
        self.rng = rng
        self._nfa = compiled.nfa
        self._consume_nodes = self.elements in ("nodes", "both")
        self._consume_edges = self.elements in ("edges", "both")
        if _StepCache.usable_for(compiled, mode):
            self.cache: Optional[_StepCache] = cache or _StepCache()
        else:
            self.cache = None

    def _step(self, states: StateSet, labels, attrs) -> StateSet:
        if self.cache is not None:
            return self.cache.step(self._nfa, states, labels)
        return self._nfa.step(states, labels, attrs, self.mode, self.rng)

    def start(self, node: int) -> StateSet:
        """State set after placing the walk at its first node."""
        states = self._nfa.initial_states()
        if self._consume_nodes:
            states = self._step(
                states,
                self.graph.node_labels(node),
                self.graph.node_attrs(node),
            )
        return states

    def extend(self, states: StateSet, u: int, v: int) -> StateSet:
        """State set after stepping across edge ``u -> v`` onto ``v``."""
        if not states:
            return EMPTY_STATES
        if self._consume_edges:
            states = self._step(
                states,
                self.graph.edge_labels(u, v),
                self.graph.edge_attrs(u, v),
            )
            if not states:
                return EMPTY_STATES
        if self._consume_nodes:
            states = self._step(
                states,
                self.graph.node_labels(v),
                self.graph.node_attrs(v),
            )
        return states

    def is_accepting(self, states: StateSet) -> bool:
        """Does the tracked path match the full regex?"""
        return self._nfa.is_accepting(states)


class BackwardTracker:
    """Incremental reversed simulation for backward walks.

    ``start`` and ``extend`` both return ``(key_states, current_states)``
    — the key set is what the meeting index stores (see module
    docstring); the current set continues the walk.
    """

    def __init__(
        self,
        compiled: CompiledRegex,
        graph: LabeledGraph,
        elements: Optional[str] = None,
        mode: str = "exact",
        rng: Optional[np.random.Generator] = None,
        cache: Optional[_StepCache] = None,
    ):
        if mode not in ("exact", "sampled"):
            raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
        self.compiled = compiled
        self.graph = graph
        self.elements = resolve_elements(graph, elements)
        self.mode = mode
        self.rng = rng
        self._rnfa = compiled.reversed_nfa
        self._consume_nodes = self.elements in ("nodes", "both")
        self._consume_edges = self.elements in ("edges", "both")
        if _StepCache.usable_for(compiled, mode):
            # a separate cache from any forward tracker: the reversed
            # automaton's transition function is different
            self.cache: Optional[_StepCache] = cache or _StepCache()
        else:
            self.cache = None

    def _step(self, states: StateSet, labels, attrs) -> StateSet:
        if self.cache is not None:
            return self.cache.step(self._rnfa, states, labels)
        return self._rnfa.step(states, labels, attrs, self.mode, self.rng)

    def start(self, node: int) -> Tuple[StateSet, StateSet]:
        """Keys/current for the walk sitting at the target node."""
        key = self._rnfa.initial_states()
        current = key
        if self._consume_nodes:
            current = self._step(
                current,
                self.graph.node_labels(node),
                self.graph.node_attrs(node),
            )
        return key, current

    def extend(
        self, current: StateSet, u: int, v: int
    ) -> Tuple[StateSet, StateSet]:
        """Keys/current after stepping backward across edge ``u -> v``.

        The walker sits at ``v`` and moves to predecessor ``u``; the edge
        symbol is consumed first (it lies between ``u`` and the suffix),
        yielding the key set at ``u``; ``u``'s own symbol is consumed
        afterwards for the continuing walk.
        """
        if not current:
            return EMPTY_STATES, EMPTY_STATES
        key = current
        if self._consume_edges:
            key = self._step(
                key,
                self.graph.edge_labels(u, v),
                self.graph.edge_attrs(u, v),
            )
            if not key:
                return EMPTY_STATES, EMPTY_STATES
        new_current = key
        if self._consume_nodes:
            new_current = self._step(
                new_current,
                self.graph.node_labels(u),
                self.graph.node_attrs(u),
            )
        return key, new_current


def check_path(
    compiled: CompiledRegex,
    graph: LabeledGraph,
    path: Sequence[int],
    elements: Optional[str] = None,
    mode: str = "exact",
    rng: Optional[np.random.Generator] = None,
) -> int:
    """Algorithm 3: classify a path against a regex.

    Returns :data:`COMPATIBLE` (1) if some contained label sequence is
    accepted, :data:`POTENTIAL` (0) if the simulation is alive but not
    accepting, and :data:`DEAD` (-1) if no contained sequence is a prefix
    of any accepted word.
    """
    if not path:
        raise ValueError("path must contain at least one node")
    tracker = ForwardTracker(compiled, graph, elements, mode, rng)
    states = tracker.start(path[0])
    if not states:
        return DEAD
    for u, v in zip(path, path[1:]):
        states = tracker.extend(states, u, v)
        if not states:
            return DEAD
    return COMPATIBLE if tracker.is_accepting(states) else POTENTIAL


def is_simple(path: Sequence[int]) -> bool:
    """Definition 2: no vertex repeats."""
    return len(set(path)) == len(path)


def join_paths(
    forward_path: Sequence[int], backward_prefix: Sequence[int]
) -> Optional[List[int]]:
    """Join a forward path with a backward-walk prefix at their shared
    endpoint, returning the combined path iff it is simple.

    ``backward_prefix`` is in backward-walk order (target first); its last
    node must equal the forward path's last node (the meeting node).
    """
    if forward_path[-1] != backward_prefix[-1]:
        raise ValueError("paths do not meet at their endpoints")
    overlap = set(forward_path) & set(backward_prefix)
    if overlap != {forward_path[-1]}:
        return None  # joining would repeat a vertex
    joined = list(forward_path)
    joined.extend(reversed(backward_prefix[:-1]))
    return joined
