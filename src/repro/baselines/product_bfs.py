"""BFS over the node x automaton-state product graph.

Dropping the simple-path requirement makes regular path reachability
polynomial: a pair ``(node, state)`` fully captures a search
configuration, so visiting each pair once suffices.  This search is

* the core of the Rare-Labels baseline (which, per Table 1, does not
  guarantee simplicity), and
* one half of the experiment oracle: if the product search says
  *unreachable*, no path — simple or not — exists; if its witness
  happens to be simple, the RSPQ answer is a certain *reachable*;
* with :class:`BidirectionalProductSearch`, the certificate behind
  AUTO's exact negatives (:class:`~repro.core.router.AutoEngine`).

The witness path of :func:`product_reachability` is reconstructed from
parent pointers and may repeat nodes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.result import QueryResult
from repro.graph.labeled_graph import LabeledGraph
from repro.regex.compiler import CompiledRegex
from repro.regex.matcher import (
    BackwardTracker,
    ForwardTracker,
    is_simple,
    resolve_elements,
)
from repro.regex.nfa import StateSet

#: one product state: (node, NFA state)
_Pair = Tuple[int, int]


def product_reachability(
    graph: LabeledGraph,
    source: int,
    target: int,
    compiled: CompiledRegex,
    elements: Optional[str] = None,
    max_visits: Optional[int] = None,
) -> QueryResult:
    """Arbitrary-path (non-simple) regex reachability, exactly.

    Returns a :class:`QueryResult` whose ``path`` may repeat nodes;
    ``path_is_simple`` reports whether it happens to be simple.
    ``max_visits`` bounds the number of product states expanded (the
    search is then marked ``timed_out`` when the bound is hit).
    """
    elements = resolve_elements(graph, elements)
    tracker = ForwardTracker(compiled, graph, elements)
    accepts = compiled.nfa.accepts

    start_states = tracker.start(source)
    parents: Dict[_Pair, Optional[_Pair]] = {}
    queue: Deque[_Pair] = deque()
    for state in start_states:
        parents[(source, state)] = None
        queue.append((source, state))

    def witness(final: _Pair) -> List[int]:
        nodes: List[int] = []
        current: Optional[_Pair] = final
        while current is not None:
            nodes.append(current[0])
            current = parents[current]
        nodes.reverse()
        return nodes

    # the source itself may already accept (e.g. s == t and the one-node
    # word matches)
    if source == target:
        for state in start_states:
            if state in accepts:
                return QueryResult(
                    reachable=True, path=[source], method="product-bfs",
                    exact=True, path_is_simple=True,
                )

    visits = 0
    truncated = False
    while queue:
        node, state = queue.popleft()
        visits += 1
        if max_visits is not None and visits > max_visits:
            truncated = True
            break
        single = frozenset((state,))
        for neighbor in graph.out_neighbors(node):
            next_states = tracker.extend(single, node, neighbor)
            for next_state in next_states:
                key = (neighbor, next_state)
                if key in parents:
                    continue
                parents[key] = (node, state)
                if neighbor == target and next_state in accepts:
                    path = witness(key)
                    return QueryResult(
                        reachable=True,
                        path=path,
                        method="product-bfs",
                        exact=True,
                        path_is_simple=is_simple(path),
                        expansions=visits,
                    )
                queue.append(key)

    return QueryResult(
        reachable=False,
        method="product-bfs",
        exact=not truncated,
        timed_out=truncated,
        expansions=visits,
    )


def product_distances(
    graph: LabeledGraph,
    source: int,
    compiled: CompiledRegex,
    elements: Optional[str] = None,
) -> Dict[int, int]:
    """Shortest compatible-prefix distance (in edges) from ``source`` to
    every product-reachable node.

    Used by walkLength calibration and by tests as an independent check
    on the tracker semantics.
    """
    elements = resolve_elements(graph, elements)
    tracker = ForwardTracker(compiled, graph, elements)
    start_states = tracker.start(source)
    best: Dict[int, int] = {}
    seen: Set[_Pair] = set()
    queue: Deque[Tuple[int, int, int]] = deque()
    for state in start_states:
        seen.add((source, state))
        queue.append((source, state, 0))
    if start_states:
        best[source] = 0
    while queue:
        node, state, depth = queue.popleft()
        single = frozenset((state,))
        for neighbor in graph.out_neighbors(node):
            for next_state in tracker.extend(single, node, neighbor):
                key = (neighbor, next_state)
                if key not in seen:
                    seen.add(key)
                    if neighbor not in best:
                        best[neighbor] = depth + 1
                    queue.append((neighbor, next_state, depth + 1))
    return best


class _Frontier:
    """One side of :class:`BidirectionalProductSearch`: the states
    reached at each node, and the nodes whose newly reached states still
    wait to be expanded (a FIFO queue; a queued node gathers every state
    reached there until it is expanded)."""

    __slots__ = ("reached", "pending", "queue")

    def __init__(self) -> None:
        self.reached: Dict[int, StateSet] = {}
        self.pending: Dict[int, Set[int]] = {}
        self.queue: Deque[int] = deque()

    def add(self, node: int, states: StateSet) -> StateSet:
        """Reach ``states`` at ``node``; return those not reached there
        before, which are now queued for expansion."""
        if not states:
            return states
        old = self.reached.get(node)
        if old is not None:
            states = states - old
            if not states:
                return states
            self.reached[node] = old | states
        else:
            self.reached[node] = states
        pending = self.pending.get(node)
        if pending is None:
            self.pending[node] = set(states)
            self.queue.append(node)
        else:
            pending.update(states)
        return states

    def pop(self) -> Tuple[int, StateSet]:
        """The oldest queued node and the states it waits to expand."""
        node = self.queue.popleft()
        return node, frozenset(self.pending.pop(node))


class BidirectionalProductSearch:
    """Does *any* walk from ``source`` to ``target`` match the regex?

    A frontier-balanced bidirectional search over (node, NFA state)
    pairs, resumable under a budget of neighbour scans:

    * the **forward** side steps a :class:`ForwardTracker` from
      ``source``; it reaches ``(node, q)`` when some walk from the
      source leaves the automaton in ``q`` after ``node``'s own symbol;
    * the **backward** side steps a :class:`BackwardTracker` over the
      reversed automaton from ``target`` and keeps that tracker's
      meeting keys: at each node, the states from which the rest of
      some walk to the target is accepted, taken *before* the node's own
      symbol (across an edge the edge symbol is read first, then the
      node symbol — :meth:`BackwardTracker.extend`);
    * a forward state that is also a backward key at the same node
      joins a matching walk, exactly as an ARRIVAL forward and backward
      walk join (:mod:`repro.regex.matcher`).

    Each step expands one queued node of whichever side has the smaller
    frontier (fewer queued nodes).  The search ends in one of two ways:

    * **the sides meet**: a matching walk exists (:attr:`walk_exists`
      is True).  The walk may repeat nodes, so a meeting proves nothing
      about simple paths and certifies nothing;
    * **a frontier empties** before they meet: that side has reached
      every pair it can and none joined the other side, so no matching
      walk exists (:attr:`walk_exists` is False).  Every simple path is
      a walk, so no simple path exists either: an exact negative.

    The search draws no randomness.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        source: int,
        target: int,
        compiled: CompiledRegex,
        elements: Optional[str] = None,
    ) -> None:
        self.graph = graph
        elements = resolve_elements(graph, elements)
        self._forward = ForwardTracker(compiled, graph, elements)
        self._backward = BackwardTracker(compiled, graph, elements)
        #: neighbours examined so far, summed over every :meth:`run`
        self.scanned = 0
        #: None until decided; then whether a matching walk exists
        self.walk_exists: Optional[bool] = None
        self._ahead = _Frontier()
        self._behind = _Frontier()
        #: the backward side's meeting keys per node
        self._keys: Dict[int, StateSet] = {}
        key, current = self._backward.start(target)
        self._keys[target] = key
        self._behind.add(target, current)
        started = self._ahead.add(source, self._forward.start(source))
        if source == target and not key.isdisjoint(started):
            self.walk_exists = True  # the one-node walk matches

    def run(self, max_scans: Optional[int] = None) -> Optional[bool]:
        """Search on until decided, or until ``max_scans`` more
        neighbour scans are spent (no cap when None).

        Returns :attr:`walk_exists`: True or False once decided, None if
        the cap came first; a later call resumes where this one stopped.
        A node is expanded whole or not at all, so a call stops before a
        node whose neighbours would not fit in what is left of the cap.
        An empty frontier is noticed first: a dead source or target is
        decided even with ``max_scans=0``.
        """
        left = max_scans
        graph = self.graph
        ahead = self._ahead.queue
        behind = self._behind.queue
        while self.walk_exists is None:
            if not ahead or not behind:
                self.walk_exists = False
                break
            forward = len(ahead) < len(behind)
            if left is not None:
                if forward:
                    cost = graph.out_degree(ahead[0])
                else:
                    cost = graph.in_degree(behind[0])
                if cost > left:
                    break
                left -= cost
            if forward:
                self._expand_forward()
            else:
                self._expand_backward()
        return self.walk_exists

    def _expand_forward(self) -> None:
        node, states = self._ahead.pop()
        neighbors = self.graph.out_neighbors(node)
        self.scanned += len(neighbors)
        extend = self._forward.extend
        add = self._ahead.add
        keys = self._keys
        for neighbor in neighbors:
            new = add(neighbor, extend(states, node, neighbor))
            if new:
                met = keys.get(neighbor)
                if met is not None and not met.isdisjoint(new):
                    self.walk_exists = True
                    return

    def _expand_backward(self) -> None:
        node, states = self._behind.pop()
        neighbors = self.graph.in_neighbors(node)
        self.scanned += len(neighbors)
        extend = self._backward.extend
        add = self._behind.add
        keys = self._keys
        reached = self._ahead.reached
        for neighbor in neighbors:
            key, current = extend(states, neighbor, node)
            old = keys.get(neighbor)
            if old is not None:
                key = key - old
            if not key:
                # the continuation steps the key by the neighbour's own
                # symbol, so no new key means no new continuation
                continue
            keys[neighbor] = key if old is None else old | key
            add(neighbor, current)
            met = reached.get(neighbor)
            if met is not None and not met.isdisjoint(key):
                self.walk_exists = True
                return
