"""Bidirectional BFS with automaton state maintenance (Sec. 5.2.1).

The paper's strongest exact baseline and its ground-truth oracle: where
ARRIVAL *samples* potentially compatible simple paths, BBFS explores
*all* of them, bidirectionally.  It shares ARRIVAL's state machinery —
partial paths carry automaton state sets, and a meeting between a
forward and a backward partial path is detected through the same
``(node, automatonState)`` hashmap with the same join-and-simplicity
check — so the two are directly comparable, which is what the speedup
figures (Fig. 5-7) measure.

Positive queries exit on the first meeting; negative queries must
exhaust every simple potentially-compatible partial path on both sides,
which is where the exponential worst case (Theorem 1) bites.  The
``max_expansions`` / ``time_budget`` guards mirror the paper abandoning
BBFS searches that exceeded one minute on Twitter; a truncated search
reports ``timed_out=True`` and its negative answer is then *not* exact.
"""

from __future__ import annotations

import time
from collections import deque
from typing import List, Optional, Tuple

from repro.core.engine import EngineBase
from repro.core.meeting import MeetingIndex
from repro.core.plan import Plan, PlanCache
from repro.core.result import QueryResult
from repro.errors import QueryError, WitnessViolationError
from repro.graph.labeled_graph import LabeledGraph
from repro.regex.matcher import (
    BackwardTracker,
    COMPATIBLE,
    ForwardTracker,
    check_path,
    join_paths,
    resolve_elements,
)


class BBFSEngine(EngineBase):
    """Bidirectional exhaustive simple-path BFS (the paper's BBFS)."""

    name = "BBFS"
    supports_full_regex = True
    supports_query_time_labels = True
    supports_dynamic = True
    index_free = True
    enforces_simple_paths = True
    supports_distance_bounds = True

    def __init__(
        self,
        graph: LabeledGraph,
        *,
        elements: Optional[str] = None,
        max_expansions: Optional[int] = 1_000_000,
        time_budget: Optional[float] = None,
        negation_mode: str = "paper",
        plan_cache: Optional[PlanCache] = None,
    ):
        self.graph = graph
        self.elements = resolve_elements(graph, elements)
        self.max_expansions = max_expansions
        self.time_budget = time_budget
        self.negation_mode = negation_mode
        self.plan_cache = plan_cache

    def _execute(self, plan: Plan) -> QueryResult:
        """Exact RSPQ answer (subject to the expansion/time budgets)."""
        query = plan.query
        source, target = query.source, query.target
        distance_bound = query.distance_bound
        min_distance = query.min_distance
        if not self.graph.is_alive(source):
            raise QueryError(f"source node {source} does not exist")
        if not self.graph.is_alive(target):
            raise QueryError(f"target node {target} does not exist")
        compiled = plan.compiled

        if source == target:
            if min_distance is not None and min_distance > 0:
                return QueryResult(
                    reachable=False, method=self.name, exact=True
                )
            compatible = (
                check_path(compiled, self.graph, [source], self.elements)
                == COMPATIBLE
            )
            return QueryResult(
                reachable=compatible,
                path=[source] if compatible else None,
                method=self.name,
                exact=True,
                path_is_simple=True if compatible else None,
            )

        forward_tracker = ForwardTracker(compiled, self.graph, self.elements)
        backward_tracker = BackwardTracker(compiled, self.graph, self.elements)

        # stored partial paths per side, addressed by the meeting index
        forward_paths: List[Tuple[int, ...]] = []
        backward_paths: List[Tuple[int, ...]] = []
        forward_index = MeetingIndex()
        backward_index = MeetingIndex()

        forward_queue: deque = deque()
        backward_queue: deque = deque()

        def register_forward(path, states) -> Optional[List[int]]:
            forward_paths.append(path)
            forward_index.add(path[-1], states, len(forward_paths) - 1,
                              len(path) - 1)
            for walk_id, position in backward_index.lookup(path[-1], states):
                opposite = backward_paths[walk_id][: position + 1]
                joined = join_paths(path, opposite)
                if joined is None:
                    continue
                if (
                    distance_bound is not None
                    and len(joined) - 1 > distance_bound
                ):
                    continue
                if (
                    min_distance is not None
                    and len(joined) - 1 < min_distance
                ):
                    continue
                return joined
            return None

        def register_backward(path, key_states) -> Optional[List[int]]:
            backward_paths.append(path)
            backward_index.add(path[-1], key_states, len(backward_paths) - 1,
                               len(path) - 1)
            for walk_id, position in forward_index.lookup(path[-1], key_states):
                opposite = forward_paths[walk_id][: position + 1]
                joined = join_paths(opposite, path)
                if joined is None:
                    continue
                if (
                    distance_bound is not None
                    and len(joined) - 1 > distance_bound
                ):
                    continue
                if (
                    min_distance is not None
                    and len(joined) - 1 < min_distance
                ):
                    continue
                return joined
            return None

        joined: Optional[List[int]] = None
        # seed the backward side first so a forward path reaching the
        # target meets the backward trivial path immediately
        backward_start_key, backward_start_states = backward_tracker.start(target)
        if backward_start_key:
            joined = register_backward((target,), backward_start_key)
            backward_queue.append(
                ((target,), frozenset([target]), backward_start_states)
            )
        forward_start_states = forward_tracker.start(source)
        if joined is None and forward_start_states:
            joined = register_forward((source,), forward_start_states)
            forward_queue.append(
                ((source,), frozenset([source]), forward_start_states)
            )

        # sanctioned clock read: wall-clock *budget* enforcement (the
        # paper's one-minute BBFS cutoff), not query logic
        deadline = (
            time.perf_counter() + self.time_budget  # repro: noqa[TIM001]
            if self.time_budget
            else None
        )
        expansions = 0
        truncated = False
        while joined is None and (forward_queue or backward_queue):
            expansions += 1
            if self.max_expansions is not None and expansions > self.max_expansions:
                truncated = True
                break
            if (
                deadline is not None
                and time.perf_counter() > deadline  # repro: noqa[TIM001]
            ):
                truncated = True
                break
            # expand the side with the smaller frontier (standard
            # bidirectional heuristic); a drained side just yields
            if forward_queue and (
                not backward_queue or len(forward_queue) <= len(backward_queue)
            ):
                path, path_set, states = forward_queue.popleft()
                node = path[-1]
                if node == target:
                    continue  # never extend beyond the target
                if (
                    distance_bound is not None
                    and len(path) - 1 >= distance_bound
                ):
                    continue
                for neighbor in self.graph.out_neighbors(node):
                    if neighbor in path_set:
                        continue
                    next_states = forward_tracker.extend(states, node, neighbor)
                    if not next_states:
                        continue
                    new_path = path + (neighbor,)
                    joined = register_forward(new_path, next_states)
                    if joined is not None:
                        break
                    forward_queue.append(
                        (new_path, path_set | {neighbor}, next_states)
                    )
            else:
                path, path_set, states = backward_queue.popleft()
                node = path[-1]
                if node == source:
                    continue  # never extend beyond the source
                if (
                    distance_bound is not None
                    and len(path) - 1 >= distance_bound
                ):
                    continue
                for neighbor in self.graph.in_neighbors(node):
                    if neighbor in path_set:
                        continue
                    key_states, next_states = backward_tracker.extend(
                        states, neighbor, node
                    )
                    if not next_states:
                        continue
                    new_path = path + (neighbor,)
                    joined = register_backward(new_path, key_states)
                    if joined is not None:
                        break
                    backward_queue.append(
                        (new_path, path_set | {neighbor}, next_states)
                    )

        if joined is None:
            return QueryResult(
                reachable=False,
                method=self.name,
                exact=not truncated,
                timed_out=truncated,
                expansions=expansions,
            )
        # an explicit check, which (unlike an assert) survives python -O
        if check_path(
            compiled, self.graph, joined, self.elements
        ) != COMPATIBLE:
            raise WitnessViolationError(
                f"{self.name} joined a path the regex rejects: {joined}",
                invariant="rejected",
            )
        return QueryResult(
            reachable=True,
            path=joined,
            method=self.name,
            exact=True,
            path_is_simple=True,
            expansions=expansions,
        )
