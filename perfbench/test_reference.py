"""Self-tests of the reference checker on small hand-made graphs.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from reference import (
    NO_WALK,
    PREDICATES,
    SIMPLE,
    WALK_ONLY,
    Automaton,
    RefGraph,
    _shortcut,
    product_search,
    witness_error,
)


def graph(labels, edges, attrs=None):
    return RefGraph([frozenset(ls) for ls in labels], edges, attrs)


def test_type1_chain_is_reachable_with_its_only_path():
    g = graph([{"a"}, {"b"}, {"a"}], [(0, 1), (1, 2)])
    ref = product_search(g, Automaton(1, ["a", "b"]), 0, 2)
    assert ref.outcome == SIMPLE and ref.witness == [0, 1, 2]
    assert witness_error(g, Automaton(1, ["a", "b"]), 0, 2, ref.witness) is None


def test_type1_missing_label_is_a_certain_negative():
    g = graph([{"a"}, {"b"}, {"a"}], [(0, 1), (1, 2)])
    ref = product_search(g, Automaton(1, ["a"]), 0, 2)
    assert ref.outcome == NO_WALK and ref.start_alive


def test_source_that_cannot_start_the_language_is_dead():
    g = graph([{"c"}, {"a"}], [(0, 1)])
    ref = product_search(g, Automaton(1, ["a", "b"]), 0, 1)
    assert ref.outcome == NO_WALK and not ref.start_alive


def test_type2_needs_whole_repetitions():
    g = graph([{"a"}, {"b"}, {"a"}, {"b"}], [(0, 1), (1, 2), (2, 3)])
    automaton = Automaton(2, ["a", "b"])
    assert product_search(g, automaton, 0, 3).witness == [0, 1, 2, 3]
    # ending half-way through a repetition is not accepted
    assert product_search(g, automaton, 0, 2).outcome == NO_WALK


def test_type3_multi_label_node_may_stay_or_advance():
    g = graph([{"a"}, {"a", "b"}, {"c"}], [(0, 1), (1, 2)])
    assert product_search(g, Automaton(3, ["a", "b", "c"]), 0, 2).witness == [0, 1, 2]
    assert product_search(g, Automaton(3, ["a", "c"]), 0, 2).witness == [0, 1, 2]
    with pytest.raises(ValueError):
        Automaton(3, ["a", "a"])


def test_only_a_non_simple_walk_matches():
    # a+ b+ c+: the b-node n sits on a detour m -> n -> m, so every
    # matching walk visits m twice and no simple path matches
    s, m, n, t = range(4)
    g = graph([{"a"}, {"a", "c"}, {"b"}, {"c"}], [(s, m), (m, n), (n, m), (m, t)])
    automaton = Automaton(3, ["a", "b", "c"])
    ref = product_search(g, automaton, s, t)
    assert ref.outcome == WALK_ONLY and ref.witness is None
    assert not ref.reachable and not ref.unreachable
    assert witness_error(g, automaton, s, t, [s, m, n, m, t]) == "witness repeats a node"
    assert witness_error(g, automaton, s, t, [s, m, t]) == "witness label word is not in the language"


def test_type1_walks_shortcut_to_simple_paths():
    assert _shortcut([1, 2, 3, 2, 4]) == [1, 2, 4]
    assert _shortcut([1, 2, 3, 1, 5]) == [1, 5]
    assert _shortcut([4, 5, 6]) == [4, 5, 6]


def test_predicates_read_node_attributes():
    attrs = [
        {"age": 30, "gender": "Female"},
        {"age": 15, "gender": "Female"},
        {"age": 40, "gender": "Female"},
        {"age": 50, "gender": "Female"},
    ]
    g = graph([set()] * 4, [(0, 1), (1, 3), (0, 2), (2, 3)], attrs)
    automaton = Automaton(1, [PREDICATES["isAdultFemale"]])
    ref = product_search(g, automaton, 0, 3)
    assert ref.witness == [0, 2, 3]  # the minor at node 1 blocks the other path
    g.remove_edge(2, 3)
    assert product_search(g, automaton, 0, 3).outcome == NO_WALK


def test_witness_checks_endpoints_and_edges():
    g = graph([{"a"}] * 3, [(0, 1), (1, 2)])
    automaton = Automaton(1, ["a"])
    assert witness_error(g, automaton, 0, 2, None) == "positive answer without a witness path"
    assert "query asks" in witness_error(g, automaton, 0, 2, [0, 1])
    assert witness_error(g, automaton, 0, 2, [0, 2]) == "witness uses missing edge 0->2"


def _simple_paths(g, source, target):
    """Every simple path from source to target, by exhaustive DFS."""
    stack = [[source]]
    while stack:
        path = stack.pop()
        if path[-1] == target:
            yield path
            continue
        for nxt in g.out[path[-1]]:
            if nxt not in path:
                stack.append(path + [nxt])


@pytest.mark.parametrize("seed", range(30))
def test_agrees_with_exhaustive_simple_path_search(seed):
    rng = np.random.default_rng(seed)
    n = 7
    labels = [{str(x) for x in rng.choice(["a", "b", "c"], size=int(rng.integers(1, 3)))} for _ in range(n)]
    edges = [(u, v) for u, v in itertools.permutations(range(n), 2) if rng.random() < 0.3]
    g = graph(labels, edges)
    for family in (1, 2, 3):
        automaton = Automaton(family, ["a", "b"])
        for s, t in itertools.permutations(range(n), 2):
            exists = any(automaton.accepts_path(g, p) for p in _simple_paths(g, s, t))
            ref = product_search(g, automaton, s, t)
            if ref.outcome == SIMPLE:
                assert witness_error(g, automaton, s, t, ref.witness) is None
            if ref.outcome == NO_WALK:
                assert not exists
            if family == 1:
                assert (ref.outcome == SIMPLE) == exists
