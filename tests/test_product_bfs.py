"""Product-graph search tests, cross-checked against networkx and, for
the bidirectional search, against :func:`product_reachability`."""

import networkx as nx
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.product_bfs import (
    BidirectionalProductSearch,
    product_distances,
    product_reachability,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.regex.compiler import compile_regex
from repro.regex.matcher import COMPATIBLE, check_path

from strategies import (
    attributed_edge_graphs,
    labels,
    negation_regexes,
    predicate_regexes,
    regexes,
    shared_predicate_registry,
    small_edge_labeled_graphs,
    small_node_labeled_graphs,
)


def to_networkx(graph):
    out = nx.DiGraph()
    out.add_nodes_from(graph.nodes())
    out.add_edges_from(graph.edges())
    return out


class TestAgainstNetworkx:
    @given(small_edge_labeled_graphs())
    def test_unconstrained_regex_equals_plain_reachability(self, graph):
        """(a|b|c|d)* imposes nothing, so the product search must equal
        ordinary digraph reachability."""
        compiled = compile_regex("(a | b | c | d)*")
        reference = to_networkx(graph)
        reachable_set = nx.descendants(reference, 0) | {0}
        for target in graph.nodes():
            result = product_reachability(graph, 0, target, compiled)
            assert result.reachable == (target in reachable_set)

    @given(small_edge_labeled_graphs())
    def test_distances_match_networkx_when_unconstrained(self, graph):
        compiled = compile_regex("(a | b | c | d)*")
        distances = product_distances(graph, 0, compiled)
        expected = nx.single_source_shortest_path_length(to_networkx(graph), 0)
        assert distances == dict(expected)


class TestConstrainedSearch:
    @given(small_edge_labeled_graphs(), st.sampled_from(
        ["a* b a*", "(a b)+", "a+ b+", "(a | b)* c"]
    ))
    def test_witness_is_compatible(self, graph, regex):
        compiled = compile_regex(regex)
        result = product_reachability(graph, 0, graph.num_nodes - 1, compiled)
        if result.reachable:
            path = result.path
            assert path[0] == 0 and path[-1] == graph.num_nodes - 1
            assert check_path(compiled, graph, path) == COMPATIBLE

    def test_non_simple_witness_found(self):
        graph = LabeledGraph(directed=True)
        graph.add_nodes(4)
        graph.add_edge(0, 1, {"a"})
        graph.add_edge(1, 2, {"a"})
        graph.add_edge(2, 1, {"b"})
        graph.add_edge(1, 3, {"c"})
        result = product_reachability(graph, 0, 3, compile_regex("a a b c"))
        assert result.reachable
        assert result.path == [0, 1, 2, 1, 3]
        assert result.path_is_simple is False

    def test_source_equals_target(self):
        graph = LabeledGraph(directed=True)
        graph.add_nodes(2)
        graph.add_edge(0, 1, {"a"})
        assert product_reachability(graph, 0, 0, compile_regex("a*")).reachable
        assert not product_reachability(graph, 0, 0, compile_regex("a+")).reachable

    def test_budget_truncation_flagged(self):
        graph = LabeledGraph(directed=True)
        graph.add_nodes(20)
        for index in range(19):
            graph.add_edge(index, index + 1, {"a"})
        result = product_reachability(
            graph, 0, 19, compile_regex("a+"), max_visits=3
        )
        assert not result.reachable
        assert result.timed_out and not result.exact

    def test_exact_negative(self):
        graph = LabeledGraph(directed=True)
        graph.add_nodes(3)
        graph.add_edge(0, 1, {"a"})
        result = product_reachability(graph, 0, 2, compile_regex("a+"))
        assert not result.reachable and result.exact


# ---------------------------------------------------------------------------
# the bidirectional search: sound and complete against the forward search
# ---------------------------------------------------------------------------
def assert_agrees_with_forward_search(graph, compiled, elements, cap):
    """Over every endpoint pair: run uncapped, the search decides
    exactly what :func:`product_reachability` decides; run with ``cap``
    first, it never answers False where a matching walk exists, and
    resuming it reaches the uncapped answer."""
    for source in graph.nodes():
        for target in graph.nodes():
            walk = product_reachability(
                graph, source, target, compiled, elements
            ).reachable
            uncapped = BidirectionalProductSearch(
                graph, source, target, compiled, elements
            )
            assert uncapped.run() is walk, (source, target)
            assert uncapped.walk_exists is walk
            capped = BidirectionalProductSearch(
                graph, source, target, compiled, elements
            )
            early = capped.run(cap)
            assert early is None or early is walk, (source, target, cap)
            assert capped.run() is walk, (source, target, cap)


caps = st.integers(min_value=0, max_value=12)


class TestBidirectionalSearch:
    @given(small_node_labeled_graphs(), regexes(), caps)
    def test_node_labeled(self, graph, regex, cap):
        assert_agrees_with_forward_search(
            graph, compile_regex(regex), "nodes", cap
        )

    @given(small_edge_labeled_graphs(), regexes(), caps)
    def test_edge_labeled(self, graph, regex, cap):
        assert_agrees_with_forward_search(
            graph, compile_regex(regex), "edges", cap
        )

    @given(small_edge_labeled_graphs(), regexes(), caps, st.data())
    def test_node_and_edge_labeled(self, graph, regex, cap, data):
        """``elements="both"``: the backward side reads each edge symbol
        before the node symbol, so labels on both kinds must agree."""
        for node in list(graph.nodes()):
            graph.set_node_labels(
                node, data.draw(st.sets(labels, min_size=1, max_size=3))
            )
        assert_agrees_with_forward_search(
            graph, compile_regex(regex), "both", cap
        )

    @given(attributed_edge_graphs(), caps, st.data())
    def test_query_time_predicates(self, graph, cap, data):
        registry = shared_predicate_registry()
        regex = data.draw(predicate_regexes(registry))
        compiled = compile_regex(regex, registry)
        assert_agrees_with_forward_search(graph, compiled, "edges", cap)

    @given(small_node_labeled_graphs(), negation_regexes(), caps)
    def test_dfa_negation(self, graph, regex, cap):
        compiled = compile_regex(regex, None, "dfa")
        assert_agrees_with_forward_search(graph, compiled, "nodes", cap)

    def test_dead_target_decided_without_scans(self):
        """The target's own label ends no accepted word: the backward
        frontier is empty from the start."""
        graph = LabeledGraph(directed=True)
        graph.labeled_elements = "nodes"
        for node_labels in ({"a"}, {"a"}, {"b"}):
            graph.add_node(node_labels)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        search = BidirectionalProductSearch(
            graph, 0, 2, compile_regex("a+")
        )
        assert search.run(0) is False
        assert search.scanned == 0

    def test_meeting_proves_a_walk_not_a_path(self):
        """The only matching walk repeats node 1: the sides meet, which
        is not a certificate of anything about simple paths."""
        graph = LabeledGraph(directed=True)
        graph.add_nodes(4)
        graph.add_edge(0, 1, {"a"})
        graph.add_edge(1, 2, {"a"})
        graph.add_edge(2, 1, {"b"})
        graph.add_edge(1, 3, {"c"})
        search = BidirectionalProductSearch(
            graph, 0, 3, compile_regex("a a b c")
        )
        assert search.run() is True

    def test_cap_stops_before_a_node_that_does_not_fit(self):
        """A node is expanded whole or not at all, and a capped run
        resumes where it stopped."""
        graph = LabeledGraph(directed=True)
        graph.add_nodes(8)
        graph.add_edge(0, 7, {"a"})
        for predecessor in range(1, 6):
            graph.add_edge(predecessor, 6, {"b"})
        search = BidirectionalProductSearch(
            graph, 0, 6, compile_regex("a b")
        )
        assert search.run(3) is None  # the target has 5 in-neighbours
        assert search.scanned == 0
        assert search.run(5) is None
        assert search.scanned == 5
        assert search.run() is False
        assert search.scanned == 6
