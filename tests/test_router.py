"""AutoEngine routing tests."""

import pytest

from repro.core.router import AutoEngine
from repro.datasets.follower import twitter_like
from repro.datasets.social import gplus_like
from repro.queries.query import RSPQuery


@pytest.fixture(scope="module")
def small_alphabet_graph():
    # twitter-like with few hubs => small alphabet, LI territory
    return twitter_like(n_nodes=200, n_hubs=6, seed=2)


@pytest.fixture(scope="module")
def large_alphabet_graph():
    # gplus-like has > 100 labels => ARRIVAL territory
    return gplus_like(n_nodes=200, seed=2)


class TestRouting:
    def test_type1_small_alphabet_goes_to_li(self, small_alphabet_graph):
        engine = AutoEngine(small_alphabet_graph, seed=1)
        query = RSPQuery(0, 5, "(follows:h0 | follows:h1)*")
        assert engine.route(query) == "LI"
        result = engine.query(query)
        assert result.info["routed_to"] == "LI"

    def test_type1_large_alphabet_goes_to_arrival(self, large_alphabet_graph):
        engine = AutoEngine(large_alphabet_graph, seed=1)
        query = RSPQuery(0, 5, "(Gender:Male | Gender:Female)*")
        assert engine.route(query) == "ARRIVAL"

    def test_general_regex_goes_to_arrival(self, small_alphabet_graph):
        engine = AutoEngine(small_alphabet_graph, seed=1)
        query = RSPQuery(0, 5, "follows:h0+ follows:h1+")
        assert engine.route(query) == "ARRIVAL"
        result = engine.query(query)
        assert result.info["routed_to"] == "ARRIVAL"

    def test_bounded_type1_goes_to_arrival(self, small_alphabet_graph):
        # LI cannot answer distance-bounded queries
        engine = AutoEngine(small_alphabet_graph, seed=1)
        query = RSPQuery(0, 5, "(follows:h0 | follows:h1)*", distance_bound=4)
        assert engine.route(query) == "ARRIVAL"

    def test_dynamic_flag_disables_li(self, small_alphabet_graph):
        engine = AutoEngine(small_alphabet_graph, dynamic=True, seed=1)
        query = RSPQuery(0, 5, "(follows:h0 | follows:h1)*")
        assert engine.route(query) == "ARRIVAL"

    def test_li_memory_failure_falls_back(self, small_alphabet_graph):
        engine = AutoEngine(
            small_alphabet_graph, li_memory_budget_bytes=100, seed=1
        )
        query = RSPQuery(0, 5, "(follows:h0 | follows:h1)*")
        assert engine.route(query) == "ARRIVAL"
        # the failed build is remembered, not retried
        assert engine._landmark_failed
        assert engine.route(query) == "ARRIVAL"

    def test_index_build_failure_falls_back_through_query(
        self, small_alphabet_graph
    ):
        """IndexBuildError during a query() is absorbed, not raised.

        The first type-1 query triggers the lazy landmark build; with an
        impossible memory budget the build fails and the *same call*
        must still come back answered by ARRIVAL.
        """
        engine = AutoEngine(
            small_alphabet_graph, li_memory_budget_bytes=1, seed=1
        )
        assert not engine._landmark_failed
        query = RSPQuery(0, 5, "(follows:h0 | follows:h1)*")
        result = engine.query(query)
        assert result.info["routed_to"] == "ARRIVAL"
        assert engine._landmark_failed
        assert engine._landmark is None
        # the fallback result is a real ARRIVAL answer: stats attached,
        # and one-sided error still holds (a positive carries a witness)
        assert result.stats is not None
        assert result.stats.engine == "ARRIVAL"
        if result.reachable:
            assert result.path is not None
        # subsequent queries keep routing to ARRIVAL without retrying
        again = engine.query(query)
        assert again.info["routed_to"] == "ARRIVAL"

    def test_index_build_failure_via_injected_error(
        self, small_alphabet_graph, monkeypatch
    ):
        """Any IndexBuildError (not just memory) routes to ARRIVAL."""
        from repro.baselines import landmark as landmark_module
        from repro.errors import IndexBuildError

        def boom(*args, **kwargs):
            raise IndexBuildError("synthetic build failure")

        monkeypatch.setattr(landmark_module, "LandmarkIndex", boom)
        monkeypatch.setattr(
            "repro.core.router.LandmarkIndex", boom
        )
        engine = AutoEngine(small_alphabet_graph, seed=1)
        result = engine.query(RSPQuery(0, 5, "(follows:h0 | follows:h1)*"))
        assert result.info["routed_to"] == "ARRIVAL"
        assert engine._landmark_failed


class TestAnswers:
    def test_li_and_arrival_agree_on_positive(self, small_alphabet_graph):
        engine = AutoEngine(small_alphabet_graph, seed=1)
        graph = small_alphabet_graph
        labels = sorted(graph.label_alphabet())
        regex = "(" + " | ".join(labels) + ")*"
        # only probe reachable targets: exact BBFS exits fast on
        # positives but is exponential on unconstrained negatives
        from collections import deque

        reachable = []
        queue = deque([0])
        seen = {0}
        while queue and len(reachable) < 6:
            node = queue.popleft()
            for neighbor in graph.out_neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    reachable.append(neighbor)
                    queue.append(neighbor)
        for target in reachable[:5]:
            routed = engine.query(0, target, regex)
            assert routed.reachable  # every label allowed, target reachable
            exact = engine.query(0, target, regex, exact=True)
            assert exact.info["routed_to"] == "BBFS"
            assert exact.reachable

    def test_positional_and_object_forms(self, small_alphabet_graph):
        engine = AutoEngine(small_alphabet_graph, seed=1)
        by_args = engine.query(0, 5, "follows:h0*")
        by_object = engine.query(RSPQuery(0, 5, "follows:h0*"))
        assert by_args.reachable == by_object.reachable


class TestMutation:
    def test_landmark_index_follows_graph_mutations(self):
        """LI answers from the snapshot its index was built on, so a
        mutated graph must get a fresh index, not a stale True."""
        graph = twitter_like(n_nodes=200, n_hubs=6, seed=2)
        labels = sorted(graph.label_alphabet())[:6]
        query = RSPQuery(0, 100, "(" + " | ".join(labels) + ")*")
        engine = AutoEngine(graph, seed=1)
        before = engine.query(query)
        assert before.info["routed_to"] == "LI"
        assert before.reachable
        for neighbor in list(graph.out_neighbors(0)):
            graph.remove_edge(0, neighbor)
        after = engine.query(query)
        assert after.info["routed_to"] == "LI"
        assert not after.reachable
        assert after.exact
