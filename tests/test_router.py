"""AutoEngine routing and negative-certification tests."""

from functools import partial

import numpy as np
import pytest

from repro.baselines.product_bfs import BidirectionalProductSearch
from repro.core import BatchExecutor, make_engine, router
from repro.core.router import AutoEngine
from repro.datasets.follower import twitter_like
from repro.datasets.knowledge import freebase_like
from repro.datasets.social import gplus_like
from repro.errors import QueryError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.stats import labels_by_frequency
from repro.queries import WorkloadGenerator
from repro.queries.query import RSPQuery
from repro.regex.compiler import compile_regex
from repro.verify import DifferentialOracle


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


# ---------------------------------------------------------------------------
# exact negatives: the bidirectional product search on the ARRIVAL route
# ---------------------------------------------------------------------------
def node_labeled(labels, edges):
    graph = LabeledGraph(directed=True)
    graph.labeled_elements = "nodes"
    for node_labels in labels:
        graph.add_node(node_labels)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


@pytest.fixture
def chain():
    """0 -> 1 -> 2 -> 3 labelled a a a b: ``a+`` reaches 1 and 2 only;
    node 3's own label ends no word of ``a+``."""
    return node_labeled(
        [{"a"}, {"a"}, {"a"}, {"b"}], [(0, 1), (1, 2), (2, 3)]
    )


def walk_budget_engine(graph):
    return AutoEngine(
        graph, dynamic=True, walk_length=6, num_walks=20, seed=1
    )


class TestCertifiedNegatives:
    def test_probe_certifies_before_any_walk(self, chain):
        chain.set_node_labels(1, {"c"})  # the only route from 0 to 2
        query = RSPQuery(0, 2, "a+")
        plain = make_engine(
            "arrival", chain, walk_length=6, num_walks=20, seed=1
        ).query(query)
        assert not plain.reachable and not plain.exact
        result = walk_budget_engine(chain).query(query)
        assert not result.reachable and result.exact
        assert result.info["certified"] is True
        assert result.info["routed_to"] == "ARRIVAL"
        assert "miss_probability_bound" not in result.info
        assert result.expansions == 0 and result.jumps == 0
        assert result.stats.candidates_scanned > 0

    def test_dead_target_needs_no_scan(self, chain):
        result = walk_budget_engine(chain).query(RSPQuery(0, 3, "a+"))
        assert result.info["certified"] is True
        assert result.stats.candidates_scanned == 0

    def test_search_resumes_after_an_inexact_false(self, monkeypatch):
        """With no probe budget the walks run first; their inexact
        False is then certified by resuming the search for at most the
        walks' own neighbour scans."""
        monkeypatch.setattr(router, "CERTIFY_PROBE_SCANS", 0)
        # every walk from 0 to 4 reads a c before the final b
        graph = node_labeled(
            [{"a"}, {"a"}, {"a"}, {"c"}, {"b"}],
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)],
        )
        query = RSPQuery(0, 4, "a+ b")
        result = walk_budget_engine(graph).query(query)
        plain = make_engine(
            "arrival", graph, walk_length=6, num_walks=20, seed=1
        ).query(query)
        assert plain.expansions > 0 and not plain.exact
        assert (result.expansions, result.jumps) == (
            plain.expansions, plain.jumps
        )
        assert not result.reachable and result.exact
        assert result.info["certified"] is True
        assert "miss_probability_bound" not in result.info
        assert (
            result.stats.candidates_scanned
            > plain.stats.candidates_scanned
        )

    def test_positive_is_not_certified(self, chain):
        result = walk_budget_engine(chain).query(RSPQuery(0, 2, "a+"))
        assert result.reachable and result.path == [0, 1, 2]
        assert "certified" not in result.info

    def test_a_non_simple_walk_certifies_nothing(self):
        """The only matching walk repeats node 1, so the answer stays
        ARRIVAL's inexact False."""
        graph = LabeledGraph(directed=True)
        graph.add_nodes(4)
        graph.add_edge(0, 1, {"a"})
        graph.add_edge(1, 2, {"a"})
        graph.add_edge(2, 1, {"b"})
        graph.add_edge(1, 3, {"c"})
        result = walk_budget_engine(graph).query(RSPQuery(0, 3, "a a b c"))
        assert not result.reachable and not result.exact
        assert "certified" not in result.info


class TestCertifyKeepsErrors:
    """A query the search would certify still raises what ARRIVAL
    raises: the argument checks run before the probe."""

    @pytest.mark.parametrize(
        "source, target",
        [(9, 3), (0, 9), (-1, 3)],
        ids=["source", "target", "negative-id"],
    )
    def test_missing_endpoint(self, chain, source, target):
        with pytest.raises(QueryError):
            walk_budget_engine(chain).query(RSPQuery(source, target, "a+"))

    @pytest.mark.parametrize("removed", [0, 3])
    def test_removed_endpoint(self, chain, removed):
        chain.remove_node(removed)
        # a removed node has no adjacency: a naive probe would certify
        search = BidirectionalProductSearch(
            chain, 0, 3, compile_regex("(a | b)+")
        )
        assert search.run() is False
        with pytest.raises(QueryError):
            walk_budget_engine(chain).query(RSPQuery(0, 3, "(a | b)+"))

    def test_negative_distance_bound(self, chain):
        with pytest.raises(QueryError):
            walk_budget_engine(chain).query(
                RSPQuery(0, 3, "a+", distance_bound=-1)
            )

    def test_min_distance_above_distance_bound(self, chain):
        with pytest.raises(QueryError):
            walk_budget_engine(chain).query(
                RSPQuery(0, 3, "a+", distance_bound=1, min_distance=2)
            )

    def test_unknown_engine_kwarg(self, chain):
        with pytest.raises(TypeError):
            walk_budget_engine(chain).query(
                RSPQuery(0, 3, "a+"), walk_lenght_scale=2.0
            )


# ---------------------------------------------------------------------------
# AUTO answers as ARRIVAL does wherever it does not certify
# ---------------------------------------------------------------------------
IDENTITY_SEED = 3


def identity_queries(graph, count):
    """Half from the paper's workload generator, half Kleene-star and
    label-sequence regexes over the most frequent labels, so walks run."""
    rng = np.random.default_rng(IDENTITY_SEED)
    top = labels_by_frequency(graph)[:6]
    regexes = [
        "(" + " | ".join(top[:4]) + ")*",
        f"{top[0]}+ {top[1]}+",
        f"({top[2]} {top[3]})+",
        f"({top[0]} | {top[4]})* {top[5]}",
    ]
    queries = list(
        WorkloadGenerator(graph, seed=IDENTITY_SEED).generate(count // 2)
    )
    nodes = list(graph.nodes())
    while len(queries) < count:
        source, target = rng.choice(len(nodes), size=2, replace=False)
        regex = regexes[len(queries) % len(regexes)]
        queries.append(RSPQuery(nodes[source], nodes[target], regex))
    return queries


def run_serial(name, graph, queries, **engine_kwargs):
    factory = partial(
        make_engine, name, graph, seed=IDENTITY_SEED, **engine_kwargs
    )
    executor = BatchExecutor(factory=factory, seed=IDENTITY_SEED)
    return executor.run(queries).results


@pytest.fixture(
    scope="module",
    params=["gplus_like", "twitter_like", "freebase_like"],
)
def dataset(request):
    builders = {
        "gplus_like": partial(gplus_like, n_nodes=400),
        "twitter_like": partial(twitter_like, n_nodes=400, n_hubs=40),
        "freebase_like": partial(freebase_like, n_nodes=400),
    }
    return builders[request.param](seed=IDENTITY_SEED)


class TestAutoMatchesArrival:
    @pytest.mark.parametrize("probe_scans", [router.CERTIFY_PROBE_SCANS, 0])
    def test_uncertified_answers_identical(
        self, dataset, probe_scans, monkeypatch
    ):
        """Same seed, same walks: every query the search leaves
        uncertified gets ARRIVAL's answer, witness and jump count, and
        ARRIVAL answers False to every certified one.  A zero probe
        budget sends every live negative through the walks first."""
        monkeypatch.setattr(router, "CERTIFY_PROBE_SCANS", probe_scans)
        queries = identity_queries(dataset, 120)
        auto = run_serial("auto", dataset, queries)
        arrival = run_serial("arrival", dataset, queries)
        certified = 0
        for query, ours, theirs in zip(queries, auto, arrival):
            assert ours.info["routed_to"] == "ARRIVAL", query
            if ours.info.get("certified"):
                certified += 1
                assert not ours.reachable and ours.exact, query
                assert not theirs.reachable, query
                continue
            assert (ours.reachable, ours.path, ours.jumps) == (
                theirs.reachable, theirs.path, theirs.jumps
            ), query
        assert 0 < certified < len(queries)

    def test_process_backend_matches_serial(self, dataset):
        """Over an attached shared-memory plane the search runs on a
        ``SharedGraph``; answers and certificates must not move."""
        queries = identity_queries(dataset, 60)
        factory = partial(make_engine, "auto", dataset, seed=IDENTITY_SEED)
        serial = BatchExecutor(factory=factory, seed=IDENTITY_SEED).run(
            queries
        )
        pooled = BatchExecutor(
            factory=factory,
            seed=IDENTITY_SEED,
            backend="process",
            workers=1,
            shm="on",
        )
        try:
            report = pooled.run(queries)
        finally:
            pooled.close()

        def view(results):
            return [
                (
                    r.reachable,
                    r.path,
                    r.exact,
                    r.jumps,
                    r.info.get("certified", False),
                )
                for r in results
            ]

        assert view(report.results) == view(serial.results)
        assert any(r.info.get("certified") for r in report.results)


@pytest.mark.slow
def test_oracle_sweep_certified_negatives_hold():
    """200 workload queries, AUTO (dynamic) against BBFS: every
    certified negative is an exact answer the oracle holds AUTO to."""
    graph = gplus_like(n_nodes=150, seed=5)
    queries = WorkloadGenerator(graph, seed=11).generate(200)
    report = DifferentialOracle(
        graph,
        engines=("auto", "bbfs"),
        seed=IDENTITY_SEED,
        engine_kwargs={
            "auto": {"dynamic": True},
            "bbfs": {"max_expansions": 2_000},
        },
    ).run(queries)
    assert report.divergences == []
    exact_false = [
        a for a in report.adjudications
        if a.truth is False and a.answers["auto"] is False
    ]
    assert exact_false
