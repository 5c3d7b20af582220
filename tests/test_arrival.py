"""ARRIVAL engine tests.

The central properties under test, from Sec. 3.2.3 and Sec. 4:

* **no false positives** — every positive answer carries a verified
  simple compatible witness (property-tested on random graphs);
* **one-sided errors only** — negatives may be wrong, positives never;
* faithful parameter behaviour (walk budget, walk length, distance
  bounds) and the engine options (label modes, meeting modes,
  unidirectional ablation, adaptivity).
"""

import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.baselines.bfs import BFSEngine
from repro.core.arrival import Arrival
from repro.errors import QueryError
from repro.graph.labeled_graph import LabeledGraph
from repro.queries.query import RSPQuery
from repro.regex.compiler import compile_regex
from repro.regex.matcher import COMPATIBLE, check_path, is_simple

from strategies import small_edge_labeled_graphs


@pytest.fixture
def paper_graph():
    """The running example: a*ba* routes from 1 to 5."""
    graph = LabeledGraph(directed=True)
    graph.add_nodes(7)
    graph.add_edge(1, 2, {"a"})
    graph.add_edge(1, 3, {"a"})
    graph.add_edge(3, 2, {"b"})
    graph.add_edge(2, 4, {"b"})
    graph.add_edge(4, 5, {"a"})
    graph.add_edge(5, 6, {"a"})
    graph.add_edge(1, 5, {"c"})
    return graph


class TestBasicAnswers:
    def test_positive_query_with_witness(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=60, seed=1)
        result = engine.query(1, 5, "a* b a*")
        assert result.reachable
        assert result.path[0] == 1 and result.path[-1] == 5
        assert is_simple(result.path)
        assert result.path_is_simple

    def test_negative_query(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=60, seed=1)
        assert not engine.query(6, 1, "a* b a*").reachable

    def test_rspquery_object_accepted(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=60, seed=1)
        query = RSPQuery(source=1, target=5, regex="a* b a*")
        assert engine.query(query).reachable

    def test_unknown_endpoints_raise(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=10, seed=1)
        with pytest.raises(QueryError):
            engine.query(0 - 1, 5, "a*")
        with pytest.raises(QueryError):
            engine.query(1, 99, "a*")

    def test_result_info_fields(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=60, seed=1)
        result = engine.query(1, 5, "a* b a*")
        assert result.info["walk_length"] == 4
        assert result.info["num_walks"] == 60
        assert result.method == "ARRIVAL"

    def test_precompiled_regex_accepted(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=60, seed=1)
        compiled = compile_regex("a* b a*")
        assert engine.query(1, 5, compiled).reachable


class TestTrivialAndDegenerate:
    def test_source_equals_target_edge_labeled(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=10, seed=1)
        assert engine.query(2, 2, "a*").reachable  # ε accepted
        assert not engine.query(2, 2, "a+").reachable

    def test_source_equals_target_node_labeled(self):
        graph = LabeledGraph()
        graph.labeled_elements = "nodes"
        graph.add_node({"x"})
        engine = Arrival(graph, walk_length=4, num_walks=10, seed=1)
        assert engine.query(0, 0, "x").reachable
        assert not engine.query(0, 0, "y").reachable

    def test_dead_source_symbol_is_exact_negative(self):
        graph = LabeledGraph()
        graph.labeled_elements = "nodes"
        graph.add_node({"x"})
        graph.add_node({"y"})
        graph.add_edge(0, 1)
        engine = Arrival(graph, walk_length=4, num_walks=10, seed=1)
        result = engine.query(0, 1, "y+")
        assert not result.reachable
        assert result.exact

    def test_zero_walk_budget_gives_negative(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=1, seed=1)
        result = engine.query(1, 5, "a* b a*", num_walks_scale=0.0001)
        assert result.info["num_walks"] == 1


class TestNoFalsePositives:
    @given(small_edge_labeled_graphs(), st.integers(0, 10**6))
    def test_every_positive_has_simple_compatible_witness(self, graph, seed):
        engine = Arrival(graph, walk_length=5, num_walks=30, seed=seed)
        compiled = compile_regex("a* b a*")
        result = engine.query(0, 1, compiled)
        if result.reachable:
            assert is_simple(result.path)
            assert result.path[0] == 0 and result.path[-1] == 1
            assert check_path(compiled, graph, result.path) == COMPATIBLE

    @given(small_edge_labeled_graphs(), st.integers(0, 10**6))
    def test_positives_confirmed_by_exhaustive_bfs(self, graph, seed):
        engine = Arrival(graph, walk_length=5, num_walks=30, seed=seed)
        result = engine.query(0, 1, "(a | b)* c?")
        if result.reachable:
            oracle = BFSEngine(graph, max_expansions=200_000)
            assert oracle.query(0, 1, "(a | b)* c?").reachable


#: run under ``python -O``: corrupt the meeting join of ARRIVAL and of
#: BBFS so it returns [0, 1] — a real simple path whose word "a" the
#: regex "a a" rejects — and report how each engine answers
_CORRUPT_JOIN_SCRIPT = textwrap.dedent(
    """
    import sys
    import repro.baselines.bbfs as bbfs
    import repro.core.walks as walks
    from repro.core import make_engine
    from repro.errors import WitnessViolationError
    from repro.graph.labeled_graph import LabeledGraph

    graph = LabeledGraph(directed=True)
    graph.labeled_elements = "edges"
    graph.add_nodes(3)
    graph.add_edge(0, 1, {"a"})
    graph.add_edge(1, 2, {"a"})
    walks.hashmap_meet = lambda *args, **kwargs: [0, 1]
    bbfs.join_paths = lambda *args: [0, 1]
    print("optimize", sys.flags.optimize)
    for name, kwargs in (
        ("arrival", {"walk_length": 4, "num_walks": 4, "seed": 1}),
        ("bbfs", {}),
    ):
        try:
            result = make_engine(name, graph, **kwargs).query(0, 2, "a a")
        except WitnessViolationError as error:
            print(name, "raised", error.invariant)
        else:
            print(name, "answered", result.reachable)
    """
)


class TestWitnessCheck:
    def test_rejected_join_raises_under_python_O(self):
        """The no-false-positive guarantee is enforced by an explicit
        check, not an ``assert`` that ``python -O`` strips."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-O", "-c", _CORRUPT_JOIN_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.splitlines() == [
            "optimize 1",
            "arrival raised rejected",
            "bbfs raised rejected",
        ]


class TestRecallOnEasyGraphs:
    def test_high_recall_on_rings(self):
        """On a strongly connected ring with a generous budget, the
        Proposition-1 regime, ARRIVAL should essentially never miss."""
        graph = LabeledGraph(directed=True)
        graph.add_nodes(12)
        for index in range(12):
            graph.add_edge(index, (index + 1) % 12, {"a"})
        engine = Arrival(graph, walk_length=13, num_walks=80, seed=5)
        hits = sum(
            engine.query(0, target, "a+").reachable for target in range(1, 12)
        )
        assert hits == 11


class TestDistanceBounds:
    def test_bound_excludes_long_paths(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=6, num_walks=100, seed=3)
        assert engine.query(1, 5, "a* b a*", distance_bound=3).reachable
        assert not engine.query(1, 5, "a* b a*", distance_bound=2).reachable

    def test_witness_respects_bound(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=6, num_walks=100, seed=3)
        result = engine.query(1, 5, "a* b a*", distance_bound=3)
        assert len(result.path) - 1 <= 3

    def test_negative_bound_rejected(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=10, seed=1)
        with pytest.raises(QueryError):
            engine.query(1, 5, "a*", distance_bound=-1)

    def test_bound_caps_walk_length(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=50, num_walks=10, seed=1)
        result = engine.query(1, 5, "a* b a*", distance_bound=2)
        assert result.info["walk_length"] == 3


class TestEngineOptions:
    def test_sampled_label_mode_still_no_false_positives(self, paper_graph):
        engine = Arrival(
            paper_graph, walk_length=4, num_walks=100, seed=5,
            label_mode="sampled",
        )
        result = engine.query(1, 5, "a* b a*")
        if result.reachable:
            assert check_path(
                compile_regex("a* b a*"), paper_graph, result.path
            ) == COMPATIBLE

    def test_naive_meeting_agrees(self, paper_graph):
        hashmap = Arrival(paper_graph, walk_length=4, num_walks=60, seed=9)
        naive = Arrival(
            paper_graph, walk_length=4, num_walks=60, seed=9, meeting="naive"
        )
        assert hashmap.query(1, 5, "a* b a*").reachable
        assert naive.query(1, 5, "a* b a*").reachable

    def test_invalid_meeting_mode(self, paper_graph):
        with pytest.raises(ValueError):
            Arrival(paper_graph, meeting="telepathy")

    def test_unidirectional_mode(self, paper_graph):
        engine = Arrival(
            paper_graph, walk_length=5, num_walks=200, seed=2,
            bidirectional=False,
        )
        result = engine.query(1, 5, "a* b a*")
        assert result.reachable
        assert result.info["backward_walks"] == 0

    def test_parameter_scales(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=10, num_walks=100, seed=1)
        result = engine.query(1, 5, "a* b a*", walk_length_scale=0.5,
                              num_walks_scale=0.5)
        assert result.info["walk_length"] == 5
        assert result.info["num_walks"] == 50


class TestAutomaticParameters:
    def test_walk_length_estimated_lazily(self, paper_graph):
        engine = Arrival(paper_graph, seed=1)
        assert engine.walk_length >= 4
        assert engine.num_walks >= 1

    def test_adaptive_engine_refines_num_walks(self, paper_graph):
        engine = Arrival(
            paper_graph, walk_length=4, num_walks=40, seed=1, adaptive=True
        )
        for _ in range(6):
            engine.query(1, 6, "a+")
        assert engine.estimator.n_samples > 0
        assert engine.num_walks >= 1  # refined or fallback, never crashes

    def test_compile_cache_reused(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=10, seed=1)
        first = engine.compile("a* b a*")
        second = engine.compile("a* b a*")
        assert first is second


class TestDynamicUse:
    def test_snapshot_queries(self):
        """Index-free: just build an engine per snapshot (Sec. 2)."""
        from repro.graph.temporal import TemporalGraph

        temporal = TemporalGraph(directed=True)
        temporal.add_node_at(0.0)
        temporal.add_node_at(0.0)
        temporal.add_edge_at(5.0, 0, 1, {"a"})
        before = Arrival(temporal.snapshot(1.0), walk_length=4,
                         num_walks=20, seed=1)
        after = Arrival(temporal.snapshot(6.0), walk_length=4,
                        num_walks=20, seed=1)
        assert not before.query(0, 1, "a").reachable
        assert after.query(0, 1, "a").reachable


class TestQueryMany:
    def test_batch_answers_match_singles(self, paper_graph):
        from repro.queries.query import RSPQuery

        queries = [
            RSPQuery(1, 5, "a* b a*"),
            RSPQuery(6, 1, "a* b a*"),
            RSPQuery(1, 6, "a+ b a+"),
        ]
        batch_engine = Arrival(paper_graph, walk_length=4, num_walks=60,
                               seed=9)
        results = batch_engine.query_many(queries)
        assert len(results) == 3
        single_engine = Arrival(paper_graph, walk_length=4, num_walks=60,
                                seed=9)
        singles = [single_engine.query(q) for q in queries]
        assert [r.reachable for r in results] == \
            [r.reachable for r in singles]

    def test_adaptive_batch_accumulates_statistics(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=40, seed=9,
                         adaptive=True)
        from repro.queries.query import RSPQuery

        engine.query_many([RSPQuery(1, 6, "a+") for _ in range(5)])
        assert engine.estimator.n_samples > 0


class TestTrace:
    def test_trace_collects_registered_positions(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=30, seed=1)
        trace = []
        engine.query(1, 5, "a* b a*", trace=trace)
        assert trace, "no events collected"
        for event in trace:
            assert event["side"] in ("forward", "backward")
            assert paper_graph.is_alive(event["node"])
            assert event["states"]  # only non-empty key sets registered
        # both directions appear
        assert {event["side"] for event in trace} == {"forward", "backward"}

    def test_trace_off_by_default(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=10, seed=1)
        result = engine.query(1, 5, "a* b a*")
        assert result is not None  # merely: no crash without a sink


class TestLabeledCalibration:
    def test_calibrated_walk_length_not_longer_than_unlabeled(self):
        """Sec. 4.3: compatible shortest-path trees are never deeper
        than unconstrained ones, so the calibrated walkLength is <=."""
        graph = LabeledGraph(directed=True)
        graph.add_nodes(10)
        for index in range(9):
            graph.add_edge(index, index + 1,
                           {"a"} if index < 3 else {"z"})
        calibrated = Arrival(
            graph, seed=1, calibration_regexes=["a+"],
        )
        unlabeled = Arrival(graph, seed=1)
        assert calibrated.walk_length <= unlabeled.walk_length

    def test_calibrated_engine_still_answers(self):
        graph = LabeledGraph(directed=True)
        graph.add_nodes(4)
        for index in range(3):
            graph.add_edge(index, index + 1, {"a"})
        engine = Arrival(
            graph, num_walks=40, seed=2, calibration_regexes=["a+", "a*"],
        )
        assert engine.query(0, 3, "a+").reachable


class TestMissProbabilityBound:
    def test_reported_when_budget_meets_theory(self):
        # a tiny strongly connected ring: α is large, the theoretical
        # budget small, so a generous numWalks qualifies for the bound
        graph = LabeledGraph(directed=True)
        graph.add_nodes(6)
        for index in range(6):
            graph.add_edge(index, (index + 1) % 6, {"a"})
        engine = Arrival(graph, walk_length=7, num_walks=400, seed=3)
        # accumulate endpoint statistics first
        for _ in range(5):
            engine.query(0, 3, "a+")
        result = engine.query(0, 3, "b+")  # certainly negative
        if not result.reachable and "miss_probability_bound" in result.info:
            assert result.info["miss_probability_bound"] == pytest.approx(
                1 / 6
            )

    def test_absent_without_statistics(self):
        graph = LabeledGraph(directed=True)
        graph.add_nodes(3)
        graph.add_edge(0, 1, {"a"})
        engine = Arrival(graph, walk_length=4, num_walks=10, seed=3)
        result = engine.query(0, 2, "a+")
        # first-ever query: the estimator may have walk endpoints from
        # this very query, so the field is optional — but if absent the
        # result is still a plain negative
        assert not result.reachable
