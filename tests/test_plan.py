"""Tests for :mod:`repro.core.plan` — the plan/execute split.

The contract under test: ``engine.query(...)`` must equal
``engine.execute(engine.prepare(query))`` byte for byte, warm plans
must answer exactly like cold ones, and the artifact cache must be
version-invalidated (graph mutation), size-bounded (LRU eviction) and
process-stable (sha256 fingerprints, no hash salting).
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from repro.baselines.bbfs import BBFSEngine
from repro.baselines.bfs import BFSEngine
from repro.core.arrival import Arrival
from repro.core.plan import (
    PlanCache,
    canonicalize,
    compile_query,
    fingerprint_regex,
    graph_profile,
    graph_stamp,
    plan_query,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.labels import PredicateRegistry
from repro.queries.query import RSPQuery

SRC = str(Path(__file__).resolve().parent.parent / "src")


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


# ---------------------------------------------------------------------------
# canonicalization & fingerprinting
# ---------------------------------------------------------------------------
class TestCanonicalization:
    def test_alternation_is_commutative(self):
        assert fingerprint_regex("(a|b)*") == fingerprint_regex("(b|a)*")

    def test_alternation_is_idempotent(self):
        assert fingerprint_regex("(b|a|b)*") == fingerprint_regex("(a|b)*")

    def test_nested_alternation_normalises(self):
        assert fingerprint_regex("(b|a|b)* c (d|c)") == fingerprint_regex(
            "(a|b)* c (c|d)"
        )

    def test_concatenation_order_is_semantic(self):
        assert fingerprint_regex("a b") != fingerprint_regex("b a")

    def test_negation_mode_is_part_of_the_fingerprint(self):
        assert fingerprint_regex("a*", "paper") != fingerprint_regex(
            "a*", "complement"
        )

    def test_singleton_alt_collapses(self):
        from repro.regex.parser import parse_regex

        canonical = canonicalize(parse_regex("(a|a)", None))
        assert str(canonical) == "a"

    def test_predicates_are_not_fingerprintable(self):
        from repro.regex.parser import parse_regex

        registry = PredicateRegistry()
        registry.register("hot", lambda attrs: attrs.get("deg", 0) > 3)
        ast = parse_regex("{hot}*", registry)
        assert fingerprint_regex(ast) is None


class TestFingerprintDeterminism:
    def test_stable_across_processes(self):
        """sha256 of canonical UTF-8 text: no per-process hash salt."""
        local = fingerprint_regex("(b|a)* c", "paper")
        script = (
            "from repro.core.plan import fingerprint_regex;"
            "print(fingerprint_regex('(a|b)* c', 'paper'))"
        )
        remote = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": SRC, "PYTHONHASHSEED": "random"},
        ).stdout.strip()
        assert remote == local


# ---------------------------------------------------------------------------
# graph stamps
# ---------------------------------------------------------------------------
class TestGraphStamp:
    def test_mutation_bumps_the_stamp(self, paper_graph):
        before = graph_stamp(paper_graph)
        paper_graph.add_edge(6, 0, {"a"})
        after = graph_stamp(paper_graph)
        assert before[0] == after[0]  # same instance token
        assert before[1] < after[1]  # newer version

    def test_copies_get_fresh_tokens(self, paper_graph):
        original = graph_stamp(paper_graph)
        clone = graph_stamp(paper_graph.copy())
        assert clone[0] != original[0]


# ---------------------------------------------------------------------------
# the plan cache proper
# ---------------------------------------------------------------------------
class TestPlanCache:
    def test_second_plan_is_a_hit(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=20, seed=1)
        query = RSPQuery(1, 5, "a* b a*")
        cache = engine._ensure_plan_cache()
        cold = plan_query(engine, query, cache)
        warm = plan_query(engine, query, cache)
        assert not cold.cache_hit
        assert warm.cache_hit
        assert warm.artifact is cold.artifact
        assert warm.compiled is cold.compiled

    def test_cached_artifact_is_frozen(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=20, seed=1)
        query = RSPQuery(1, 5, "a* b a*")
        cache = engine._ensure_plan_cache()
        plan_query(engine, query, cache)
        warm = plan_query(engine, query, cache)
        assert warm.cache_hit
        for name, value in (
            ("params", {}),
            ("compiled", None),
            ("fingerprint", ""),
            ("compile_s", 0.0),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(warm.artifact, name, value)
        # the next query of the template still sees the cached estimates
        again = plan_query(engine, query, cache)
        assert again.artifact is warm.artifact
        assert again.params == warm.params != {}

    def test_textual_variants_share_one_artifact(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=20, seed=1)
        cache = engine._ensure_plan_cache()
        first = plan_query(engine, RSPQuery(1, 5, "(a|b)*"), cache)
        second = plan_query(engine, RSPQuery(1, 5, "(b|a)*"), cache)
        assert second.cache_hit
        assert second.compiled is first.compiled

    def test_graph_mutation_invalidates(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=20, seed=1)
        query = RSPQuery(1, 5, "a* b a*")
        cache = engine._ensure_plan_cache()
        plan_query(engine, query, cache)
        paper_graph.add_edge(6, 0, {"c"})
        stale = plan_query(engine, query, cache)
        assert not stale.cache_hit  # the old snapshot's plan is unusable

    def test_eviction_under_a_tiny_budget(self, paper_graph):
        cache = PlanCache(max_plans=2)
        engine = Arrival(
            paper_graph,
            walk_length=4,
            num_walks=20,
            seed=1,
            plan_cache=cache,
        )
        templates = ["a*", "b*", "c*"]
        for regex in templates:
            plan_query(engine, RSPQuery(1, 5, regex), cache)
        assert len(cache.plans) == 2
        assert cache.plans.evictions == 1
        # the oldest template was evicted; replanning it is a miss
        evicted = plan_query(engine, RSPQuery(1, 5, "a*"), cache)
        assert not evicted.cache_hit

    def test_zero_budget_disables_caching(self, paper_graph):
        cache = PlanCache(max_plans=0)
        engine = Arrival(
            paper_graph,
            walk_length=4,
            num_walks=20,
            seed=1,
            plan_cache=cache,
        )
        query = RSPQuery(1, 5, "a* b a*")
        plan_query(engine, query, cache)
        again = plan_query(engine, query, cache)
        assert not again.cache_hit
        assert len(cache.plans) == 0

    def test_cross_engine_compiled_sharing(self, paper_graph):
        """Different engine scopes still share one Thompson NFA."""
        cache = PlanCache()
        arrival = Arrival(
            paper_graph,
            walk_length=4,
            num_walks=20,
            seed=1,
            plan_cache=cache,
        )
        bfs = BFSEngine(paper_graph, plan_cache=cache)
        query = RSPQuery(1, 5, "a* b a*")
        arrival_plan = plan_query(arrival, query, cache)
        bfs_plan = plan_query(bfs, query, cache)
        assert not bfs_plan.cache_hit  # different scope, own artifact
        assert bfs_plan.compiled is arrival_plan.compiled  # shared NFA
        assert cache.compiles == 1

    def test_predicate_queries_bypass_the_cache(self, paper_graph):
        registry = PredicateRegistry()
        registry.register("any", lambda attrs: True)
        engine = Arrival(paper_graph, walk_length=4, num_walks=20, seed=1)
        cache = engine._ensure_plan_cache()
        query = RSPQuery(1, 5, "{any}*", predicates=registry)
        plan = plan_query(engine, query, cache)
        assert not plan.cache_hit
        assert len(cache.plans) == 0  # never stored

    def test_counters_consumed_exactly_once(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=20, seed=1)
        plan = plan_query(
            engine, RSPQuery(1, 5, "a* b a*"), engine._ensure_plan_cache()
        )
        first = plan.consume_counters()
        second = plan.consume_counters()
        assert first[3] is False  # a real miss
        assert second == (0.0, 0.0, 0.0, None, 0)


# ---------------------------------------------------------------------------
# the engine-facing surface
# ---------------------------------------------------------------------------
class TestEngineSurface:
    def test_query_equals_prepare_plus_execute(self, paper_graph):
        direct = Arrival(paper_graph, walk_length=4, num_walks=60, seed=3)
        split = Arrival(paper_graph, walk_length=4, num_walks=60, seed=3)
        expected = direct.query(1, 5, "a* b a*")
        plan = split.prepare(1, 5, "a* b a*")
        actual = split.execute(plan)
        assert actual.reachable == expected.reachable
        assert actual.path == expected.path

    def test_warm_answers_match_cold(self, paper_graph):
        """Reusing a cached plan must not change any answer."""
        queries = [
            RSPQuery(1, 5, "a* b a*"),
            RSPQuery(1, 6, "a* b a*"),
            RSPQuery(6, 1, "a* b a*"),
            RSPQuery(1, 5, "c"),
        ]
        warm = Arrival(paper_graph, walk_length=4, num_walks=60, seed=7)
        warm.query(0, 0, "a* b a*")  # prime the template
        cold_answers = []
        for query in queries:
            cold = Arrival(paper_graph, walk_length=4, num_walks=60, seed=7)
            cold_answers.append(cold.query(query))
        warm_answers = []
        for query in queries:
            warm.reseed(7)
            warm_answers.append(warm.query(query))
        for cold_result, warm_result in zip(cold_answers, warm_answers):
            assert warm_result.reachable == cold_result.reachable
            assert warm_result.path == cold_result.path

    def test_stats_expose_hits_and_misses(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=20, seed=1)
        cold = engine.query(1, 5, "a* b a*")
        warm = engine.query(1, 5, "a* b a*")
        assert cold.stats.plan_misses == 1
        assert cold.stats.plan_hits == 0
        assert warm.stats.plan_hits == 1
        assert warm.stats.plan_misses == 0

    def test_warm_execution_skips_the_compile_stage(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=20, seed=1)
        cold = engine.query(1, 5, "a* b a*")
        warm = engine.query(1, 5, "a* b a*")
        assert cold.stats.compile_s > 0.0
        assert warm.stats.compile_s == 0.0

    def test_reexecuting_a_plan_counts_planning_once(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=20, seed=1)
        plan = engine.prepare(1, 5, "a* b a*")
        first = engine.execute(plan)
        second = engine.execute(plan)
        assert first.stats.plan_misses == 1
        assert second.stats.plan_misses == 0
        assert second.stats.plan_hits == 0
        assert second.stats.plan_s == 0.0

    def test_exact_engines_answer_identically_warm(self, paper_graph):
        for engine_cls in (BFSEngine, BBFSEngine):
            engine = engine_cls(paper_graph)
            cold = engine.query(1, 5, "a* b a*")
            warm = engine.query(1, 5, "a* b a*")
            assert warm.reachable == cold.reachable
            assert warm.path == cold.path
            assert warm.stats.plan_hits == 1


# ---------------------------------------------------------------------------
# the compile funnel
# ---------------------------------------------------------------------------
class TestCompileFunnel:
    def test_engine_compile_is_memoised(self, paper_graph):
        engine = Arrival(paper_graph, walk_length=4, num_walks=20, seed=1)
        assert engine.compile("a* b a*") is engine.compile("a* b a*")
        # canonical variants resolve to the same compiled object too
        assert engine.compile("(a|b)*") is engine.compile("(b|a)*")

    def test_compiled_regex_passes_through(self):
        cache = PlanCache()
        compiled = compile_query("a*", cache=cache)
        assert compile_query(compiled, cache=cache) is compiled

    def test_graph_profile_memoised_per_version(self, paper_graph):
        first = graph_profile(paper_graph)
        assert graph_profile(paper_graph) is first
        paper_graph.add_edge(6, 0, {"a"})
        rebuilt = graph_profile(paper_graph)
        assert rebuilt is not first
        assert rebuilt.version == paper_graph.version
