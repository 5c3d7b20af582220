"""Walk-engine fast path: interners, soundness gates, equivalence.

Three layers of coverage:

* unit checks of the interning machinery (`LabelSetInterner`,
  `StateSetInterner`, `InternedStepTable` with symbol-key projection,
  `GraphView`) against the frozenset reference implementations;
* gating — sampled label mode and predicate queries must take the
  frozenset scan (``result.info["fast_path"] is False``) and still
  answer; the removed walk-path switches are constructor errors;
* a seeded equivalence sweep over the synthetic datasets: both scans
  draw their jumps from one ``BatchedIndexSampler`` stream, so the
  interned scan must reproduce the frozenset scan *walk for walk* —
  identical ``reachable`` answers, witness paths and jump counts.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Arrival, make_engine
from repro.core.plan import PlanCache
from repro.core.fastpath import GraphView, LabelSetInterner, build_graph_view
from repro.datasets import dblp_like, freebase_like, gplus_like
from repro.errors import QueryError
from repro.graph.labeled_graph import LabeledGraph
from repro.labels import PredicateRegistry
from repro.queries import WorkloadGenerator
from repro.regex import compile_regex
from repro.regex.interner import (
    EMPTY_STATE_ID,
    InternedStepTable,
    StateSetInterner,
)
from repro.rng import BatchedIndexSampler

from strategies import diamond_graph, small_edge_labeled_graphs


# ---------------------------------------------------------------------------
# interners
# ---------------------------------------------------------------------------
class TestStateSetInterner:
    def test_empty_set_is_reserved_id(self):
        interner = StateSetInterner()
        assert interner.intern(frozenset()) == EMPTY_STATE_ID
        assert interner.states_of(EMPTY_STATE_ID) == frozenset()
        assert interner.tuple_of(EMPTY_STATE_ID) == ()

    def test_ids_are_stable_and_dense(self):
        interner = StateSetInterner()
        a = interner.intern(frozenset({1, 2}))
        b = interner.intern(frozenset({3}))
        assert interner.intern(frozenset({1, 2})) == a
        assert sorted({EMPTY_STATE_ID, a, b}) == [0, 1, 2]
        assert interner.tuple_of(a) == (1, 2)

    def test_roundtrip(self):
        interner = StateSetInterner()
        sets = [frozenset({i, i + 1}) for i in range(10)]
        ids = [interner.intern(s) for s in sets]
        assert [interner.states_of(i) for i in ids] == sets


class TestLabelSetInterner:
    def test_dense_stable_ids(self):
        interner = LabelSetInterner()
        a = interner.intern(frozenset({"x"}))
        b = interner.intern(frozenset({"y"}))
        assert interner.intern(frozenset({"x"})) == a
        assert a != b
        assert interner.sets[a] == frozenset({"x"})
        assert len(interner) == 2


class TestInternedStepTable:
    def _table(self, regex, label_sets):
        compiled = compile_regex(regex)
        interner = LabelSetInterner()
        table = InternedStepTable(compiled.nfa, interner.sets)
        lsids = [interner.intern(s) for s in label_sets]
        table.project()
        return compiled, table, lsids

    def test_step_matches_nfa_step(self):
        label_sets = [
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"a", "b"}),
            frozenset({"z"}),
            frozenset(),
        ]
        compiled, table, lsids = self._table("a (a | b)*", label_sets)
        start = table.intern(compiled.nfa.initial_states())
        for lsid, labels in zip(lsids, label_sets):
            sid = table.step(start, lsid)
            expected = compiled.nfa.step(
                compiled.nfa.initial_states(), labels, {}
            )
            assert table.interner.states_of(sid) == expected

    def test_symbol_projection_collapses_irrelevant_labels(self):
        # label sets differing only outside the automaton's alphabet
        # must share a symbol key (and therefore table entries)
        label_sets = [frozenset({"a", f"noise{i}"}) for i in range(20)]
        compiled, table, lsids = self._table("a+", label_sets)
        assert len({table.sym_ids[lsid] for lsid in lsids}) == 1
        start = table.intern(compiled.nfa.initial_states())
        results = {table.step(start, lsid) for lsid in lsids}
        assert len(results) == 1
        assert table.misses == 1
        assert table.hits == len(lsids) - 1

    def test_projection_keeps_unknown_label_bit(self):
        # negation: ~(a) must distinguish {"a"} (no unknown label) from
        # {"a","q"} (some label outside the alphabet) — the OtherSymbol
        # bit of the symbol key
        label_sets = [frozenset({"a"}), frozenset({"a", "q"})]
        compiled, table, lsids = self._table("~(a)", label_sets)
        assert table.sym_ids[lsids[0]] != table.sym_ids[lsids[1]]
        start = table.intern(compiled.nfa.initial_states())
        dead = table.step(start, lsids[0])
        alive = table.step(start, lsids[1])
        expected_dead = compiled.nfa.step(
            compiled.nfa.initial_states(), label_sets[0], {}
        )
        expected_alive = compiled.nfa.step(
            compiled.nfa.initial_states(), label_sets[1], {}
        )
        assert table.interner.states_of(dead) == expected_dead
        assert table.interner.states_of(alive) == expected_alive

    def test_project_extends_incrementally(self):
        compiled = compile_regex("a+")
        interner = LabelSetInterner()
        table = InternedStepTable(compiled.nfa, interner.sets)
        first = interner.intern(frozenset({"a"}))
        table.project()
        assert len(table.sym_ids) == 1
        second = interner.intern(frozenset({"b"}))
        table.project()
        assert len(table.sym_ids) == 2
        assert table.sym_ids[first] != table.sym_ids[second]

    @settings(max_examples=60, deadline=None)
    @given(
        regex=st.sampled_from(["a+", "(a | b)+", "a b* a", "(a b)+ | c"]),
        labels=st.lists(
            st.frozensets(
                st.sampled_from("abcxyz"), min_size=0, max_size=3
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_interned_word_simulation_matches_frozensets(
        self, regex, labels
    ):
        compiled = compile_regex(regex)
        interner = LabelSetInterner()
        table = InternedStepTable(compiled.nfa, interner.sets)
        lsids = [interner.intern(s) for s in labels]
        table.project()
        sid = table.intern(compiled.nfa.initial_states())
        states = compiled.nfa.initial_states()
        for lsid, label_set in zip(lsids, labels):
            sid = table.step(sid, lsid)
            states = compiled.nfa.step(states, label_set, {})
            assert table.interner.states_of(sid) == states
            if sid == EMPTY_STATE_ID:
                assert states == frozenset()
                break


# ---------------------------------------------------------------------------
# graph views
# ---------------------------------------------------------------------------
class TestGraphView:
    @settings(max_examples=40, deadline=None)
    @given(graph=small_edge_labeled_graphs())
    def test_view_matches_adjacency_and_labels(self, graph):
        view = build_graph_view(graph, LabelSetInterner())
        assert view.version == graph.version
        for node in range(graph.max_node_id):
            out = view.out_indices[
                view.out_indptr[node] : view.out_indptr[node + 1]
            ]
            assert tuple(out) == graph.out_neighbors(node)
            into = view.in_indices[
                view.in_indptr[node] : view.in_indptr[node + 1]
            ]
            assert tuple(into) == graph.in_neighbors(node)
            assert view.label_sets[view.node_ls[node]] == graph.node_labels(
                node
            )
            for slot in range(
                view.out_indptr[node], view.out_indptr[node + 1]
            ):
                assert view.label_sets[
                    view.out_edge_ls[slot]
                ] == graph.edge_labels(node, view.out_indices[slot])
            for slot in range(
                view.in_indptr[node], view.in_indptr[node + 1]
            ):
                assert view.label_sets[
                    view.in_edge_ls[slot]
                ] == graph.edge_labels(view.in_indices[slot], node)

    def test_interner_ids_stable_across_rebuilds(self):
        graph = diamond_graph()
        interner = LabelSetInterner()
        before = build_graph_view(graph, interner)
        mapping_before = {
            lsid: labels for lsid, labels in enumerate(interner.sets)
        }
        graph.add_node({"fresh"})
        after = build_graph_view(graph, interner)
        assert after.version != before.version
        for lsid, labels in mapping_before.items():
            assert interner.sets[lsid] == labels


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------
class TestSamplers:
    def test_batched_in_range_and_counts_refills(self):
        sampler = BatchedIndexSampler(np.random.default_rng(5), block=16)
        seen = set()
        for _ in range(100):
            index = sampler.index(4)
            assert 0 <= index < 4
            seen.add(index)
        assert seen == {0, 1, 2, 3}
        assert sampler.refills == 7  # ceil(100 / 16)

    def test_batched_rejects_bad_block(self):
        with pytest.raises(ValueError):
            BatchedIndexSampler(np.random.default_rng(0), block=0)


# ---------------------------------------------------------------------------
# engine gating
# ---------------------------------------------------------------------------
class TestFastPathGating:
    def test_exact_mode_uses_fast_path(self):
        graph = diamond_graph()
        engine = Arrival(graph, walk_length=6, num_walks=24, seed=1)
        result = engine.query(0, 3, "(a b) | (c d)")
        assert result.reachable
        assert result.info["fast_path"] is True
        assert result.stats is not None

    @pytest.mark.parametrize(
        "switch",
        [
            {"fast_path": False},
            {"step_cache": False},
            {"rng_batch": False},
            {"walk_mode": "wavefront"},
            {"wavefront_width": 64},
        ],
        ids=lambda switch: next(iter(switch)),
    )
    def test_removed_walk_switches_are_rejected(self, switch):
        with pytest.raises(TypeError):
            Arrival(diamond_graph(), seed=1, **switch)

    def test_wavefront_engine_is_not_registered(self):
        with pytest.raises(QueryError, match="unknown engine"):
            make_engine("arrival-wf", diamond_graph())

    def test_sampled_mode_takes_fallback(self):
        graph = diamond_graph()
        engine = Arrival(
            graph,
            walk_length=6,
            num_walks=48,
            seed=1,
            label_mode="sampled",
        )
        result = engine.query(0, 3, "(a b) | (c d)")
        assert result.reachable
        assert result.info["fast_path"] is False

    def test_predicate_query_takes_fallback(self):
        graph = LabeledGraph(directed=True)
        graph.labeled_elements = "edges"
        graph.add_nodes(3)
        graph.add_edge(0, 1, {"a"}, attrs={"weight": 5})
        graph.add_edge(1, 2, {"a"}, attrs={"weight": 7})
        registry = PredicateRegistry()
        registry.register("heavy", lambda attrs: attrs.get("weight", 0) > 3)
        engine = Arrival(graph, walk_length=5, num_walks=24, seed=1)
        result = engine.query(0, 2, "{heavy}+", predicates=registry)
        assert result.reachable
        assert result.info["fast_path"] is False

    def test_hot_path_counters_populated(self):
        graph = gplus_like(n_nodes=120, seed=2)
        engine = Arrival(graph, walk_length=12, num_walks=60, seed=3)
        # an unreachable label keeps walks alive-and-failing long enough
        # to exercise the counters deterministically
        result = engine.query(0, 1, "nosuchlabel+")
        stats = result.stats
        assert result.info["fast_path"] is True
        assert stats.csr_rebuilds == 1  # first query builds the view
        assert stats.candidates_scanned >= 0
        assert stats.transition_misses >= 0
        second = engine.query(1, 0, "nosuchlabel+")
        assert second.stats.csr_rebuilds == 0  # cached view

    def test_view_rebuilt_after_mutation(self):
        graph = diamond_graph()
        engine = Arrival(graph, walk_length=6, num_walks=24, seed=1)
        assert not engine.query(3, 0, "a+").reachable
        # dynamic-graph semantics: a mutation must invalidate the view
        graph.add_edge(3, 0, {"a"})
        result = engine.query(3, 0, "a+")
        assert result.reachable
        assert result.stats.csr_rebuilds == 1
        assert engine.view_rebuilds == 2


# ---------------------------------------------------------------------------
# fast/slow equivalence
# ---------------------------------------------------------------------------
EQUIVALENCE_DATASETS = [
    ("gplus", lambda: gplus_like(n_nodes=150, seed=7)),
    ("dblp", lambda: dblp_like(n_nodes=150, seed=7)),
    ("freebase", lambda: freebase_like(n_nodes=150, seed=7)),
]


def _frozenset_scan(monkeypatch, engine):
    """Force ``engine`` onto the frozenset scan by closing its one gate."""
    monkeypatch.setattr(engine, "_interned_scan_sound", lambda compiled: False)
    return engine


@pytest.mark.parametrize(
    "name,factory", EQUIVALENCE_DATASETS, ids=[d[0] for d in EQUIVALENCE_DATASETS]
)
def test_seeded_equivalence_sweep(monkeypatch, name, factory):
    """Both scans list candidates in CSR order and draw each jump from
    one batched sampler, so answers, witness paths and jump counts must
    match query for query."""
    graph = factory()
    generator = WorkloadGenerator(graph, seed=11)
    queries = [
        generator.sample_query(positive_bias=0.5) for _ in range(25)
    ]
    baseline = _frozenset_scan(
        monkeypatch, Arrival(graph, walk_length=16, num_walks=48, seed=23)
    )
    fast = Arrival(graph, walk_length=16, num_walks=48, seed=23)
    for query in queries:
        expected = baseline.query(query)
        actual = fast.query(query)
        assert expected.info["fast_path"] is False, str(query)
        assert actual.info["fast_path"] is True, str(query)
        assert actual.reachable == expected.reachable, str(query)
        assert actual.path == expected.path, str(query)
        assert actual.jumps == expected.jumps, str(query)


def test_batched_rng_equivalence_of_answers(monkeypatch):
    """On an easy positive and an impossible negative the answers are
    forced whichever scan draws from the batched sampler."""
    graph = diamond_graph()
    for interned in (True, False):
        engine = Arrival(graph, walk_length=6, num_walks=48, seed=5)
        if not interned:
            _frozenset_scan(monkeypatch, engine)
        assert engine.query(0, 3, "(a b) | (c d)").reachable
        assert not engine.query(0, 3, "d c").reachable


def _live_step_tables():
    gc.collect()
    return sum(
        isinstance(obj, InternedStepTable) for obj in gc.get_objects()
    )


def test_step_tables_are_bounded_by_the_plan_cache():
    """Step tables live and die with their compiled regex, so an engine
    serving fresh templates holds no more of them than its plan cache
    holds regexes: two levels of ``max_plans``, two directions each."""
    graph = gplus_like(n_nodes=150, seed=7)
    labels = sorted(graph.label_alphabet())[:11]
    templates = [f"{a} {b}*" for a in labels for b in labels if a != b]
    assert len(templates) >= 100
    before = _live_step_tables()
    engine = Arrival(
        graph,
        walk_length=6,
        num_walks=8,
        seed=3,
        plan_cache=PlanCache(max_plans=8),
    )
    for template in templates[:100]:
        engine.query(0, 1, template)
    assert _live_step_tables() - before <= 32
