"""The verification layer: witness oracle, paranoid mode, metamorphic
relations.

Three groups:

* **mutation tests** — corrupt a known-good witness one invariant at a
  time (wrong endpoint, dead node, dropped edge, shuffled label,
  violated predicate, broken simplicity, length bounds) and assert the
  oracle names *exactly* the violated invariant;
* **paranoid mode** — the ``check=`` plumbing through
  ``EngineBase.query`` and ``BatchExecutor``, including a clean sweep
  over every registered engine (zero false alarms) and the
  thread/process backends;
* **metamorphic relations** — answer-preserving transformations
  property-tested on an exact engine with the promoted strategies.
"""

from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineBase, engine_names, make_engine
from repro.core.executor import BatchExecutor, ErrorResult, TimeoutResult
from repro.core.result import QueryResult
from repro.core.stats import ExecStats
from repro.datasets import twitter_like
from repro.errors import QueryError, WitnessViolationError
from repro.graph.labeled_graph import LabeledGraph
from repro.queries import RSPQuery
from repro.regex.ast_nodes import Alt, Concat, Literal
from repro.regex.compiler import compile_regex
from repro.verify import (
    INVARIANTS,
    check_result,
    check_witness,
    identity_permutation,
    invariance_violation,
    permute_graph,
    permute_query,
    rename_graph_labels,
    rename_regex_labels,
    reverse_graph,
    reverse_query,
    union_regex,
)
from strategies import (
    PREDICATE_ATTR,
    attributed_edge_graphs,
    diamond_graph,
    distance_constraints,
    negation_regexes,
    predicate_regexes,
    regexes,
    shared_predicate_registry,
    small_edge_labeled_graphs,
)
from test_engine_conformance import ENGINE_KWARGS, FRAGMENTS

SEED = 17

GOOD_QUERY = RSPQuery(0, 3, "a b")


def good_result(**overrides):
    """The known-good witness on the diamond graph: 0 -a-> 1 -b-> 3."""
    fields = dict(
        reachable=True,
        path=[0, 1, 3],
        method="bbfs",
        exact=True,
        path_is_simple=True,
    )
    fields.update(overrides)
    return QueryResult(**fields)


# ---------------------------------------------------------------------------
# mutation tests: one corruption, one named invariant
# ---------------------------------------------------------------------------
def test_clean_witness_passes():
    report = check_witness(diamond_graph(), GOOD_QUERY, good_result())
    assert report.ok
    assert report.checked
    assert report.invariant is None
    assert bool(report) is True


def _mutations():
    """(graph, query, corrupted result, expected invariant) cases."""
    plain = diamond_graph()

    relabeled = diamond_graph()
    relabeled.set_edge_labels(1, 3, {"z"})  # shuffle a label

    back_edge = diamond_graph()
    back_edge.add_edge(1, 0, {"a"})  # enables a non-simple witness

    dead = diamond_graph()
    dead.remove_node(2)

    return [
        pytest.param(
            plain,
            GOOD_QUERY,
            good_result(path=[1, 3]),
            "endpoints",
            id="endpoints",
        ),
        pytest.param(
            dead,
            RSPQuery(0, 3, "c d"),
            good_result(path=[0, 2, 3]),
            "dead-node",
            id="dead-node",
        ),
        pytest.param(
            plain,
            GOOD_QUERY,
            good_result(path=[0, 3]),  # drop the middle hop
            "broken-edge",
            id="broken-edge",
        ),
        pytest.param(
            plain,
            GOOD_QUERY,
            good_result(path_is_simple=None),
            "simplicity-flag",
            id="simplicity-flag",
        ),
        pytest.param(
            back_edge,
            GOOD_QUERY,
            good_result(path=[0, 1, 0, 1, 3]),
            "non-simple",
            id="non-simple",
        ),
        pytest.param(
            relabeled,
            GOOD_QUERY,
            good_result(),
            "rejected",
            id="rejected-label",
        ),
        pytest.param(
            plain,
            RSPQuery(0, 3, "a b", distance_bound=1),
            good_result(),
            "distance-bound",
            id="distance-bound",
        ),
        pytest.param(
            plain,
            RSPQuery(0, 3, "a b", min_distance=3),
            good_result(),
            "min-distance",
            id="min-distance",
        ),
        pytest.param(
            plain,
            GOOD_QUERY,
            good_result(reachable=False),
            "negative-with-path",
            id="negative-with-path",
        ),
        pytest.param(
            plain,
            GOOD_QUERY,
            good_result(path=[]),
            "empty-path",
            id="empty-path",
        ),
    ]


@pytest.mark.parametrize("graph, query, result, invariant", _mutations())
def test_mutation_names_exact_invariant(graph, query, result, invariant):
    report = check_witness(graph, query, result)
    assert not report.ok
    assert report.checked
    assert report.invariant == invariant
    assert report.detail  # every violation explains itself


def test_mutations_cover_most_invariants():
    """The mutation matrix exercises >= 8 distinct corruption kinds and
    only names invariants the oracle actually declares."""
    covered = {case.values[3] for case in _mutations()}
    assert covered <= set(INVARIANTS)
    assert len(covered) >= 8


def test_mutation_unwitnessed_when_witness_required():
    result = good_result(path=None, path_is_simple=None)
    tolerated = check_witness(diamond_graph(), GOOD_QUERY, result)
    assert tolerated.ok and not tolerated.checked
    report = check_witness(
        diamond_graph(), GOOD_QUERY, result, require_witness=True
    )
    assert not report.ok
    assert report.invariant == "unwitnessed"


def test_mutation_predicate_violation_is_rejected():
    """Corrupting the attribute a query-time predicate reads flips the
    verdict to ``rejected`` (the automaton view of predicate failure)."""
    registry = shared_predicate_registry()
    graph = LabeledGraph(directed=True)
    graph.labeled_elements = "edges"
    graph.add_nodes(2)
    graph.add_edge(0, 1, {"a"}, {PREDICATE_ATTR: 3})
    query = RSPQuery(0, 1, Literal(registry["w_ge_2"]), predicates=registry)
    result = good_result(path=[0, 1])

    assert check_witness(graph, query, result).ok  # control: 3 >= 2

    graph.add_edge(0, 1, {"a"}, {PREDICATE_ATTR: 1})  # corrupt the attr
    report = check_witness(graph, query, result)
    assert not report.ok
    assert report.invariant == "rejected"


def test_first_violated_invariant_wins():
    # the path starts at the wrong node AND rides non-existent edges;
    # the fixed checking order reports the earliest failure only
    report = check_witness(
        diamond_graph(), GOOD_QUERY, good_result(path=[1, 0, 3])
    )
    assert report.invariant == "endpoints"


def test_check_result_mode_gates_negative_checks():
    graph = diamond_graph()
    corrupt_negative = good_result(reachable=False)  # keeps its path
    skipped = check_result(graph, GOOD_QUERY, corrupt_negative)
    assert skipped.ok and not skipped.checked
    caught = check_result(graph, GOOD_QUERY, corrupt_negative, mode="all")
    assert not caught.ok
    assert caught.invariant == "negative-with-path"


def test_check_result_rejects_unknown_mode():
    with pytest.raises(ValueError):
        check_result(diamond_graph(), GOOD_QUERY, good_result(), mode="some")


def test_check_result_without_graph_abstains():
    report = check_result(None, GOOD_QUERY, good_result())
    assert report.ok and not report.checked


# ---------------------------------------------------------------------------
# paranoid mode: the check= plumbing
# ---------------------------------------------------------------------------
class _LyingEngine(EngineBase):
    """Claims simple-path reachability over an edge that does not exist."""

    name = "liar"

    def __init__(self, graph):
        self.graph = graph

    def _query(self, query, **kwargs):
        return QueryResult(
            reachable=True,
            path=[query.source, query.target],
            method=self.name,
            exact=True,
            path_is_simple=True,
        )


def test_paranoid_mode_counts_clean_checks():
    engine = make_engine("bbfs", diamond_graph())
    result = engine.query(GOOD_QUERY, check="all")
    assert result.reachable
    assert result.stats.oracle_checks == 1
    assert result.stats.oracle_violations == 0
    assert 0.0 <= result.stats.oracle_s <= result.stats.total_s


def test_paranoid_mode_off_does_not_check():
    engine = make_engine("bbfs", diamond_graph())
    result = engine.query(GOOD_QUERY)
    assert result.stats.oracle_checks == 0
    assert result.stats.oracle_s == 0.0


def test_paranoid_mode_rejects_unknown_value():
    engine = make_engine("bbfs", diamond_graph())
    with pytest.raises(QueryError):
        engine.query(GOOD_QUERY, check="sometimes")


def test_paranoid_mode_raises_on_lying_engine():
    engine = _LyingEngine(diamond_graph())
    assert engine.query(GOOD_QUERY).reachable  # unchecked: lie passes
    with pytest.raises(WitnessViolationError) as excinfo:
        engine.query(RSPQuery(0, 3, "a b"), check="positives")
    assert excinfo.value.invariant == "broken-edge"


# ---------------------------------------------------------------------------
# the clean sweep: every engine, zero false alarms
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def sweep_graph():
    return twitter_like(n_nodes=60, n_hubs=4, seed=SEED)


@pytest.fixture(scope="module")
def sweep_pairs(sweep_graph):
    import numpy as np

    rng = np.random.default_rng(SEED)
    nodes = list(sweep_graph.nodes())
    pairs = []
    for _ in range(6):
        source, target = rng.choice(len(nodes), size=2, replace=False)
        pairs.append((nodes[int(source)], nodes[int(target)]))
    return pairs


def _sweep_queries(name, pairs):
    return [
        RSPQuery(source, target, regex)
        for source, target in pairs
        for regex in FRAGMENTS[name]
    ]


@pytest.mark.slow
def test_paranoid_sweep_zero_false_alarms(sweep_graph, sweep_pairs):
    """Acceptance criterion: a clean workload through every registered
    engine with ``check="all"`` produces no oracle violations and no
    errors — the paranoid path never cries wolf on correct engines."""
    total_checks = 0
    total_queries = 0
    for name in engine_names():
        factory = partial(
            make_engine,
            name,
            sweep_graph,
            seed=SEED,
            **ENGINE_KWARGS.get(name, {}),
        )
        executor = BatchExecutor(
            factory=factory,
            backend="serial",
            seed=SEED,
            check="all",
            fail_fast=False,
        )
        queries = _sweep_queries(name, sweep_pairs)
        report = executor.run(queries)
        for query, result in zip(queries, report.results):
            assert not isinstance(result, (ErrorResult, TimeoutResult)), (
                f"{name} on {query}: {getattr(result, 'error', result)}"
            )
        assert report.stats.totals.oracle_violations == 0, name
        total_checks += report.stats.totals.oracle_checks
        total_queries += len(queries)
    assert total_checks > 0  # the sweep actually validated witnesses
    assert total_queries >= 150


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_paranoid_sweep_pool_backends(sweep_graph, sweep_pairs, backend):
    factory = partial(
        make_engine, "bbfs", sweep_graph, seed=SEED, max_expansions=20_000
    )
    executor = BatchExecutor(
        factory=factory,
        backend=backend,
        workers=2,
        seed=SEED,
        check="positives",
        fail_fast=False,
    )
    report = executor.run(_sweep_queries("bbfs", sweep_pairs))
    assert all(
        not isinstance(result, (ErrorResult, TimeoutResult))
        for result in report.results
    )
    assert report.stats.totals.oracle_violations == 0
    assert report.stats.totals.oracle_checks > 0


@pytest.mark.slow
def test_paranoid_mode_does_not_change_answers(sweep_graph, sweep_pairs):
    queries = _sweep_queries("bbfs", sweep_pairs)
    factory = partial(
        make_engine, "bbfs", sweep_graph, seed=SEED, max_expansions=20_000
    )
    plain = BatchExecutor(factory=factory, seed=SEED).run(queries)
    checked = BatchExecutor(
        factory=factory, seed=SEED, check="positives"
    ).run(queries)
    assert plain.answers() == checked.answers()


def test_paranoid_mode_does_not_change_arrival_answers(
    sweep_graph, sweep_pairs
):
    """The sampling engine too: checking witnesses draws no randomness,
    so the same seed gives the same answers and witnesses."""
    queries = _sweep_queries("arrival", sweep_pairs)
    factory = partial(make_engine, "arrival", sweep_graph, seed=SEED)
    plain = BatchExecutor(factory=factory, seed=SEED).run(queries)
    checked = BatchExecutor(
        factory=factory, seed=SEED, check="positives"
    ).run(queries)
    assert plain.answers() == checked.answers()
    assert [r.path for r in plain.results] == [
        r.path for r in checked.results
    ]
    assert checked.stats.totals.oracle_checks == sum(plain.answers()) > 0


def test_executor_rejects_unknown_check():
    with pytest.raises(ValueError):
        BatchExecutor(
            factory=partial(make_engine, "bbfs", diamond_graph()),
            check="sometimes",
        )


def test_oracle_counters_fold_in_add():
    a = ExecStats(engine="x", oracle_s=0.5, oracle_checks=2,
                  oracle_violations=1)
    b = ExecStats(engine="x", oracle_s=0.25, oracle_checks=3)
    a.add(b)
    assert a.oracle_checks == 5
    assert a.oracle_violations == 1
    assert a.oracle_s == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# metamorphic relations (property-tested on an exact engine)
# ---------------------------------------------------------------------------
def _answer(graph, query):
    """BBFS with a budget large enough to always complete on the tiny
    strategy graphs; non-exact draws are discarded, not judged."""
    result = make_engine("bbfs", graph, max_expansions=200_000).query(query)
    assume(result.exact and not result.timed_out)
    return bool(result.reachable)


@given(data=st.data())
def test_permutation_invariance(data):
    graph = data.draw(small_edge_labeled_graphs())
    n = graph.max_node_id
    permutation = data.draw(st.permutations(list(range(n))))
    query = RSPQuery(
        data.draw(st.integers(0, n - 1)),
        data.draw(st.integers(0, n - 1)),
        data.draw(regexes()),
    )
    original = _answer(graph, query)
    transformed = _answer(
        permute_graph(graph, permutation),
        permute_query(query, permutation),
    )
    assert invariance_violation(original, transformed, exact=True) is None


_RENAMING = {"a": "p", "b": "q", "c": "r", "d": "s"}


@given(data=st.data())
def test_label_renaming_invariance(data):
    graph = data.draw(small_edge_labeled_graphs())
    n = graph.max_node_id
    source = data.draw(st.integers(0, n - 1))
    target = data.draw(st.integers(0, n - 1))
    regex = data.draw(regexes())
    original = _answer(graph, RSPQuery(source, target, regex))
    transformed = _answer(
        rename_graph_labels(graph, _RENAMING),
        RSPQuery(source, target, rename_regex_labels(regex, _RENAMING)),
    )
    assert invariance_violation(original, transformed, exact=True) is None


def _draw_path_word(data, graph):
    """A simple path of 1-3 edges from a node with an out-edge, as
    ``(source, target, word)``: ``word`` spells one label per edge, so
    any regex that admits ``word`` answers True on ``graph``.  Built
    rather than filtered for: most random queries answer False."""
    starts = [node for node in graph.nodes() if graph.out_neighbors(node)]
    assume(starts)  # rare: every drawn edge was a self-loop
    path = [data.draw(st.sampled_from(starts))]
    symbols = []
    for _ in range(data.draw(st.integers(1, 3))):
        onward = [v for v in graph.out_neighbors(path[-1]) if v not in path]
        if not onward:
            break
        nxt = data.draw(st.sampled_from(sorted(onward)))
        labels = sorted(graph.edge_labels(path[-1], nxt))
        symbols.append(Literal(data.draw(st.sampled_from(labels))))
        path.append(nxt)
    word = symbols[0] if len(symbols) == 1 else Concat(symbols)
    return path[0], path[-1], word


@settings(max_examples=25)
@given(data=st.data())
def test_edge_addition_monotonicity(data):
    graph = data.draw(small_edge_labeled_graphs())
    n = graph.max_node_id
    source, target, word = _draw_path_word(data, graph)
    query = RSPQuery(source, target, Alt((word, data.draw(regexes()))))
    assert _answer(graph, query) is True  # only True is pinned under growth
    bigger = graph.copy()
    for _ in range(data.draw(st.integers(1, 4))):
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1))
        if u == v:
            continue
        label = data.draw(st.sampled_from("abcd"))
        if bigger.has_edge(u, v):
            bigger.set_edge_labels(u, v, bigger.edge_labels(u, v) | {label})
        else:
            bigger.add_edge(u, v, {label})
    assert _answer(bigger, query) is True


@settings(max_examples=25)
@given(data=st.data())
def test_union_subsumption(data):
    graph = data.draw(small_edge_labeled_graphs())
    source, target, word = _draw_path_word(data, graph)
    left = Alt((word, data.draw(regexes())))
    right = data.draw(regexes())
    assert _answer(graph, RSPQuery(source, target, left)) is True
    widened = RSPQuery(source, target, union_regex(left, right))
    assert _answer(graph, widened) is True


@given(data=st.data())
def test_reversal_symmetry(data):
    graph = data.draw(small_edge_labeled_graphs())
    n = graph.max_node_id
    query = RSPQuery(
        data.draw(st.integers(0, n - 1)),
        data.draw(st.integers(0, n - 1)),
        data.draw(regexes()),
    )
    forward = _answer(graph, query)
    backward = _answer(reverse_graph(graph), reverse_query(query))
    assert forward == backward


def test_identity_permutation_is_a_no_op():
    graph = diamond_graph()
    permutation = identity_permutation(graph.max_node_id)
    assert permutation == [0, 1, 2, 3]
    permuted = permute_graph(graph, permutation)
    assert sorted(permuted.edges()) == sorted(graph.edges())
    assert permute_query(GOOD_QUERY, permutation).source == 0


# ---------------------------------------------------------------------------
# promoted strategies: the new generators hold their contracts
# ---------------------------------------------------------------------------
@given(pair=distance_constraints())
def test_distance_constraints_are_consistent(pair):
    low, high = pair
    if low is not None and high is not None:
        assert low <= high


@given(regex=negation_regexes())
def test_negation_regexes_stay_in_paper_fragment(regex):
    compiled = compile_regex(regex, None, "paper")
    assert compiled.nfa.starts


@given(data=st.data())
def test_predicate_regexes_compile_with_registry(data):
    registry = shared_predicate_registry()
    regex = data.draw(predicate_regexes(registry))
    compiled = compile_regex(regex, registry, "paper")
    assert compiled.nfa.starts


@given(data=st.data())
def test_attributed_graphs_carry_the_predicate_attr(data):
    graph = data.draw(attributed_edge_graphs())
    for u, v in graph.edges():
        assert PREDICATE_ATTR in graph.edge_attrs(u, v)
