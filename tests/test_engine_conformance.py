"""Engine-protocol conformance: every engine, one shared contract.

Each registered engine runs a seeded query set drawn from *its own
supported fragment* (FAN only accepts single-label-block concatenations,
LI/ZOU only type-1 label-set queries) and must satisfy the shared
invariants:

* protocol compliance — ``name``, ``capabilities``, ``query`` accepting
  both the positional and the RSPQuery call form, ``reseed``/``prepare``
  hooks, ``stats`` attached to every result;
* **no false positives** — every positive answer that carries a witness
  path has a regex-compatible witness with the right endpoints, simple
  whenever the engine claims ``simple_paths``;
* capability honesty — engines without distance-bound support refuse
  bounded queries with :class:`UnsupportedQueryError`, and every answer
  marked exact agrees with the BBFS oracle.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.core.engine import (
    _ENGINE_SPECS,
    Engine,
    EngineBase,
    EngineCapabilities,
    engine_class,
    engine_names,
    make_engine,
)
from repro.core.result import QueryResult
from repro.core.stats import ExecStats
from repro.datasets import twitter_like
from repro.errors import ReproError, UnsupportedQueryError
from repro.queries import RSPQuery
from repro.regex.matcher import COMPATIBLE, check_path, is_simple

SEED = 17

# edge labels of the twitter_like fixture below (n_hubs=4)
L0, L1, L2 = "follows:h0", "follows:h1", "follows:h2"

#: per-engine query fragments: everything outside an engine's fragment
#: raises UnsupportedQueryError, which conformance must not trip over
FULL_REGEX = [
    f"({L0} | {L1})*",
    f"{L0}+",
    f"({L0} {L1}) | ({L1} {L0})",
    f"{L0} {L1}*",
]
TYPE1_ONLY = [f"({L0} | {L1})*", f"({L0} | {L1} | {L2})*", f"{L0}*"]
FAN_FRAGMENT = [f"{L0}+", f"{L0} {L1}*", f"{L0}? {L1}+", f"{L0}{{1,3}}"]

FRAGMENTS = {
    "arrival": FULL_REGEX,
    "auto": FULL_REGEX,
    "bfs": FULL_REGEX,
    "bbfs": FULL_REGEX,
    "rl": FULL_REGEX,
    "li": TYPE1_ONLY,
    "zou": TYPE1_ONLY,
    "fan": FAN_FRAGMENT,
}

ALL_ENGINES = engine_names()


#: per-engine construction overrides: exhaustive engines get tight
#: budgets (Kleene-star workloads are exponential for them — Theorem 1)
ENGINE_KWARGS = {
    "bfs": {"max_expansions": 20_000},
    "bbfs": {"max_expansions": 20_000},
    "rl": {"max_visits": 20_000},
    "arrival": {"walk_length": 12, "num_walks": 48},
    "auto": {"walk_length": 12, "num_walks": 48},
}


@pytest.fixture(scope="module")
def graph():
    # small alphabet (4 hub labels) so index builds are instant, small
    # enough that budgeted exhaustive engines finish
    return twitter_like(n_nodes=60, n_hubs=4, seed=SEED)


@pytest.fixture(scope="module")
def query_set(graph):
    """Seeded (source, target) pairs shared by every engine."""
    import numpy as np

    rng = np.random.default_rng(SEED)
    nodes = list(graph.nodes())
    pairs = []
    for _ in range(6):
        source, target = rng.choice(len(nodes), size=2, replace=False)
        pairs.append((nodes[int(source)], nodes[int(target)]))
    return pairs


def build(name, graph):
    return make_engine(name, graph, seed=SEED, **ENGINE_KWARGS.get(name, {}))


def queries_for(name, query_set):
    return [
        RSPQuery(source, target, regex)
        for source, target in query_set
        for regex in FRAGMENTS[name]
    ]


# ---------------------------------------------------------------------------
# protocol compliance
# ---------------------------------------------------------------------------
def test_registry_covers_every_fragment_map():
    assert set(FRAGMENTS) == set(ALL_ENGINES)


def _repro_modules():
    """Every module of the ``repro`` package, imported."""
    return [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith("__main__")
    ]


#: the EngineBase class flags EngineCapabilities derives from, plus the
#: property an engine may override instead
_CAPABILITY_DECLARATIONS = frozenset(
    {
        "approximate",
        "capabilities",
        "enforces_simple_paths",
        "index_free",
        "supports_distance_bounds",
        "supports_dynamic",
        "supports_full_regex",
        "supports_query_time_labels",
    }
)


def test_every_engine_class_is_registered_and_declares_itself():
    # underscore-prefixed subclasses are scaffolding, not engines
    _repro_modules()
    found = {}
    pending = [EngineBase]
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            if (
                cls.__module__.startswith("repro.")
                and not cls.__name__.startswith("_")
                and not inspect.isabstract(cls)
            ):
                found[(cls.__module__, cls.__name__)] = cls
    registered = {(module, name) for module, name, _ in _ENGINE_SPECS.values()}
    assert set(found) == registered
    for key, cls in found.items():
        assert "name" in vars(cls), f"{key} does not set `name`"
        assert set(vars(cls)) & _CAPABILITY_DECLARATIONS, (
            f"{key} declares no capability flag and no `capabilities`"
        )


def test_every_repro_exception_is_in_the_taxonomy():
    for module in _repro_modules():
        for name, value in vars(module).items():
            if (
                inspect.isclass(value)
                and issubclass(value, BaseException)
                and value.__module__ == module.__name__
            ):
                assert issubclass(value, ReproError), (
                    f"{module.__name__}.{name} is outside the ReproError "
                    "taxonomy"
                )


class _NoResultEngine(EngineBase):
    name = "NO-RESULT"

    def _execute(self, plan, **kwargs):
        return None


def test_execute_must_return_a_query_result():
    with pytest.raises(TypeError, match="NO-RESULT"):
        _NoResultEngine().query(0, 1, "a")


@pytest.mark.parametrize("name", ALL_ENGINES)
def test_satisfies_engine_protocol(name, graph):
    engine = build(name, graph)
    assert isinstance(engine, Engine)
    assert isinstance(engine.name, str) and engine.name
    capabilities = engine.capabilities
    assert isinstance(capabilities, EngineCapabilities)
    # the capability derivation mirrors the legacy class flags
    assert capabilities.full_regex == engine.supports_full_regex
    assert capabilities.simple_paths == engine.enforces_simple_paths
    assert capabilities.needs_index == (not engine.index_free)
    engine.prepare()  # idempotent, never raises on a ready engine


@pytest.mark.parametrize("name", ALL_ENGINES)
def test_both_call_forms_agree(name, graph, query_set):
    engine = build(name, graph)
    source, target = query_set[0]
    regex = FRAGMENTS[name][0]
    positional = engine.query(source, target, regex)
    object_form = engine.query(RSPQuery(source, target, regex))
    assert isinstance(positional, QueryResult)
    assert isinstance(object_form, QueryResult)
    # deterministic engines agree exactly; sampling engines at least
    # agree on the certain (positive) side
    if not engine.approximate:
        assert positional.reachable == object_form.reachable


@pytest.mark.parametrize("name", ALL_ENGINES)
def test_results_carry_stats(name, graph, query_set):
    engine = build(name, graph)
    for query in queries_for(name, query_set)[:4]:
        result = engine.query(query)
        assert isinstance(result.stats, ExecStats)
        assert result.stats.engine == result.method or result.method in (
            "",
            engine.name,
        )
        assert result.stats.total_s >= 0.0


# ---------------------------------------------------------------------------
# the no-false-positive invariant and witness validity
# ---------------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("name", ALL_ENGINES)
def test_no_false_positives_and_valid_witnesses(name, graph, query_set):
    engine = build(name, graph)
    checked = 0
    for query in queries_for(name, query_set):
        result = engine.query(query)
        if not result.reachable or result.path is None:
            continue
        checked += 1
        assert result.path[0] == query.source
        assert result.path[-1] == query.target
        compiled = query.compiled()
        if engine.enforces_simple_paths:
            assert is_simple(result.path)
            assert (
                check_path(compiled, graph, result.path) == COMPATIBLE
            ), f"{name} returned an incompatible witness for {query}"
        else:
            # arbitrary-path engines may revisit nodes; the flag says so
            assert result.path_is_simple == is_simple(result.path)
    # the shared query set must actually exercise positives somewhere
    if name in ("arrival", "auto", "bfs", "bbfs"):
        assert checked > 0


@pytest.mark.slow
@pytest.mark.parametrize("name", ALL_ENGINES)
def test_exact_engines_match_oracle(name, graph, query_set):
    """Every answer marked exact agrees with BBFS — also from the
    sampling engines, whose positives and certified negatives are
    exact even though their other negatives are not."""
    engine = build(name, graph)
    if not engine.enforces_simple_paths:
        pytest.skip("arbitrary-path semantics differ from RSPQ truth")
    oracle = engine_class("bbfs")(graph, max_expansions=50_000)
    for query in queries_for(name, query_set):
        result = engine.query(query)
        if not result.exact:
            continue
        truth = oracle.query(query)
        assert result.reachable == truth.reachable, str(query)


# ---------------------------------------------------------------------------
# capability honesty
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_ENGINES)
def test_distance_bounds_refused_when_unsupported(name, graph, query_set):
    engine = build(name, graph)
    source, target = query_set[0]
    query = RSPQuery(source, target, FRAGMENTS[name][0], distance_bound=3)
    if engine.capabilities.distance_bounds:
        engine.query(query)  # must not raise
    else:
        with pytest.raises(UnsupportedQueryError):
            engine.query(query)


# ---------------------------------------------------------------------------
# the simplicity contract (QueryResult docstring): witnessed positives
# must commit to a *correct* boolean path_is_simple; None is reserved
# for path-less answers
# ---------------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("name", ALL_ENGINES)
def test_simplicity_flag_is_boolean_on_witnessed_positives(
    name, graph, query_set
):
    engine = build(name, graph)
    for query in queries_for(name, query_set):
        result = engine.query(query)
        if result.reachable and result.path is not None:
            assert isinstance(result.path_is_simple, bool), (
                f"{name} left path_is_simple={result.path_is_simple!r} "
                f"on a witnessed positive for {query}"
            )
            assert result.path_is_simple == is_simple(result.path)
        elif result.path is None:
            assert result.path_is_simple in (None, True)


def _three_cycle():
    from repro.graph.labeled_graph import LabeledGraph

    cycle = LabeledGraph(directed=True)
    cycle.add_nodes(3)
    cycle.add_edge(0, 1, {"a"})
    cycle.add_edge(1, 2, {"a"})
    cycle.add_edge(2, 0, {"a"})
    return cycle


def test_rl_non_simple_witness_reports_false_not_none():
    """The RL walk engine's witness for ``a{4}`` on a 3-cycle must
    revisit nodes; the contract demands ``path_is_simple=False`` (not
    ``None``) on that positive."""
    engine = make_engine("rl", _three_cycle(), max_visits=20_000)
    result = engine.query(0, 1, "a{4}")
    assert result.reachable  # the walk 0->1->2->0->1 exists
    assert result.path is not None
    assert result.path_is_simple is False
    assert is_simple(result.path) is False


def test_rl_non_simple_witness_passes_paranoid_mode():
    # the independent oracle accepts a truthful non-simple walk witness
    # from an engine that declares arbitrary-path semantics
    engine = make_engine("rl", _three_cycle(), max_visits=20_000)
    result = engine.query(0, 1, "a{4}", check="positives")
    assert result.reachable
    assert result.stats.oracle_checks == 1
    assert result.stats.oracle_violations == 0


@pytest.mark.parametrize("name", ALL_ENGINES)
def test_fragment_enforced(name, graph, query_set):
    """Engines with a restricted fragment refuse what is outside it."""
    engine = build(name, graph)
    if engine.supports_full_regex:
        pytest.skip("full-regex engine")
    source, target = query_set[0]
    # not type-1, not single-label blocks
    outside = f"({L0} {L1}) | ({L1} {L0})"
    with pytest.raises(UnsupportedQueryError):
        engine.query(source, target, outside)
