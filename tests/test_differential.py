"""Differential fuzzing: cross-engine agreement under the error model.

Order matters here: the regression corpus (``tests/corpus/``) replays
*first*, so every divergence the fuzzer ever found is re-adjudicated on
every run before fresh random exploration starts.  A failing fuzz
example auto-saves itself into the corpus (content-addressed, so
shrinking does not spray files) and the failure message carries the
one-command replay fingerprint.

The fuzz budget is ``REPRO_FUZZ_EXAMPLES`` (default 60); the nightly CI
job raises it 10x and uploads any saved corpus cases as artifacts.
"""

import json
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core.engine import make_engine
from repro.core.executor import ErrorResult, TimeoutResult
from repro.core.result import QueryResult
from repro.errors import DivergenceError
from repro.graph.io import save_json
from repro.queries import RSPQuery
from repro.queries.io import save_workload
from repro.verify import (
    DifferentialOracle,
    Fingerprint,
    case_graph,
    case_id,
    case_query,
    load_cases,
    make_case,
    replay_fingerprint,
    save_case,
)
from strategies import diamond_graph, regexes, small_edge_labeled_graphs

CORPUS_DIR = Path(__file__).parent / "corpus"

FUZZ_SEED = 7
FUZZ_ENGINES = ("arrival", "bfs", "bbfs", "rl")
FUZZ_KWARGS = {
    "bfs": {"max_expansions": 20_000},
    "bbfs": {"max_expansions": 20_000},
    "rl": {"max_visits": 20_000},
    "arrival": {"walk_length": 10, "num_walks": 32},
}

_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "60"))


def _oracle(graph, engines=FUZZ_ENGINES, dataset="<fuzz>", seed=FUZZ_SEED):
    return DifferentialOracle(
        graph,
        engines,
        dataset=dataset,
        seed=seed,
        engine_kwargs={k: v for k, v in FUZZ_KWARGS.items() if k in engines},
    )


# ---------------------------------------------------------------------------
# the regression corpus replays before any fresh fuzzing
# ---------------------------------------------------------------------------
def test_corpus_replays_clean():
    """Every stored fuzz failure must stay fixed."""
    for case in load_cases(CORPUS_DIR):
        graph = case_graph(case)
        query = case_query(case)
        engines = tuple(case.get("engines") or FUZZ_ENGINES)
        adjudication = _oracle(
            graph,
            engines=engines,
            dataset=case.get("_path", "<corpus>"),
            seed=case.get("seed"),
        ).check(query)
        assert adjudication.ok, (
            f"corpus case {case.get('_path')} regressed: "
            f"{adjudication.divergences[0].kind} "
            f"[{adjudication.divergences[0].engine}]"
        )


def test_corpus_round_trip(tmp_path):
    graph = diamond_graph()
    query = RSPQuery(0, 3, "a b")
    case = make_case(
        graph, query, seed=3, engines=("bbfs",), kind="k", detail="d"
    )
    path = save_case(tmp_path, case)
    assert path.name == f"case_{case_id(case)}.json"
    loaded = load_cases(tmp_path)
    assert len(loaded) == 1
    assert case_id(loaded[0]) == case_id(case)
    rebuilt_graph = case_graph(loaded[0])
    rebuilt_query = case_query(loaded[0])
    assert sorted(rebuilt_graph.edges()) == sorted(graph.edges())
    assert (rebuilt_query.source, rebuilt_query.target) == (0, 3)
    # free-text detail is excluded from identity: shrunken variants of
    # the same failure collapse onto one file
    variant = make_case(
        graph, query, seed=3, engines=("bbfs",), kind="k", detail="other"
    )
    assert case_id(variant) == case_id(case)
    save_case(tmp_path, variant)
    assert len(load_cases(tmp_path)) == 1


# ---------------------------------------------------------------------------
# adjudication semantics on crafted answer sets
# ---------------------------------------------------------------------------
def _adjudicate(engines, results, query=None):
    graph = diamond_graph()
    oracle = _oracle(graph, engines=engines)
    query = query or RSPQuery(0, 3, "a b")
    return oracle._adjudicate(0, query, results)


def test_oracle_on_real_engines_is_clean():
    report = _oracle(diamond_graph()).run(
        [
            RSPQuery(0, 3, "a b"),
            RSPQuery(0, 3, "a d"),
            RSPQuery(0, 3, "(a b) | (c d)"),
        ]
    )
    assert report.ok
    assert [a.truth for a in report.adjudications] == [True, False, True]
    for value in report.recall().values():
        assert value == 1.0
    payload = report.as_dict()
    assert payload["n_divergences"] == 0
    assert payload["n_queries"] == 3


def test_exact_disagreement_is_flagged():
    adjudication = _adjudicate(
        ("bfs", "bbfs"),
        {
            "bfs": QueryResult(False, exact=True),
            "bbfs": QueryResult(
                True, path=[0, 1, 3], exact=True, path_is_simple=True
            ),
        },
    )
    assert not adjudication.ok
    assert adjudication.divergences[0].kind == "exact-disagreement"


def test_witness_violation_is_flagged():
    adjudication = _adjudicate(
        ("bbfs",),
        {
            "bbfs": QueryResult(
                True, path=[0, 3], exact=True, path_is_simple=True
            ),
        },
    )
    kinds = [f.kind for f in adjudication.divergences]
    assert "witness-violation" in kinds


def test_missed_path_when_verified_witness_beats_exact_false():
    # an approximate engine's verified simple witness is a graph-level
    # proof; an exact engine answering False has missed a path
    adjudication = _adjudicate(
        ("arrival", "bfs"),
        {
            "arrival": QueryResult(
                True, path=[0, 1, 3], exact=False, path_is_simple=True
            ),
            "bfs": QueryResult(False, exact=True),
        },
    )
    assert adjudication.truth is True
    assert [f.kind for f in adjudication.divergences] == ["missed-path"]
    assert adjudication.divergences[0].engine == "bfs"


def test_missed_walk_for_arbitrary_path_engine():
    adjudication = _adjudicate(
        ("arrival", "rl"),
        {
            "arrival": QueryResult(
                True, path=[0, 1, 3], exact=False, path_is_simple=True
            ),
            "rl": QueryResult(False, exact=True),
        },
    )
    assert adjudication.truth is True
    assert [f.kind for f in adjudication.divergences] == ["missed-walk"]


def test_false_negative_is_legal_and_recorded():
    adjudication = _adjudicate(
        ("arrival", "bbfs"),
        {
            "arrival": QueryResult(False, exact=False),
            "bbfs": QueryResult(
                True, path=[0, 1, 3], exact=True, path_is_simple=True
            ),
        },
    )
    assert adjudication.ok  # the paper's one-sided error: not a bug
    assert adjudication.false_negatives == ["arrival"]
    assert adjudication.truth is True


def test_exact_false_from_approximate_engine_is_not_a_legal_miss():
    """An answer marked exact is a claim whichever engine made it: AUTO
    certifies negatives, so an exact False from it on a query with a
    verified witness is a divergence, not the one-sided error."""
    graph = diamond_graph()
    query = RSPQuery(0, 1, "a*")
    adjudication = _adjudicate(
        ("auto", "bbfs"),
        {
            "auto": QueryResult(False, exact=True),
            "bbfs": make_engine("bbfs", graph).query(query),
        },
        query=query,
    )
    assert not adjudication.ok
    assert [f.kind for f in adjudication.divergences] == [
        "exact-disagreement"
    ]
    assert adjudication.false_negatives == []


def test_false_positive_is_flagged():
    # a simple-path engine answering True (no witness to refute it)
    # against a provably-False truth
    adjudication = _adjudicate(
        ("arrival", "bbfs"),
        {
            "arrival": QueryResult(True, exact=False),
            "bbfs": QueryResult(False, exact=True),
        },
    )
    assert adjudication.truth is False
    assert [f.kind for f in adjudication.divergences] == ["false-positive"]
    assert adjudication.divergences[0].engine == "arrival"


def test_engine_errors_become_error_fingerprints():
    adjudication = _adjudicate(
        ("bbfs", "bfs"),
        {
            "bbfs": ErrorResult(
                False, error="boom", error_type="ValueError"
            ),
            "bfs": QueryResult(False, exact=True),
        },
    )
    assert [f.kind for f in adjudication.divergences] == ["error"]
    assert adjudication.answers["bbfs"] is None


def test_unsupported_and_timeouts_are_abstentions():
    adjudication = _adjudicate(
        ("bbfs", "bfs"),
        {
            "bbfs": ErrorResult(
                False, error="no", error_type="UnsupportedQueryError"
            ),
            "bfs": TimeoutResult(False, timeout_s=0.1),
        },
    )
    assert adjudication.ok
    assert adjudication.unsupported == ["bbfs"]
    assert adjudication.answers == {"bbfs": None, "bfs": None}
    assert adjudication.truth is None


def test_check_raises_with_replayable_fingerprint():
    graph = diamond_graph()
    oracle = _oracle(graph, engines=("arrival", "bbfs"))
    clean = oracle.check(RSPQuery(0, 3, "a b"), raise_on_divergence=True)
    assert clean.ok
    # force a divergence through a lying answer set
    bad = _adjudicate(
        ("bbfs",),
        {"bbfs": QueryResult(True, path=[0, 3], exact=True,
                             path_is_simple=True)},
    )
    fingerprint = bad.divergences[0]
    round_tripped = Fingerprint.from_dict(fingerprint.as_dict())
    assert round_tripped.kind == fingerprint.kind
    assert round_tripped.query == fingerprint.query
    assert "python -m repro.cli verify" in fingerprint.replay_command()
    with pytest.raises(DivergenceError) as excinfo:
        raise DivergenceError("x", fingerprint=fingerprint)
    assert excinfo.value.fingerprint is fingerprint


def test_replay_fingerprint_on_clean_query():
    graph = diamond_graph()
    fingerprint = Fingerprint(
        dataset="<mem>",
        query={"source": 0, "target": 3, "regex": "a b"},
        seed=FUZZ_SEED,
        engine="bbfs",
        engines=("arrival", "bbfs"),
        kind="exact-disagreement",
        detail="stored from an old run",
    )
    adjudication = replay_fingerprint(graph, fingerprint)
    assert adjudication.ok
    assert adjudication.answers["bbfs"] is True


# ---------------------------------------------------------------------------
# the fuzzer itself
# ---------------------------------------------------------------------------
@settings(
    max_examples=_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_differential_fuzz_engines_agree(data):
    """ARRIVAL/BFS/BBFS/RL on random small graphs: any divergence under
    the error model fails the test, saves a corpus case, and prints the
    replay command."""
    graph = data.draw(small_edge_labeled_graphs())
    n = graph.max_node_id
    query = RSPQuery(
        data.draw(st.integers(0, n - 1)),
        data.draw(st.integers(0, n - 1)),
        data.draw(regexes()),
    )
    adjudication = _oracle(graph).check(query)
    if not adjudication.ok:
        first = adjudication.divergences[0]
        case = make_case(
            graph,
            query,
            seed=FUZZ_SEED,
            engines=FUZZ_ENGINES,
            kind=first.kind,
            detail=first.detail,
        )
        saved = save_case(CORPUS_DIR, case)
        pytest.fail(
            f"divergence {first.kind} [{first.engine}]: {first.detail}\n"
            f"corpus case saved to {saved}\n"
            f"replay: {first.replay_command()}"
        )


# ---------------------------------------------------------------------------
# the CLI front end
# ---------------------------------------------------------------------------
def test_cli_verify_sweeps_a_workload(tmp_path, capsys):
    graph_path = tmp_path / "diamond.json"
    workload_path = tmp_path / "workload.json"
    out_path = tmp_path / "report.json"
    save_json(diamond_graph(), graph_path)
    save_workload(
        [RSPQuery(0, 3, "a b"), RSPQuery(0, 3, "a d")], workload_path
    )
    code = cli_main(
        [
            "verify",
            str(graph_path),
            "--workload",
            str(workload_path),
            "--engines",
            "arrival,bbfs",
            "--seed",
            "7",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "adjudicated 2 queries" in captured
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["n_divergences"] == 0
    assert report["engines"] == ["arrival", "bbfs"]


def test_cli_verify_inline_query(tmp_path, capsys):
    graph_path = tmp_path / "diamond.json"
    save_json(diamond_graph(), graph_path)
    code = cli_main(
        [
            "verify",
            str(graph_path),
            "--query",
            json.dumps({"source": 0, "target": 3, "regex": "a b"}),
            "--engines",
            "bbfs,bfs",
        ]
    )
    assert code == 0
    assert "divergences: 0" in capsys.readouterr().out


def test_cli_verify_replays_a_fingerprint(tmp_path, capsys):
    graph_path = tmp_path / "diamond.json"
    fingerprint_path = tmp_path / "fingerprint.json"
    save_json(diamond_graph(), graph_path)
    fingerprint = Fingerprint(
        dataset=str(graph_path),
        query={"source": 0, "target": 3, "regex": "a b"},
        seed=7,
        engine="bbfs",
        engines=("bbfs", "bfs"),
        kind="exact-disagreement",
        detail="stored",
    )
    fingerprint_path.write_text(
        json.dumps(fingerprint.as_dict()), encoding="utf-8"
    )
    code = cli_main(
        ["verify", str(graph_path), "--replay", str(fingerprint_path)]
    )
    assert code == 0
    assert "no longer reproduces" in capsys.readouterr().out
