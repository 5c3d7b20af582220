"""BatchExecutor: backends, determinism, timeouts, failure modes."""

import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    Arrival,
    BatchExecutor,
    BatchReport,
    ErrorResult,
    TimeoutResult,
    make_engine,
)
from repro.core.engine import EngineBase
from repro.core.executor import query_stream, setup_stream
from repro.core.result import QueryResult
from repro.datasets import gplus_like
from repro.queries import RSPQuery, WorkloadGenerator


def workload(graph, count, seed=9, bias=0.5):
    generator = WorkloadGenerator(graph, seed=seed)
    return [generator.sample_query(positive_bias=bias) for _ in range(count)]


@pytest.fixture(scope="module")
def graph():
    return gplus_like(n_nodes=150, seed=5)


@pytest.fixture(scope="module")
def factory(graph):
    # explicit parameters: nothing left for lazy estimation to randomise
    return partial(make_engine, "arrival", graph, walk_length=12, num_walks=40)


class SlowEngine(EngineBase):
    """Sleeps per query; answers True.  meta['sleep'] sets the delay."""

    name = "SLOW"

    def _query(self, query):
        time.sleep(query.meta.get("sleep", 0.0))
        return QueryResult(reachable=True, method=self.name)


class FlakyEngine(EngineBase):
    """Raises on queries marked meta['boom']."""

    name = "FLAKY"

    def _query(self, query):
        if query.meta.get("boom"):
            raise RuntimeError(f"boom on {query.source}")
        return QueryResult(reachable=True, method=self.name)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------
def test_rejects_unknown_backend():
    with pytest.raises(ValueError, match="backend"):
        BatchExecutor(SlowEngine(), backend="fiber")


def test_needs_engine_or_factory():
    with pytest.raises(ValueError, match="engine or a factory"):
        BatchExecutor()


def test_parallel_backends_require_factory():
    with pytest.raises(ValueError, match="factory"):
        BatchExecutor(SlowEngine(), backend="thread")


# ---------------------------------------------------------------------------
# serial semantics
# ---------------------------------------------------------------------------
def test_serial_with_engine_instance(graph):
    engine = Arrival(graph, walk_length=12, num_walks=40, seed=3)
    queries = workload(graph, 12)
    report = BatchExecutor(engine).run(queries)
    assert isinstance(report, BatchReport)
    assert len(report.results) == len(queries)
    assert report.stats.n_queries == len(queries)
    assert report.stats.n_errors == 0
    assert report.stats.engines == ("ARRIVAL",)


def test_serial_without_seed_matches_plain_loop(graph):
    """No batch seed: the legacy sequential RNG stream is preserved."""
    queries = workload(graph, 12)
    engine = Arrival(graph, walk_length=12, num_walks=40, seed=3)
    expected = [engine.query(q).reachable for q in queries]
    executed = BatchExecutor(
        Arrival(graph, walk_length=12, num_walks=40, seed=3)
    ).run(queries)
    assert executed.answers() == expected


def test_results_in_workload_order(graph, factory):
    queries = workload(graph, 10)
    report = BatchExecutor(factory=factory, seed=1).run(queries)
    for result in report.results:
        assert result.method in ("ARRIVAL",)
        assert result.stats is not None


# ---------------------------------------------------------------------------
# determinism across backends and worker counts
# ---------------------------------------------------------------------------
def test_same_seed_same_answers_serial(graph, factory):
    queries = workload(graph, 20)
    first = BatchExecutor(factory=factory, seed=42).run(queries)
    second = BatchExecutor(factory=factory, seed=42).run(queries)
    assert first.answers() == second.answers()


def test_thread_backend_matches_serial(graph, factory):
    queries = workload(graph, 20)
    serial = BatchExecutor(factory=factory, seed=42).run(queries)
    for workers in (1, 3):
        threaded = BatchExecutor(
            factory=factory, backend="thread", workers=workers, seed=42
        ).run(queries)
        assert threaded.answers() == serial.answers()


def test_process_backend_matches_serial(graph, factory):
    queries = workload(graph, 8)
    serial = BatchExecutor(factory=factory, seed=42).run(queries)
    forked = BatchExecutor(
        factory=factory, backend="process", workers=2, seed=42
    ).run(queries)
    assert forked.answers() == serial.answers()


def test_generator_in_the_factory_never_reaches_an_answer():
    # a seeded executor reseeds every worker's setup and every query from
    # SeedSequence spawn keys, so a Generator bound into the factory (and
    # pickled into process workers) cannot leak into the answers
    graph = gplus_like(n_nodes=150, seed=6)
    queries = workload(graph, 8)
    outcomes = set()
    for k in (0, 1):
        factory = partial(
            make_engine, "arrival", graph, seed=np.random.default_rng(k)
        )
        for backend, workers in (("serial", 1), ("thread", 2), ("process", 1)):
            report = BatchExecutor(
                factory=factory, backend=backend, workers=workers, seed=7
            ).run(queries)
            outcomes.add(
                tuple(
                    (result.reachable, result.path, result.jumps)
                    for result in report.results
                )
            )
    assert len(outcomes) == 1
    (answers,) = outcomes
    assert sum(jumps for _, _, jumps in answers) > 0


def test_seed_streams_are_disjoint():
    setup = setup_stream(7).integers(1 << 30, size=4).tolist()
    q0 = query_stream(7, 0).integers(1 << 30, size=4).tolist()
    q1 = query_stream(7, 1).integers(1 << 30, size=4).tolist()
    assert setup != q0 != q1 and setup != q1


# ---------------------------------------------------------------------------
# timeouts
# ---------------------------------------------------------------------------
def test_serial_timeout_posthoc():
    # 0.0 s vs 0.5 s against a 0.2 s deadline: wide margins on both
    # sides so scheduler stalls on a loaded box cannot flip either
    # verdict (a 2x separation here flaked under contention)
    queries = [
        RSPQuery(0, 1, "a", meta={"sleep": 0.0}),
        RSPQuery(0, 1, "a", meta={"sleep": 0.5}),
    ]
    report = BatchExecutor(SlowEngine(), timeout_s=0.2).run(queries)
    assert report.results[0].reachable
    assert isinstance(report.results[1], TimeoutResult)
    assert report.results[1].timed_out
    assert report.stats.n_timeouts == 1


def test_thread_timeout_structured():
    queries = [RSPQuery(i, 1, "a", meta={"sleep": 0.0}) for i in range(4)]
    queries.append(RSPQuery(99, 1, "a", meta={"sleep": 5.0}))
    start = time.perf_counter()
    report = BatchExecutor(
        factory=SlowEngine, backend="thread", workers=2, timeout_s=0.2
    ).run(queries)
    elapsed = time.perf_counter() - start
    slow = report.results[-1]
    assert isinstance(slow, TimeoutResult)
    assert slow.timeout_s == 0.2
    assert elapsed < 4.0  # the 5 s sleeper was abandoned, not awaited
    assert sum(bool(r.reachable) for r in report.results) == 4
    assert report.stats.n_timeouts == 1


def test_process_timeout_workers_terminated(tmp_path):
    # An abandoned process worker must be killed, not merely abandoned:
    # concurrent.futures re-joins leftover workers at interpreter exit,
    # so a worker stuck past its deadline used to hang the process after
    # run() had already returned its TimeoutResult.
    script = tmp_path / "hang.py"
    script.write_text(
        "import time\n"
        "from repro.core import BatchExecutor, TimeoutResult\n"
        "from repro.core.engine import EngineBase\n"
        "from repro.core.result import QueryResult\n"
        "from repro.queries import RSPQuery\n"
        "\n"
        "\n"
        "class StuckEngine(EngineBase):\n"
        "    name = 'STUCK'\n"
        "\n"
        "    def _query(self, query):\n"
        "        time.sleep(600)\n"
        "        return QueryResult(reachable=True, method=self.name)\n"
        "\n"
        "\n"
        "if __name__ == '__main__':\n"
        "    report = BatchExecutor(\n"
        "        factory=StuckEngine, backend='process', workers=2,\n"
        "        timeout_s=0.2,\n"
        "        # two queries: single-query workloads run serially\n"
        "    ).run([RSPQuery(0, 1, 'a'), RSPQuery(1, 2, 'a')])\n"
        "    assert all(\n"
        "        isinstance(r, TimeoutResult) for r in report.results\n"
        "    )\n"
        "    print('returned')\n",
        encoding="utf-8",
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,  # would previously block ~600 s on the stuck worker
    )
    assert completed.returncode == 0, completed.stderr
    assert "returned" in completed.stdout


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------
def test_collect_errors_mode():
    queries = [
        RSPQuery(0, 1, "a"),
        RSPQuery(1, 1, "a", meta={"boom": True}),
        RSPQuery(2, 1, "a"),
    ]
    report = BatchExecutor(FlakyEngine()).run(queries)
    assert report.results[0].reachable and report.results[2].reachable
    failed = report.results[1]
    assert isinstance(failed, ErrorResult)
    assert failed.error_type == "RuntimeError"
    assert "boom on 1" in failed.error
    assert report.stats.n_errors == 1


def test_fail_fast_reraises():
    queries = [RSPQuery(0, 1, "a"), RSPQuery(1, 1, "a", meta={"boom": True})]
    with pytest.raises(RuntimeError, match="boom"):
        BatchExecutor(FlakyEngine(), fail_fast=True).run(queries)


def test_fail_fast_reraises_in_pool():
    queries = [RSPQuery(i, 1, "a") for i in range(3)]
    queries.append(RSPQuery(9, 1, "a", meta={"boom": True}))
    executor = BatchExecutor(
        factory=FlakyEngine, backend="thread", workers=2, fail_fast=True
    )
    with pytest.raises(RuntimeError, match="boom"):
        executor.run(queries)


# ---------------------------------------------------------------------------
# stats aggregation
# ---------------------------------------------------------------------------
def test_batch_stats_totals(graph, factory):
    queries = workload(graph, 15)
    report = BatchExecutor(factory=factory, seed=7).run(queries)
    stats = report.stats
    assert stats.n_queries == 15
    assert stats.n_reachable == sum(report.answers())
    assert stats.queries_per_second > 0
    assert stats.totals.total_s > 0
    assert stats.totals.expansions > 0
    assert stats.mean_query_s is not None
    per_query = [r.stats.jumps for r in report.results]
    assert stats.totals.jumps == sum(per_query)


def test_bounded_in_flight_still_completes(graph, factory):
    queries = workload(graph, 12)
    report = BatchExecutor(
        factory=factory,
        backend="thread",
        workers=2,
        seed=7,
        max_in_flight=2,
    ).run(queries)
    assert len(report.results) == 12
    assert all(r is not None for r in report.results)
