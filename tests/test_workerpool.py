"""Tests for the persistent warm worker pool and chunked dispatch.

The contract under test: the process backend's pool (shm plane, warm
per-worker engines, chunked futures) is a pure transport optimisation —
answers are byte-identical to the serial backend for every combination
of worker count, shm mode, chunk size, and pool lifetime, and no
shared-memory segment outlives its executor, even when timed-out
workers are terminated mid-query.
"""

from __future__ import annotations

import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from repro.core import BatchExecutor, make_engine
from repro.core.executor import WorkerPool
from repro.core.shm import segment_prefix
from repro.datasets import gplus_like
from repro.queries import WorkloadGenerator
from repro.verify import DifferentialOracle

SEED = 42


def shm_entries():
    try:
        entries = os.listdir("/dev/shm")
    except FileNotFoundError:
        return []
    return [name for name in entries if name.startswith(segment_prefix())]


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = set(shm_entries())
    yield
    leaked = [name for name in shm_entries() if name not in before]
    assert leaked == [], f"leaked shared-memory segments: {leaked}"


@pytest.fixture(scope="module")
def graph():
    return gplus_like(n_nodes=150, seed=5)


@pytest.fixture(scope="module")
def factory(graph):
    return partial(
        make_engine, "arrival", graph, walk_length=12, num_walks=40
    )


@pytest.fixture(scope="module")
def workload(graph):
    return WorkloadGenerator(graph, seed=7).generate(24)


def answers(report):
    """The byte-comparable view of a batch: bit + witness per query."""
    return [
        (bool(r.reachable), tuple(r.path) if r.path else None)
        for r in report.results
    ]


def run_batch(factory, queries, **kwargs):
    executor = BatchExecutor(factory=factory, seed=SEED, **kwargs)
    try:
        return executor.run(queries)
    finally:
        executor.close()


# ---------------------------------------------------------------------------
# determinism: shm / chunking / pool lifetime never change answers
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_shm_modes_match_serial(self, factory, workload):
        baseline = answers(run_batch(factory, workload, backend="serial"))
        for shm in ("off", "auto", "on"):
            report = run_batch(
                factory, workload, backend="process", workers=3, shm=shm
            )
            assert answers(report) == baseline, shm

    def test_chunked_matches_per_query(self, factory, workload):
        baseline = answers(run_batch(factory, workload, backend="serial"))
        for chunk_size in (1, 5, 24, 1000, "auto"):
            report = run_batch(
                factory, workload,
                backend="process", workers=3, chunk_size=chunk_size,
            )
            assert answers(report) == baseline, chunk_size

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_warm_pool_identical_across_batches(
        self, factory, workload, workers
    ):
        fresh = run_batch(
            factory, workload,
            backend="process", workers=workers, shm="on",
        )
        executor = BatchExecutor(
            factory=factory, seed=SEED, backend="process",
            workers=workers, shm="on", keep_pool=True,
        )
        try:
            first = executor.run(workload)
            second = executor.run(workload)
        finally:
            executor.close()
        assert answers(first) == answers(second) == answers(fresh)

    def test_oracle_sweep_dispatch_independent(self, graph):
        queries = WorkloadGenerator(graph, seed=11).generate(200)
        reports = {}
        for label, executor_kwargs in (
            ("per-query", {"shm": "off", "chunk_size": 1}),
            ("chunked", {"shm": "on", "chunk_size": 16}),
        ):
            oracle = DifferentialOracle(
                graph,
                engines=("arrival", "bbfs"),
                seed=SEED,
                backend="process",
                workers=3,
                engine_kwargs={
                    "arrival": {"walk_length": 12, "num_walks": 40},
                    "bbfs": {"max_expansions": 20_000},
                },
                executor_kwargs=executor_kwargs,
            )
            reports[label] = oracle.run(queries)
            assert reports[label].divergences == [], label
        verdicts = {
            label: [
                (
                    entry.truth,
                    entry.answers,
                    sorted(d.kind for d in entry.divergences),
                )
                for entry in report.adjudications
            ]
            for label, report in reports.items()
        }
        assert verdicts["per-query"] == verdicts["chunked"]


# ---------------------------------------------------------------------------
# warm pool economics
# ---------------------------------------------------------------------------
class TestWarmPool:
    def test_second_batch_is_free(self, factory, workload):
        executor = BatchExecutor(
            factory=factory, seed=SEED, backend="process",
            workers=2, shm="on", keep_pool=True,
        )
        try:
            first = executor.run(workload)
            second = executor.run(workload)
        finally:
            executor.close()
        assert first.stats.worker_init_s > 0
        assert first.stats.ship_bytes > 0
        assert second.stats.worker_init_s == 0.0
        assert second.stats.ship_bytes == 0

    def test_shm_shrinks_ship_bytes(self, factory, workload):
        shipped = {}
        for shm in ("off", "on"):
            report = run_batch(
                factory, workload, backend="process", workers=2, shm=shm
            )
            shipped[shm] = report.stats.ship_bytes
        assert 0 < shipped["on"] < shipped["off"]

    def test_stats_reach_totals(self, factory, workload):
        report = run_batch(
            factory, workload, backend="process", workers=2, shm="on"
        )
        assert report.stats.totals.worker_init_s == (
            report.stats.worker_init_s
        )
        assert report.stats.totals.ship_bytes == report.stats.ship_bytes

    def test_pool_rebuilt_when_graph_changes(self, workload):
        graph = gplus_like(n_nodes=150, seed=5)
        factory = partial(
            make_engine, "arrival", graph, walk_length=12, num_walks=40
        )
        executor = BatchExecutor(
            factory=factory, seed=SEED, backend="process",
            workers=2, shm="on", keep_pool=True,
        )
        try:
            first = executor.run(workload)
            pool_before = executor._pool
            graph.add_node(labels=frozenset({"Z"}))
            second = executor.run(workload)
            pool_after = executor._pool
            assert pool_before is not pool_after
            assert second.stats.ship_bytes > 0  # re-exported plane
            assert first.stats.n_queries == second.stats.n_queries
        finally:
            executor.close()

    def test_shm_on_requires_graph_factory(self):
        def opaque_factory():  # no partial shape, no graph to export
            raise AssertionError("never called")

        with pytest.raises(ValueError, match="shm="):
            WorkerPool(
                factory=opaque_factory, seed=SEED, workers=2, shm_mode="on"
            )

    def test_auto_falls_back_to_pickling(self, workload):
        # a factory the splitter cannot see through: auto degrades to
        # the pickle path instead of failing
        report = run_batch(
            _opaque_engine_factory, workload,
            backend="process", workers=2, shm="auto",
        )
        assert report.stats.n_queries == len(workload)


def _opaque_engine_factory():
    graph = gplus_like(n_nodes=150, seed=5)
    return make_engine(
        "arrival", graph, walk_length=12, num_walks=40
    )


# ---------------------------------------------------------------------------
# satellite bugfix: terminated workers must not leak segments
# ---------------------------------------------------------------------------
def test_hung_query_timeout_releases_segments(tmp_path):
    # A deliberately hung query forces the abandoned-teardown path:
    # run() returns TimeoutResults, the stuck workers are terminated,
    # and the plane's segments must be unlinked regardless — /dev/shm
    # holds no rshm-* entry once the script exits.
    script = tmp_path / "hang_shm.py"
    script.write_text(
        "import os, time\n"
        "from repro.core import BatchExecutor, TimeoutResult\n"
        "from repro.core.engine import EngineBase\n"
        "from repro.core.result import QueryResult\n"
        "from repro.core.shm import segment_prefix\n"
        "from repro.datasets import gplus_like\n"
        "from repro.queries import RSPQuery\n"
        "from functools import partial\n"
        "\n"
        "\n"
        "class StuckEngine(EngineBase):\n"
        "    name = 'STUCK'\n"
        "\n"
        "    def __init__(self, graph):\n"
        "        self.graph = graph\n"
        "\n"
        "    def _query(self, query):\n"
        "        time.sleep(600)\n"
        "        return QueryResult(reachable=True, method=self.name)\n"
        "\n"
        "\n"
        "def live_segments():\n"
        "    return [\n"
        "        name for name in os.listdir('/dev/shm')\n"
        "        if name.startswith(segment_prefix())\n"
        "    ]\n"
        "\n"
        "\n"
        "if __name__ == '__main__':\n"
        "    graph = gplus_like(n_nodes=60, seed=5)\n"
        "    report = BatchExecutor(\n"
        "        factory=partial(StuckEngine, graph),\n"
        "        backend='process', workers=2, timeout_s=0.2,\n"
        "        shm='on', keep_pool=True,\n"
        "        # two queries: single-query workloads run serially\n"
        "    ).run([RSPQuery(0, 1, 'a'), RSPQuery(1, 2, 'a')])\n"
        "    assert all(\n"
        "        isinstance(r, TimeoutResult) for r in report.results\n"
        "    )\n"
        "    leaked = live_segments()\n"
        "    assert leaked == [], f'leaked: {leaked}'\n"
        "    print('clean')\n",
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
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert "clean" in completed.stdout
