"""Observability layer — tracing, the gate, and the accounting records.

Three layers of evidence that :mod:`repro.obs` is safe to leave wired
into the engines:

* tracing semantics: LIFO nesting, per-thread stacks, error capture,
  JSON-lines round-trips (Hypothesis-generated span forests included)
  and a golden Chrome ``trace_event`` fixture under an injected clock;
* the gate: off by default, one shared no-op span while off,
  enable/disable/reset lifecycle, and a warm process pool that
  survives the gate opening;
* integration: ``ExecStats`` counters are identical across the serial
  / thread / process executor backends, and a traced run returns
  byte-identical answers on every registered engine and the same
  differential-oracle verdicts.
"""

import inspect
import json
import threading
import time  # repro: noqa[TIM001] — timing the timing layer
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import WorkloadGenerator, obs
from repro.core.engine import engine_names, make_engine
from repro.core.executor import BatchExecutor
from repro.core.stats import _COUNTER_FIELDS, ExecStats
from repro.datasets import dblp_like
from repro.errors import ReproError
from repro.obs.tracing import NULL_SPAN, NullTracer, Tracer, read_jsonl

SEED = 23


@pytest.fixture(autouse=True)
def _clean_gate():
    """Every test starts and ends with the gate closed and empty."""
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(scope="module")
def graph():
    return dblp_like(n_nodes=100, seed=4)


@pytest.fixture(scope="module")
def workload(graph):
    return WorkloadGenerator(graph, seed=3).generate(10)


@pytest.fixture(scope="module")
def small_graph():
    """Small graph, small alphabet: the exhaustive baselines enumerate
    simple paths (exponential in size) and the index baselines build
    per-label structures (costly on dblp_like's ~80-label alphabet)."""
    from repro.datasets import twitter_like

    return twitter_like(n_nodes=60, n_hubs=4, seed=SEED)


@pytest.fixture(scope="module")
def small_workload(small_graph):
    return WorkloadGenerator(small_graph, seed=3).generate(6)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------
class _FakeClock:
    """Deterministic ns clock: +1000 ns per read."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1000
        return self.now


class TestTracing:
    def test_span_records_on_close(self):
        tracer = Tracer(clock=_FakeClock())
        with tracer.span("work", step=1):
            pass
        (span,) = tracer.finished_spans()
        assert span.name == "work"
        assert span.attrs == {"step": 1}
        assert span.end_ns > span.start_ns

    def test_nesting_assigns_parents(self):
        tracer = Tracer(clock=_FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # completion order: inner closes first
        assert [s.name for s in tracer.finished_spans()] == [
            "inner",
            "outer",
        ]

    def test_duration_containment(self):
        tracer = Tracer(clock=_FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.start_ns <= inner.start_ns
        assert inner.end_ns <= outer.end_ns
        assert inner.duration_s <= outer.duration_s

    def test_exception_recorded_and_span_closed(self):
        tracer = Tracer(clock=_FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("broken"):
                raise RuntimeError("boom")
        (span,) = tracer.finished_spans()
        assert span.attrs["error"] == "RuntimeError"
        assert span.end_ns is not None

    def test_unentered_span_never_opens(self):
        tracer = Tracer(clock=_FakeClock())
        tracer.span("a")
        with tracer.span("b") as inner:
            pass
        assert inner.parent_id is None
        assert [s.name for s in tracer.finished_spans()] == ["b"]

    def test_set_attr_while_open(self):
        tracer = Tracer(clock=_FakeClock())
        with tracer.span("work") as span:
            span.set_attr("reachable", True)
        assert tracer.finished_spans()[0].attrs["reachable"] is True

    def test_sibling_threads_do_not_nest(self):
        tracer = Tracer()
        done = threading.Barrier(2)

        def work(name):
            with tracer.span(name):
                done.wait()

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        spans = tracer.finished_spans()
        assert len(spans) == 2
        assert all(span.parent_id is None for span in spans)
        assert len({span.thread_id for span in spans}) == 2

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer(clock=_FakeClock())
        with tracer.span("outer", engine="A"):
            with tracer.span("inner"):
                pass
        path = str(tmp_path / "trace.jsonl")
        assert tracer.export_jsonl(path) == 2
        records = list(read_jsonl(path))
        by_name = {record["name"]: record for record in records}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["attrs"] == {"engine": "A"}

    def test_clear_drops_spans(self):
        tracer = Tracer(clock=_FakeClock())
        with tracer.span("work"):
            pass
        tracer.clear()
        assert tracer.finished_spans() == []

    def test_null_tracer_records_nothing(self, tmp_path):
        tracer = NullTracer()
        span = tracer.span("work", anything=1)
        assert span is NULL_SPAN
        with span:
            span.set_attr("k", "v")
        assert tracer.finished_spans() == []
        assert tracer.export_jsonl(str(tmp_path / "x.jsonl")) == 0
        assert tracer.chrome_trace()["traceEvents"] == []


# recursive span forests: each node is (name, children)
_span_trees = st.recursive(
    st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.just([])),
    lambda children: st.tuples(
        st.sampled_from(["a", "b", "c", "d"]),
        st.lists(children, max_size=3),
    ),
    max_leaves=12,
)


class TestTracingProperties:
    @given(forest=st.lists(_span_trees, min_size=1, max_size=4))
    @settings(max_examples=30)
    def test_span_forest_round_trips_through_jsonl(
        self, forest, tmp_path_factory
    ):
        tracer = Tracer(clock=_FakeClock())

        def run(tree):
            name, children = tree
            with tracer.span(name):
                for child in children:
                    run(child)

        for tree in forest:
            run(tree)

        path = str(
            tmp_path_factory.mktemp("obs") / "trace.jsonl"
        )
        tracer.export_jsonl(path)
        records = {
            record["span_id"]: record for record in read_jsonl(path)
        }

        def count(tree):
            name, children = tree
            return 1 + sum(count(child) for child in children)

        assert len(records) == sum(count(tree) for tree in forest)
        for record in records.values():
            parent_id = record["parent_id"]
            if parent_id is None:
                continue
            parent = records[parent_id]
            # parent/child + duration containment survive the round trip
            assert parent["start_ns"] <= record["start_ns"]
            assert record["end_ns"] <= parent["end_ns"]

        # rebuild the forest shape: children grouped under parents in
        # start order must reproduce the generated trees
        def rebuild(parent_id):
            children = sorted(
                (
                    r
                    for r in records.values()
                    if r["parent_id"] == parent_id
                ),
                key=lambda r: r["start_ns"],
            )
            return [
                (r["name"], rebuild(r["span_id"])) for r in children
            ]

        assert rebuild(None) == [
            (name, _as_lists(children)) for name, children in forest
        ]


def _as_lists(children):
    return [(name, _as_lists(sub)) for name, sub in children]


class TestChromeTrace:
    def _golden_tracer(self):
        tracer = Tracer(clock=_FakeClock())
        with tracer.span("engine.query", engine="ARRIVAL"):
            with tracer.span("plan.compile"):
                pass
        return tracer

    def test_matches_golden_fixture(self):
        import os

        payload = self._golden_tracer().chrome_trace()
        # thread ids vary per run; the golden fixture pins them to 0
        for event in payload["traceEvents"]:
            event["tid"] = 0
        golden_path = os.path.join(
            os.path.dirname(__file__), "corpus", "chrome_trace_golden.json"
        )
        with open(golden_path, encoding="utf-8") as handle:
            golden = json.load(handle)
        assert payload == golden

    def test_export_writes_valid_json(self, tmp_path):
        path = str(tmp_path / "trace.json")
        assert self._golden_tracer().export_chrome_trace(path) == 2
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert {event["ph"] for event in payload["traceEvents"]} == {"X"}

    def test_open_spans_are_excluded(self):
        tracer = Tracer(clock=_FakeClock())
        tracer.span("never-closed")
        assert tracer.chrome_trace()["traceEvents"] == []


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------
def _span_names():
    return [span.name for span in obs.current_tracer().finished_spans()]


class TestGate:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert isinstance(obs.tracer(), NullTracer)
        assert obs.current_tracer() is None

    def test_disabled_mode_hands_out_shared_singletons(self):
        assert obs.span("x") is NULL_SPAN
        assert obs.span("y", attr=1) is NULL_SPAN
        with obs.span("x"):
            pass
        assert obs.current_tracer() is None

    def test_enable_takes_no_tracing_switch(self):
        with pytest.raises(TypeError):
            obs.enable(tracing=True)
        assert not obs.enabled()

    def test_enable_with_tracing(self):
        obs.enable()
        with obs.span("work"):
            pass
        assert _span_names() == ["work"]

    def test_enable_is_idempotent(self):
        obs.enable()
        with obs.span("work"):
            pass
        obs.enable()
        assert _span_names() == ["work"]

    def test_disable_keeps_recorded_data_readable(self):
        obs.enable()
        with obs.span("work"):
            pass
        obs.disable()
        assert isinstance(obs.tracer(), NullTracer)
        assert _span_names() == ["work"]

    def test_reset_drops_everything(self):
        obs.enable()
        with obs.span("work"):
            pass
        obs.reset()
        assert not obs.enabled()
        assert obs.current_tracer() is None

    def test_opening_the_gate_keeps_a_warm_pool(self, graph, workload):
        """The gate is not part of a pool's identity: a warm pool
        serves the next batch after ``enable()`` without rebuilding."""
        executor = BatchExecutor(
            factory=partial(make_engine, "arrival", graph, seed=11),
            backend="process",
            workers=1,
            seed=SEED,
            keep_pool=True,
        )
        with executor:
            cold = executor.run(workload)
            pool = executor._pool
            obs.enable()
            warm = executor.run(workload)
            assert executor._pool is pool
        assert cold.stats.worker_init_s > 0
        assert warm.stats.worker_init_s == 0
        assert warm.answers() == cold.answers()


# ---------------------------------------------------------------------------
# profiling hooks
# ---------------------------------------------------------------------------
class TestProfiled:
    def test_disabled_decorator_is_passthrough(self):
        calls = []

        @obs.profiled("unit.work")
        def work(x):
            calls.append(x)
            return x * 2

        assert work(3) == 6
        assert calls == [3]
        assert obs.current_tracer() is None

    def test_enabled_decorator_observes_duration(self):
        @obs.profiled("unit.work")
        def work():
            return 1

        obs.enable()
        work()
        work()
        spans = obs.current_tracer().finished_spans()
        assert [span.name for span in spans] == ["unit.work", "unit.work"]
        assert all(span.duration_s >= 0 for span in spans)


# ---------------------------------------------------------------------------
# ExecStats schema conformance
# ---------------------------------------------------------------------------
class TestExecStatsBridge:
    def test_schema_is_frozen(self):
        """BENCH_*.json readers parse these exact names and types."""
        import dataclasses

        expected = {
            "engine": str,
            "plan_s": float,
            "compile_s": float,
            "params_s": float,
            "walk_s": float,
            "verify_s": float,
            "oracle_s": float,
            "total_s": float,
            "worker_init_s": float,
            "plan_hits": int,
            "plan_misses": int,
            "plan_evictions": int,
            "expansions": int,
            "jumps": int,
            "candidates_scanned": int,
            "transition_hits": int,
            "transition_misses": int,
            "rng_refills": int,
            "csr_rebuilds": int,
            "oracle_checks": int,
            "oracle_violations": int,
            "ship_bytes": int,
        }
        fields = {f.name: f.type for f in dataclasses.fields(ExecStats)}
        assert list(fields) == list(expected)
        for name, kind in expected.items():
            value = getattr(ExecStats(), name)
            assert type(value) is kind, name

    def test_as_dict_keys_match_schema(self):
        import dataclasses

        stats = ExecStats(engine="E")
        assert list(stats.as_dict()) == [
            f.name for f in dataclasses.fields(ExecStats)
        ]


# ---------------------------------------------------------------------------
# integration: engines and executors
# ---------------------------------------------------------------------------
#: budgets for the exhaustive baselines (Kleene-star workloads are
#: exponential for them — Theorem 1), mirroring the conformance suite
ENGINE_BUDGETS = {
    "bfs": {"max_expansions": 20_000},
    "bbfs": {"max_expansions": 20_000},
    "rl": {"max_visits": 20_000},
    "arrival": {"walk_length": 12, "num_walks": 48},
    "auto": {"walk_length": 12, "num_walks": 48},
}


def _run_batch(graph, workload, backend):
    factory = partial(make_engine, "arrival", graph, seed=11)
    with BatchExecutor(
        factory=factory, backend=backend, workers=2, seed=SEED
    ) as executor:
        return executor.run(workload)


class TestInstrumentationIntegration:
    def test_counters_identical_across_backends(self, graph, workload):
        reports = {
            backend: _run_batch(graph, workload, backend)
            for backend in ("serial", "thread", "process")
        }
        # answers are backend-independent at a fixed seed ...
        assert (
            reports["serial"].answers()
            == reports["thread"].answers()
            == reports["process"].answers()
        )

        # ... and so is every summed per-query counter, exactly.
        # ship_bytes describes *how* the engine reached its workers,
        # which is backend-specific by definition.
        def counters(report):
            return {
                name: getattr(report.stats.totals, name)
                for name in _COUNTER_FIELDS
                if name != "ship_bytes"
            }

        assert counters(reports["serial"])["jumps"] > 0
        assert (
            counters(reports["serial"])
            == counters(reports["thread"])
            == counters(reports["process"])
        )

    def test_plan_cache_metrics_appear(self, graph, workload):
        engine = make_engine("arrival", graph, seed=11)
        first = engine.query(workload[0])
        second = engine.query(workload[0])  # same template: a hit
        assert (first.stats.plan_misses, first.stats.plan_hits) == (1, 0)
        assert (second.stats.plan_misses, second.stats.plan_hits) == (0, 1)
        assert engine.plan_cache.compiles == 1

    @pytest.mark.slow
    def test_traced_answers_identical_on_every_engine(
        self, small_graph, small_workload
    ):
        """Opening the gate must not change a single answer bit."""

        def answers(engine_name, traced):
            obs.reset()
            if traced:
                obs.enable()
            try:
                engine = make_engine(
                    engine_name,
                    small_graph,
                    seed=11,
                    **ENGINE_BUDGETS.get(engine_name, {}),
                )
            except ReproError as error:
                obs.reset()
                return [("init-error", type(error).__name__)]
            out = []
            for query in small_workload:
                try:
                    result = engine.query(query)
                except ReproError as error:
                    out.append(("error", type(error).__name__))
                else:
                    out.append((result.reachable, result.path))
            obs.reset()
            return out

        for name in engine_names():
            assert answers(name, False) == answers(name, True), name

    def test_traced_oracle_sweep_matches_untraced(
        self, small_graph, small_workload
    ):
        from repro.verify.oracle import DifferentialOracle

        def verdicts():
            oracle = DifferentialOracle(
                small_graph,
                ("arrival", "bbfs"),
                seed=SEED,
                engine_kwargs={"bbfs": {"max_expansions": 20_000}},
            )
            report = oracle.run(small_workload[:5])
            return [
                (entry.truth, entry.answers, entry.ok, entry.false_negatives)
                for entry in report.adjudications
            ]

        untraced = verdicts()
        obs.enable()
        assert verdicts() == untraced
        assert {"oracle.run", "oracle.adjudicate"} <= set(_span_names())


# ---------------------------------------------------------------------------
# disabled-mode overhead
# ---------------------------------------------------------------------------
def _available_cores():
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


@pytest.mark.slow
class TestDisabledOverhead:
    def test_disabled_gate_overhead_within_bar(self, graph, monkeypatch):
        """A closed gate does no observability work, and an enabled
        sweep is not dramatically faster than a disabled one.

        The disabled path *is* the no-op baseline — its only cost over
        pre-observability code is one no-op span per query/stage — so
        the regression this guards against is someone making the gate
        do real work while closed.  That work is counted, not timed:
        with the gate closed, a 200-query sweep must never call into a
        real ``Tracer``.  The timing comparison is gated on core count:
        timing on a contended single-core box is meaningless.
        """
        queries = WorkloadGenerator(graph, seed=9).generate(200)
        engine = make_engine("arrival", graph, seed=11)
        for query in queries[:20]:  # warmup: caches, views, tables
            engine.query(query)

        def sweep():
            start = time.perf_counter()  # repro: noqa[TIM001]
            for query in queries:
                engine.query(query)
            return time.perf_counter() - start  # repro: noqa[TIM001]

        calls = {}

        def spy(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                key = f"{owner.__name__}.{name}"
                calls[key] = calls.get(key, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for name, member in list(vars(Tracer).items()):
            if inspect.isfunction(member):
                spy(Tracer, name)
        assert not obs.enabled()
        sweep()
        assert calls == {}, f"the closed gate did observability work: {calls}"
        monkeypatch.undo()

        if _available_cores() < 2:
            return
        # best-of-3 per variant: immune to one-off scheduler hiccups
        disabled_s = min(sweep() for _ in range(3))
        obs.enable()
        try:
            enabled_s = min(sweep() for _ in range(3))
        finally:
            obs.reset()
        # the enabled run records spans for 200 queries; it
        # cannot be dramatically *faster* than the no-op path unless
        # the disabled path is secretly paying enabled-mode costs
        assert enabled_s > 0.5 * disabled_s
