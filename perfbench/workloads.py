"""The workloads: ``pool-templates`` and ``live-rw``.

Each workload builds its inputs from the seed, sets the program up
several times (``setup_s`` is the median), warms it, then runs whole
rounds of the same requests until ``seconds`` have passed.  Every call
into the program is timed from outside and every answer is checked
against :mod:`reference`.  README.md gives the make-up of each workload
and where each percentile falls among its request groups.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from inputs import (
    Query,
    QuerySource,
    classify,
    compose,
    gplus_like,
    rng_for,
    twitter_like,
)
from reference import PREDICATES, RefGraph, witness_error
from spans import Tracer

from repro.core import BatchExecutor, make_engine
from repro.core.executor import query_stream, setup_stream
from repro.graph.io import load_json
from repro.labels import PredicateRegistry
from repro.queries import RSPQuery

#: set-ups per run; ``setup_s`` reports their median
SETUPS = 3
#: process workers in ``pool-templates``.  One, and the client and its
#: worker share one core (see :func:`pin_to_one_core`): the two take turns,
#: as the client waits for each batch.  Spread over two cores of a shared
#: 2-core VM, every hand-over woke an idle virtual CPU, batch latency
#: tracked the host's CPU steal, and p50 spread 0.33-0.34 (IQR / median)
#: over five to ten seeds, with one worker or two.
WORKERS = 1


# -- measurement -------------------------------------------------------------


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


@dataclass
class Tally:
    """What the timed phase saw: latencies, answers and checks."""

    rounds: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    busy_s: float = 0.0  # time inside read and write calls
    queries: int = 0
    attempted: int = 0
    failed: int = 0
    answered_true: int = 0
    known_reachable: int = 0
    exact_confirmed: int = 0
    violations: List[str] = field(default_factory=list)

    def judge(self, graph: RefGraph, query: Query, result: Any) -> None:
        """Check one answer against the reference checker."""
        self.queries += 1
        self.attempted += 1
        if getattr(result, "error", ""):
            self.failed += 1
            return
        ref = query.reference
        assert ref is not None
        if result.reachable:
            error = witness_error(graph, query.automaton(), query.source, query.target, result.path)
            if error is not None:
                self.violations.append(f"{query.regex} {query.source}->{query.target}: {error}")
                return
            self.answered_true += 1
            self.known_reachable += 1
            self.exact_confirmed += bool(result.exact)
            return
        if result.exact and ref.reachable:
            self.violations.append(
                f"{query.regex} {query.source}->{query.target}: exact negative, "
                f"but the checker found simple path {ref.witness}"
            )
            return
        self.known_reachable += ref.reachable
        self.exact_confirmed += bool(result.exact) and ref.unreachable

    def end_to_end(self, setup_times: Sequence[float], peak_rss_mb: float) -> Dict[str, Dict[str, object]]:
        lat = self.latencies_ms
        return {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "latency_p50_ms": {"value": percentile(lat, 0.50), "unit": "ms"},
            "latency_p95_ms": {"value": percentile(lat, 0.95), "unit": "ms"},
            "qps": {"value": self.queries / self.busy_s, "unit": "1/s"},
            "recall": {"value": self.answered_true / max(1, self.known_reachable), "unit": "ratio"},
            "exact_answers": {"value": self.exact_confirmed / self.rounds, "unit": "count"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }


def peak_rss_mb(workers: int = 0) -> float:
    """Peak resident memory of this process plus ``workers`` finished
    worker processes, each counted at the largest worker's peak (the
    kernel keeps only that maximum for reaped children)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * child) / 1024.0


def pin_to_one_core() -> None:
    """Confine this process, and the processes it starts from now on, to
    the lowest-numbered core it may run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def timed_rounds(seconds: float) -> Iterator[None]:
    """Paces the timed phase: whole rounds, as many as end nearest to
    ``seconds`` (at least one)."""
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        yield
        now = time.perf_counter()
        if now - began + (now - start) / 2 >= seconds:
            return


def program_query(query: Query, predicates: Optional[PredicateRegistry] = None) -> RSPQuery:
    return RSPQuery(
        query.source,
        query.target,
        query.regex,
        predicates=predicates if query.uses_predicates else None,
    )


@dataclass
class Layers:
    """Per-layer figures gathered in traced mode."""

    load_s: List[float] = field(default_factory=list)
    engine_prepare_s: List[float] = field(default_factory=list)
    plan_ms: List[float] = field(default_factory=list)
    plan_hits: int = 0
    plan_lookups: int = 0
    compiles: int = 0
    pos_execute_ms: List[float] = field(default_factory=list)
    neg_execute_ms: List[float] = field(default_factory=list)
    jumps: int = 0
    walks: int = 0
    positives: int = 0
    execute_s: float = 0.0
    transition_misses: int = 0
    slow_path: int = 0
    write_ms: List[float] = field(default_factory=list)
    read_after_write_ms: List[float] = field(default_factory=list)
    view_rebuilds: int = 0
    pool_start_s: List[float] = field(default_factory=list)
    worker_init_s: List[float] = field(default_factory=list)
    ship_bytes: List[int] = field(default_factory=list)
    batch_overhead_ms: List[float] = field(default_factory=list)
    batch_engine_s: float = 0.0
    batch_wall_s: float = 0.0
    single_ms: List[float] = field(default_factory=list)

    def record(self, result: Any, execute_s: float) -> None:
        """Fold one answered query: its execute time and the counters of
        its ``stats`` and ``info``."""
        stats = result.stats
        if stats is None:
            return
        self.execute_s += execute_s
        (self.pos_execute_ms if result.reachable else self.neg_execute_ms).append(execute_s * 1e3)
        self.plan_hits += stats.plan_hits
        self.plan_lookups += stats.plan_hits + stats.plan_misses
        self.jumps += stats.jumps
        self.walks += stats.expansions
        self.positives += bool(result.reachable)
        self.transition_misses += stats.transition_misses
        self.view_rebuilds += stats.csr_rebuilds
        self.slow_path += result.info.get("fast_path") is False

    def metrics(self, rounds: int) -> Dict[str, Dict[str, object]]:
        def med(values: Sequence[float]) -> float:
            return statistics.median(values) if values else 0.0

        def mean(values: Sequence[float]) -> float:
            return statistics.fmean(values) if values else 0.0

        per_round = 1.0 / max(1, rounds)
        return {
            "graph.load_s": {"value": med(self.load_s), "unit": "s"},
            "graph.write_ms": {"value": mean(self.write_ms), "unit": "ms"},
            "graph.read_after_write_ms": {"value": med(self.read_after_write_ms), "unit": "ms"},
            "graph.view_rebuilds": {"value": self.view_rebuilds * per_round, "unit": "count"},
            "engine.prepare_s": {"value": med(self.engine_prepare_s), "unit": "s"},
            "plan.prepare_ms": {"value": mean(self.plan_ms), "unit": "ms"},
            "plan.hit_ratio": {"value": self.plan_hits / max(1, self.plan_lookups), "unit": "ratio"},
            "plan.compiles": {"value": self.compiles * per_round, "unit": "count"},
            "arrival.pos_execute_ms": {"value": med(self.pos_execute_ms), "unit": "ms"},
            "arrival.neg_execute_p95_ms": {
                "value": percentile(self.neg_execute_ms, 0.95) if self.neg_execute_ms else 0.0,
                "unit": "ms",
            },
            "arrival.jumps": {"value": self.jumps * per_round, "unit": "count"},
            "arrival.walks": {"value": self.walks * per_round, "unit": "count"},
            "arrival.walks_per_positive": {"value": self.walks / max(1, self.positives), "unit": "ratio"},
            "arrival.jumps_per_s": {
                "value": self.jumps / self.execute_s if self.execute_s else 0.0,
                "unit": "1/s",
            },
            "arrival.transition_misses": {"value": self.transition_misses * per_round, "unit": "count"},
            "arrival.slow_path_queries": {"value": self.slow_path * per_round, "unit": "count"},
            "executor.pool_start_s": {"value": med(self.pool_start_s), "unit": "s"},
            "executor.worker_init_s": {"value": med(self.worker_init_s), "unit": "s"},
            "executor.ship_bytes": {"value": med(self.ship_bytes), "unit": "bytes"},
            "executor.batch_overhead_ms": {"value": med(self.batch_overhead_ms), "unit": "ms"},
            "executor.busy_ratio": {
                "value": self.batch_engine_s / (WORKERS * self.batch_wall_s) if self.batch_wall_s else 0.0,
                "unit": "ratio",
            },
            "executor.single_ms": {"value": med(self.single_ms), "unit": "ms"},
        }


@dataclass
class Outcome:
    """One run: the tally, set-up times, peak memory, layer figures."""

    tally: Tally
    setup_times: List[float]
    peak_rss_mb: float
    layers: Layers


# -- shared steps ------------------------------------------------------------


def load_graph(path: Path, tracer: Tracer, layers: Layers) -> Any:
    start = time.perf_counter()
    with tracer.span("graph.io.load_json", "repro.graph"):
        graph = load_json(path)
    layers.load_s.append(time.perf_counter() - start)
    return graph


def new_engine(graph: Any, seed: int, **kwargs: Any) -> Any:
    """``make_engine("auto")`` plus no-argument ``prepare()`` under the
    executor's set-up stream, as a batch run would do it."""
    engine = make_engine("auto", graph, seed=seed, **kwargs)
    engine.reseed(setup_stream(seed))
    engine.prepare()
    return engine


def set_up(path: Path, seed: int, tracer: Tracer, layers: Layers, **kwargs: Any) -> Tuple[Any, Any, float]:
    """One set-up, from the graph file to an engine ready to answer."""
    gc.collect()
    start = time.perf_counter()
    graph = load_graph(path, tracer, layers)
    loaded = time.perf_counter()
    with tracer.span("make_engine+prepare", "repro.core.parameters"):
        engine = new_engine(graph, seed, **kwargs)
    end = time.perf_counter()
    layers.engine_prepare_s.append(end - loaded)
    return graph, engine, end - start


def ask(
    engine: Any,
    request: RSPQuery,
    seed: int,
    index: int,
    tracer: Tracer,
    layers: Layers,
) -> Tuple[Any, float]:
    """One read: ``prepare(query)`` then ``execute(plan)``, timed."""
    engine.reseed(query_stream(seed, index))
    tracer.next_request()
    start = time.perf_counter()
    with tracer.span("request", "client"):
        with tracer.span("engine.prepare", "repro.core.plan"):
            plan = engine.prepare(request)
        planned = time.perf_counter()
        with tracer.span("engine.execute", "repro.core.arrival"):
            result = engine.execute(plan)
    end = time.perf_counter()
    if tracer.enabled:
        layers.plan_ms.append((planned - start) * 1e3)
        layers.record(result, end - planned)
    return result, end - start


def warm_queries(source: QuerySource, count: int) -> List[Query]:
    """Queries outside the measured rounds, used only to warm up."""
    return [source.query(*source.template(), biased=True) for _ in range(count)]


def warm_up(engine: Any, seed: int, queries: Sequence[Query]) -> None:
    """Run the warm-up queries, then collect garbage before timing."""
    for i, query in enumerate(queries):
        engine.reseed(query_stream(seed, 10_000 + i))
        engine.query(program_query(query))
    gc.collect()


# -- pool-templates ------------------------------------------------------------

#: the serving graph and its template catalogue are the same for every
#: seed, so runs on different seeds serve the same recurring templates on
#: the same graph; the seed draws the request stream
GRAPH_SEED = 0
TEMPLATES = 36
#: one round: BATCHES batches, each holding the queries of BATCH_MIX in a
#: seeded order, plus SINGLES one-query lookups spread among them.  The
#: queries drawn for a seed are dealt into batches SHUFFLES times over,
#: so each sits in that many batches and p50, a median over batches,
#: rests on more batches than the checker has to draw queries for.
#: Negatives that spend the whole walk budget (15-380 ms each) are left
#: to live-rw: here they would swamp the dispatch cost this workload is
#: about.
BATCH_MIX = {"dead": 6, "positive": 10}
BATCHES = 32
SHUFFLES = 2
SINGLES = 6
#: batches per run re-run on a serial executor to compare answers
SERIAL_SAMPLES = 2


def deal(source: QuerySource, by_group: Dict[str, List[Query]]) -> List[List[Query]]:
    """Deal each group's queries into batches of BATCH_MIX, once per
    shuffle; each batch is then put in a seeded order."""
    batches: List[List[Query]] = []
    per_deal = BATCHES // SHUFFLES
    for _ in range(SHUFFLES):
        order = {group: source.rng.permutation(len(queries)) for group, queries in by_group.items()}
        for b in range(per_deal):
            batch = [
                by_group[group][int(i)]
                for group, n in BATCH_MIX.items()
                for i in order[group][b * n:(b + 1) * n]
            ]
            batches.append([batch[int(i)] for i in source.rng.permutation(len(batch))])
    return batches


def pool_templates(seed: int, seconds: float, workdir: Path, tracer: Tracer) -> Outcome:
    pin_to_one_core()
    spec = twitter_like(GRAPH_SEED)
    path = workdir / "graph.json"
    spec.write_json(path)
    ref = spec.reference_graph()
    catalogue = QuerySource(ref, rng_for(0, 4))
    templates = [catalogue.template() for _ in range(TEMPLATES)]
    source = QuerySource(ref, rng_for(seed, 4))
    pool = compose(
        source,
        {group: n * BATCHES // SHUFFLES for group, n in BATCH_MIX.items()},
        templates=templates,
    )
    by_group: Dict[str, List[Query]] = {group: [] for group in BATCH_MIX}
    for query in pool:
        by_group[str(query.meta["group"])].append(query)
    batches = deal(source, by_group)
    singles = compose(source, {"positive": SINGLES}, templates=templates)
    # request order: the singles spread evenly among the batches
    gap = BATCHES // SINGLES
    schedule: List[List[Query]] = []
    for b, batch in enumerate(batches):
        schedule.append(batch)
        if b % gap == gap - 1 and b // gap < SINGLES:
            schedule.append([singles[b // gap]])
    layers = Layers()

    def factory_for(graph: Any) -> Any:
        return functools.partial(make_engine, "arrival", graph, seed=seed)

    setup_times = []
    executor: Optional[BatchExecutor] = None
    warmup = [program_query(q) for q in batches[0][:2]]
    try:
        for _ in range(SETUPS):
            if executor is not None:
                executor.close()
            executor = None
            gc.collect()
            start = time.perf_counter()
            graph = load_graph(path, tracer, layers)
            with tracer.span("executor.first_run", "repro.core.executor"):
                executor = BatchExecutor(
                    factory=factory_for(graph),
                    backend="process",
                    workers=WORKERS,
                    seed=seed,
                    shm="on",
                    keep_pool=True,
                )
                first = executor.run(warmup)
            elapsed = time.perf_counter() - start
            setup_times.append(elapsed)
            layers.pool_start_s.append(
                elapsed - layers.load_s[-1] - first.stats.totals.total_s
            )
            layers.worker_init_s.append(first.stats.worker_init_s)
            layers.ship_bytes.append(first.stats.ship_bytes)
        assert executor is not None

        requests = [[program_query(q) for q in batch] for batch in schedule]
        for request in requests:  # warm: every template reaches the pool
            executor.run(request)
        gc.collect()

        tally = Tally()
        seen: List[Tuple[List[Query], Any]] = []
        for _ in timed_rounds(seconds):
            for batch, request in zip(schedule, requests):
                tracer.next_request()
                start = time.perf_counter()
                with tracer.span("request", "client"):
                    with tracer.span("BatchExecutor.run", "repro.core.executor"):
                        report = executor.run(request)
                elapsed = time.perf_counter() - start
                tally.latencies_ms.append(elapsed * 1e3)
                tally.busy_s += elapsed
                for query, result in zip(batch, report.results):
                    tally.judge(ref, query, result)
                if tally.rounds == 0 and len(batch) > 1 and len(seen) < SERIAL_SAMPLES:
                    seen.append((batch, report))
                if tracer.enabled:
                    for result in report.results:
                        # engine time as the worker measured it
                        layers.record(result, result.stats.total_s if result.stats else 0.0)
                    engine_s = report.stats.totals.total_s
                    if len(batch) == 1:
                        layers.single_ms.append(elapsed * 1e3)
                    else:
                        layers.batch_engine_s += engine_s
                        layers.batch_wall_s += elapsed
                        layers.batch_overhead_ms.append((elapsed - engine_s / WORKERS) * 1e3)
                    layers.plan_ms.extend(
                        r.stats.plan_s * 1e3 for r in report.results if r.stats is not None
                    )
            tally.rounds += 1
    finally:
        if executor is not None:
            executor.close()
    rss = peak_rss_mb(WORKERS)

    # the pool must answer exactly as a serial run of the same batch
    for batch, report in seen:
        serial = BatchExecutor(factory=factory_for(graph), backend="serial", seed=seed)
        expected = serial.run([program_query(q) for q in batch])
        for query, got, want in zip(batch, report.results, expected.results):
            if (got.reachable, got.path) != (want.reachable, want.path):
                tally.violations.append(
                    f"{query.regex} {query.source}->{query.target}: pool answered "
                    f"{got.reachable} {got.path}, serial {want.reachable} {want.path}"
                )
    return Outcome(tally, setup_times, rss, layers)


# -- live-rw -------------------------------------------------------------------

#: one round: WRITES blocks, each a write followed by READS // WRITES
#: reads.  The writes are WRITES // 2 changes followed by their inverses
#: in reverse order, so each round ends on the graph it started from and
#: every round replays the same graph states.
READS = 300
WRITES = 30
#: read groups, fixed per round.  Every fifth read uses the query-time
#: labels in reference.PREDICATES; the others are label reads by the
#: paper's generator.  The read right after each write (10 % of reads,
#: ~250 ms: it pays the view rebuild) draws from RAW_MIX, so p95 falls
#: inside that group; predicate negatives spend the whole walk budget on
#: the slow path (0.4-1.6 s each) and are kept to 1 % so they stay above
#: p95 without reaching it or dominating the round's time.  Dead reads
#: are kept to 12 % so p50 falls among the planning-bound label reads,
#: not at the edge of the dead ones.
RAW_MIX = {"dead": 3, "positive": 24, "negative": 3}
LABEL_MIX = {"dead": 27, "positive": 156, "negative": 27}
PREDICATE_MIX = {"dead": 6, "positive": 51, "negative": 3}


@dataclass
class Write:
    method: str
    args: Tuple[Any, ...]

    def apply(self, graph: Any) -> None:
        """Apply to the program's graph or to the checker's copy."""
        getattr(graph, self.method)(*self.args)


def write_pair(rng: Any, graph: RefGraph, kind: int) -> Tuple[Write, Write]:
    """A change and its inverse: follow, unfollow, new attributes, or a
    moved ``Place`` label."""
    n = graph.n
    while True:
        node = int(rng.integers(n))
        if kind == 0:
            other = int(rng.integers(n))
            if other != node and not graph.has_edge(node, other):
                return Write("add_edge", (node, other)), Write("remove_edge", (node, other))
        elif kind == 1:
            if graph.out[node]:
                followed = sorted(graph.out[node])
                other = followed[int(rng.integers(len(followed)))]
                return Write("remove_edge", (node, other)), Write("add_edge", (node, other))
        elif kind == 2:
            old = dict(graph.attrs[node])
            new = {
                "age": int(rng.integers(13, 80)),
                "gender": "Male" if old.get("gender") == "Female" else "Female",
            }
            return Write("set_node_attrs", (node, new)), Write("set_node_attrs", (node, old))
        else:
            old = sorted(graph.labels[node])
            place = f"Place:p{int(rng.integers(40))}"
            new = sorted([label for label in old if not label.startswith("Place:")] + [place])
            if new != old:
                return Write("set_node_labels", (node, new)), Write("set_node_labels", (node, old))


def live_schedule(seed: int, ref: RefGraph) -> List[Any]:
    """One round of writes and reads; each read's reference verdict is
    taken on the checker's graph as it stands at that read."""
    rng = rng_for(seed, 5)
    source = QuerySource(ref, rng_for(seed, 6))

    def shuffled(mix: Dict[str, int]) -> List[str]:
        groups = [g for g, n in mix.items() for _ in range(n)]
        return [groups[int(i)] for i in rng.permutation(len(groups))]

    raw, label, pred = shuffled(RAW_MIX), shuffled(LABEL_MIX), shuffled(PREDICATE_MIX)
    every = READS // WRITES
    pending: List[Write] = []
    schedule: List[Any] = []
    for i in range(READS):
        if i % every == 0:
            w = i // every
            if w < WRITES // 2:
                change, undo = write_pair(rng, ref, w % 4)
                pending.append(undo)
            else:
                change = pending.pop()
            change.apply(ref)
            schedule.append(change)
        predicates = i % 5 == 4
        group = (pred if predicates else raw if i % every == 0 else label).pop()
        for _ in range(20_000):
            # positives come from compatible walks, the rest from uniform endpoints
            query = source.query(*source.template(predicates), biased=group == "positive")
            if classify(query) == group:
                break
        else:
            raise RuntimeError(f"no {group} query found for read {i}")
        query.meta["group"] = group
        schedule.append(query)
    return schedule


def live_rw(seed: int, seconds: float, workdir: Path, tracer: Tracer) -> Outcome:
    spec = gplus_like(seed)
    path = workdir / "graph.json"
    spec.write_json(path)
    ref = spec.reference_graph()
    schedule = live_schedule(seed, ref)
    warm = warm_queries(QuerySource(ref, rng_for(seed, 7)), 4)
    registry = PredicateRegistry()
    for pred in PREDICATES.values():
        registry.register(pred.name, pred.fn)
    requests = [program_query(op, registry) if isinstance(op, Query) else op for op in schedule]
    layers = Layers()

    setup_times = []
    for _ in range(SETUPS):
        graph = engine = None
        graph, engine, elapsed = set_up(path, seed, tracer, layers, dynamic=True)
        setup_times.append(elapsed)

    tally = Tally()
    for _ in timed_rounds(seconds):
        if tally.rounds:
            # a fresh engine per round keeps every template new to it
            engine = new_engine(graph, seed, dynamic=True)
        warm_up(engine, seed, warm)
        compiles_before = engine.plan_cache.counters()["compiles"]
        after_write = False
        index = 0
        for op, request in zip(schedule, requests):
            if isinstance(op, Write):
                tracer.next_request()
                start = time.perf_counter()
                with tracer.span("request", "client"):
                    with tracer.span("LabeledGraph." + op.method, "repro.graph"):
                        try:
                            op.apply(graph)
                        except Exception:
                            tally.failed += 1
                elapsed = time.perf_counter() - start
                op.apply(ref)
                tally.busy_s += elapsed
                tally.attempted += 1
                if tracer.enabled:
                    layers.write_ms.append(elapsed * 1e3)
                after_write = True
                continue
            result, elapsed = ask(engine, request, seed, index, tracer, layers)
            index += 1
            tally.latencies_ms.append(elapsed * 1e3)
            tally.busy_s += elapsed
            tally.judge(ref, op, result)
            if tracer.enabled and after_write:
                layers.read_after_write_ms.append(elapsed * 1e3)
            after_write = False
        layers.compiles += engine.plan_cache.counters()["compiles"] - compiles_before
        tally.rounds += 1
    return Outcome(tally, setup_times, peak_rss_mb(), layers)


WORKLOADS = {
    "pool-templates": pool_templates,
    "live-rw": live_rw,
}
