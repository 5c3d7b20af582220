"""Parallel batch execution of RSPQ workloads.

ARRIVAL is index-free and per-query independent (Alg. 2), which makes a
workload embarrassingly parallel across queries.  :class:`BatchExecutor`
is the one place that parallelism lives: the router, the experiment
harness, the workload runner and the CLI all hand it a list of
:class:`~repro.queries.query.RSPQuery` and get back a
:class:`BatchReport` — per-query results in workload order plus the
aggregated :class:`~repro.core.stats.BatchStats`.

Three backends share one contract:

``serial``
    One engine, one thread, queries in order.  The reference backend:
    the parallel ones must reproduce its answers bit for bit.
``thread``
    A ``ThreadPoolExecutor`` with one engine *per worker thread* (built
    from the factory on first use).  Pure-Python engines do not escape
    the GIL, so this mainly helps once native sections release it; it
    exists chiefly as the cheap-setup middle ground.
``process``
    A persistent :class:`WorkerPool` with one engine per worker process
    (built by the factory in an initializer, so the graph is shipped
    once per worker, not once per query).  The factory must be
    picklable — ``functools.partial(make_engine, "arrival", graph,
    seed=7)`` is the canonical shape.  With ``shm`` enabled (the
    default ``"auto"``), a factory of that shape is rewritten so
    workers *attach* the graph through a zero-copy shared-memory plane
    (:mod:`repro.core.shm`) instead of rebuilding their own CSR views;
    with ``keep_pool=True`` the pool survives across :meth:`run` calls
    (engines, plan caches and attachments stay warm) and is revalidated
    against the graph stamp; and queries are dispatched in size-aware
    **chunks** (one future per chunk) to amortize IPC — per-query
    reseeding keeps answers bit-identical regardless of chunking.

**Determinism.**  With a batch ``seed``, answers are identical across
backends, worker counts and scheduling orders: every engine first pays
its one-time setup under a dedicated stream
(``SeedSequence(seed, spawn_key=(0,))`` then ``prepare()``), and query
``i`` always runs under its own child stream
(``SeedSequence(seed, spawn_key=(1, i))``) regardless of which worker
picks it up.  Without a seed, the serial backend preserves the legacy
behaviour of consuming the engine's own stream sequentially.

**Timeouts.**  ``timeout_s`` turns an overrunning query into a
structured :class:`TimeoutResult` instead of a hang.  On the pool
backends the deadline is enforced while waiting (the future is cancelled
or abandoned; workers past their deadline are not joined on shutdown —
abandoned *process* workers are terminated outright so they cannot block
interpreter exit, while an abandoned thread runs on to completion in the
background).
The serial backend cannot preempt a running query, so its timeout is
post-hoc: the query runs to completion and is then *reported* as timed
out — the uniform structural contract, best-effort semantics.

**Failures.**  ``fail_fast=True`` re-raises the first query error;
the default collects each error as a structured :class:`ErrorResult` in
the result slot so one poisoned query cannot sink a long batch.
"""

from __future__ import annotations

import functools
import pickle
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field, replace
from threading import Lock, local
from types import TracebackType
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
    cast,
)

import numpy as np

from repro import obs
from repro.core.engine import Engine
from repro.core.plan import GraphStamp, graph_stamp
from repro.core.result import QueryResult
from repro.core.shm import GraphPlane, GraphPlaneManifest, attach_bundle
from repro.core.stats import BatchStats
from repro.graph.labeled_graph import LabeledGraph
from repro.queries.query import RSPQuery

#: SeedSequence spawn keys: the engine's one-time setup stream and the
#: per-query streams live in disjoint branches of the seed tree
_SETUP_KEY = (0,)
_QUERY_BRANCH = 1


def _stream(seed: int, spawn_key: Tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


def setup_stream(seed: int) -> np.random.Generator:
    """The engine-setup RNG stream for a batch seed."""
    return _stream(seed, _SETUP_KEY)


def query_stream(seed: int, index: int) -> np.random.Generator:
    """The RNG stream under which query ``index`` always runs."""
    return _stream(seed, (_QUERY_BRANCH, index))


@dataclass
class TimeoutResult(QueryResult):
    """A query abandoned on its deadline (``reachable`` is a certain
    nothing: treat it as *unknown*, never as a negative answer)."""

    timeout_s: Optional[float] = None


@dataclass
class ErrorResult(QueryResult):
    """A query that raised; the batch carries on (collect-errors mode)."""

    error: str = ""
    error_type: str = ""

    @classmethod
    def from_exception(cls, exc: BaseException) -> "ErrorResult":
        return cls(
            reachable=False,
            method="error",
            error=str(exc),
            error_type=type(exc).__name__,
        )


@dataclass
class BatchReport:
    """Everything one :meth:`BatchExecutor.run` produced."""

    #: per-query results, in workload order (timeouts and collected
    #: errors appear in their slots as Timeout/ErrorResult)
    results: List[QueryResult]
    #: the aggregate fold (outcome counts, stage/counter totals,
    #: throughput)
    stats: BatchStats

    def answers(self) -> List[bool]:
        """The reachable bit per query — the determinism-sweep view."""
        return [bool(result.reachable) for result in self.results]


def _pass_query(query: RSPQuery) -> RSPQuery:
    """Identity — the thread backend ships queries by reference."""
    return query


def _sanitize_query(query: RSPQuery) -> RSPQuery:
    """Drop private meta entries (e.g. the cached compiled NFA) before a
    query crosses a process boundary; workers recompile locally."""
    if not any(key.startswith("_") for key in query.meta):
        return query
    return replace(
        query,
        meta={k: v for k, v in query.meta.items() if not k.startswith("_")},
    )


# -- process-backend worker state -------------------------------------------
# one engine per worker process, built by the pool initializer so the
# graph is deserialised once per worker instead of once per query
_WORKER_ENGINE: Optional[Engine] = None
_WORKER_SEED: Optional[int] = None
#: wall time the initializer spent building this worker's engine;
#: shipped home exactly once (with the worker's first result) and
#: summed into the batch's ``worker_init_s``
_WORKER_INIT_S: float = 0.0


class _ShmFactory:
    """A picklable factory that rebuilds its engine over a shm plane.

    The parent splits a ``functools.partial``-shaped factory around its
    :class:`~repro.graph.labeled_graph.LabeledGraph` argument; workers
    substitute the attached :class:`~repro.core.shm.SharedGraph` (plus
    the zero-copy view/interner/warm tables via
    ``engine.adopt_shared_plane``) so nothing graph-sized crosses the
    process boundary.
    """

    def __init__(
        self,
        func: Callable[..., Engine],
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
        slot: Union[int, str],
        manifest: GraphPlaneManifest,
    ) -> None:
        self.func = func
        self.args = args
        self.kwargs = kwargs
        self.slot = slot
        self.manifest = manifest

    def __call__(self) -> Engine:
        bundle = attach_bundle(self.manifest)
        args = list(self.args)
        kwargs = dict(self.kwargs)
        if isinstance(self.slot, int):
            args[self.slot] = bundle.graph
        else:
            kwargs[self.slot] = bundle.graph
        engine = self.func(*args, **kwargs)
        adopt = getattr(engine, "adopt_shared_plane", None)
        if callable(adopt):
            adopt(bundle.view, bundle.interner, bundle.warm_tables)
        return engine


def _process_init(
    factory: Callable[[], Engine],
    seed: Optional[int],
) -> None:
    global _WORKER_ENGINE, _WORKER_SEED, _WORKER_INIT_S
    start = time.perf_counter()
    engine = factory()
    if seed is not None:
        engine.reseed(setup_stream(seed))
        engine.prepare()
    _WORKER_ENGINE = engine
    _WORKER_SEED = seed
    _WORKER_INIT_S = time.perf_counter() - start


def _take_worker_init_s() -> float:
    """This worker's one-time init cost — nonzero on first call only."""
    global _WORKER_INIT_S
    init_s, _WORKER_INIT_S = _WORKER_INIT_S, 0.0
    return init_s


def _query_kwargs(check: str) -> Dict[str, str]:
    """Engine kwargs for one dispatch: ``check`` is only forwarded when
    paranoid mode is on, so plain protocol engines (and test doubles)
    without the parameter keep working at the default."""
    return {} if check == "off" else {"check": check}


#: result.info key carrying a worker's one-time init cost home
_INIT_S_KEY = "worker_init_s"


def _process_run(index: int, query: RSPQuery, check: str = "off") -> QueryResult:
    assert _WORKER_ENGINE is not None, "pool initializer did not run"
    if _WORKER_SEED is not None:
        _WORKER_ENGINE.reseed(query_stream(_WORKER_SEED, index))
    result = _WORKER_ENGINE.query(query, **_query_kwargs(check))
    init_s = _take_worker_init_s()
    if init_s:
        result.info[_INIT_S_KEY] = init_s
    return result


@dataclass
class _ChunkResult:
    """One chunk's results plus the worker-side bookkeeping to merge."""

    start: int
    results: List[QueryResult]
    worker_init_s: float = 0.0


def _chunk_run(
    start: int,
    queries: List[RSPQuery],
    check: str = "off",
    fail_fast: bool = False,
) -> _ChunkResult:
    """Run a contiguous chunk of the workload in one dispatch.

    Every query is still reseeded with its own
    ``query_stream(seed, index)`` before running, so the answers are
    bit-identical to per-query dispatch (and to the serial backend) no
    matter how the workload is chunked.  Per-query errors become
    :class:`ErrorResult` slots exactly like the serial collect-errors
    path; with ``fail_fast`` the first error propagates through the
    future.
    """
    assert _WORKER_ENGINE is not None, "pool initializer did not run"
    engine = _WORKER_ENGINE
    results: List[QueryResult] = []
    for offset, query in enumerate(queries):
        if _WORKER_SEED is not None:
            engine.reseed(query_stream(_WORKER_SEED, start + offset))
        try:
            results.append(engine.query(query, **_query_kwargs(check)))
        except Exception as exc:
            if fail_fast:
                raise
            results.append(ErrorResult.from_exception(exc))
    return _ChunkResult(
        start=start,
        results=results,
        worker_init_s=_take_worker_init_s(),
    )


@dataclass
class _FactoryParts:
    """A partial-shaped factory split around its graph argument."""

    func: Callable[..., Engine]
    args: Tuple[Any, ...]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    slot: Union[int, str] = 0
    graph: Optional[LabeledGraph] = None


def _split_factory(factory: Callable[[], Engine]) -> Optional[_FactoryParts]:
    """Locate the LabeledGraph inside a ``functools.partial`` factory.

    Returns None when the factory is not partial-shaped or carries no
    graph — the shm plane then has nothing to export and the legacy
    ship-by-value path is used.
    """
    if not isinstance(factory, functools.partial):
        return None
    for index, arg in enumerate(factory.args):
        if isinstance(arg, LabeledGraph):
            args = factory.args[:index] + (None,) + factory.args[index + 1 :]
            return _FactoryParts(
                func=factory.func,
                args=args,
                kwargs=dict(factory.keywords),
                slot=index,
                graph=arg,
            )
    for key, value in factory.keywords.items():
        if isinstance(value, LabeledGraph):
            kwargs = dict(factory.keywords)
            kwargs[key] = None
            return _FactoryParts(
                func=factory.func,
                args=factory.args,
                kwargs=kwargs,
                slot=key,
                graph=value,
            )
    return None


class WorkerPool:
    """A persistent process pool wired to a shared-memory graph plane.

    Owns the :class:`ProcessPoolExecutor`, the exported
    :class:`~repro.core.shm.GraphPlane` (when shm is enabled and the
    factory carries a graph) and the rewritten worker factory.  Created
    lazily by :class:`BatchExecutor` and — with ``keep_pool`` — reused
    across batches so worker engines, their plan caches and their shm
    attachments stay warm.  :meth:`reusable` revalidates a candidate
    reuse against the executor configuration *and* the graph stamp, so
    a mutated graph transparently gets a fresh plane and fresh workers.

    :meth:`close` is the single teardown path: it shuts the pool down,
    terminates abandoned (timed-out) workers, and releases the plane —
    which unlinks the shared segments once no owner remains.  Nothing
    leaks in ``/dev/shm`` even when workers are killed mid-query.
    """

    def __init__(
        self,
        factory: Callable[[], Engine],
        seed: Optional[int],
        workers: int,
        shm_mode: str,
        donor: Optional[Engine] = None,
    ) -> None:
        self.factory = factory
        self.seed = seed
        self.workers = workers
        self.shm_mode = shm_mode
        self.plane: Optional[GraphPlane] = None
        self.graph: Optional[LabeledGraph] = None
        self.stamp: Optional[GraphStamp] = None
        self._ship_bytes: Optional[int] = None
        self._shipped = False
        self._closed = False
        ship_factory: Callable[[], Engine] = factory
        if shm_mode != "off":
            parts = _split_factory(factory)
            if parts is None or parts.graph is None:
                if shm_mode == "on":
                    raise ValueError(
                        "shm='on' needs a factory shaped like "
                        "functools.partial(make_engine, name, graph, ...) "
                        "carrying a LabeledGraph argument"
                    )
            else:
                self.graph = parts.graph
                self.stamp = graph_stamp(parts.graph)
                plane_donor = (
                    donor
                    if donor is not None
                    and getattr(donor, "graph", None) is parts.graph
                    else None
                )
                self.plane = GraphPlane.export(parts.graph, engine=plane_donor)
                ship_factory = _ShmFactory(
                    parts.func,
                    parts.args,
                    parts.kwargs,
                    parts.slot,
                    self.plane.manifest,
                )
        self.ship_factory = ship_factory
        self._initargs: Tuple[Any, ...] = (
            ship_factory,
            seed,
        )
        self.pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_process_init,
            initargs=self._initargs,
        )

    @property
    def uses_shm(self) -> bool:
        """True when workers attach the graph instead of rebuilding it."""
        return self.plane is not None

    @property
    def ship_bytes(self) -> int:
        """Bytes of engine-building state made available to the pool.

        Legacy path: the pickled initializer payload (graph included)
        once per worker — what a spawn-based pool ships, and what each
        forked worker rebuilds privately.  Shm path: the plane's shared
        segments once, plus the (tiny) pickled factory per worker.
        """
        if self._ship_bytes is None:
            try:
                per_worker = len(
                    pickle.dumps(
                        self._initargs, protocol=pickle.HIGHEST_PROTOCOL
                    )
                )
            except Exception:
                per_worker = 0  # unpicklable under fork is still runnable
            total = per_worker * self.workers
            if self.plane is not None:
                total += self.plane.nbytes
            self._ship_bytes = total
        return self._ship_bytes

    def take_ship_bytes(self) -> int:
        """The shipping cost, charged to the first batch only — warm
        reuse ships nothing."""
        if self._shipped:
            return 0
        self._shipped = True
        return self.ship_bytes

    def reusable(
        self,
        factory: Optional[Callable[[], Engine]],
        seed: Optional[int],
        workers: int,
        shm_mode: str,
    ) -> bool:
        """Can this warm pool serve another batch of that shape?

        Identity of the factory object (not equality: a new partial
        over a new graph must rebuild), same seed/workers/shm mode,
        and — the staleness gate — an unchanged ``graph_stamp``: any
        mutation bumps the version and forces a fresh plane and fresh
        worker engines.
        """
        if self._closed:
            return False
        if (
            factory is not self.factory
            or seed != self.seed
            or workers != self.workers
            or shm_mode != self.shm_mode
        ):
            return False
        if self.graph is not None and graph_stamp(self.graph) != self.stamp:
            return False
        return True

    def close(self, *, abandoned: bool = False) -> None:
        """Tear down the pool and release the plane (idempotent).

        With ``abandoned=True`` (a query overran its deadline and its
        worker was given up on), live workers are terminated outright —
        concurrent.futures would otherwise re-join them at interpreter
        exit and hang on the stuck query.  The plane release still
        runs, so the terminated workers' shared segments are unlinked:
        no ``/dev/shm`` leak on the timeout path.
        """
        if self._closed:
            return
        self._closed = True
        # snapshot first: shutdown() clears the pool's process table
        workers = (
            dict(getattr(self.pool, "_processes", None) or {})
            if abandoned
            else {}
        )
        self.pool.shutdown(wait=not abandoned, cancel_futures=True)
        for worker in workers.values():
            if worker.is_alive():
                worker.terminate()
        plane, self.plane = self.plane, None
        if plane is not None:
            plane.release()


class BatchExecutor:
    """Run a workload of queries over an engine (see the module doc).

    Parameters
    ----------
    engine:
        A ready engine instance — serial backend only (engines are not
        safely shareable across workers).
    factory:
        Zero-argument engine builder; required for ``thread`` /
        ``process`` (one engine per worker) and usable for ``serial``.
        Must be picklable for ``process``.
    backend:
        ``"serial"`` (default), ``"thread"`` or ``"process"``.
    workers:
        Pool size for the parallel backends (default 4).
    seed:
        Batch seed for the deterministic per-query RNG streams.  None
        keeps the serial engine's own sequential stream (legacy
        behaviour) and leaves parallel answers scheduling-dependent for
        randomised engines.
    timeout_s:
        Per-query deadline -> :class:`TimeoutResult`.
    fail_fast:
        Re-raise the first query error instead of collecting
        :class:`ErrorResult` entries.
    max_in_flight:
        Bound on submitted-but-unfinished queries (default
        ``4 * workers``) so million-query workloads do not materialise
        a million futures.
    check:
        Paranoid mode, forwarded to every ``engine.query()`` call:
        ``"off"`` (default), ``"positives"`` (independent witness
        validation of positive answers) or ``"all"``.  A violation
        raises :class:`~repro.errors.WitnessViolationError`, which the
        batch collects as an :class:`ErrorResult` unless ``fail_fast``.
    shm:
        Process backend only.  ``"auto"`` (default) exports the
        factory's graph to a shared-memory plane when the factory is
        partial-shaped around a :class:`~repro.graph.labeled_graph.
        LabeledGraph` (workers attach zero-copy instead of rebuilding),
        falling back to ship-by-value otherwise; ``"on"`` requires the
        plane (raises if the factory carries no graph); ``"off"``
        restores the legacy path.  Ignored by serial/thread.
    chunk_size:
        Process backend only.  Queries per dispatched future:
        ``"auto"`` (default) sizes chunks to keep every worker busy
        with several waves; an int pins the size.  A ``timeout_s``
        forces per-query dispatch (1), since deadlines are enforced
        per future.  Chunking never changes answers — each query
        reseeds its own stream.
    keep_pool:
        Keep the process worker pool (and its shm attachments, worker
        engines and plan caches) warm across :meth:`run` calls on this
        executor.  The pool is revalidated against the graph stamp per
        run and must be released with :meth:`close` (or by using the
        executor as a context manager).  Default False: the pool is
        torn down after every batch, as before.
    """

    def __init__(
        self,
        engine: Optional[Engine] = None,
        *,
        factory: Optional[Callable[[], Engine]] = None,
        backend: str = "serial",
        workers: int = 4,
        seed: Optional[int] = None,
        timeout_s: Optional[float] = None,
        fail_fast: bool = False,
        max_in_flight: Optional[int] = None,
        check: str = "off",
        shm: str = "auto",
        chunk_size: Union[int, str] = "auto",
        keep_pool: bool = False,
    ) -> None:
        if backend not in ("serial", "thread", "process"):
            raise ValueError(
                f"backend must be 'serial', 'thread' or 'process', got {backend!r}"
            )
        if check not in ("off", "positives", "all"):
            raise ValueError(
                f"check must be 'off', 'positives' or 'all', got {check!r}"
            )
        if shm not in ("auto", "on", "off"):
            raise ValueError(
                f"shm must be 'auto', 'on' or 'off', got {shm!r}"
            )
        if isinstance(chunk_size, str):
            if chunk_size != "auto":
                raise ValueError(
                    f"chunk_size must be 'auto' or an int >= 1, got {chunk_size!r}"
                )
        elif chunk_size < 1:
            raise ValueError(
                f"chunk_size must be 'auto' or an int >= 1, got {chunk_size!r}"
            )
        if engine is None and factory is None:
            raise ValueError("provide an engine or a factory")
        if backend != "serial" and factory is None:
            raise ValueError(
                f"the {backend!r} backend needs a factory: engines hold "
                "per-instance caches and RNG state and are not safely "
                "shareable across workers"
            )
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.engine = engine
        self.factory = factory
        self.backend = backend
        self.workers = workers
        self.seed = seed
        self.timeout_s = timeout_s
        self.fail_fast = fail_fast
        self.max_in_flight = max_in_flight or 4 * workers
        self.check = check
        self.shm = shm
        self.chunk_size = chunk_size
        self.keep_pool = keep_pool
        self._tls = local()
        self._pool: Optional[WorkerPool] = None
        self._init_lock = Lock()
        self._run_worker_init_s = 0.0
        self._run_ship_bytes = 0

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the persistent worker pool, if one is alive."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(self, queries: Sequence[RSPQuery]) -> BatchReport:
        """Execute the workload; results come back in workload order."""
        queries = list(queries)
        start = time.perf_counter()
        self._run_worker_init_s = 0.0
        self._run_ship_bytes = 0
        with obs.span(
            "batch.run", backend=self.backend, queries=len(queries)
        ):
            if self.backend == "serial" or len(queries) <= 1:
                results = self._run_serial(queries)
            elif self.backend == "thread":
                results = self._run_pool(queries)
            else:
                results = self._run_process(queries)
        wall_s = time.perf_counter() - start
        stats = BatchStats.aggregate(results, wall_s)
        stats.worker_init_s = self._run_worker_init_s
        stats.ship_bytes = self._run_ship_bytes
        stats.totals.worker_init_s = self._run_worker_init_s
        stats.totals.ship_bytes = self._run_ship_bytes
        return BatchReport(results=results, stats=stats)

    # ------------------------------------------------------------------
    def _build_engine(self) -> Engine:
        assert self.factory is not None  # enforced in __init__
        engine = self.factory()
        if self.seed is not None:
            engine.reseed(setup_stream(self.seed))
            engine.prepare()
        return engine

    def _serial_engine(self) -> Engine:
        if self.engine is not None:
            engine = self.engine
            if self.seed is not None:
                engine.reseed(setup_stream(self.seed))
                engine.prepare()
            return engine
        return self._build_engine()

    def _run_serial(self, queries: List[RSPQuery]) -> List[QueryResult]:
        init_start = time.perf_counter()
        engine = self._serial_engine()
        self._run_worker_init_s += time.perf_counter() - init_start
        results: List[QueryResult] = []
        for index, query in enumerate(queries):
            if self.seed is not None:
                engine.reseed(query_stream(self.seed, index))
            start = time.perf_counter()
            try:
                result = engine.query(query, **_query_kwargs(self.check))
            except Exception as exc:
                if self.fail_fast:
                    raise
                results.append(ErrorResult.from_exception(exc))
                continue
            elapsed = time.perf_counter() - start
            if self.timeout_s is not None and elapsed > self.timeout_s:
                # post-hoc: serial execution cannot preempt (module doc)
                result = TimeoutResult(
                    reachable=False,
                    method=result.method,
                    timed_out=True,
                    timeout_s=self.timeout_s,
                )
            results.append(result)
        return results

    # ------------------------------------------------------------------
    def _thread_engine(self) -> Engine:
        engine: Optional[Engine] = getattr(self._tls, "engine", None)
        if engine is None:
            init_start = time.perf_counter()
            engine = self._build_engine()
            init_s = time.perf_counter() - init_start
            with self._init_lock:
                self._run_worker_init_s += init_s
            self._tls.engine = engine
        return engine

    def _thread_run(
        self, index: int, query: RSPQuery, check: str = "off"
    ) -> QueryResult:
        engine = self._thread_engine()
        if self.seed is not None:
            engine.reseed(query_stream(self.seed, index))
        return engine.query(query, **_query_kwargs(check))

    def _dispatch(
        self,
        pool: Executor,
        run: Callable[[int, RSPQuery, str], QueryResult],
        prepare_query: Callable[[RSPQuery], RSPQuery],
        queries: List[RSPQuery],
    ) -> Tuple[List[QueryResult], bool]:
        """Per-query dispatch with deadlines; returns (results, abandoned)."""
        n = len(queries)
        results: List[Optional[QueryResult]] = [None] * n
        #: future -> (index, deadline or None)
        pending: Dict["Future[QueryResult]", Tuple[int, Optional[float]]] = {}
        next_index = 0
        abandoned = False
        while next_index < n or pending:
            while next_index < n and len(pending) < self.max_in_flight:
                future = pool.submit(
                    run,
                    next_index,
                    prepare_query(queries[next_index]),
                    self.check,
                )
                deadline = (
                    time.monotonic() + self.timeout_s
                    if self.timeout_s is not None
                    else None
                )
                pending[future] = (next_index, deadline)
                next_index += 1
            wait_s: Optional[float] = None
            if self.timeout_s is not None:
                now = time.monotonic()
                deadlines = [
                    d for _, d in pending.values() if d is not None
                ]
                if deadlines:
                    wait_s = max(0.0, min(deadlines) - now)
            done, _ = wait(
                set(pending), timeout=wait_s, return_when=FIRST_COMPLETED
            )
            for future in done:
                index, _ = pending.pop(future)
                exc = future.exception()
                if exc is not None:
                    if self.fail_fast:
                        raise exc
                    results[index] = ErrorResult.from_exception(exc)
                else:
                    result = future.result()
                    init_s = result.info.pop(_INIT_S_KEY, None)
                    if init_s:
                        self._run_worker_init_s += float(init_s)
                    results[index] = result
            if self.timeout_s is not None:
                now = time.monotonic()
                for future in list(pending):
                    index, deadline = pending[future]
                    if deadline is not None and now >= deadline:
                        # cancel if still queued; a running worker is
                        # abandoned (not joined on shutdown)
                        future.cancel()
                        del pending[future]
                        abandoned = True
                        results[index] = TimeoutResult(
                            reachable=False,
                            method="timeout",
                            timed_out=True,
                            timeout_s=self.timeout_s,
                        )
        # every slot is filled on exit: completed, errored or timed out
        return cast(List[QueryResult], results), abandoned

    def _run_pool(self, queries: List[RSPQuery]) -> List[QueryResult]:
        """Thread backend: a fresh pool per run (threads are cheap)."""
        pool = ThreadPoolExecutor(max_workers=self.workers)
        abandoned = False
        try:
            results, abandoned = self._dispatch(
                pool, self._thread_run, _pass_query, queries
            )
        finally:
            # an abandoned thread cannot be killed; it runs to
            # completion in the background while the batch returns
            pool.shutdown(wait=not abandoned, cancel_futures=True)
        return results

    # ------------------------------------------------------------------
    # process backend: persistent pool + shm plane + chunked dispatch
    # ------------------------------------------------------------------
    def _acquire_pool(self) -> WorkerPool:
        pool = self._pool
        if pool is not None:
            if pool.reusable(self.factory, self.seed, self.workers, self.shm):
                return pool
            self._pool = None
            pool.close()
        assert self.factory is not None  # enforced in __init__
        pool = WorkerPool(
            factory=self.factory,
            seed=self.seed,
            workers=self.workers,
            shm_mode=self.shm,
            donor=self.engine,
        )
        self._pool = pool
        return pool

    def _resolve_chunk(self, n: int) -> int:
        if self.timeout_s is not None:
            # deadlines are enforced per future: chunking would let one
            # slow query time out its innocent chunk-mates
            return 1
        if isinstance(self.chunk_size, int):
            return self.chunk_size
        # auto: several waves per worker for load balance, bounded so a
        # straggler chunk cannot serialise the tail of the batch
        return max(1, min(32, -(-n // (self.workers * 4))))

    def _run_process(self, queries: List[RSPQuery]) -> List[QueryResult]:
        pool = self._acquire_pool()
        self._run_ship_bytes = pool.take_ship_bytes()
        abandoned = False
        failed = False
        try:
            chunk = self._resolve_chunk(len(queries))
            if chunk <= 1:
                results, abandoned = self._dispatch(
                    pool.pool, _process_run, _sanitize_query, queries
                )
            else:
                results = self._dispatch_chunks(pool, queries, chunk)
        except BaseException:
            failed = True
            raise
        finally:
            if abandoned or failed:
                # a pool with killed or suspect workers is never reused;
                # close() also releases the shm plane, so the terminated
                # workers' segments are unlinked (no /dev/shm leak)
                self._pool = None
                pool.close(abandoned=abandoned)
            elif not self.keep_pool:
                self._pool = None
                pool.close()
        return results

    def _dispatch_chunks(
        self, pool: WorkerPool, queries: List[RSPQuery], size: int
    ) -> List[QueryResult]:
        """One future per contiguous chunk; answers identical to
        per-query dispatch (each query reseeds its own stream)."""
        n = len(queries)
        results: List[Optional[QueryResult]] = [None] * n
        starts = list(range(0, n, size))
        max_chunks = max(1, self.max_in_flight // size)
        pending: Dict["Future[_ChunkResult]", int] = {}
        next_chunk = 0
        while next_chunk < len(starts) or pending:
            while next_chunk < len(starts) and len(pending) < max_chunks:
                start = starts[next_chunk]
                batch = [
                    _sanitize_query(query)
                    for query in queries[start : start + size]
                ]
                future = pool.pool.submit(
                    _chunk_run, start, batch, self.check, self.fail_fast
                )
                pending[future] = start
                next_chunk += 1
            done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
            for future in done:
                start = pending.pop(future)
                exc = future.exception()
                if exc is not None:
                    if self.fail_fast:
                        raise exc
                    # per-query errors were collected inside the chunk;
                    # reaching here means the dispatch itself died
                    # (worker crash) — poison the whole chunk's slots
                    for index in range(start, min(start + size, n)):
                        results[index] = ErrorResult.from_exception(exc)
                    continue
                chunk_result = future.result()
                self._run_worker_init_s += chunk_result.worker_init_s
                for offset, result in enumerate(chunk_result.results):
                    results[start + offset] = result
        return cast(List[QueryResult], results)
