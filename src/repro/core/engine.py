"""The unified engine protocol.

Every query engine in the system — ARRIVAL, the exhaustive baselines,
the LCR indexes, the router — answers the same problem, yet before this
module each exposed its own ad-hoc ``query()`` glue and every consumer
(router, experiment harness, workload runner, CLI) re-implemented the
positional-vs-object normalisation.  This module centralises that
surface:

* :class:`EngineCapabilities` — what an engine can do, queryable without
  running it: exact vs approximate answers, predicate (query-time label)
  support, whether an index must be built, the regex fragment, path
  semantics, dynamic-graph support, distance-bound support.
* :class:`Engine` — the structural protocol: ``name``, ``capabilities``,
  ``query(RSPQuery) -> QueryResult``, plus the hooks the batch executor
  relies on (``reseed`` for deterministic per-query RNG streams,
  ``prepare`` for paying one-time setup under a controlled stream).
* :class:`EngineBase` — the shared implementation: *one* normalisation
  of the public query surface (positional ``(source, target, regex)``
  or a single :class:`~repro.queries.query.RSPQuery`), capability
  derivation from the per-engine class flags, stats attachment, and the
  default ``reseed``/``prepare``.

Since the plan/execute split (:mod:`repro.core.plan`), every query runs
in two stages the base class wires together:

* ``prepare(query) -> Plan`` — canonicalize + fingerprint the regex,
  resolve compiled automata and parameter estimates through the
  engine's :class:`~repro.core.plan.PlanCache`;
* ``execute(plan) -> QueryResult`` — run the prepared plan.

``query()`` is now exactly ``execute(prepare(query))``.  Engines
implement ``_execute(plan, **engine_kwargs)`` (the default falls back
to the legacy ``_query(query, **engine_kwargs)`` hook, so simple
engines and test doubles keep working unchanged) and may override
``_plan_params`` to cache per-template parameter estimates and
``_prepare_engine`` for one-time setup.

* :func:`make_engine` / :func:`engine_names` — the engine registry the
  CLI and benchmarks build from (lazy imports; the registry is the one
  place that knows every concrete engine).
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    Type,
    Union,
    cast,
    runtime_checkable,
)

from repro import obs
from repro.core.plan import Plan, PlanCache, compile_query, plan_query
from repro.core.result import QueryResult
from repro.core.stats import ExecStats
from repro.errors import (
    QueryError,
    UnsupportedQueryError,
    WitnessViolationError,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.labels import PredicateRegistry
from repro.queries.query import RSPQuery
from repro.regex.compiler import CompiledRegex, RegexLike
from repro.rng import RngLike, ensure_rng

#: the first positional argument of the public query surface: a node id
#: (then ``target`` and ``regex`` must follow) or one whole RSPQuery
QueryInput = Union[int, RSPQuery]


@dataclass(frozen=True)
class EngineCapabilities:
    """What one engine can answer, decided without running a query."""

    #: completed answers are exact; False for sampling engines whose
    #: negatives are one-sided (ARRIVAL, and AUTO which may route there)
    exact: bool
    #: accepts query-time predicate labels (Definition 7)
    supports_predicates: bool
    #: must build (and can fail to build) an index before answering
    needs_index: bool
    #: full regular-expression constraints vs a restricted fragment
    full_regex: bool = True
    #: witnesses are guaranteed simple (RSPQ semantics) vs arbitrary-path
    simple_paths: bool = True
    #: usable on dynamic graphs without a rebuild-the-world step
    dynamic: bool = True
    #: understands ``distance_bound`` / ``min_distance`` constraints
    distance_bounds: bool = False


@runtime_checkable
class Engine(Protocol):
    """Structural protocol every query engine satisfies."""

    name: str

    @property
    def capabilities(self) -> EngineCapabilities:
        """Static description of what this engine can answer."""
        ...

    def query(
        self,
        source: QueryInput,
        target: Optional[int] = None,
        regex: Optional[RegexLike] = None,
        **kwargs: Any,
    ) -> QueryResult:
        """Answer one RSPQ (positional fields or one RSPQuery)."""
        ...

    def reseed(self, seed: RngLike) -> None:
        """Replace the engine's RNG stream (no-op for deterministic
        engines)."""
        ...

    def prepare(
        self,
        source: Optional[QueryInput] = None,
        target: Optional[int] = None,
        regex: Optional[RegexLike] = None,
    ) -> Optional[Plan]:
        """No arguments: pay one-time setup (parameter estimation,
        index build) now.  With a query: resolve it to a reusable
        :class:`~repro.core.plan.Plan` through the plan cache."""
        ...

    def execute(self, plan: Plan, **kwargs: Any) -> QueryResult:
        """Run one prepared plan."""
        ...


def as_query(
    source: QueryInput,
    target: Optional[int] = None,
    regex: Optional[RegexLike] = None,
    *,
    predicates: Optional[PredicateRegistry] = None,
    distance_bound: Optional[int] = None,
    min_distance: Optional[int] = None,
) -> RSPQuery:
    """Normalise the two public call forms into one :class:`RSPQuery`.

    ``source`` may be an :class:`RSPQuery` carrying every field (then
    the keyword arguments act as per-call overrides), or the first of
    the positional ``(source, target, regex)`` triple.
    """
    if isinstance(source, RSPQuery):
        query = source
        if (
            predicates is None
            and distance_bound is None
            and min_distance is None
        ):
            return query
        meta = {
            key: value
            for key, value in query.meta.items()
            if not key.startswith("_")  # the compiled cache may be stale
        }
        return replace(
            query,
            predicates=predicates if predicates is not None else query.predicates,
            distance_bound=(
                distance_bound if distance_bound is not None
                else query.distance_bound
            ),
            min_distance=(
                min_distance if min_distance is not None
                else query.min_distance
            ),
            meta=meta,
        )
    if target is None or regex is None:
        raise QueryError(
            "query() needs (source, target, regex) or one RSPQuery"
        )
    return RSPQuery(
        source,
        target,
        regex,
        predicates=predicates,
        distance_bound=distance_bound,
        min_distance=min_distance,
    )


class EngineBase:
    """Shared engine plumbing (see the module docstring).

    Subclasses set the class flags below and implement
    ``_query(self, query: RSPQuery, **kwargs) -> QueryResult``; the
    public :meth:`query` handles argument normalisation, capability
    enforcement for distance bounds, and stats attachment.
    """

    name = "?"
    # legacy per-engine flags (kept: tests and docs reference them);
    # :attr:`capabilities` is derived from them
    supports_full_regex = True
    supports_query_time_labels = True
    supports_dynamic = True
    index_free = True
    enforces_simple_paths = True
    #: True when completed answers can still be wrong on the negative
    #: side (the sampling engines)
    approximate = False
    #: True when ``distance_bound`` / ``min_distance`` are honoured
    supports_distance_bounds = False
    #: negation compilation mode; engines taking it as a constructor
    #: argument overwrite the class default on the instance
    negation_mode: str = "paper"
    #: the engine's plan cache; created lazily, or injected at
    #: construction so several engines (the router and its sub-engines,
    #: a serving fleet) share prepared artifacts
    plan_cache: Optional[PlanCache] = None

    @property
    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            exact=not self.approximate,
            supports_predicates=self.supports_query_time_labels,
            needs_index=not self.index_free,
            full_regex=self.supports_full_regex,
            simple_paths=self.enforces_simple_paths,
            dynamic=self.supports_dynamic,
            distance_bounds=self.supports_distance_bounds,
        )

    def query(
        self,
        source: QueryInput,
        target: Optional[int] = None,
        regex: Optional[RegexLike] = None,
        *,
        predicates: Optional[PredicateRegistry] = None,
        distance_bound: Optional[int] = None,
        min_distance: Optional[int] = None,
        check: str = "off",
        **kwargs: Any,
    ) -> QueryResult:
        """Answer one RSPQ through this engine.

        Accepts positional ``(source, target, regex)`` or one
        :class:`RSPQuery` as the sole positional argument; extra keyword
        arguments are engine-specific (e.g. ARRIVAL's ``*_scale``).

        ``check`` is paranoid mode: ``"positives"`` re-validates every
        witnessed positive answer through the independent oracle
        (:mod:`repro.verify`), ``"all"`` additionally checks record
        consistency on negatives.  A violated invariant raises
        :class:`~repro.errors.WitnessViolationError`; the check is
        timed into ``stats.oracle_s`` and counted in
        ``stats.oracle_checks`` / ``stats.oracle_violations``.

        Internally this is exactly ``execute(prepare(query))``: the
        query is resolved to a :class:`~repro.core.plan.Plan` through
        the engine's plan cache, then the plan runs.
        """
        if check not in ("off", "positives", "all"):
            raise QueryError(
                f"check must be 'off', 'positives' or 'all', got {check!r}"
            )
        query = as_query(
            source,
            target,
            regex,
            predicates=predicates,
            distance_bound=distance_bound,
            min_distance=min_distance,
        )
        started = time.perf_counter()
        with obs.span("engine.query", engine=self.name):
            plan = self._plan_for(query)
            return self._finish(
                plan, check=check, kwargs=kwargs, started=started
            )

    # -- the plan/execute split ----------------------------------------
    def prepare(
        self,
        source: Optional[QueryInput] = None,
        target: Optional[int] = None,
        regex: Optional[RegexLike] = None,
        *,
        predicates: Optional[PredicateRegistry] = None,
        distance_bound: Optional[int] = None,
        min_distance: Optional[int] = None,
    ) -> Optional[Plan]:
        """One-time setup, or plan one query for later execution.

        Called with no arguments (the legacy surface, what the batch
        executor does before a run) it pays the engine's one-time setup
        — parameter estimation, index builds, CSR views — via the
        :meth:`_prepare_engine` hook and returns ``None``.

        Called with a query (positional triple or one
        :class:`~repro.queries.query.RSPQuery`) it resolves the query
        through the plan cache and returns a reusable
        :class:`~repro.core.plan.Plan` for :meth:`execute`.
        """
        if source is None:
            if target is not None or regex is not None:
                raise QueryError(
                    "prepare() needs (source, target, regex), one "
                    "RSPQuery, or no arguments at all"
                )
            self._prepare_engine()
            return None
        query = as_query(
            source,
            target,
            regex,
            predicates=predicates,
            distance_bound=distance_bound,
            min_distance=min_distance,
        )
        return self._plan_for(query)

    def execute(
        self, plan: Plan, *, check: str = "off", **kwargs: Any
    ) -> QueryResult:
        """Run one prepared plan (see :meth:`query` for ``check``).

        A plan may be executed repeatedly; its one-time planning cost
        is folded into the stats of the first execution only.
        """
        if check not in ("off", "positives", "all"):
            raise QueryError(
                f"check must be 'off', 'positives' or 'all', got {check!r}"
            )
        return self._finish(
            plan, check=check, kwargs=kwargs, started=time.perf_counter()
        )

    def _plan_for(self, query: RSPQuery) -> Plan:
        """Capability-check and plan one normalised query."""
        if (
            (query.distance_bound is not None or query.min_distance is not None)
            and not self.supports_distance_bounds
        ):
            raise UnsupportedQueryError(
                f"{self.name} does not support distance-bounded queries"
            )
        start = time.perf_counter()
        with obs.span("engine.plan", engine=self.name):
            plan = plan_query(self, query, self._ensure_plan_cache())
        plan.plan_s = time.perf_counter() - start
        return plan

    def _finish(
        self,
        plan: Plan,
        *,
        check: str,
        kwargs: Dict[str, Any],
        started: float,
    ) -> QueryResult:
        """Execute ``plan`` and attach stats (the shared back half of
        :meth:`query` and :meth:`execute`).

        Raises :class:`TypeError`, naming the engine, when ``_execute``
        returns anything but a :class:`QueryResult`."""
        plan_s, compile_s, params_s, hit, evictions = plan.consume_counters()
        with obs.span("engine.execute", engine=self.name) as span:
            result = self._execute(plan, **kwargs)
            if not isinstance(result, QueryResult):
                raise TypeError(
                    f"{self.name} _execute returned "
                    f"{type(result).__name__}, not a QueryResult"
                )
            span.set_attr("reachable", bool(result.reachable))
        elapsed = time.perf_counter() - started
        stats = result.stats
        if stats is None:
            stats = ExecStats(engine=self.name)
            result.stats = stats
        if not stats.engine:
            stats.engine = self.name
        stats.total_s = elapsed
        stats.plan_s += plan_s
        stats.compile_s += compile_s
        stats.params_s += params_s
        if hit is not None:
            if hit:
                stats.plan_hits += 1
            else:
                stats.plan_misses += 1
            stats.plan_evictions += evictions
        stats.expansions = result.expansions
        stats.jumps = result.jumps
        if check != "off":
            self._oracle_check(plan.query, result, stats, check)
        if obs.enabled():
            stats.publish(obs.metrics())
        return result

    def _ensure_plan_cache(self) -> PlanCache:
        """The engine's plan cache, created on first use."""
        cache = self.plan_cache
        if cache is None:
            cache = PlanCache()
            self.plan_cache = cache
        return cache

    def compile(
        self,
        regex: RegexLike,
        predicates: Optional[PredicateRegistry] = None,
    ) -> CompiledRegex:
        """Compile a regex through the planner's memoised funnel.

        This (or ``prepare``) is how engine code obtains compiled
        automata; calling :func:`repro.regex.compiler.compile_regex`
        directly from engine modules is flagged by lint rule PLN001.
        """
        return compile_query(
            regex,
            predicates,
            str(self.negation_mode),
            cache=self._ensure_plan_cache(),
        )

    def _plan_scope(self) -> Tuple[Any, ...]:
        """The engine half of the plan-cache key.

        Two engines (or two configurations of one engine) whose scopes
        differ never reuse each other's :class:`PlanArtifact` — though
        they still share compiled automata via the fingerprint memo.
        """
        return (self.name, str(self.negation_mode), self.capabilities)

    def _plan_params(
        self, query: RSPQuery, compiled: CompiledRegex
    ) -> Dict[str, Any]:
        """Per-template parameter estimates to cache in the plan
        artifact (default: none).  ARRIVAL caches walk length and
        numWalks here."""
        return {}

    def _execute(self, plan: Plan, **kwargs: Any) -> QueryResult:
        """Run one prepared plan (engine hook).

        The default delegates to the legacy ``_query`` hook so engines
        and test doubles that predate the plan split keep working; the
        ported engines override this and read ``plan.compiled`` /
        ``plan.params`` instead of recompiling.
        """
        return self._query(plan.query, **kwargs)

    def _oracle_check(
        self,
        query: RSPQuery,
        result: QueryResult,
        stats: ExecStats,
        mode: str,
    ) -> None:
        """Run the independent witness oracle over one finished result.

        The import is lazy and function-local on purpose: the engine
        layer must not depend on the oracle layer at module level (the
        oracle exists to check the engines — lint rule VER001), but the
        serving path still needs a hook to invoke it.  This is the one
        sanctioned crossing.
        """
        from repro.verify.witness import check_result  # repro: noqa[VER001]

        start = time.perf_counter()
        with obs.span("verify.check", engine=self.name, mode=mode):
            report = check_result(
                getattr(self, "graph", None),
                query,
                result,
                expect_simple=self.enforces_simple_paths,
                elements=getattr(self, "elements", None),
                mode=mode,
            )
        elapsed = time.perf_counter() - start
        stats.oracle_s += elapsed
        stats.total_s += elapsed
        if report.checked:
            stats.oracle_checks += 1
        if not report.ok:
            stats.oracle_violations += 1
            raise WitnessViolationError(
                f"{self.name} violated the {report.invariant!r} invariant "
                f"on {query}: {report.detail}",
                invariant=report.invariant or "",
            )

    def _query(self, query: RSPQuery, **kwargs: Any) -> QueryResult:
        raise NotImplementedError

    def reseed(self, seed: RngLike) -> None:
        """Replace the engine's RNG stream.

        The batch executor calls this with a per-query child generator
        so answers are independent of worker count and scheduling.  The
        default covers every engine holding its randomness in ``rng``;
        deterministic engines (no ``rng`` attribute) ignore it.
        """
        if hasattr(self, "rng"):
            self.rng = ensure_rng(seed)

    def _prepare_engine(self) -> None:
        """Pay one-time setup now (default: nothing to do).

        Engines with lazily estimated parameters or lazily built views
        override this so the executor can trigger that work (via
        no-argument :meth:`prepare`) under a dedicated, deterministic
        setup stream instead of whichever query happens to run first.
        """

    def adopt_shared_plane(
        self,
        view: Any,
        interner: Any,
        warm_tables: Optional[Mapping[Any, Any]] = None,
    ) -> None:
        """Adopt an attached shared-memory graph plane (default: no-op).

        Process workers built over a :mod:`repro.core.shm` plane call
        this right after construction.  Engines that keep their own CSR
        views override it to reuse the attached zero-copy arrays —
        and, optionally, the shipped warm transition tables — instead
        of rebuilding per worker; everything else safely ignores it.
        """


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
#: name -> (module, class, accepts a ``seed`` kwarg)
_ENGINE_SPECS: Dict[str, Tuple[str, str, bool]] = {
    "arrival": ("repro.core.arrival", "Arrival", True),
    "auto": ("repro.core.router", "AutoEngine", True),
    "bfs": ("repro.baselines.bfs", "BFSEngine", False),
    "bbfs": ("repro.baselines.bbfs", "BBFSEngine", False),
    "rl": ("repro.baselines.rare_labels", "RareLabelsEngine", False),
    "li": ("repro.baselines.landmark", "LandmarkIndex", False),
    "zou": ("repro.baselines.label_closure", "LabelClosureIndex", False),
    "fan": ("repro.baselines.fan", "FanEngine", False),
}


def engine_names() -> List[str]:
    """Registered engine names, sorted."""
    return sorted(_ENGINE_SPECS)


def engine_class(name: str) -> Type[EngineBase]:
    """The engine class registered under ``name`` (lazy import)."""
    try:
        module_name, class_name, _ = _ENGINE_SPECS[name]
    except KeyError:
        raise QueryError(
            f"unknown engine {name!r}; known: {', '.join(engine_names())}"
        ) from None
    return cast(
        Type[EngineBase],
        getattr(importlib.import_module(module_name), class_name),
    )


def make_engine(
    name: str,
    graph: LabeledGraph,
    *,
    seed: RngLike = None,
    **kwargs: Any,
) -> EngineBase:
    """Build a registered engine over ``graph``.

    ``seed`` is forwarded only to engines that take one.  This function
    is a plain top-level callable, so ``functools.partial(make_engine,
    "arrival", graph, seed=7)`` is a picklable zero-argument factory —
    exactly what the process backend of
    :class:`~repro.core.executor.BatchExecutor` needs.
    """
    factory: Callable[..., EngineBase] = engine_class(name)
    if _ENGINE_SPECS[name][2] and seed is not None:
        kwargs["seed"] = seed
    return factory(graph, **kwargs)
