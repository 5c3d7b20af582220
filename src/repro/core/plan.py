"""Compile-once query plans: canonicalize -> plan -> execute.

ARRIVAL is index-free, so before this module every query paid its whole
setup cost again — regex parsing, Thompson NFA construction, NFA
reversal, the static analyses, walkLength/numWalks estimation — even
when a serving workload repeats the same handful of query templates
thousands of times over a slowly-changing graph.  This module is the
seam that makes that cost pay once:

1. **Canonicalization & fingerprinting** (:func:`canonicalize`,
   :func:`fingerprint_regex`).  The regex AST is normalised — alternation
   is commutative and idempotent, so ``Alt`` branches are sorted and
   deduplicated, recursively — and the canonical source text plus the
   negation mode are hashed (sha256) into a process-stable *query
   fingerprint*.  Textual variants such as ``(a|b)*`` and ``(b|a)*``
   therefore share one compiled artifact.  Canonical compilation is
   answer-preserving even for the sampling engines: the walk loop's RNG
   draws depend only on semantic facts about the automaton (state-set
   emptiness, acceptance, meeting-set intersection), and those are
   invariant under branch permutation (an NFA isomorphism) and duplicate
   removal (a bisimulation).
2. **The plan cache** (:class:`PlanCache`).  An LRU, size-bounded,
   version-invalidated cache of :class:`PlanArtifact` records keyed on
   ``(graph id, graph version, query fingerprint, engine scope)``.  The
   graph half of the key comes from :func:`graph_stamp` —
   :class:`~repro.graph.labeled_graph.LabeledGraph`'s monotone mutation
   counter plus a per-instance token — so any mutation silently
   invalidates every plan built on the old snapshot.  The compiled
   automaton bundle itself is memoised one level deeper, keyed by
   fingerprint alone, so *different engines* (or the same engine with
   different parameter scopes) share NFAs.  Hit/miss/evict/compile-time
   counters surface through ``ExecStats``/``BatchStats``.
3. **Planning** (:func:`plan_query`).  ``EngineBase.prepare(query)``
   lands here: resolve the fingerprint, look up or build the artifact
   (compiled regex + engine parameter estimates), and hand back a
   :class:`Plan` the engine's ``_execute`` consumes.  Queries carrying a
   query-time predicate registry (arbitrary callables — not
   fingerprintable) bypass the cache and are planned fresh, which keeps
   Definition-7 queries correct without a second code path.

The module also hosts the cost model the router uses
(:class:`GraphProfile`, :func:`rank_routes`): per-engine cost estimates
over the graph's label-frequency profile and the engines' declared
capabilities, replacing the old inline ``if`` ladder.

This is the **one** module of the engine layer allowed to call
:func:`repro.regex.compiler.compile_regex` outside an engine's
``prepare`` hook — lint rule PLN001 enforces the funnel.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.stats import label_frequency_distribution
from repro.lru import LRUCache
from repro.queries.query import RSPQuery
from repro.regex.ast_nodes import (
    Alt,
    Concat,
    Negation,
    Optional as OptionalNode,
    Plus,
    Regex,
    Repeat,
    Star,
)
from repro.regex.compiler import CompiledRegex, RegexLike, compile_regex
from repro.regex.parser import parse_regex

__all__ = [
    "EngineCost",
    "GraphProfile",
    "GraphStamp",
    "Plan",
    "PlanArtifact",
    "PlanCache",
    "adopt_stamp",
    "canonicalize",
    "compile_query",
    "fingerprint_regex",
    "graph_profile",
    "graph_stamp",
    "plan_query",
    "rank_routes",
]


# ---------------------------------------------------------------------------
# canonicalization & fingerprinting
# ---------------------------------------------------------------------------
def canonicalize(ast: Regex) -> Regex:
    """The canonical form of a regex AST.

    Alternation is commutative and idempotent, so ``Alt`` branches are
    canonicalized recursively, deduplicated (structural equality) and
    sorted by their printed form; every other node keeps its structure
    (concatenation order is semantic).  The result prints to a stable
    *canonical source*, the textual half of the query fingerprint.
    """
    if isinstance(ast, Alt):
        branches: List[Regex] = []
        for part in ast.parts:
            canon = canonicalize(part)
            # Alt flattens nested Alts in its constructor; replicate for
            # branches that only became Alt-shaped after recursion
            if isinstance(canon, Alt):
                branches.extend(canon.parts)
            else:
                branches.append(canon)
        unique: List[Regex] = []
        for branch in branches:
            if branch not in unique:
                unique.append(branch)
        unique.sort(key=str)
        if len(unique) == 1:
            return unique[0]
        return Alt(unique)
    if isinstance(ast, Concat):
        return Concat([canonicalize(part) for part in ast.parts])
    if isinstance(ast, Repeat):
        return Repeat(
            canonicalize(ast.inner), ast.min_count, ast.max_count
        )
    if isinstance(ast, Star):
        return Star(canonicalize(ast.inner))
    if isinstance(ast, Plus):
        return Plus(canonicalize(ast.inner))
    if isinstance(ast, OptionalNode):
        return OptionalNode(canonicalize(ast.inner))
    if isinstance(ast, Negation):
        return Negation(canonicalize(ast.inner))
    return ast


def _digest(canonical_source: str, negation_mode: str) -> str:
    payload = f"{negation_mode}\n{canonical_source}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _has_unstable_symbols(ast: Regex) -> bool:
    """True when the AST mentions query-time predicates.

    Predicates wrap arbitrary callables; they have no process-stable
    identity, so queries using them are planned fresh every time.
    Ordinary string labels (and the SPARQL front-end's negated property
    sets, which print deterministically) fingerprint fine.
    """
    from repro.labels import Predicate

    return any(
        isinstance(symbol, Predicate) for symbol in sorted(
            ast.symbols(), key=str
        )
    )


def fingerprint_regex(
    regex: RegexLike, negation_mode: str = "paper"
) -> Optional[str]:
    """Stable fingerprint of a predicate-free regex, or None.

    The fingerprint is the sha256 digest of the *canonical* source text
    plus the negation mode — deterministic across processes (sha256 of
    UTF-8 bytes; no object ids, no hash salting).  ``None`` means the
    regex cannot be fingerprinted (it embeds query-time predicates) and
    must bypass the plan cache.
    """
    if isinstance(regex, CompiledRegex):
        if regex.has_predicates:
            return None
        return _digest(str(canonicalize(regex.ast)), regex.negation_mode)
    ast = parse_regex(regex, None) if isinstance(regex, str) else regex
    if not isinstance(ast, Regex):
        raise TypeError(f"cannot fingerprint {regex!r} as a regex")
    if _has_unstable_symbols(ast):
        return None
    return _digest(str(canonicalize(ast)), negation_mode)


# ---------------------------------------------------------------------------
# graph stamps
# ---------------------------------------------------------------------------
#: ``(graph instance token, graph version)`` — the graph half of a plan key
GraphStamp = Tuple[int, int]

_GRAPH_TOKENS = itertools.count(1)
_TOKEN_ATTR = "_plan_cache_token"


def graph_stamp(graph: LabeledGraph) -> GraphStamp:
    """The plan-cache identity of one graph snapshot.

    The token is a per-instance counter assigned on first use (``id()``
    is recycled by the allocator and not stable across processes; the
    cache is per-process, so a process-local counter is exactly the
    right identity).  ``graph.version`` is the monotone mutation
    counter: any structural or label change bumps it, so plans built on
    the old snapshot can never be served again — version invalidation
    without bookkeeping.  ``graph.copy()`` clones carry no token and get
    a fresh one.
    """
    token = getattr(graph, _TOKEN_ATTR, None)
    if not isinstance(token, int):
        token = next(_GRAPH_TOKENS)
        setattr(graph, _TOKEN_ATTR, token)
    return (token, graph.version)


def adopt_stamp(graph: LabeledGraph, stamp: GraphStamp) -> None:
    """Give ``graph`` the identity of an existing stamp.

    Used by the shared-memory attach path (:mod:`repro.core.shm`): a
    worker's :class:`~repro.core.shm.SharedGraph` *is* the exported
    snapshot, so it inherits the owner's stamp and warm plan-cache
    entries keyed on it stay servable.  The local token counter is
    advanced past the adopted token so graphs stamped later in this
    process can never collide with it.
    """
    global _GRAPH_TOKENS
    token = stamp[0]
    setattr(graph, _TOKEN_ATTR, token)
    floor = next(_GRAPH_TOKENS)
    _GRAPH_TOKENS = itertools.count(max(floor, token + 1))


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PlanArtifact:
    """The reusable product of planning one query template.

    Everything here is independent of the query's endpoints: the
    compiled automaton bundle (shared across engines via the
    fingerprint memo) and the engine's parameter estimates (walk
    length, numWalks, ... — keyed by the engine's plan scope, since two
    engines may estimate differently).  ``compile_s`` records what the
    one-time compile cost, so warm executions can report 0.

    Frozen: one cached artifact serves every query of its template, so
    assigning a field after construction raises
    :class:`dataclasses.FrozenInstanceError`.
    """

    fingerprint: str
    compiled: CompiledRegex
    params: Dict[str, Any] = field(default_factory=dict)
    compile_s: float = 0.0
    params_s: float = 0.0


@dataclass
class Plan:
    """One prepared execution: a query bound to its artifact.

    Produced by ``EngineBase.prepare(query)`` / :func:`plan_query`;
    consumed by ``EngineBase.execute`` / the engines' ``_execute``.
    The counter fields describe how *this* planning call behaved (hit or
    miss, fresh compile seconds, evictions it caused) and are folded
    into the executing query's :class:`~repro.core.stats.ExecStats`
    exactly once — :meth:`consume_counters` zeroes them so re-executing
    a prepared plan does not double-count its planning cost.
    """

    query: RSPQuery
    artifact: PlanArtifact
    cache_hit: bool = False
    plan_s: float = 0.0
    compile_s: float = 0.0
    params_s: float = 0.0
    evictions: int = 0
    _consumed: bool = False

    @property
    def compiled(self) -> CompiledRegex:
        """The automaton bundle the execute stage runs on."""
        return self.artifact.compiled

    @property
    def params(self) -> Dict[str, Any]:
        """The engine's cached parameter estimates."""
        return self.artifact.params

    def consume_counters(
        self,
    ) -> Tuple[float, float, float, Optional[bool], int]:
        """``(plan_s, compile_s, params_s, cache_hit, evictions)``, once.

        The first call returns the real numbers; later calls (a plan
        re-executed, or handed from the router to a sub-engine whose own
        finisher runs too) return zeros with ``cache_hit=None`` so the
        planning cost is folded into stats exactly once.
        """
        if self._consumed:
            return (0.0, 0.0, 0.0, None, 0)
        self._consumed = True
        return (
            self.plan_s,
            self.compile_s,
            self.params_s,
            self.cache_hit,
            self.evictions,
        )


#: full plan key: graph stamp x query fingerprint x engine scope
PlanKey = Tuple[int, int, str, Hashable]


class PlanCache:
    """LRU, size-bounded, version-invalidated plan artifact cache.

    Two levels share the bound discipline of :class:`repro.lru.LRUCache`:

    * ``plans`` — fingerprint + graph stamp + engine scope ->
      :class:`PlanArtifact` (compiled bundle plus parameter estimates);
    * ``compiled`` — fingerprint -> :class:`CompiledRegex` alone, so
      engines with *different* scopes (ARRIVAL vs BFS vs the router)
      still share one Thompson construction per template.

    ``max_plans=0`` disables caching entirely (every plan is built
    fresh and nothing is stored) — the ``--plan-cache off`` switch.
    """

    def __init__(
        self, max_plans: int = 256, max_compiled: Optional[int] = None
    ) -> None:
        self.plans: LRUCache[PlanKey, PlanArtifact] = LRUCache(max_plans)
        self.compiled: LRUCache[str, CompiledRegex] = LRUCache(
            max_plans if max_compiled is None else max_compiled
        )
        #: fresh compiles performed through this cache, and their cost
        self.compiles = 0
        self.compile_s = 0.0

    def compiled_for(
        self, fingerprint: str, build: Callable[[], CompiledRegex]
    ) -> Tuple[CompiledRegex, float]:
        """The memoised compiled bundle, with this call's compile cost."""
        cached = self.compiled.get(fingerprint)
        if cached is not None:
            obs.metrics().counter("plan.compiled_hits").inc()
            return cached, 0.0
        start = time.perf_counter()
        with obs.span("plan.compile", fingerprint=fingerprint[:12]):
            built = build()
        elapsed = time.perf_counter() - start
        self.compiles += 1
        self.compile_s += elapsed
        registry = obs.metrics()
        registry.counter("plan.compiles").inc()
        registry.histogram("plan.compile_s").observe(elapsed)
        self.compiled.put(fingerprint, built)
        return built, elapsed

    def counters(self) -> Dict[str, Any]:
        """JSON-friendly behaviour snapshot (benchmarks, CLI)."""
        return {
            "plans": self.plans.counters(),
            "compiled": self.compiled.counters(),
            "compiles": self.compiles,
            "compile_s": self.compile_s,
        }

    def clear(self) -> None:
        """Drop every cached artifact (counters keep their history)."""
        self.plans.clear()
        self.compiled.clear()


def _engine_scope(engine: Any) -> Hashable:
    scope_fn = getattr(engine, "_plan_scope", None)
    if callable(scope_fn):
        scope = scope_fn()
        if isinstance(scope, Hashable):
            return scope
    return (type(engine).__name__,)


def _engine_params(
    engine: Any, query: RSPQuery, compiled: CompiledRegex
) -> Tuple[Dict[str, Any], float]:
    """The engine's parameter estimates for one template, timed."""
    params_fn = getattr(engine, "_plan_params", None)
    if not callable(params_fn):
        return {}, 0.0
    start = time.perf_counter()
    params = dict(params_fn(query, compiled))
    return params, time.perf_counter() - start


def compile_query(
    regex: RegexLike,
    predicates: Any = None,
    negation_mode: str = "paper",
    *,
    cache: Optional[PlanCache] = None,
) -> CompiledRegex:
    """The sanctioned compile funnel (lint rule PLN001).

    Canonicalizes and compiles a regex, memoising through ``cache``
    when one is supplied and the regex is fingerprintable.  Engine-layer
    code calls this (usually via ``EngineBase.compile``) instead of
    :func:`repro.regex.compiler.compile_regex`.
    """
    if isinstance(regex, CompiledRegex):
        return regex
    if predicates is not None:
        return compile_regex(regex, predicates, negation_mode)
    ast = parse_regex(regex, None) if isinstance(regex, str) else regex
    if not isinstance(ast, Regex):
        raise TypeError(f"cannot compile {regex!r} as a regex")
    if _has_unstable_symbols(ast):
        return compile_regex(ast, None, negation_mode)
    canonical = canonicalize(ast)
    if cache is None:
        return compile_regex(canonical, None, negation_mode)
    fingerprint = _digest(str(canonical), negation_mode)
    compiled, _ = cache.compiled_for(
        fingerprint, lambda: compile_regex(canonical, None, negation_mode)
    )
    return compiled


def plan_query(
    engine: Any, query: RSPQuery, cache: PlanCache
) -> Plan:
    """Resolve one query to a :class:`Plan` through ``cache``.

    Cacheable queries (predicate-free, engine bound to a graph) are
    keyed by ``(graph stamp, fingerprint, engine scope)``; anything else
    is planned fresh and never stored.  The caller (``EngineBase``)
    times the whole call into ``Plan.plan_s``.
    """
    negation_mode = str(getattr(engine, "negation_mode", "paper"))
    graph = getattr(engine, "graph", None)
    regex = query.regex

    prebuilt: Optional[CompiledRegex] = None
    canonical: Optional[Regex] = None
    fingerprint: Optional[str] = None
    if isinstance(regex, CompiledRegex):
        prebuilt = regex
        if query.predicates is None and not regex.has_predicates:
            fingerprint = _digest(
                str(canonicalize(regex.ast)), regex.negation_mode
            )
    elif query.predicates is None:
        ast = parse_regex(regex, None) if isinstance(regex, str) else regex
        if not isinstance(ast, Regex):
            raise TypeError(f"cannot plan {regex!r} as a regex")
        if not _has_unstable_symbols(ast):
            canonical = canonicalize(ast)
            fingerprint = _digest(str(canonical), negation_mode)

    def build_compiled() -> CompiledRegex:
        if prebuilt is not None:
            return prebuilt
        if canonical is not None:
            return compile_regex(canonical, None, negation_mode)
        return compile_regex(regex, query.predicates, negation_mode)

    if fingerprint is None or not isinstance(graph, LabeledGraph):
        # uncacheable: plan fresh, store nothing
        start = time.perf_counter()
        compiled = build_compiled()
        compile_s = time.perf_counter() - start
        params, params_s = _engine_params(engine, query, compiled)
        artifact = PlanArtifact(
            fingerprint="",
            compiled=compiled,
            params=params,
            compile_s=compile_s,
            params_s=params_s,
        )
        return Plan(
            query,
            artifact,
            cache_hit=False,
            compile_s=compile_s,
            params_s=params_s,
        )

    token, version = graph_stamp(graph)
    key: PlanKey = (token, version, fingerprint, _engine_scope(engine))
    evictions_before = cache.plans.evictions
    artifact_hit = cache.plans.get(key)
    if artifact_hit is not None:
        obs.metrics().counter("plan.cache_hits").inc()
        return Plan(query, artifact_hit, cache_hit=True)
    obs.metrics().counter("plan.cache_misses").inc()
    compiled, compile_s = cache.compiled_for(fingerprint, build_compiled)
    params, params_s = _engine_params(engine, query, compiled)
    artifact = PlanArtifact(
        fingerprint=fingerprint,
        compiled=compiled,
        params=params,
        compile_s=compile_s,
        params_s=params_s,
    )
    cache.plans.put(key, artifact)
    evicted = cache.plans.evictions - evictions_before
    if evicted:
        obs.metrics().counter("plan.cache_evictions").inc(evicted)
    return Plan(
        query,
        artifact,
        cache_hit=False,
        compile_s=compile_s,
        params_s=params_s,
        evictions=evicted,
    )


# ---------------------------------------------------------------------------
# the router's cost model
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GraphProfile:
    """What the cost model reads off one graph snapshot.

    Built from :mod:`repro.graph.stats` label frequencies and memoised
    per graph version (profiles of mutated graphs rebuild lazily).
    """

    n_nodes: int
    n_edges: int
    n_labels: int
    version: int
    #: label -> fraction of elements carrying it (graph.stats)
    label_frequency: Tuple[Tuple[str, float], ...]

    def frequency(self, label: str) -> float:
        for name, value in self.label_frequency:
            if name == label:
                return value
        return 0.0

    def mean_frequency(self, labels: Sequence[str]) -> float:
        """Mean occurrence fraction of ``labels`` (1.0 when empty: an
        unconstrained step matches everything)."""
        if not labels:
            return 1.0
        return sum(self.frequency(label) for label in labels) / len(labels)


_PROFILE_ATTR = "_plan_cache_profile"


def graph_profile(graph: LabeledGraph) -> GraphProfile:
    """The (version-memoised) cost-model profile of ``graph``."""
    cached = getattr(graph, _PROFILE_ATTR, None)
    if isinstance(cached, GraphProfile) and cached.version == graph.version:
        return cached
    frequency = tuple(
        sorted(label_frequency_distribution(graph).items())
    )
    profile = GraphProfile(
        n_nodes=graph.num_nodes,
        n_edges=graph.num_edges,
        n_labels=len(graph.label_alphabet()),
        version=graph.version,
        label_frequency=frequency,
    )
    setattr(graph, _PROFILE_ATTR, profile)
    return profile


@dataclass(frozen=True)
class EngineCost:
    """One candidate engine's estimated cost for one query.

    ``cost_class`` is the coarse complexity tier (0 = index probe,
    1 = sampling, 2 = exhaustive search) in the spirit of Bagan et
    al.'s trichotomy; ``cost`` orders candidates *within* a tier.
    Tiers differ by orders of magnitude, so comparing fine-grained
    estimates across them would just be false precision.
    """

    engine: str
    cost: float
    feasible: bool
    cost_class: int = 1
    reason: str = ""


def _symbol_labels(compiled: CompiledRegex) -> List[str]:
    return sorted(
        symbol for symbol in compiled.symbols if isinstance(symbol, str)
    )


def rank_routes(
    profile: GraphProfile,
    compiled: CompiledRegex,
    query: RSPQuery,
    candidates: Sequence[Tuple[str, Any]],
    *,
    dynamic: bool = False,
    li_label_threshold: int = 32,
    li_landmarks: int = 16,
) -> List[EngineCost]:
    """Rank candidate engines by estimated cost, cheapest feasible first.

    ``candidates`` is ``(name, EngineCapabilities)`` pairs.  Feasibility
    comes from the declared capabilities (fragment support, index
    requirements, distance bounds, predicates) plus the graph profile's
    label-alphabet affordability check — the paper's Sec. 5.3 finding
    that antichain sizes grow combinatorially with the alphabet, so an
    index is only buildable up to ``li_label_threshold`` labels.  Cost
    has two levels: a coarse complexity tier (an affordable index probe
    beats a sampling run beats an exhaustive search — Sec. 5.3 again:
    *"when the number of labels in a network is small, LI provides
    faster querying time"*), and a fine-grained estimate within the
    tier — the index probe scales with landmark count, the walk budget
    with ``(n² ln n)^(1/3) x walkLength`` discounted by how frequently
    the query's labels occur (walks over rare labels die, and stop,
    early).
    """
    bounded = (
        query.distance_bound is not None or query.min_distance is not None
    )
    n = max(2, profile.n_nodes)
    num_walks = float(round((n * n * math.log(n)) ** (1.0 / 3.0)))
    walk_length = 2.0 * math.log2(n)  # diameter proxy, Sec. 5.2.3
    selectivity = profile.mean_frequency(_symbol_labels(compiled))
    ranked: List[EngineCost] = []
    for name, caps in candidates:
        feasible = True
        reason = ""
        if caps.needs_index and dynamic:
            feasible, reason = False, "index engines need a static graph"
        elif not caps.full_regex and not compiled.is_label_set_query:
            feasible, reason = (
                False,
                "restricted-fragment engine outside its fragment",
            )
        elif bounded and not caps.distance_bounds:
            feasible, reason = False, "no distance-bound support"
        elif compiled.has_predicates and not caps.supports_predicates:
            feasible, reason = False, "no query-time predicate support"
        elif caps.needs_index and profile.n_labels > li_label_threshold:
            feasible, reason = (
                False,
                f"index build unaffordable past {li_label_threshold} "
                "labels (antichain blow-up)",
            )
        if caps.needs_index:
            # index probe: one antichain subset test per landmark side
            cost_class = 0
            cost = 2.0 * li_landmarks * math.log2(n)
        elif not caps.exact:
            # sampling: numWalks x walkLength jumps, discounted by how
            # often the query's labels occur in the graph
            cost_class = 1
            cost = num_walks * walk_length * max(selectivity, 1.0 / n)
        else:
            # exhaustive exact search: exponential worst case; never
            # wins unless explicitly forced or the only candidate left
            cost_class = 2
            cost = float(n) ** 2
        ranked.append(EngineCost(name, cost, feasible, cost_class, reason))
    ranked.sort(
        key=lambda c: (not c.feasible, c.cost_class, c.cost, c.engine)
    )
    return ranked
