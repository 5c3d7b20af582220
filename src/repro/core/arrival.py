"""ARRIVAL: Approximate Regular-simple-path Reachability In Vertex and
Arc Labeled graphs (Algorithm 2).

The engine samples ``numWalks`` self-avoiding, automaton-guided random
walks — half started at the source (forward), half at the target
(backward) — and answers *reachable* the moment a forward and a backward
walk join into a simple, regex-compatible path (Case 3), detected in
O(1) per jump through ``(node, automatonState)`` hashmaps.  If the walk
budget is exhausted without a join, it answers *not reachable*.

Properties reproduced from the paper:

* **No false positives** — every positive answer carries a witness path
  that is verified simple and compatible.
* **Index-free** — nothing outlives a query except the optional
  stationary-overlap statistics used to refine ``numWalks``, so dynamic
  graphs need no maintenance: query a fresh snapshot.
* **Parameter defaults** — ``numWalks = (n² ln n)^(1/3)`` and
  ``walkLength = 2 x`` a sampled diameter upper bound (Sec. 5.2.3), both
  overridable per engine or scaled per query (the Fig. 7 K-sweeps).

Typical use::

    engine = Arrival(graph, seed=7)
    result = engine.query(source, target, "(friend | colleague)+")
    if result.reachable:
        print(result.path)
"""

from __future__ import annotations

import time
import weakref

from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.core.engine import EngineBase
from repro.core.fastpath import GraphView, LabelSetInterner, build_graph_view
from repro.core.plan import Plan, PlanCache, fingerprint_regex
from repro.core.parameters import (
    StationaryOverlapEstimator,
    estimate_walk_length_cached,
    recommended_num_walks,
)
from repro.core.result import QueryResult
from repro.core.stats import ExecStats
from repro.core.walks import SideRunner
from repro.errors import QueryError, WitnessViolationError
from repro.graph.labeled_graph import LabeledGraph
from repro.queries.query import RSPQuery
from repro.regex.compiler import CompiledRegex, RegexLike
from repro.regex.interner import InternedStepTable
from repro.regex.matcher import (
    COMPATIBLE,
    ForwardTracker,
    _StepCache,
    check_path,
    resolve_elements,
)
from repro.rng import RngLike, ensure_rng


#: one compiled regex's interned step tables, forward then backward
_StepTables = Tuple[InternedStepTable, InternedStepTable]


def _table_totals(tables: Optional[_StepTables]) -> Tuple[int, int]:
    """Summed (hits, misses) of a regex's step tables (zeros without).

    Per-query deltas against these totals feed the hot-path counters
    in ``QueryResult.stats``; the frozenset scan has no tables and
    reports no transition counts.
    """
    if tables is None:
        return 0, 0
    forward, backward = tables
    return forward.hits + backward.hits, forward.misses + backward.misses


class Arrival(EngineBase):
    """The ARRIVAL query engine for one (snapshot of a) graph.

    Parameters
    ----------
    graph:
        The multi-labeled graph to query.
    walk_length, num_walks:
        Override the automatic parameter selection (Sec. 5.2.3).
    elements:
        Which path elements carry symbols ("nodes"/"edges"/"both");
        default resolves from the graph.
    label_mode:
        "exact" (powerset state tracking, default) or "sampled" (the
        paper's one-label-per-element sampling, Appendix C.1).
    meeting:
        "hashmap" (efficient Case-3 check, default) or "naive" (the
        Theorem 2 baseline, for the ablation).
    adaptive:
        Refine ``numWalks`` across queries from the walks' endpoint
        statistics (the Sec. 4.3 amortised α estimate).
    negation_mode:
        "paper" (Appendix A restriction) or "dfa" (extended negation).
    seed:
        Seed / generator for all randomness.
    """

    name = "ARRIVAL"
    supports_full_regex = True
    supports_query_time_labels = True
    supports_dynamic = True
    index_free = True
    enforces_simple_paths = True
    approximate = True
    supports_distance_bounds = True

    def __init__(
        self,
        graph: LabeledGraph,
        walk_length: Optional[int] = None,
        num_walks: Optional[int] = None,
        *,
        elements: Optional[str] = None,
        label_mode: str = "exact",
        meeting: str = "hashmap",
        adaptive: bool = False,
        bidirectional: bool = True,
        negation_mode: str = "paper",
        walk_length_multiplier: float = 2.0,
        diameter_sample_size: int = 32,
        calibration_regexes: Optional[Iterable[RegexLike]] = None,
        plan_cache: Optional[PlanCache] = None,
        seed: RngLike = None,
    ) -> None:
        if meeting not in ("hashmap", "naive"):
            raise ValueError(f"meeting must be 'hashmap' or 'naive', got {meeting!r}")
        self.graph = graph
        self.elements = resolve_elements(graph, elements)
        self.label_mode = label_mode
        self.meeting = meeting
        self.adaptive = adaptive
        #: ablation switch: False degrades to unidirectional sampling —
        #: the backward side only registers the target's trivial meeting
        #: key, so forward walks must reach the target on their own
        self.bidirectional = bidirectional
        self.negation_mode = negation_mode
        self.rng = ensure_rng(seed)
        self.estimator = StationaryOverlapEstimator()
        self._walk_length = walk_length
        self._num_walks = num_walks
        self._walk_length_multiplier = walk_length_multiplier
        self._diameter_sample_size = diameter_sample_size
        #: Sec. 4.3's labeled calibration: when sample regexes (e.g. from
        #: a query log or a workload) are supplied, walkLength is
        #: estimated over regex-compatible shortest-path trees instead of
        #: the unlabeled diameter
        self._calibration_regexes: Optional[List[RegexLike]] = (
            list(calibration_regexes) if calibration_regexes else None
        )
        self.plan_cache = plan_cache
        # the engine half of the plan-cache key, frozen from the
        # constructor configuration: the lazy walk_length/num_walks
        # properties mutate instance state later, so scoping on live
        # attributes would silently split the cache mid-run
        self._plan_token: Tuple[Any, ...] = (
            walk_length,
            num_walks,
            self.elements,
            label_mode,
            meeting,
            adaptive,
            bidirectional,
            negation_mode,
            walk_length_multiplier,
            diameter_sample_size,
            bool(calibration_regexes),
        )
        # interned-scan state: one label-set interner for the engine's
        # lifetime (ids stay stable across graph-view rebuilds, keeping
        # the interned transition tables valid), a version-stamped graph
        # view, and the (forward, backward) step tables of each compiled
        # regex.  The tables are keyed weakly on the regex object itself:
        # they die with it (the plan cache's bound is their bound) and
        # are only ever used with the automata they were built from.
        self._label_interner = LabelSetInterner()
        self._graph_view: Optional[GraphView] = None
        self._fast_tables: weakref.WeakKeyDictionary[
            CompiledRegex, _StepTables
        ] = weakref.WeakKeyDictionary()
        # (fingerprint, forward) -> raw warm-table state adopted from a
        # shared-memory plane; consumed lazily by _fast_tables_for
        self._warm_table_state: Dict[Tuple[str, bool], Dict[str, Any]] = {}
        #: graph-view (re)builds performed by this engine — incremented
        #: on first use and after every graph mutation
        self.view_rebuilds = 0

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    @property
    def walk_length(self) -> int:
        """Maximum nodes per walk (estimated on first use, Sec. 5.2.3;
        regex-calibrated per Sec. 4.3 when calibration regexes were
        supplied)."""
        length = self._walk_length
        if length is None:
            if self._calibration_regexes:
                from repro.core.parameters import (
                    estimate_walk_length_labeled,
                )

                compiled = [
                    self.compile(regex)
                    for regex in self._calibration_regexes
                ]
                length = estimate_walk_length_labeled(
                    self.graph,
                    compiled,
                    multiplier=self._walk_length_multiplier,
                    elements=self.elements,
                    seed=self.rng,
                )
            else:
                # memoised on the graph keyed by its version counter, so
                # several engines over one snapshot (the ablation
                # benchmarks) sample the shortest-path trees once
                length = estimate_walk_length_cached(
                    self.graph,
                    sample_size=self._diameter_sample_size,
                    multiplier=self._walk_length_multiplier,
                    seed=self.rng,
                )
            self._walk_length = length
        return length

    @property
    def num_walks(self) -> int:
        """Total walk budget per query (both directions combined)."""
        if self.adaptive:
            refined = self.estimator.refined_num_walks(self.graph.num_nodes)
            if refined is not None:
                return refined
        walks = self._num_walks
        if walks is None:
            walks = recommended_num_walks(self.graph.num_nodes)
            self._num_walks = walks
        return walks

    def _plan_scope(self) -> Tuple[Any, ...]:
        """Plan-cache scope: the constructor configuration, frozen."""
        return (self.name, self._plan_token)

    def _plan_params(
        self, query: RSPQuery, compiled: CompiledRegex
    ) -> Dict[str, Any]:
        """Cache the walk budgets in the plan artifact.

        ``walk_length`` is graph-memoised by version, so re-deriving it
        on a version bump gives the same estimate a fresh engine would.
        ``num_walks`` is cached only outside adaptive mode — the
        Sec. 4.3 refinement changes across queries by design, so
        adaptive engines read it live at execution time.
        """
        params: Dict[str, Any] = {"walk_length": self.walk_length}
        if not self.adaptive:
            params["num_walks"] = self.num_walks
        return params

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def _execute(
        self,
        plan: Plan,
        *,
        walk_length_scale: float = 1.0,
        num_walks_scale: float = 1.0,
        trace: Optional[List[Dict[str, Any]]] = None,
        **kwargs: Any,
    ) -> QueryResult:
        """Answer one prepared RSPQ: is ``query.target`` reachable from
        ``query.source`` by a simple path compatible with
        ``query.regex``?

        (Called through :meth:`EngineBase.query` /
        :meth:`EngineBase.execute`; the compiled automaton and the walk
        budgets come from the plan, so a warm plan pays neither compile
        nor estimation here.)
        ``distance_bound`` caps the witness path's edge count
        (Sec. 5.5.2); the ``*_scale`` factors implement the Fig. 7
        K-sweeps.  Passing a list as ``trace`` collects one event per
        registered walker position (side, walk, node, automaton states)
        — the raw material of the paper's Fig. 3 illustration.
        """
        if kwargs:  # absorbed only for LSP; unknown knobs stay errors
            raise TypeError(f"unexpected engine kwargs: {sorted(kwargs)}")
        query = plan.query
        source = query.source
        target = query.target
        distance_bound = query.distance_bound
        min_distance = query.min_distance
        stats = ExecStats(engine=self.name)
        if not self.graph.is_alive(source):
            raise QueryError(f"source node {source} does not exist")
        if not self.graph.is_alive(target):
            raise QueryError(f"target node {target} does not exist")
        if (
            distance_bound is not None
            and min_distance is not None
            and min_distance > distance_bound
        ):
            raise QueryError("min_distance exceeds distance_bound")
        compiled = plan.compiled

        stage_start = time.perf_counter()
        params = plan.params
        base_length = params.get("walk_length")
        if base_length is None:
            base_length = self.walk_length
        if self.adaptive:
            base_walks = self.num_walks
        else:
            base_walks = params.get("num_walks")
            if base_walks is None:
                base_walks = self.num_walks
        walk_length = max(2, round(base_length * walk_length_scale))
        num_walks = max(1, round(base_walks * num_walks_scale))
        stats.params_s = time.perf_counter() - stage_start
        if distance_bound is not None:
            if distance_bound < 0:
                raise QueryError("distance_bound must be non-negative")
            walk_length = min(walk_length, distance_bound + 1)

        if source == target:
            if min_distance is not None and min_distance > 0:
                return QueryResult(
                    reachable=False, method=self.name, exact=True, stats=stats
                )
            return self._trivial_result(source, compiled, stats)

        use_fast = self._interned_scan_sound(compiled)
        rebuilds_before = self.view_rebuilds
        stage_start = time.perf_counter()
        view = self._current_view() if use_fast else None
        tables = self._fast_tables_for(compiled) if use_fast else None
        transitions_before = _table_totals(tables)

        forward = SideRunner(
            self.graph, compiled, self.elements, source,
            forward=True, walk_length=walk_length, rng=self.rng,
            mode=self.label_mode, meeting=self.meeting,
            max_edges=distance_bound, min_edges=min_distance,
            trace=trace,
            view=view, tables=tables[0] if tables else None,
        )
        backward = SideRunner(
            self.graph, compiled, self.elements, target,
            forward=False, walk_length=walk_length, rng=self.rng,
            mode=self.label_mode, meeting=self.meeting,
            max_edges=distance_bound, min_edges=min_distance,
            trace=trace,
            view=view, tables=tables[1] if tables else None,
        )
        forward.opposite = backward
        backward.opposite = forward

        joined: Optional[List[int]] = None
        # the forward side dies instantly when the source's own symbol
        # cannot begin any accepted word; that is a certain negative
        # (probed in exact mode so the answer does not depend on label
        # sampling)
        source_alive = bool(
            ForwardTracker(compiled, self.graph, self.elements).start(source)
        )
        if source_alive:
            if not self.bidirectional:
                # register the target's trivial key so forward arrivals
                # at the target are recognised, then freeze that side
                joined = backward.step()
            while (
                joined is None
                and forward.completed_walks + backward.completed_walks
                < num_walks
            ):
                joined = forward.step()
                if joined is not None:
                    break
                if self.bidirectional:
                    joined = backward.step()
                    if joined is not None:
                        break

        stats.walk_s = time.perf_counter() - stage_start
        self._record_endpoints(forward, backward)

        transition_hits, transition_misses = _table_totals(tables)
        stats.candidates_scanned = forward.scanned + backward.scanned
        stats.transition_hits = transition_hits - transitions_before[0]
        stats.transition_misses = transition_misses - transitions_before[1]
        stats.rng_refills = forward.rng_refills + backward.rng_refills
        stats.csr_rebuilds = self.view_rebuilds - rebuilds_before
        info: Dict[str, Any] = {
            "walk_length": walk_length,
            "num_walks": num_walks,
            "forward_walks": forward.completed_walks,
            "backward_walks": backward.completed_walks,
            "stored_keys": forward.index.n_keys + backward.index.n_keys,
            "fast_path": use_fast,
        }
        jumps = forward.jumps + backward.jumps
        if joined is None:
            miss_bound = self._miss_probability_bound(num_walks)
            if miss_bound is not None:
                info["miss_probability_bound"] = miss_bound
            return QueryResult(
                reachable=False,
                method=self.name,
                exact=not source_alive,
                expansions=forward.completed_walks + backward.completed_walks,
                jumps=jumps,
                info=info,
                stats=stats,
            )
        # the guarantee of no false positives: verify the witness with an
        # explicit check, which (unlike an assert) survives ``python -O``
        stage_start = time.perf_counter()
        if check_path(
            compiled, self.graph, joined, self.elements
        ) != COMPATIBLE:
            raise WitnessViolationError(
                f"{self.name} joined a path the regex rejects: {joined}",
                invariant="rejected",
            )
        stats.verify_s = time.perf_counter() - stage_start
        return QueryResult(
            reachable=True,
            path=joined,
            method=self.name,
            exact=True,
            path_is_simple=True,
            expansions=forward.completed_walks + backward.completed_walks,
            jumps=jumps,
            info=info,
            stats=stats,
        )

    def _miss_probability_bound(self, num_walks: int) -> Optional[float]:
        """Proposition-1 style bound on the false-negative probability.

        If the walk endpoints collected so far give a robust-
        undirectedness estimate α̂, and the walk budget met the
        theoretical ``(16 n² ln n / α̂²)^(1/3)``, Proposition 1 bounds the
        miss probability of an *unlabeled, strongly-connected-pair* query
        by 1/n.  For labeled queries this is a heuristic indicator (the
        proposition's hypotheses do not transfer exactly — see Sec. 4.2),
        reported in ``result.info`` and never used to change answers.
        """
        from repro.core.parameters import theoretical_num_walks

        n_nodes = self.graph.num_nodes
        if n_nodes < 2:
            return None
        alpha = self.estimator.alpha(n_nodes)
        if not alpha:
            return None
        if num_walks >= theoretical_num_walks(n_nodes, alpha):
            return 1.0 / n_nodes
        return None

    def _current_view(self) -> GraphView:
        """The engine's graph view, rebuilt iff the graph mutated.

        Stale detection is the :attr:`LabeledGraph.version` counter; the
        label interner is reused across rebuilds so label-set ids (and
        with them the interned transition tables) stay valid.
        """
        view = self._graph_view
        if view is None or view.version != self.graph.version:
            view = build_graph_view(self.graph, self._label_interner)
            self._graph_view = view
            self.view_rebuilds += 1
        return view

    def _interned_scan_sound(self, compiled: CompiledRegex) -> bool:
        """The walk loop's one gate: the interned scan memoises
        transitions by label set, which is sound in exact mode without
        query-time predicates.  Every other query takes the frozenset
        scan."""
        return _StepCache.usable_for(compiled, self.label_mode)

    def _fast_tables_for(self, compiled: CompiledRegex) -> _StepTables:
        """The shared (forward, backward) step tables of one regex.

        Must be called after :meth:`_current_view` — projecting the
        symbol keys requires every label set of the current view to be
        interned already.
        """
        tables = self._fast_tables.get(compiled)
        if tables is None:
            tables = (
                self._new_table(compiled, forward=True),
                self._new_table(compiled, forward=False),
            )
            self._fast_tables[compiled] = tables
        for table in tables:
            table.project()
        return tables

    def _new_table(
        self, compiled: CompiledRegex, forward: bool
    ) -> InternedStepTable:
        """A warm table shipped via shared memory if one matches, else
        an empty one.

        Matching is by regex fingerprint (canonical source + negation
        mode), which also guarantees both sides compiled identical NFAs
        — the precondition of :meth:`InternedStepTable.adopt_state`.
        """
        nfa = compiled.nfa if forward else compiled.reversed_nfa
        state = None
        if self._warm_table_state:
            fingerprint = fingerprint_regex(compiled)
            if fingerprint is not None:
                state = self._warm_table_state.pop(
                    (fingerprint, forward), None
                )
        if state is None:
            return InternedStepTable(nfa, self._label_interner.sets)
        return InternedStepTable.adopt_state(
            nfa,
            self._label_interner.sets,
            state_sets=state["state_sets"],
            key_ids=state["key_ids"],
            sym_ids=state["sym_ids"],
            dense=state["dense"],
        )

    def _prepare_engine(self) -> None:
        """Pay one-time setup now: walkLength / numWalks estimation (the
        only randomness outside the walk loop) and the CSR graph-view
        build.

        The batch executor calls this (via no-argument ``prepare()``)
        under a dedicated setup RNG stream so the estimates — and with
        them every answer — are identical no matter which query runs
        first on which worker."""
        _ = self.walk_length
        _ = self.num_walks
        self._current_view()

    # ------------------------------------------------------------------
    # shared-memory plane (repro.core.shm)
    # ------------------------------------------------------------------
    def adopt_shared_plane(
        self,
        view: Any,
        interner: Any,
        warm_tables: Optional[
            Mapping[Tuple[str, bool], Dict[str, Any]]
        ] = None,
    ) -> None:
        """Reuse an attached plane's view/interner/warm tables.

        Called by the process backend right after a worker builds its
        engine over a :class:`~repro.core.shm.SharedGraph`.  The view
        must match the graph's version (always true for a frozen
        shared graph); a mismatched view is ignored and the engine
        falls back to building its own.
        """
        if not isinstance(view, GraphView) or not isinstance(
            interner, LabelSetInterner
        ):
            return
        if view.version != self.graph.version:
            return
        self._label_interner = interner
        self._graph_view = view
        if warm_tables:
            self._warm_table_state.update(warm_tables)

    def shared_plane_state(
        self,
    ) -> Tuple[
        GraphView,
        LabelSetInterner,
        List[Tuple[str, bool, Dict[str, Any]]],
    ]:
        """This engine's exportable plane state (shm donor side).

        Returns the current view, the label interner and one
        ``(fingerprint, forward, raw state)`` triple per fingerprintable
        warm transition table (tables whose regex cannot be
        fingerprinted — query-time predicates — are skipped; workers
        rebuild those cheaply on demand).
        """
        view = self._current_view()
        tables: List[Tuple[str, bool, Dict[str, Any]]] = []
        for compiled, pair in list(self._fast_tables.items()):
            fingerprint = fingerprint_regex(compiled)
            if fingerprint is None:
                continue
            for forward, table in zip((True, False), pair):
                tables.append((fingerprint, forward, table.export_state()))
        return view, self._label_interner, tables

    def query_many(self, queries: Iterable[RSPQuery]) -> List[QueryResult]:
        """Answer a workload of RSPQuery objects in order.

        With ``adaptive=True`` the endpoint statistics accumulated by
        earlier queries refine numWalks for later ones — the Sec. 4.3
        amortisation across a query stream."""
        return [self.query(query) for query in queries]

    # ------------------------------------------------------------------
    def _trivial_result(
        self,
        node: int,
        compiled: CompiledRegex,
        stats: Optional[ExecStats] = None,
    ) -> QueryResult:
        """s == t: the one-node path is the only simple candidate."""
        compatible = (
            check_path(compiled, self.graph, [node], self.elements)
            == COMPATIBLE
        )
        return QueryResult(
            reachable=compatible,
            path=[node] if compatible else None,
            method=self.name,
            exact=True,
            path_is_simple=True if compatible else None,
            stats=stats,
        )

    def _record_endpoints(self, forward: SideRunner, backward: SideRunner) -> None:
        for endpoint in forward.endpoints:
            self.estimator.record_forward(endpoint)
        for endpoint in backward.endpoints:
            self.estimator.record_backward(endpoint)
