"""Engine auto-selection as a cost-based planner.

The paper's empirical conclusion (Sec. 5.3): *"when the number of labels
in a network is small, LI provides faster querying time.  However, for
networks with more than 32 labels, which is often the case on real world
networks, ARRIVAL is more appropriate."*  The router turns that finding
into a policy, expressed since the plan/execute split as a ranking
problem over :class:`~repro.core.engine.EngineCapabilities` and the
graph's label-frequency profile (:func:`repro.core.plan.rank_routes`)
instead of inline ifs:

* candidate engines are scored per prepared plan — feasibility from
  their declared capabilities (fragment, predicates, distance bounds,
  index-vs-dynamic, index affordability at the graph's label count) and
  cost from the :class:`~repro.core.plan.GraphProfile`;
* the cheapest feasible candidate serves the query; LI additionally
  requires its landmark build to succeed within the memory budget
  (failures are remembered and routed around — exactly the paper's
  observation of LI running out of memory past a certain label count);
* ``exact=True`` forces BBFS (for callers who need certainty and accept
  the exponential worst case).

The router and its sub-engines share one
:class:`~repro.core.plan.PlanCache`, so a template planned through AUTO
never recompiles when it is served by ARRIVAL, LI or BBFS.

The chosen engine is recorded in ``result.info["routed_to"]``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.baselines.bbfs import BBFSEngine
from repro.baselines.landmark import LandmarkIndex
from repro.core.arrival import Arrival
from repro.core.engine import EngineBase, EngineCapabilities
from repro.core.fastpath import GraphView, LabelSetInterner
from repro.core.plan import (
    EngineCost,
    GraphStamp,
    Plan,
    PlanCache,
    graph_profile,
    graph_stamp,
    rank_routes,
)
from repro.core.result import QueryResult
from repro.errors import IndexBuildError
from repro.graph.labeled_graph import LabeledGraph
from repro.queries.query import RSPQuery
from repro.regex.compiler import CompiledRegex
from repro.rng import RngLike


class AutoEngine(EngineBase):
    """Route each query to the most appropriate engine."""

    name = "AUTO"
    # the router may serve a query through ARRIVAL, so its answers are
    # not exact unless the caller forces exact=True
    approximate = True
    supports_distance_bounds = True

    def __init__(
        self,
        graph: LabeledGraph,
        *,
        li_label_threshold: int = 32,
        li_landmarks: int = 16,
        li_memory_budget_bytes: Optional[int] = 256_000_000,
        dynamic: bool = False,
        plan_cache: Optional[PlanCache] = None,
        seed: RngLike = None,
        **arrival_kwargs: Any,
    ) -> None:
        self.graph = graph
        self.li_label_threshold = li_label_threshold
        self.li_landmarks = li_landmarks
        self.li_memory_budget_bytes = li_memory_budget_bytes
        #: a dynamic graph invalidates any index; LI is then never used
        self.dynamic = dynamic
        #: one plan cache shared with every sub-engine, so a template
        #: prepared here is warm no matter which engine serves it
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        arrival_kwargs.setdefault("plan_cache", self.plan_cache)
        self.arrival = Arrival(graph, seed=seed, **arrival_kwargs)
        self._landmark: Optional[LandmarkIndex] = None
        self._landmark_failed = False
        #: the graph snapshot the landmark index (or its failed build)
        #: belongs to; any other snapshot rebuilds it on demand
        self._landmark_stamp: Optional[GraphStamp] = None
        self._bbfs: Optional[BBFSEngine] = None
        self._n_labels = len(graph.label_alphabet())

    # ------------------------------------------------------------------
    def _landmark_index(self) -> Optional[LandmarkIndex]:
        stamp = graph_stamp(self.graph)
        if stamp != self._landmark_stamp:
            # the index answers from the snapshot it was built on, so a
            # mutated graph needs a fresh one (built lazily below)
            self._landmark = None
            self._landmark_failed = False
            self._landmark_stamp = stamp
        if self._landmark_failed:
            return None
        if self._landmark is None:
            try:
                self._landmark = LandmarkIndex(
                    self.graph,
                    n_landmarks=self.li_landmarks,
                    memory_budget_bytes=self.li_memory_budget_bytes,
                    plan_cache=self.plan_cache,
                )
            except IndexBuildError:
                # exactly the paper's observation: past a certain label
                # count the index cannot be afforded — fall back
                self._landmark_failed = True
                return None
        return self._landmark

    def rank(self, query: RSPQuery) -> List[EngineCost]:
        """The cost model's full ranking for ``query`` (introspection;
        :meth:`route` picks the cheapest feasible entry)."""
        plan = self._plan_for(query)
        return self._rank_plan(plan)

    def route(self, query: RSPQuery) -> str:
        """Name of the engine that would serve ``query``."""
        plan = self._plan_for(query)
        return self._route_plan(plan)

    def _rank_plan(self, plan: Plan) -> List[EngineCost]:
        return rank_routes(
            graph_profile(self.graph),
            plan.compiled,
            plan.query,
            [
                ("LI", _LANDMARK_CAPABILITIES),
                ("ARRIVAL", self.arrival.capabilities),
            ],
            dynamic=self.dynamic,
            li_label_threshold=self.li_label_threshold,
            li_landmarks=self.li_landmarks,
        )

    def _route_plan(self, plan: Plan) -> str:
        """The cheapest feasible candidate that can actually serve.

        LI may be ranked first yet still unavailable — its build can
        exceed the memory budget — so the pick falls through the
        ranking; ARRIVAL is the index-free backstop that always can.
        """
        for choice in self._rank_plan(plan):
            if not choice.feasible:
                continue
            if choice.engine == "LI" and self._landmark_index() is None:
                continue
            return choice.engine
        return "ARRIVAL"

    def _plan_params(
        self, query: RSPQuery, compiled: CompiledRegex
    ) -> Dict[str, Any]:
        """AUTO plans with ARRIVAL's parameter estimates: the sampling
        route reads them from the plan, the others ignore them."""
        return self.arrival._plan_params(query, compiled)

    def _plan_scope(self) -> tuple:
        return (
            self.name,
            self.dynamic,
            self.li_label_threshold,
            self.arrival._plan_scope(),
        )

    def _execute(
        self, plan: Plan, *, exact: bool = False, **kwargs: Any
    ) -> QueryResult:
        """Serve one prepared plan through the routed engine."""
        query = plan.query
        if exact:
            if self._bbfs is None:
                self._bbfs = BBFSEngine(self.graph, plan_cache=self.plan_cache)
            result = self._bbfs.query(query)
            result.info["routed_to"] = "BBFS"
            return result
        routed = self._route_plan(plan)
        if routed == "LI":
            landmark = self._landmark_index()
            assert landmark is not None  # routing just built and checked it
            result = landmark.query(query)
        else:
            # hand the prepared plan straight to ARRIVAL — no re-plan,
            # the compiled automaton and walk budgets ride along
            result = self.arrival.execute(plan, **kwargs)
        result.info["routed_to"] = routed
        return result

    def reseed(self, seed: RngLike) -> None:
        """All of the router's randomness lives in its ARRIVAL engine."""
        self.arrival.reseed(seed)

    def _prepare_engine(self) -> None:
        """Pay ARRIVAL's parameter estimation now (LI stays lazy: it is
        only built when a type-1 query actually routes there)."""
        self.arrival.prepare()

    def adopt_shared_plane(
        self,
        view: Any,
        interner: Any,
        warm_tables: Optional[
            Mapping[Tuple[str, bool], Dict[str, Any]]
        ] = None,
    ) -> None:
        """Hand an attached shared-memory plane to the ARRIVAL route,
        the only one that walks a graph view."""
        self.arrival.adopt_shared_plane(view, interner, warm_tables)

    def shared_plane_state(
        self,
    ) -> Tuple[
        GraphView,
        LabelSetInterner,
        List[Tuple[str, bool, Dict[str, Any]]],
    ]:
        """The ARRIVAL route's exportable plane state (shm donor side)."""
        return self.arrival.shared_plane_state()


#: LI's capability sheet for the cost model, derived from the class
#: flags the same way EngineBase.capabilities is — stated statically so
#: ranking never needs an index instance (whose build may be the very
#: thing being avoided)
_LANDMARK_CAPABILITIES = EngineCapabilities(
    exact=not LandmarkIndex.approximate,
    supports_predicates=LandmarkIndex.supports_query_time_labels,
    needs_index=not LandmarkIndex.index_free,
    full_regex=LandmarkIndex.supports_full_regex,
    simple_paths=LandmarkIndex.enforces_simple_paths,
    dynamic=LandmarkIndex.supports_dynamic,
    distance_bounds=LandmarkIndex.supports_distance_bounds,
)
