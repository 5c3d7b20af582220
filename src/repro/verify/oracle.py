"""Cross-engine differential checking under the paper's error model.

The adjudication rules encode exactly what Sec. 3.1.2 permits:

* **Exact RSPQ answers must agree.**  Two answers marked ``exact=True``
  by engines with simple-path semantics, neither timed out, on a
  supported query must be the same — any split is a divergence.  The
  mark counts whichever engine set it: an approximate engine's exact
  False (AUTO's certified negatives) is as binding as BBFS's.
* **Positives must be certain.**  Every positive answer carrying a path
  is re-validated by the independent witness oracle
  (:mod:`repro.verify.witness`); a verified *simple* witness is a
  graph-level proof that the RSPQ answer is True, regardless of which
  engine produced it.
* **Approximate engines may only err negatively.**  ARRIVAL (and the
  router that may delegate to it) answering an inexact False on a query
  whose truth is provably True is a *legal* false negative and is
  recorded for recall accounting — not a divergence.
* **Arbitrary-path semantics is an upper bound.**  A simple path is in
  particular a walk, so an exact arbitrary-path engine (RL, Fan)
  answering a completed False on a provably-True query has missed a
  walk that must exist — a divergence.

Divergence taxonomy (the ``kind`` field of a :class:`Fingerprint`):
``witness-violation``, ``exact-disagreement``, ``false-positive``,
``missed-path``, ``missed-walk``, ``error``.

Every divergence carries a replayable fingerprint — dataset, query,
seed, engine set — and renders the one command that reproduces it.
"""

from __future__ import annotations

import json
import shlex
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from repro import obs
from repro.core.engine import (
    EngineBase,
    EngineCapabilities,
    engine_class,
    make_engine,
)
from repro.core.executor import BatchExecutor
from repro.core.result import QueryResult
from repro.errors import DivergenceError
from repro.graph.labeled_graph import LabeledGraph
from repro.queries.io import query_from_dict, query_to_dict
from repro.queries.query import RSPQuery
from repro.verify.witness import WitnessReport, check_witness

#: adjudication verdicts an engine's answer can receive
KIND_WITNESS = "witness-violation"
KIND_DISAGREEMENT = "exact-disagreement"
KIND_FALSE_POSITIVE = "false-positive"
KIND_MISSED_PATH = "missed-path"
KIND_MISSED_WALK = "missed-walk"
KIND_ERROR = "error"


@dataclass(frozen=True)
class Fingerprint:
    """Everything needed to replay one divergence in one command."""

    dataset: str
    query: Dict[str, Any]
    seed: Optional[int]
    #: the engine(s) implicated by the adjudicator
    engine: str
    #: the full engine set of the run (replay needs all of them)
    engines: Tuple[str, ...] = ()
    kind: str = ""
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "dataset": self.dataset,
            "query": self.query,
            "seed": self.seed,
            "engine": self.engine,
            "engines": list(self.engines),
            "kind": self.kind,
            "detail": self.detail,
            "replay": self.replay_command(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Fingerprint":
        return cls(
            dataset=str(data["dataset"]),
            query=dict(data["query"]),
            seed=data.get("seed"),
            engine=str(data.get("engine", "")),
            engines=tuple(data.get("engines", ())),
            kind=str(data.get("kind", "")),
            detail=str(data.get("detail", "")),
        )

    def replay_command(self) -> str:
        """The one shell command that re-adjudicates this query."""
        parts = [
            "python -m repro.cli verify",
            shlex.quote(self.dataset),
            "--query",
            shlex.quote(json.dumps(self.query, sort_keys=True)),
        ]
        if self.engines:
            parts += ["--engines", ",".join(self.engines)]
        if self.seed is not None:
            parts += ["--seed", str(self.seed)]
        return " ".join(parts)


@dataclass
class Adjudication:
    """The differential verdict for one query."""

    index: int
    query: RSPQuery
    #: RSPQ ground truth when provable from this engine set, else None
    truth: Optional[bool]
    #: per-engine boolean answer; None when the engine gave no usable
    #: answer (timeout, error, unsupported query)
    answers: Dict[str, Optional[bool]] = field(default_factory=dict)
    divergences: List[Fingerprint] = field(default_factory=list)
    #: approximate engines that legally answered False on a true positive
    false_negatives: List[str] = field(default_factory=list)
    unsupported: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass
class OracleReport:
    """One workload sweep through the differential oracle."""

    dataset: str
    seed: Optional[int]
    engines: Tuple[str, ...]
    adjudications: List[Adjudication] = field(default_factory=list)

    @property
    def n_queries(self) -> int:
        return len(self.adjudications)

    @property
    def divergences(self) -> List[Fingerprint]:
        out: List[Fingerprint] = []
        for adjudication in self.adjudications:
            out.extend(adjudication.divergences)
        return out

    @property
    def ok(self) -> bool:
        return not self.divergences

    def recall(self) -> Dict[str, Optional[float]]:
        """Per-engine recall over queries with a provable True answer."""
        positives: Dict[str, int] = {}
        hits: Dict[str, int] = {}
        for adjudication in self.adjudications:
            if adjudication.truth is not True:
                continue
            for name, answer in adjudication.answers.items():
                if answer is None:
                    continue
                positives[name] = positives.get(name, 0) + 1
                hits[name] = hits.get(name, 0) + int(answer)
        return {
            name: (hits.get(name, 0) / count if count else None)
            for name, count in sorted(positives.items())
        }

    def as_dict(self) -> Dict[str, Any]:
        return {
            "dataset": self.dataset,
            "seed": self.seed,
            "engines": list(self.engines),
            "n_queries": self.n_queries,
            "n_divergences": len(self.divergences),
            "n_false_negatives": sum(
                len(a.false_negatives) for a in self.adjudications
            ),
            "recall": self.recall(),
            "divergences": [fp.as_dict() for fp in self.divergences],
        }


def _class_capabilities(cls: Type[EngineBase]) -> EngineCapabilities:
    """Capabilities from the class flags, without building the engine."""
    return EngineCapabilities(
        exact=not cls.approximate,
        supports_predicates=cls.supports_query_time_labels,
        needs_index=not cls.index_free,
        full_regex=cls.supports_full_regex,
        simple_paths=cls.enforces_simple_paths,
        dynamic=cls.supports_dynamic,
        distance_bounds=cls.supports_distance_bounds,
    )


def _supports(caps: EngineCapabilities, query: RSPQuery) -> bool:
    """Is the query inside the engine's declared capability envelope?
    (The fragment itself is enforced by the engine raising
    UnsupportedQueryError, collected as an error result.)"""
    if (
        query.predicates is not None
        and len(query.predicates) > 0
        and not caps.supports_predicates
    ):
        return False
    if (
        query.distance_bound is not None or query.min_distance is not None
    ) and not caps.distance_bounds:
        return False
    return True


#: error types that mean "this engine does not answer this query class",
#: which the error model treats as abstention, not failure
_UNSUPPORTED_ERRORS = ("UnsupportedQueryError", "UnsupportedRegexError")


class DifferentialOracle:
    """Run queries through an engine set and adjudicate the answers.

    Parameters mirror :class:`~repro.core.executor.BatchExecutor`:
    ``seed`` pins the deterministic per-query RNG streams (and lands in
    every fingerprint), ``backend``/``workers``/``timeout_s`` shape the
    sweep, ``engine_kwargs`` passes per-engine budgets (e.g. BBFS
    expansion caps).  ``dataset`` is the label stamped on fingerprints —
    pass the graph's file path so replay commands work verbatim.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        engines: Sequence[str] = ("arrival", "bbfs"),
        *,
        dataset: str = "<graph>",
        seed: Optional[int] = None,
        elements: Optional[str] = None,
        negation_mode: str = "paper",
        backend: str = "serial",
        workers: int = 4,
        timeout_s: Optional[float] = None,
        engine_kwargs: Optional[Dict[str, Dict[str, Any]]] = None,
        executor_kwargs: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not engines:
            raise ValueError("the differential oracle needs >= 1 engine")
        self.graph = graph
        self.engines: Tuple[str, ...] = tuple(engines)
        self.dataset = dataset
        self.seed = seed
        self.elements = elements
        self.negation_mode = negation_mode
        self.backend = backend
        self.workers = workers
        self.timeout_s = timeout_s
        self.engine_kwargs = dict(engine_kwargs or {})
        #: extra BatchExecutor options for the sweep (``shm=...``,
        #: ``chunk_size=...``) — answers are dispatch-independent, so
        #: these change performance, never adjudications
        self.executor_kwargs = dict(executor_kwargs or {})
        self.capabilities: Dict[str, EngineCapabilities] = {
            name: _class_capabilities(engine_class(name))
            for name in self.engines
        }

    # ------------------------------------------------------------------
    def run(self, queries: Sequence[RSPQuery]) -> OracleReport:
        """Sweep a workload: every engine answers every query, then each
        query is adjudicated under the error model."""
        queries = list(queries)
        per_engine: Dict[str, List[QueryResult]] = {}
        with obs.span(
            "oracle.run",
            engines=",".join(self.engines),
            queries=len(queries),
        ):
            for name in self.engines:
                factory = partial(
                    make_engine,
                    name,
                    self.graph,
                    seed=self.seed,
                    **self.engine_kwargs.get(name, {}),
                )
                executor = BatchExecutor(
                    factory=factory,
                    backend=self.backend,
                    workers=self.workers,
                    seed=self.seed,
                    timeout_s=self.timeout_s,
                    fail_fast=False,
                    **self.executor_kwargs,
                )
                try:
                    per_engine[name] = executor.run(queries).results
                finally:
                    executor.close()
            report = OracleReport(
                dataset=self.dataset, seed=self.seed, engines=self.engines
            )
            with obs.span("oracle.adjudicate", queries=len(queries)):
                for index, query in enumerate(queries):
                    results = {
                        name: per_engine[name][index]
                        for name in self.engines
                    }
                    report.adjudications.append(
                        self._adjudicate(index, query, results)
                    )
        return report

    def check(
        self, query: RSPQuery, *, raise_on_divergence: bool = False
    ) -> Adjudication:
        """Adjudicate a single query; optionally raise on divergence."""
        adjudication = self.run([query]).adjudications[0]
        if raise_on_divergence and adjudication.divergences:
            first = adjudication.divergences[0]
            raise DivergenceError(
                f"{first.kind} [{first.engine}]: {first.detail}\n"
                f"replay: {first.replay_command()}",
                fingerprint=first,
            )
        return adjudication

    # ------------------------------------------------------------------
    def _fingerprint(
        self, query: RSPQuery, engine: str, kind: str, detail: str
    ) -> Fingerprint:
        return Fingerprint(
            dataset=self.dataset,
            query=query_to_dict(query),
            seed=self.seed,
            engine=engine,
            engines=self.engines,
            kind=kind,
            detail=detail,
        )

    def _adjudicate(
        self,
        index: int,
        query: RSPQuery,
        results: Dict[str, QueryResult],
    ) -> Adjudication:
        adjudication = Adjudication(index=index, query=query, truth=None)
        witnessed: Dict[str, WitnessReport] = {}
        usable: Dict[str, QueryResult] = {}

        for name in self.engines:
            result = results[name]
            caps = self.capabilities[name]
            if not _supports(caps, query):
                adjudication.unsupported.append(name)
                adjudication.answers[name] = None
                continue
            error_type = getattr(result, "error_type", "")
            if error_type:
                adjudication.answers[name] = None
                if error_type in _UNSUPPORTED_ERRORS:
                    adjudication.unsupported.append(name)
                else:
                    adjudication.divergences.append(
                        self._fingerprint(
                            query, name, KIND_ERROR,
                            f"{error_type}: "
                            f"{getattr(result, 'error', '')}",
                        )
                    )
                continue
            if getattr(result, "timeout_s", None) is not None:
                adjudication.answers[name] = None
                continue
            usable[name] = result
            adjudication.answers[name] = bool(result.reachable)
            if result.reachable and result.path is not None:
                report = check_witness(
                    self.graph,
                    query,
                    result,
                    elements=self.elements,
                    negation_mode=self.negation_mode,
                    expect_simple=caps.simple_paths,
                )
                witnessed[name] = report
                if not report.ok:
                    adjudication.divergences.append(
                        self._fingerprint(
                            query, name, KIND_WITNESS,
                            f"{report.invariant}: {report.detail}",
                        )
                    )

        # a verified *simple* witness is a graph-level proof of True
        proven_true = any(
            report.ok
            and usable[name].path is not None
            and len(set(usable[name].path or ())) == len(usable[name].path or ())
            for name, report in witnessed.items()
        )

        # exactness is the answer's own claim, not the engine class's:
        # an approximate engine may still answer exactly
        exact = [
            name
            for name, result in usable.items()
            if result.exact and not result.timed_out
        ]
        exact_simple = {
            name: bool(usable[name].reachable)
            for name in exact
            if self.capabilities[name].simple_paths
        }
        if len(set(exact_simple.values())) > 1:
            split = ", ".join(
                f"{name}={answer}"
                for name, answer in sorted(exact_simple.items())
            )
            adjudication.divergences.append(
                self._fingerprint(
                    query,
                    ",".join(sorted(exact_simple)),
                    KIND_DISAGREEMENT,
                    f"exact RSPQ engines split: {split}",
                )
            )
            return adjudication

        exact_walk_false = [
            name
            for name in exact
            if not self.capabilities[name].simple_paths
            and not usable[name].reachable
        ]

        if proven_true:
            adjudication.truth = True
        elif exact_simple:
            adjudication.truth = next(iter(exact_simple.values()))
        elif exact_walk_false:
            # no compatible walk at all => in particular no simple path
            adjudication.truth = False

        truth = adjudication.truth
        if truth is True:
            for name, answer in exact_simple.items():
                if not answer:
                    adjudication.divergences.append(
                        self._fingerprint(
                            query, name, KIND_MISSED_PATH,
                            "exact engine answered False but a verified "
                            "simple witness exists",
                        )
                    )
            for name in exact_walk_false:
                adjudication.divergences.append(
                    self._fingerprint(
                        query, name, KIND_MISSED_WALK,
                        "arbitrary-path engine answered an exact False "
                        "but a simple path (hence a walk) exists",
                    )
                )
            for name, result in usable.items():
                caps = self.capabilities[name]
                if (
                    not caps.exact
                    and name not in exact
                    and not result.reachable
                ):
                    # the paper's legal one-sided error
                    adjudication.false_negatives.append(name)
        elif truth is False:
            for name, result in usable.items():
                caps = self.capabilities[name]
                if caps.simple_paths and result.reachable:
                    adjudication.divergences.append(
                        self._fingerprint(
                            query, name, KIND_FALSE_POSITIVE,
                            "positive answer on a query whose RSPQ truth "
                            "is provably False",
                        )
                    )
        return adjudication


def replay_fingerprint(
    graph: LabeledGraph,
    fingerprint: Fingerprint,
    *,
    dataset: Optional[str] = None,
    backend: str = "serial",
    workers: int = 4,
    timeout_s: Optional[float] = None,
    engine_kwargs: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Adjudication:
    """Re-run the engine set of a stored fingerprint on its query."""
    engines = fingerprint.engines or (fingerprint.engine,)
    oracle = DifferentialOracle(
        graph,
        engines,
        dataset=dataset or fingerprint.dataset,
        seed=fingerprint.seed,
        backend=backend,
        workers=workers,
        timeout_s=timeout_s,
        engine_kwargs=engine_kwargs,
    )
    return oracle.check(query_from_dict(fingerprint.query))
