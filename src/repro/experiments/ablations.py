"""Ablations of ARRIVAL's design choices (DESIGN.md §5).

Not in the paper's evaluation, but each isolates a decision the paper
(or this reproduction) made:

* **exact vs sampled label tracking** — Appendix C.1 samples one label
  per multi-labeled element; powerset tracking never abandons a viable
  walk.  Measures the recall an implementation gives up for the
  cheaper check.
* **hashmap vs naive Case-3 check** — Theorem 2 vs Theorem 4: the whole
  point of the ``(node, automatonState)`` hashmaps.
* **bidirectional vs unidirectional sampling** — Sec. 4.1's motivation
  for walking from both endpoints.

Transition memoisation is not a variant: the walk loop memoises
wherever that is sound (exact label mode, no query-time predicates).
"""

from __future__ import annotations

from repro.core.arrival import Arrival
from repro.core.parameters import estimate_walk_length, recommended_num_walks
from repro.datasets.registry import DATASETS, snapshot_of
from repro.experiments.harness import (
    Oracle,
    evaluate_workload,
    ground_truths,
    workload_metrics,
)
from repro.experiments.report import ExperimentResult
from repro.queries.workload import WorkloadGenerator
from repro.rng import RngLike, ensure_rng

_VARIANTS = (
    ("exact + hashmap + bidi (default)", {}),
    ("sampled labels (App. C.1)", {"label_mode": "sampled"}),
    ("naive Case-3 check (Thm. 2)", {"meeting": "naive"}),
    ("unidirectional walks", {"bidirectional": False}),
)


def run(
    dataset: str = "gplus",
    scale: float = 0.4,
    n_queries: int = 20,
    seed: RngLike = 59,
) -> ExperimentResult:
    """Compare ARRIVAL variants on one workload."""
    rng = ensure_rng(seed)
    spec = DATASETS[dataset.lower()]
    graph = snapshot_of(spec.build(scale=scale, seed=rng))
    generator = WorkloadGenerator(graph, seed=rng)
    queries = generator.generate(n_queries, positive_bias=0.5)
    oracle = Oracle(graph)
    truths = ground_truths(oracle, queries)
    walk_length = estimate_walk_length(graph, seed=rng)
    num_walks = recommended_num_walks(graph.num_nodes)
    # one seed for every variant: each row's walks start from the same
    # stream, whatever the variants before it drew, so rows are paired
    variant_seed = int(rng.integers(1 << 32))

    rows = []
    for name, overrides in _VARIANTS:
        engine = Arrival(
            graph,
            walk_length=walk_length,
            num_walks=num_walks,
            seed=variant_seed,
            **overrides,
        )
        metrics = workload_metrics(evaluate_workload(engine, queries, truths))
        rows.append(
            (
                name,
                metrics.recall,
                metrics.mean_time * 1000,
                (metrics.mean_time_positive or 0) * 1000,
                (metrics.mean_time_negative or 0) * 1000,
            )
        )
    return ExperimentResult(
        title=f"Ablations of ARRIVAL design choices [{spec.name}]",
        headers=[
            "Variant",
            "Recall",
            "Mean ms",
            "Positive ms",
            "Negative ms",
        ],
        rows=rows,
        notes=[f"{n_queries} mixed queries, scale={scale}"],
    )
