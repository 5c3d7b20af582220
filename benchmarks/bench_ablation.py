"""Ablations — ARRIVAL design-choice variants (DESIGN.md §5)."""

import pytest

from repro.core import Arrival
from repro.datasets import gplus_like
from repro.experiments import ablations
from repro.queries import WorkloadGenerator

from conftest import emit, n_queries, scaled


@pytest.fixture(scope="module")
def table():
    result = ablations.run(
        dataset="gplus", scale=scaled(0.25), n_queries=n_queries(15), seed=59
    )
    emit(result, "ablations")
    return result


def test_exact_mode_recall_at_least_sampled(table):
    by_variant = {row[0]: row[1] for row in table.rows}
    exact = by_variant["exact + hashmap + bidi (default)"]
    sampled = by_variant["sampled labels (App. C.1)"]
    if exact is not None and sampled is not None:
        assert exact >= sampled


@pytest.fixture(scope="module")
def setup():
    graph = gplus_like(n_nodes=400, seed=59)
    generator = WorkloadGenerator(graph, seed=59)
    query = generator.sample_query(positive_bias=1.0)
    return graph, query


VARIANTS = {
    "default": {},
    "sampled_labels": {"label_mode": "sampled"},
    "naive_meeting": {"meeting": "naive"},
    "unidirectional": {"bidirectional": False},
}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_variant_query(benchmark, table, setup, variant):
    graph, query = setup
    engine = Arrival(
        graph, walk_length=10, num_walks=80, seed=1, **VARIANTS[variant]
    )
    benchmark(engine.query, query)
