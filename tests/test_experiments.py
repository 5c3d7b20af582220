"""Experiment runner smoke/shape tests (tiny configurations).

Each runner must return a well-formed ExperimentResult whose quantities
are in range; the heavier statistical claims are exercised by the
benchmark suite at larger scales.
"""

import pytest

from repro.experiments import ablations, fig4, fig5, fig6, fig7, fig9
from repro.experiments import table1, table2, table3
from repro.experiments.report import ExperimentResult, format_table


def _assert_valid(result: ExperimentResult):
    assert result.title
    assert result.rows, "experiment produced no rows"
    for row in result.rows:
        assert len(row) == len(result.headers)
    rendered = result.render()
    assert result.title in rendered
    for header in result.headers:
        assert header in rendered


def _recalls_in_range(result: ExperimentResult):
    for value in result.column("Recall"):
        if value is not None:
            assert 0.0 <= value <= 1.0


class TestTables:
    def test_table1_capability_matrix(self):
        result = table1.run()
        _assert_valid(result)
        by_name = {row[0]: row for row in result.rows}
        arrival = by_name["ARRIVAL"]
        assert arrival[1] == "yes" and all(arrival[2:])
        li = by_name["LI (Valstar et al.)"]
        assert li[1] == "only LCR"
        zou = by_name["Zou et al."]
        assert zou[1] == "only LCR" and zou[4] is True  # dynamic LCR
        fan = by_name["Fan et al."]
        assert fan[1] == "partially" and fan[-1] is False
        rl = by_name["RL (Koschmieder et al.)"]
        assert rl[1] == "yes" and rl[-1] is False  # full regex, no simplicity

    def test_table2_dataset_stats(self):
        result = table2.run(scale=0.05, seed=0)
        _assert_valid(result)
        assert len(result.rows) == 5

    @pytest.mark.slow
    def test_table3_shape(self):
        result = table3.run(scale=0.08, n_queries=4, seed=1)
        _assert_valid(result)
        _recalls_in_range(result)
        assert len(result.rows) == 5
        for precision in result.column("Precision"):
            if precision is not None:
                assert precision == 1.0


class TestFigures:
    def test_fig4_size_sweep(self):
        result = fig4.run_size_sweep(
            n_nodes=200, fractions=(0.5, 1.0), top_labels=6, n_queries=3,
            n_landmarks=3, seed=1,
        )
        _assert_valid(result)

    def test_fig4_label_sweep_memory_monotone(self):
        result = fig4.run_label_sweep(
            n_nodes=200, label_counts=(3, 9), n_queries=3, n_landmarks=3,
            seed=1,
        )
        _assert_valid(result)
        memories = [m for m in result.column("LI memory") if m is not None]
        if len(memories) == 2:
            assert memories[0] < memories[1]

    def test_fig4_memory_budget_shows_crash(self):
        result = fig4.run_label_sweep(
            n_nodes=200, label_counts=(3, 9), n_queries=2, n_landmarks=4,
            memory_budget_bytes=2_000, seed=1,
        )
        assert all(m is None for m in result.column("LI memory"))

    @pytest.mark.slow
    def test_fig5_query_types(self):
        result = fig5.run_query_types(
            scale=0.06, n_queries=3, datasets=("gplus",), seed=2
        )
        _assert_valid(result)
        _recalls_in_range(result)
        assert len(result.rows) == 3  # one per query type

    def test_fig5_label_sizes(self):
        result = fig5.run_label_set_size(
            scale=0.06, n_queries=3, sizes=(2, 4), datasets=("gplus",), seed=2
        )
        _assert_valid(result)
        _recalls_in_range(result)

    def test_fig6_buckets(self):
        result = fig6.run_density_buckets(
            scale=0.06, n_queries=3, datasets=("gplus",), seed=3
        )
        _assert_valid(result)
        _recalls_in_range(result)

    def test_fig6_growth(self):
        result = fig6.run_network_growth(
            scale=0.1, fractions=(0.5, 1.0), n_queries=3,
            datasets=("gplus",), seed=3,
        )
        _assert_valid(result)
        sizes = result.column("|V|")
        assert sizes == sorted(sizes)

    def test_fig6_query_time_labels(self):
        result = fig6.run_query_time_labels(n_nodes=120, n_queries=4, seed=3)
        _assert_valid(result)
        _recalls_in_range(result)

    def test_fig7_negation(self):
        result = fig7.run_negation(
            scale=0.06, n_queries=3, datasets=("gplus",), seed=4
        )
        _assert_valid(result)
        _recalls_in_range(result)

    def test_fig7_distance(self):
        result = fig7.run_distance_bounds(
            scale=0.06, n_queries=3, thresholds=(2, 8),
            datasets=("dblp",), seed=4,
        )
        _assert_valid(result)

    def test_fig7_sweeps(self):
        for runner in (fig7.run_num_walks_sweep, fig7.run_walk_length_sweep):
            result = runner(
                scale=0.06, n_queries=3, ks=(0.5, 1.0),
                datasets=("dblp",), seed=4,
            )
            _assert_valid(result)
            _recalls_in_range(result)

    def test_fig9_histogram(self):
        result = fig9.run(scale=0.1, datasets=("gplus", "dblp"), seed=5)
        _assert_valid(result)
        # every label lands in exactly one decade bin
        from repro.datasets.social import gplus_like
        from repro.graph.stats import label_frequency_distribution
        graph = gplus_like(n_nodes=120, seed=5)
        from repro.experiments.fig9 import frequency_histogram
        histogram = frequency_histogram(label_frequency_distribution(graph))
        assert sum(histogram.values()) == len(graph.label_alphabet())

    def test_ablations(self):
        result = ablations.run(
            dataset="gplus", scale=0.06, n_queries=4, seed=5
        )
        _assert_valid(result)
        assert len(result.rows) == 4


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["A", "Banana"], [["x", 1], ["longer", 2.5]])
        lines = text.splitlines()
        assert len({len(line) for line in lines if line.strip()}) <= 2

    def test_cell_formats(self):
        text = format_table(
            ["v"], [[True], [False], [None], [0.123456], [12345.0], [0]]
        )
        assert "yes" in text and "no" in text and "-" in text
        assert "0.123" in text and "12,345" in text

    def test_column_accessor(self):
        result = ExperimentResult("t", ["a", "b"], [[1, 2], [3, 4]])
        assert result.column("b") == [2, 4]
        with pytest.raises(ValueError):
            result.column("missing")

    def test_notes_rendered(self):
        result = ExperimentResult("t", ["a"], [[1]], notes=["hello"])
        assert "note: hello" in result.render()


class TestScalingAndProp1:
    def test_scaling_rows(self):
        from repro.experiments import scaling

        result = scaling.run(sizes=(60, 120), n_queries=4, seed=9)
        _assert_valid(result)
        assert result.column("|V|") == [60, 120]
        for used in result.column("Budget used"):
            assert used >= 0

    def test_prop1_bound_column(self):
        from repro.experiments import prop1

        result = prop1.run(
            n_nodes=60, extra_edges=180, ks=(0.5, 1.0), n_trials=5, seed=9
        )
        _assert_valid(result)
        for probability in result.column("P(overlap)"):
            assert 0.0 <= probability <= 1.0


class TestRunAll:
    def test_registry_covers_every_runner(self):
        from repro.experiments.run_all import default_runners

        names = set(default_runners())
        # one artifact per paper table/figure plus the extension studies
        assert {"table1", "table2", "table3", "fig9", "prop1",
                "scaling", "ablations"} <= names
        assert sum(name.startswith("fig4") for name in names) == 2
        assert sum(name.startswith("fig5") for name in names) == 2
        assert sum(name.startswith("fig6") for name in names) == 3
        assert sum(name.startswith("fig7") for name in names) == 4

    def test_run_all_writes_report(self, tmp_path):
        from repro.experiments import run_all, table1

        # patch the registry down to the cheapest runner to keep this a
        # plumbing test, not a benchmark
        import repro.experiments.run_all as module

        original = module.default_runners
        module.default_runners = lambda *a, **k: {
            "table1": lambda: table1.run()
        }
        try:
            report = run_all.run_all(str(tmp_path), echo=False)
        finally:
            module.default_runners = original
        assert report.exists()
        assert "table1" in report.read_text()
        assert (tmp_path / "table1.txt").exists()
