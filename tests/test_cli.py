"""CLI tests (driving main() in-process)."""

import pytest

from repro.cli import main
from repro.graph.io import load_json, save_json
from repro.graph.labeled_graph import LabeledGraph


@pytest.fixture
def graph_file(tmp_path):
    graph = LabeledGraph(directed=True)
    graph.add_nodes(4)
    graph.add_edge(0, 1, {"a"})
    graph.add_edge(1, 2, {"b"})
    graph.add_edge(2, 3, {"a"})
    path = tmp_path / "graph.json"
    save_json(graph, path)
    return str(path)


class TestGenerate:
    def test_json_output(self, tmp_path, capsys):
        out = str(tmp_path / "g.json")
        code = main(
            ["generate", "gplus", "--scale", "0.05", "--seed", "3",
             "--out", out]
        )
        assert code == 0
        assert "wrote gplus" in capsys.readouterr().out
        graph = load_json(out)
        assert graph.num_nodes == 60

    def test_edgelist_output(self, tmp_path):
        out = str(tmp_path / "g.txt")
        code = main(
            ["generate", "stackoverflow", "--scale", "0.05", "--out", out,
             "--format", "edgelist"]
        )
        assert code == 0

    def test_unknown_dataset_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["generate", "orkut", "--out", "x.json"])


class TestStats:
    def test_summary_printed(self, graph_file, capsys):
        assert main(["stats", graph_file]) == 0
        out = capsys.readouterr().out
        assert "nodes: 4" in out
        assert "edges: 3" in out
        assert "labels: 2" in out


class TestQuery:
    def test_reachable_exit_zero(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "0", "3", "a b a",
             "--engine", "bbfs"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reachable: True" in out
        assert "0 -> 1 -> 2 -> 3" in out

    def test_unreachable_exit_one(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "3", "0", "a", "--engine", "bfs"]
        )
        assert code == 1
        assert "reachable: False" in capsys.readouterr().out

    def test_arrival_engine_with_seed(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "0", "3", "a b a",
             "--engine", "arrival", "--seed", "5"]
        )
        assert code == 0

    def test_auto_engine_reports_routing(self, graph_file, capsys):
        code = main(["query", graph_file, "0", "3", "(a | b)*"])
        assert code == 0
        assert "engine:" in capsys.readouterr().out

    def test_length_range_flags(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "0", "3", "a b a",
             "--engine", "bbfs", "--max-edges", "2"]
        )
        assert code == 1  # only witness has 3 edges


class TestEnumerate:
    def test_paths_listed(self, graph_file, capsys):
        code = main(["enumerate", graph_file, "0", "3", "(a | b)+"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 -> 1 -> 2 -> 3" in out
        assert "1 path(s)" in out

    def test_no_paths(self, graph_file, capsys):
        code = main(["enumerate", graph_file, "3", "0", "a"])
        assert code == 1
        assert "0 path(s)" in capsys.readouterr().out


class TestExperiment:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "ARRIVAL" in capsys.readouterr().out

    def test_table2_scaled(self, capsys):
        assert main(["experiment", "table2", "--scale", "0.05"]) == 0
        assert "Dataset" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])


class TestWorkloadAndEvaluate:
    def test_workload_and_evaluate_round_trip(self, tmp_path, capsys):
        graph_path = str(tmp_path / "g.json")
        assert main(["generate", "gplus", "--scale", "0.05", "--seed", "3",
                     "--out", graph_path]) == 0
        workload_path = str(tmp_path / "w.json")
        assert main(["workload", graph_path, "--out", workload_path,
                     "-n", "6", "--positive-bias", "0.5",
                     "--seed", "2"]) == 0
        assert "wrote 6 queries" in capsys.readouterr().out
        assert main(["evaluate", graph_path, workload_path,
                     "--baseline", "none"]) == 0
        out = capsys.readouterr().out
        assert "queries: 6" in out
        assert "mean time" in out

    def test_metrics_out_round_trips_through_stats(self, tmp_path, capsys):
        """`evaluate --metrics-out` writes the run's BatchStats as JSON
        and `stats --metrics` renders that file."""
        import json

        graph_path = str(tmp_path / "g.json")
        workload_path = str(tmp_path / "w.json")
        metrics_path = str(tmp_path / "m.json")
        main(["generate", "gplus", "--scale", "0.05", "--seed", "3",
              "--out", graph_path])
        main(["workload", graph_path, "--out", workload_path, "-n", "6",
              "--positive-bias", "0.5", "--seed", "2"])
        capsys.readouterr()
        assert main(["evaluate", graph_path, workload_path,
                     "--baseline", "none", "--metrics",
                     "--metrics-out", metrics_path,
                     "--trace", str(tmp_path / "t.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "totals:" in out
        assert "span(s) written" in out
        with open(metrics_path, encoding="utf-8") as handle:
            stats = json.load(handle)
        assert stats["n_queries"] == 6
        assert stats["totals"]["jumps"] > 0
        assert main(["stats", "--metrics", metrics_path]) == 0
        assert "jumps" in capsys.readouterr().out

    def test_workload_type_restriction(self, tmp_path):
        graph_path = str(tmp_path / "g.json")
        main(["generate", "dblp", "--scale", "0.05", "--out", graph_path])
        workload_path = str(tmp_path / "w.json")
        main(["workload", graph_path, "--out", workload_path, "-n", "4",
              "--types", "2"])
        from repro.queries.io import load_workload

        for query in load_workload(workload_path):
            assert query.meta["query_type"] == 2


class TestErrorPaths:
    def test_repro_error_exits_2(self, tmp_path, capsys):
        # enumeration over a complete graph with a tiny budget raises a
        # QueryError, which the CLI maps to exit code 2
        from repro.graph.labeled_graph import LabeledGraph

        graph = LabeledGraph(directed=True)
        graph.add_nodes(10)
        for u in range(10):
            for v in range(10):
                if u != v:
                    graph.add_edge(u, v, {"a"})
        path = tmp_path / "k10.json"
        save_json(graph, path)
        # target 0->1 with unconstrained regex has astronomically many
        # paths; limit high enough that the expansion budget trips first
        code = main(["enumerate", str(path), "0", "1", "a+",
                     "--limit", "100000"])
        assert code in (0, 1, 2)  # never an unhandled traceback

    def test_missing_graph_file(self, capsys):
        with pytest.raises(FileNotFoundError):
            main(["stats", "/nonexistent/graph.json"])
