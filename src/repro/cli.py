"""Command-line interface.

Usage (also via ``python -m repro.cli``)::

    # generate a dataset and persist it
    python -m repro.cli generate gplus --scale 0.5 --seed 7 --out g.json

    # summarise a stored graph
    python -m repro.cli stats g.json

    # answer one RSPQ
    python -m repro.cli query g.json 0 42 "(Gender:Male | Occ:o0)*" \
        --engine arrival --seed 1

    # enumerate compatible simple paths
    python -m repro.cli enumerate g.json 0 42 "Occ:o0+" --limit 3

    # differentially verify engine answers on a stored workload
    python -m repro.cli verify g.json --workload w.json \
        --engines arrival,bbfs --seed 7 --out report.json

    # regenerate a paper table/figure
    python -m repro.cli experiment table3 --scale 0.3 --queries 10
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Any, Dict, List, Optional

from repro.core.engine import engine_names, make_engine
from repro.core.enumeration import enumerate_compatible_paths
from repro.datasets.registry import dataset_names, load_dataset, snapshot_of
from repro.errors import ReproError
from repro.graph import io as graph_io
from repro.graph.stats import labels_by_frequency, summarize

_EXPERIMENTS = {}


def _experiment_registry():
    """Lazy experiment-name -> runner map (imports are not free)."""
    if not _EXPERIMENTS:
        from repro.experiments import (
            ablations, fig4, fig5, fig6, fig7, fig9, prop1, scaling,
            table1, table2, table3,
        )

        _EXPERIMENTS.update({
            "table1": lambda **kw: table1.run(),
            "table2": lambda **kw: table2.run(
                scale=kw["scale"], seed=kw["seed"]),
            "table3": lambda **kw: table3.run(**kw),
            "fig4-size": lambda **kw: fig4.run_size_sweep(
                n_queries=kw["n_queries"], seed=kw["seed"]),
            "fig4-labels": lambda **kw: fig4.run_label_sweep(
                n_queries=kw["n_queries"], seed=kw["seed"]),
            "fig5-types": lambda **kw: fig5.run_query_types(**kw),
            "fig5-labels": lambda **kw: fig5.run_label_set_size(**kw),
            "fig6-buckets": lambda **kw: fig6.run_density_buckets(**kw),
            "fig6-growth": lambda **kw: fig6.run_network_growth(**kw),
            "fig6-qtl": lambda **kw: fig6.run_query_time_labels(
                n_queries=kw["n_queries"], seed=kw["seed"]),
            "fig7-negation": lambda **kw: fig7.run_negation(**kw),
            "fig7-distance": lambda **kw: fig7.run_distance_bounds(**kw),
            "fig7-numwalks": lambda **kw: fig7.run_num_walks_sweep(**kw),
            "fig7-walklength": lambda **kw: fig7.run_walk_length_sweep(**kw),
            "fig9": lambda **kw: fig9.run(scale=kw["scale"], seed=kw["seed"]),
            "prop1": lambda **kw: prop1.run(seed=kw["seed"]),
            "scaling": lambda **kw: scaling.run(
                n_queries=kw["n_queries"], seed=kw["seed"]),
            "ablations": lambda **kw: ablations.run(
                scale=kw["scale"], n_queries=kw["n_queries"], seed=kw["seed"]),
        })
    return _EXPERIMENTS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ARRIVAL: regular simple path queries (SIGMOD 2019 "
        "reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic dataset and save it"
    )
    generate.add_argument("dataset", choices=dataset_names())
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True)
    generate.add_argument(
        "--format", choices=("json", "edgelist"), default="json"
    )

    stats = commands.add_parser(
        "stats",
        help="summarise a stored graph, or render saved batch statistics",
    )
    stats.add_argument("graph", nargs="?", default=None)
    stats.add_argument("--top-labels", type=int, default=10)
    stats.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="render the batch statistics exported by "
        "`repro evaluate --metrics-out FILE` instead of a graph",
    )

    query = commands.add_parser("query", help="answer one RSPQ")
    query.add_argument("graph")
    query.add_argument("source", type=int)
    query.add_argument("target", type=int)
    query.add_argument("regex")
    query.add_argument("--engine", choices=engine_names(), default="auto")
    query.add_argument(
        "--syntax", choices=("native", "sparql"), default="native",
        help="regex syntax: the native label-regex grammar or SPARQL "
        "property paths",
    )
    query.add_argument("--seed", type=int, default=None)
    query.add_argument("--max-edges", type=int, default=None)
    query.add_argument("--min-edges", type=int, default=None)

    enumerate_cmd = commands.add_parser(
        "enumerate", help="enumerate compatible simple paths"
    )
    enumerate_cmd.add_argument("graph")
    enumerate_cmd.add_argument("source", type=int)
    enumerate_cmd.add_argument("target", type=int)
    enumerate_cmd.add_argument("regex")
    enumerate_cmd.add_argument("--limit", type=int, default=10)
    enumerate_cmd.add_argument("--max-edges", type=int, default=None)

    workload = commands.add_parser(
        "workload", help="generate a query workload for a stored graph"
    )
    workload.add_argument("graph")
    workload.add_argument("--out", required=True)
    workload.add_argument("-n", "--queries", type=int, default=50)
    workload.add_argument("--types", default="1,2,3",
                          help="comma-separated query types")
    workload.add_argument("--positive-bias", type=float, default=0.0)
    workload.add_argument("--seed", type=int, default=0)

    evaluate = commands.add_parser(
        "evaluate", help="run a stored workload against an engine and "
        "report recall/precision/speedup"
    )
    evaluate.add_argument("graph")
    evaluate.add_argument("workload")
    evaluate.add_argument("--engine", choices=("arrival",), default="arrival")
    evaluate.add_argument("--baseline", choices=("bbfs", "none"),
                          default="bbfs")
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument(
        "--backend", choices=("serial", "thread", "process"),
        default="serial",
        help="batch execution backend (answers are identical across "
        "backends at a fixed seed)",
    )
    evaluate.add_argument("--workers", type=int, default=4,
                          help="worker count for parallel backends")
    evaluate.add_argument(
        "--shm", choices=("auto", "on", "off"), default="auto",
        help="ship the graph to process workers through a zero-copy "
        "shared-memory plane instead of pickling it ('auto' uses shm "
        "when the engine factory carries a graph argument; ignored by "
        "serial/thread backends)",
    )
    evaluate.add_argument(
        "--chunk-size", default="auto", metavar="N",
        help="queries per process-pool future: 'auto' sizes chunks "
        "from the workload, an integer fixes it, 1 restores per-query "
        "dispatch (answers are identical either way)",
    )
    evaluate.add_argument(
        "--keep-pool", action="store_true",
        help="keep the process worker pool (and its warm per-worker "
        "engines) alive across batches instead of tearing it down "
        "after each run",
    )
    evaluate.add_argument(
        "--plan-cache", choices=("on", "off"), default="on",
        help="reuse compiled query plans across the workload (warm "
        "serving); 'off' replans every query from scratch",
    )
    evaluate.add_argument(
        "--plan-cache-size", type=int, default=256, metavar="N",
        help="maximum cached plans per engine scope (LRU-evicted "
        "beyond this; only meaningful with --plan-cache on)",
    )
    evaluate.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record structured spans and write them as JSON-lines; a "
        "FILE ending in .json gets the Chrome trace_event format "
        "(chrome://tracing / Perfetto) instead",
    )
    evaluate.add_argument(
        "--metrics", action="store_true",
        help="print the run's batch statistics (outcome counts, "
        "throughput, worker set-up, shipped bytes and every per-query "
        "counter and stage total) afterwards",
    )
    evaluate.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="also write the batch statistics as JSON (render them "
        "later with `repro stats --metrics FILE`)",
    )

    verify = commands.add_parser(
        "verify", help="differentially verify engine answers on a "
        "workload and emit a JSON report"
    )
    verify.add_argument("graph")
    what = verify.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", help="workload file to sweep")
    what.add_argument(
        "--query", help="one query as inline JSON "
        '(e.g. \'{"source": 0, "target": 3, "regex": "a b"}\')',
    )
    what.add_argument(
        "--replay", help="re-adjudicate a stored divergence fingerprint "
        "(JSON file)",
    )
    verify.add_argument(
        "--engines", default="arrival,bbfs",
        help="comma-separated engine set to adjudicate "
        f"(known: {', '.join(engine_names())})",
    )
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument(
        "--backend", choices=("serial", "thread", "process"),
        default="serial",
    )
    verify.add_argument("--workers", type=int, default=4)
    verify.add_argument("--timeout", type=float, default=None,
                        help="per-query deadline in seconds")
    verify.add_argument("--out", default=None,
                        help="write the JSON report here")

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument("name", choices=sorted(_experiment_registry()))
    experiment.add_argument("--scale", type=float, default=0.3)
    experiment.add_argument("--queries", type=int, default=10)
    experiment.add_argument("--seed", type=int, default=7)
    experiment.add_argument(
        "--chart", default=None, metavar="LABEL:VALUE",
        help="also render a bar chart of VALUE column against LABEL "
        "column, e.g. --chart 'K:Recall'",
    )

    # listed for --help only: main() forwards `repro lint ...` to
    # python -m repro.lint before this parser runs
    commands.add_parser(
        "lint",
        help="run the repro.lint invariant linter",
        add_help=False,
    )

    return parser


def _load_graph(path: str):
    if path.endswith((".txt", ".edgelist")):
        return graph_io.load_edge_list(path)
    return graph_io.load_json(path)


def _cmd_generate(args) -> int:
    graph = snapshot_of(load_dataset(args.dataset, args.scale, args.seed))
    if args.format == "json":
        graph_io.save_json(graph, args.out)
    else:
        graph_io.save_edge_list(graph, args.out)
    print(
        f"wrote {args.dataset} ({graph.num_nodes} nodes, "
        f"{graph.num_edges} edges, {len(graph.label_alphabet())} labels) "
        f"to {args.out}"
    )
    return 0


def _render_batch_stats(stats: Dict[str, Any]) -> str:
    """Table of one run's ``BatchStats`` in ``dataclasses.asdict`` form."""

    def row(name: str, value: Any, indent: str = "") -> str:
        shown = f"{value:.6g}" if isinstance(value, float) else value
        return f"{indent}{name:<{24 - len(indent)}} {shown}"

    rows = [
        row(name, stats[name])
        for name in (
            "n_queries", "n_reachable", "n_timeouts", "n_errors",
            "wall_s", "queries_per_second", "mean_query_s",
            "worker_init_s", "ship_bytes",
        )
    ]
    rows.append(row("engines", ", ".join(stats["engines"])))
    rows.append("totals:")
    rows.extend(
        row(name, value, "  ")
        for name, value in stats["totals"].items()
        if name != "engine"
    )
    return "\n".join(rows)


def _cmd_stats(args) -> int:
    if args.metrics is not None:
        import json

        with open(args.metrics, encoding="utf-8") as handle:
            print(_render_batch_stats(json.load(handle)))
        return 0
    if args.graph is None:
        print(
            "error: provide a graph file or --metrics FILE",
            file=sys.stderr,
        )
        return 2
    graph = _load_graph(args.graph)
    summary = summarize(graph, name=args.graph)
    print(f"nodes: {summary.num_nodes}")
    print(f"edges: {summary.num_edges}")
    print(f"labels: {summary.num_labels}")
    print(f"directed: {summary.directed}")
    print(f"node labels: {summary.node_labels}  "
          f"edge labels: {summary.edge_labels}")
    top = labels_by_frequency(graph)[: args.top_labels]
    if top:
        print("most frequent labels: " + ", ".join(top))
    return 0


def _cmd_query(args) -> int:
    graph = _load_graph(args.graph)
    engine = make_engine(args.engine, graph, seed=args.seed)
    regex = args.regex
    if getattr(args, "syntax", "native") == "sparql":
        from repro.regex.sparql import translate_property_path

        regex = translate_property_path(args.regex)
    kwargs = {}
    if args.max_edges is not None:
        kwargs["distance_bound"] = args.max_edges
    if args.min_edges is not None:
        kwargs["min_distance"] = args.min_edges
    result = engine.query(args.source, args.target, regex, **kwargs)
    print(f"reachable: {result.reachable}")
    if result.path:
        print(f"witness: {' -> '.join(map(str, result.path))}")
    if result.timed_out:
        print("warning: search truncated by its budget (answer inexact)")
    routed = result.info.get("routed_to")
    if routed:
        print(f"engine: {routed}")
    return 0 if result.reachable else 1


def _cmd_enumerate(args) -> int:
    graph = _load_graph(args.graph)
    count = 0
    for path in enumerate_compatible_paths(
        graph, args.source, args.target, args.regex,
        limit=args.limit, max_edges=args.max_edges,
    ):
        print(" -> ".join(map(str, path)))
        count += 1
    print(f"{count} path(s)")
    return 0 if count else 1


def _cmd_experiment(args) -> int:
    runner = _experiment_registry()[args.name]
    result = runner(scale=args.scale, n_queries=args.queries, seed=args.seed)
    print(result.render())
    if args.chart:
        from repro.experiments.charts import chart_experiment

        label_column, _, value_column = args.chart.partition(":")
        print()
        print(chart_experiment(result, label_column, value_column))
    return 0


def _cmd_workload(args) -> int:
    from repro.queries.io import save_workload
    from repro.queries.workload import WorkloadGenerator

    graph = _load_graph(args.graph)
    types = tuple(int(part) for part in args.types.split(","))
    generator = WorkloadGenerator(graph, seed=args.seed)
    queries = generator.generate(
        args.queries, query_types=types, positive_bias=args.positive_bias
    )
    save_workload(queries, args.out)
    print(f"wrote {len(queries)} queries to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    from functools import partial

    from repro.core.parameters import (
        estimate_walk_length,
        recommended_num_walks,
    )
    from repro.experiments.harness import (
        Oracle,
        evaluate_workload_report,
        ground_truths,
        workload_metrics,
    )
    from repro.queries.io import load_workload

    from repro import obs

    if args.trace:
        obs.enable()

    graph = _load_graph(args.graph)
    queries = load_workload(args.workload)
    from repro.queries.workload import workload_summary

    summary = workload_summary(queries)
    print(f"workload: {summary['n_queries']} queries, "
          f"type mix {summary['type_counts']}")
    oracle = Oracle(graph)
    truths = ground_truths(oracle, queries)
    # picklable factories: the registry + partial shape every backend of
    # the batch executor accepts, including process pools
    chunk_size = (
        int(args.chunk_size) if args.chunk_size.isdigit()
        else args.chunk_size
    )
    executor_kwargs = dict(
        backend=args.backend, workers=args.workers, seed=args.seed,
        shm=args.shm, chunk_size=chunk_size, keep_pool=args.keep_pool,
    )
    # one shared artifact cache: repeated templates plan once, and the
    # baseline reuses the same compiled automata (max_plans=0 switches
    # the cache off and replans every query)
    from repro.core.plan import PlanCache

    plan_cache = PlanCache(
        max_plans=args.plan_cache_size if args.plan_cache == "on" else 0
    )
    factory = partial(
        make_engine,
        args.engine,
        graph,
        walk_length=estimate_walk_length(graph, seed=args.seed),
        num_walks=recommended_num_walks(graph.num_nodes),
        seed=args.seed,
        plan_cache=plan_cache,
    )
    records, report = evaluate_workload_report(
        None, queries, truths, factory=factory, **executor_kwargs
    )
    baseline_records = None
    if args.baseline == "bbfs":
        baseline_factory = partial(
            make_engine, "bbfs", graph,
            max_expansions=200_000, time_budget=5.0,
            plan_cache=plan_cache,
        )
        baseline_records, _ = evaluate_workload_report(
            None, queries, truths, factory=baseline_factory,
            **executor_kwargs,
        )
    metrics = workload_metrics(records, baseline_records)
    print(f"queries: {metrics.n_queries} "
          f"(+{metrics.n_positive} / -{metrics.n_negative} / "
          f"?{metrics.n_undecided})")
    if metrics.recall is not None:
        print(f"recall: {metrics.recall:.3f}")
    if metrics.precision is not None:
        print(f"precision: {metrics.precision:.3f}")
    print(f"mean time: {metrics.mean_time * 1000:.3f} ms")
    if metrics.speedup is not None:
        print(f"mean speedup vs BBFS: {metrics.speedup:.1f}x")
    if args.backend == "process":
        batch = report.stats
        print(f"worker init: {batch.worker_init_s * 1000:.1f} ms, "
              f"shipped: {batch.ship_bytes} bytes "
              f"(shm {args.shm}, chunk {args.chunk_size})")
    if args.plan_cache == "on" and args.backend != "process":
        # process workers hold their own cache copies; the parent's
        # counters would read zero there
        plans = plan_cache.counters()["plans"]
        print(f"plan cache: {plans['hits']} hits / "
              f"{plans['misses']} misses / "
              f"{plans['evictions']} evictions "
              f"({plan_cache.compiles} compiles)")
    if oracle.undecided:
        print(f"warning: {oracle.undecided} queries undecided within the "
              "oracle budget")
    if args.trace:
        obs.disable()
        tracer = obs.current_tracer()
        assert tracer is not None  # enable() made one
        if args.trace.endswith(".json"):
            n_spans = tracer.export_chrome_trace(args.trace)
            print(f"trace: {n_spans} span(s) written to {args.trace} "
                  "(Chrome trace_event format)")
        else:
            n_spans = tracer.export_jsonl(args.trace)
            print(f"trace: {n_spans} span(s) written to {args.trace}")
        obs.reset()
    batch_stats = dataclasses.asdict(report.stats)
    if args.metrics:
        print()
        print(_render_batch_stats(batch_stats))
    if args.metrics_out:
        import json

        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(batch_stats, handle, indent=1)
            handle.write("\n")
        print(f"batch statistics written to {args.metrics_out}")
    return 0


def _cmd_verify(args) -> int:
    import json

    from repro.queries.io import load_workload, query_from_dict
    from repro.verify.oracle import (
        DifferentialOracle,
        Fingerprint,
        replay_fingerprint,
    )

    graph = _load_graph(args.graph)

    if args.replay:
        with open(args.replay, encoding="utf-8") as handle:
            fingerprint = Fingerprint.from_dict(json.load(handle))
        adjudication = replay_fingerprint(
            graph, fingerprint, dataset=args.graph,
            backend=args.backend, workers=args.workers,
            timeout_s=args.timeout,
        )
        print(f"query: {adjudication.query}")
        print(f"answers: {adjudication.answers}")
        if adjudication.divergences:
            for found in adjudication.divergences:
                print(f"divergence [{found.engine}] {found.kind}: "
                      f"{found.detail}")
            print("fingerprint still reproduces")
            return 1
        print("fingerprint no longer reproduces (clean)")
        return 0

    oracle = DifferentialOracle(
        graph,
        tuple(part for part in args.engines.split(",") if part),
        dataset=args.graph,
        seed=args.seed,
        backend=args.backend,
        workers=args.workers,
        timeout_s=args.timeout,
    )
    if args.query:
        queries = [query_from_dict(json.loads(args.query))]
    else:
        queries = load_workload(args.workload)
    report = oracle.run(queries)
    payload = report.as_dict()
    print(f"adjudicated {report.n_queries} queries across "
          f"{','.join(report.engines)}")
    recalls = ", ".join(
        f"{name}={value:.3f}" if value is not None else f"{name}=n/a"
        for name, value in payload["recall"].items()
    )
    if recalls:
        print(f"recall on provable positives: {recalls}")
    print(f"legal false negatives: {payload['n_false_negatives']}")
    print(f"divergences: {payload['n_divergences']}")
    for entry in payload["divergences"]:
        print(f"  [{entry['engine']}] {entry['kind']}: {entry['detail']}")
        print(f"  replay: {entry['replay']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        print(f"report written to {args.out}")
    return 1 if payload["n_divergences"] else 0


_HANDLERS = {
    "generate": _cmd_generate,
    "workload": _cmd_workload,
    "evaluate": _cmd_evaluate,
    "stats": _cmd_stats,
    "query": _cmd_query,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "experiment": _cmd_experiment,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "lint":
        # forwarded verbatim: argparse's REMAINDER mishandles a leading
        # option token (e.g. `repro lint --list-rules`)
        from repro.lint.cli import main as lint_main

        return lint_main(raw[1:])
    args = _build_parser().parse_args(raw)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
