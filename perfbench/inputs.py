"""Seeded inputs: graph files, queries and write streams.

Everything here is a function of the seed and the benchmark's own code,
so a change to the program's dataset or workload generators cannot
change what the benchmark feeds it.  The graphs follow the shapes of the
program's twitter-like and gplus-like datasets; the queries follow the
paper's Sec. 5.2.2 generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from reference import PREDICATES, Automaton, Pred, RefGraph, Reference, Symbol, product_search


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """An independent stream for one purpose of one seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# -- graphs ----------------------------------------------------------------


def preferential_edges(
    rng: np.random.Generator, n_nodes: int, out_degree: int
) -> List[Tuple[int, int]]:
    """Heavy-tailed directed edges: each arriving node links to
    ``out_degree`` targets drawn from a repeated-endpoint pool; a fifth of
    the links point back at the newcomer so the graph has cycles."""
    edges = {(1, 0)}
    pool = [0, 1]
    for node in range(2, n_nodes):
        want = min(out_degree, node)
        targets: List[int] = []
        for pick in rng.integers(len(pool), size=4 * out_degree):
            candidate = pool[int(pick)]
            if candidate != node and candidate not in targets:
                targets.append(candidate)
                if len(targets) == want:
                    break
        flips = rng.random(len(targets)) < 0.2
        for target, flip in zip(targets, flips):
            edges.add((target, node) if flip else (node, target))
            pool.append(target)
        pool.append(node)
    return sorted(edges)


def zipf_choice(rng: np.random.Generator, n_categories: int, size: int) -> np.ndarray:
    weights = np.arange(1, n_categories + 1, dtype=float) ** -1.1
    return rng.choice(n_categories, size=size, p=weights / weights.sum())


@dataclass
class GraphSpec:
    """A generated graph: node labels, node attributes, edges."""

    labels: List[FrozenSet[str]]
    attrs: List[Dict[str, object]]
    edges: List[Tuple[int, int]]

    def write_json(self, path: Path) -> None:
        """Write the program's JSON graph format (``repro.graph.io``)."""
        nodes = []
        for node, (labels, attrs) in enumerate(zip(self.labels, self.attrs)):
            entry: Dict[str, object] = {"id": node, "labels": sorted(labels)}
            if attrs:
                entry["attrs"] = attrs
            nodes.append(entry)
        document = {
            "format_version": 1,
            "directed": True,
            "nodes": nodes,
            "edges": [{"u": u, "v": v, "labels": []} for u, v in self.edges],
        }
        path.write_text(json.dumps(document), encoding="utf-8")

    def reference_graph(self) -> RefGraph:
        return RefGraph(self.labels, self.edges, self.attrs)


def twitter_like(seed: int, n_nodes: int = 10_000, n_hubs: int = 50) -> GraphSpec:
    """Follower graph; the ``n_hubs`` most-followed accounts are
    communities and every follower of hub ``c`` carries ``follows:hc``
    (``follows:none`` when it follows no hub): ``n_hubs + 1`` labels."""
    rng = rng_for(seed, 1)
    edges = preferential_edges(rng, n_nodes, 9)
    in_degree = np.zeros(n_nodes, dtype=np.int64)
    for _, v in edges:
        in_degree[v] += 1
    hubs = sorted(range(n_nodes), key=lambda v: (-in_degree[v], v))[:n_hubs]
    rank = {hub: i for i, hub in enumerate(hubs)}
    follows: List[set] = [set() for _ in range(n_nodes)]
    for u, v in edges:
        if v in rank:
            follows[u].add(f"follows:h{rank[v]}")
    for hub, i in rank.items():
        follows[hub].add(f"follows:h{i}")
    labels = [frozenset(f) if f else frozenset({"follows:none"}) for f in follows]
    return GraphSpec(labels, [{} for _ in range(n_nodes)], edges)


def gplus_like(seed: int, n_nodes: int = 10_000) -> GraphSpec:
    """Social graph: each node carries one gender, place, institution and
    occupation label (Zipf-skewed values) and ``age``/``gender``
    attributes for query-time labels."""
    rng = rng_for(seed, 2)
    genders = rng.integers(0, 2, size=n_nodes)
    places = zipf_choice(rng, 40, n_nodes)
    insts = zipf_choice(rng, 60, n_nodes)
    occs = zipf_choice(rng, 40, n_nodes)
    ages = rng.integers(13, 80, size=n_nodes)
    labels = []
    attrs: List[Dict[str, object]] = []
    for i in range(n_nodes):
        gender = "Female" if genders[i] else "Male"
        labels.append(
            frozenset(
                {
                    f"Gender:{gender}",
                    f"Place:p{int(places[i])}",
                    f"Inst:i{int(insts[i])}",
                    f"Occ:o{int(occs[i])}",
                }
            )
        )
        attrs.append({"age": int(ages[i]), "gender": gender})
    edges = preferential_edges(rng, n_nodes, 8)
    return GraphSpec(labels, attrs, edges)


# -- queries ---------------------------------------------------------------


@dataclass
class Query:
    """One generated query with the checker's verdict on it."""

    source: int
    target: int
    family: int
    symbols: List[Symbol]
    reference: Optional[Reference] = None
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def regex(self) -> str:
        """The query in the program's textual regex syntax."""
        text = [f"{{{s.name}}}" if isinstance(s, Pred) else s for s in self.symbols]
        if self.family == 1:
            return "(" + " | ".join(text) + ")*"
        if self.family == 2:
            return "(" + " ".join(text) + ")+"
        return " ".join(t + "+" for t in text)

    @property
    def uses_predicates(self) -> bool:
        return any(isinstance(s, Pred) for s in self.symbols)

    def automaton(self) -> Automaton:
        return Automaton(self.family, self.symbols)


class QuerySource:
    """The paper's Sec. 5.2.2 generator over one graph: query type
    uniform over 1/2/3, 2-8 distinct symbols drawn in proportion to their
    frequency, endpoints uniform or taken from a regex-compatible simple
    walk."""

    def __init__(self, graph: RefGraph, rng: np.random.Generator) -> None:
        self.graph = graph
        self.rng = rng
        counts: Dict[str, int] = {}
        for labels in graph.labels:
            for label in labels:
                counts[label] = counts.get(label, 0) + 1
        self.labels = sorted(counts)
        weights = np.array([counts[label] for label in self.labels], dtype=float)
        self.weights = weights / weights.sum()

    def symbols(self, count: int, predicates: bool = False) -> List[Symbol]:
        if predicates:
            names = sorted(PREDICATES)
            picks = self.rng.choice(len(names), size=min(count, len(names)), replace=False)
            return [PREDICATES[names[int(i)]] for i in picks]
        picks = self.rng.choice(len(self.labels), size=count, replace=False, p=self.weights)
        return [self.labels[int(i)] for i in picks]

    def template(self, predicates: bool = False) -> Tuple[int, List[Symbol]]:
        family = int(self.rng.integers(1, 4))
        low, high = (2, 3) if predicates else (2, 8)
        return family, self.symbols(int(self.rng.integers(low, high + 1)), predicates)

    def uniform_endpoints(self) -> Tuple[int, int]:
        first, second = self.rng.choice(self.graph.n, size=2, replace=False)
        return int(first), int(second)

    def walk_endpoints(
        self, automaton: Automaton, attempts: int = 24, max_steps: int = 24
    ) -> Optional[Tuple[int, int]]:
        """Ends of a random simple walk whose word the automaton accepts."""
        graph = self.graph
        for _ in range(attempts):
            source = int(self.rng.integers(graph.n))
            states = set(automaton.step(graph, 0, source))
            node, visited, accepting = source, {source}, []
            for _ in range(max_steps):
                if not states:
                    break
                neighbours = sorted(v for v in graph.out[node] if v not in visited)
                self.rng.shuffle(neighbours)
                for nxt in neighbours:
                    moved = {q2 for q in states for q2 in automaton.step(graph, q, nxt)}
                    if moved:
                        node, states = nxt, moved
                        visited.add(nxt)
                        if states & automaton.accept:
                            accepting.append(nxt)
                        break
                else:
                    break
            if accepting:
                return source, accepting[int(self.rng.integers(len(accepting)))]
        return None

    def query(self, family: int, symbols: List[Symbol], biased: bool) -> Query:
        """One query over a template; with ``biased`` the endpoints come
        from a compatible walk when one is found."""
        automaton = Automaton(family, symbols)
        endpoints = self.walk_endpoints(automaton) if biased else None
        source, target = endpoints or self.uniform_endpoints()
        query = Query(source, target, family, list(symbols))
        query.reference = product_search(self.graph, automaton, source, target)
        return query


def classify(query: Query) -> str:
    """The request group a query falls in, by the checker's verdict:
    ``dead`` (the source cannot start the language), ``positive`` (a
    simple witness exists), ``negative`` (no matching walk although the
    source can start one) or ``open`` (only a non-simple walk found)."""
    ref = query.reference
    assert ref is not None
    if not ref.start_alive:
        return "dead"
    if ref.reachable:
        return "positive"
    if ref.unreachable:
        return "negative"
    return "open"


def compose(
    source: QuerySource,
    mix: Dict[str, int],
    templates: Optional[Sequence[Tuple[int, List[Symbol]]]] = None,
    limit: int = 200_000,
) -> List[Query]:
    """Draw queries until each group holds its quota in ``mix``, then
    interleave the groups in a seeded order.

    Quotas keep the request groups at fixed shares whatever the seed,
    so each named percentile stays inside one group."""
    picked: Dict[str, List[Query]] = {group: [] for group in mix}
    drawn = 0
    while any(len(picked[g]) < n for g, n in mix.items()):
        drawn += 1
        if drawn > limit:
            short = {g: n - len(picked[g]) for g, n in mix.items() if len(picked[g]) < n}
            raise RuntimeError(f"could not fill the query mix, missing {short}")
        if templates is None:
            family, symbols = source.template()
        else:
            family, symbols = templates[int(source.rng.integers(len(templates)))]
        biased = source.rng.random() < 0.5
        query = source.query(family, symbols, biased)
        group = classify(query)
        if group in picked and len(picked[group]) < mix[group]:
            query.meta["group"] = group
            picked[group].append(query)
    queries = [q for group in sorted(picked) for q in picked[group]]
    order = source.rng.permutation(len(queries))
    return [queries[int(i)] for i in order]
