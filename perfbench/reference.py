"""Reference checker: the benchmark's own answer to every query.

Nothing here imports the program's engines, regex compiler or verifier;
the checker must stay right when they are wrong.  It works on its own
copy of the graph (:class:`RefGraph`), which the benchmark mutates in
step with the program's graph, and on its own automata, built from the
query family and the query's symbol list (:class:`Automaton`).

Semantics (the program's, for graphs whose labels sit on nodes): a path
``v0 .. vk`` spells one symbol per node, chosen from the node's label
set, or a query-time predicate that holds on the node's attributes.
The path matches when some such choice spells a word of the language.

:func:`product_search` is breadth-first search over node x automaton
state, the standard way to evaluate a regular path query.  No product
walk means no matching path at all: a certain negative.  A product walk
that repeats no node is a simple witness.  For type-1 languages, which
are closed under taking subwords, cutting the cycles out of any walk
leaves a matching simple path, so there the search is exact both ways.
For types 2 and 3 a walk that repeats a node decides nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple, Union

# -- query-time predicates -------------------------------------------------


@dataclass(frozen=True)
class Pred:
    """A named boolean function of a node's attributes."""

    name: str
    fn: Callable[[Mapping[str, object]], bool]

    def __call__(self, attrs: Mapping[str, object]) -> bool:
        try:
            return bool(self.fn(attrs))
        except (TypeError, KeyError, ValueError):
            return False


def _age(attrs: Mapping[str, object]) -> int:
    return int(attrs.get("age", 0))  # type: ignore[call-overload]


def is_adult(attrs: Mapping[str, object]) -> bool:
    return _age(attrs) >= 18


def is_female(attrs: Mapping[str, object]) -> bool:
    return attrs.get("gender") == "Female"


def is_adult_female(attrs: Mapping[str, object]) -> bool:
    return is_adult(attrs) and is_female(attrs)


def is_minor(attrs: Mapping[str, object]) -> bool:
    return _age(attrs) < 18


def is_senior(attrs: Mapping[str, object]) -> bool:
    return _age(attrs) >= 60


def is_male(attrs: Mapping[str, object]) -> bool:
    return attrs.get("gender") == "Male"


#: the query-time labels over ``age`` and ``gender`` (module-level
#: functions, so a predicate registry built from them pickles)
PREDICATES: Dict[str, Pred] = {
    pred.name: pred
    for pred in (
        Pred("isAdult", is_adult),
        Pred("isFemale", is_female),
        Pred("isAdultFemale", is_adult_female),
        Pred("isMinor", is_minor),
        Pred("isSenior", is_senior),
        Pred("isMale", is_male),
    )
}

Symbol = Union[str, Pred]


# -- graph -----------------------------------------------------------------


class RefGraph:
    """Directed graph with node label sets and node attributes.  Its
    mutators carry the names of the program's ``LabeledGraph`` ones, so
    one write can be applied to both."""

    def __init__(
        self,
        labels: Sequence[FrozenSet[str]],
        edges: Sequence[Tuple[int, int]],
        attrs: Optional[Sequence[Dict[str, object]]] = None,
    ) -> None:
        self.labels: List[FrozenSet[str]] = list(labels)
        self.attrs: List[Dict[str, object]] = (
            [dict(a) for a in attrs] if attrs is not None else [{} for _ in labels]
        )
        self.out: List[Set[int]] = [set() for _ in labels]
        for u, v in edges:
            self.out[u].add(v)

    @property
    def n(self) -> int:
        return len(self.labels)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.out[u]

    def add_edge(self, u: int, v: int) -> None:
        self.out[u].add(v)

    def remove_edge(self, u: int, v: int) -> None:
        self.out[u].discard(v)

    def set_node_attrs(self, node: int, attrs: Dict[str, object]) -> None:
        self.attrs[node] = dict(attrs)

    def set_node_labels(self, node: int, labels: Sequence[str]) -> None:
        self.labels[node] = frozenset(labels)


# -- automata --------------------------------------------------------------


class Automaton:
    """NFA for one query family over a symbol list.

    State 0 is the start (nothing consumed).  Transitions are
    ``state -> [(symbol, next_state), ...]``.

    * type 1, ``(l0|...|lk)*``: state 1 after any listed symbol.
    * type 2, ``(l0 ... lk)+``: state ``i`` has consumed ``i`` symbols of
      the current repetition; ``k+1`` completes it and accepts.
    * type 3, ``l0+ ... lk+``: state ``i`` is inside block ``i-1``;
      ``k+1`` is inside the last block and accepts.
    """

    def __init__(self, family: int, symbols: Sequence[Symbol]) -> None:
        if not symbols:
            raise ValueError("a query needs at least one symbol")
        k = len(symbols) - 1
        delta: Dict[int, List[Tuple[Symbol, int]]] = {}
        if family == 1:
            delta[0] = [(s, 1) for s in symbols]
            delta[1] = [(s, 1) for s in symbols]
            accept = {0, 1}
        elif family == 2:
            delta[0] = [(symbols[0], 1)]
            for i in range(1, k + 1):
                delta[i] = [(symbols[i], i + 1)]
            delta[k + 1] = [(symbols[0], 1)]
            accept = {k + 1}
        elif family == 3:
            if any(a == b for a, b in zip(symbols, symbols[1:])):
                raise ValueError("type 3 needs adjacent symbols to differ")
            delta[0] = [(symbols[0], 1)]
            for i in range(1, k + 2):
                moves = [(symbols[i - 1], i)]
                if i <= k:
                    moves.append((symbols[i], i + 1))
                delta[i] = moves
            accept = {k + 1}
        else:
            raise ValueError(f"query family must be 1, 2 or 3, got {family}")
        self.family = family
        self.symbols = list(symbols)
        self.accept = frozenset(accept)
        # transitions indexed for step(): label -> next states, and the
        # predicate moves, which must be evaluated per node
        self._by_label: Dict[int, Dict[str, List[int]]] = {}
        self._by_pred: Dict[int, List[Tuple[Pred, int]]] = {}
        for state, moves in delta.items():
            for sym, nxt in moves:
                if isinstance(sym, Pred):
                    self._by_pred.setdefault(state, []).append((sym, nxt))
                else:
                    self._by_label.setdefault(state, {}).setdefault(sym, []).append(nxt)

    def step(self, graph: RefGraph, state: int, node: int) -> List[int]:
        """States reached from ``state`` by consuming ``node``'s symbol."""
        reached: List[int] = []
        by_label = self._by_label.get(state)
        if by_label:
            for label in graph.labels[node]:
                reached.extend(by_label.get(label, ()))
        for pred, nxt in self._by_pred.get(state, ()):
            if pred(graph.attrs[node]):
                reached.append(nxt)
        return reached

    def accepts_path(self, graph: RefGraph, path: Sequence[int]) -> bool:
        """Subset simulation of the automaton along ``path``."""
        states = {0}
        for node in path:
            states = {nxt for q in states for nxt in self.step(graph, q, node)}
            if not states:
                return False
        return bool(states & self.accept)


# -- search and validation -------------------------------------------------

#: outcome of :func:`product_search`
NO_WALK = "no-walk"  # certain negative: no matching path of any kind
SIMPLE = "simple"  # a simple witness was found
WALK_ONLY = "walk-only"  # a matching walk exists, no simple witness found


@dataclass
class Reference:
    """The checker's verdict on one query."""

    outcome: str
    witness: Optional[List[int]] = None
    #: the source's own symbol can start the language
    start_alive: bool = True

    @property
    def reachable(self) -> bool:
        return self.outcome == SIMPLE

    @property
    def unreachable(self) -> bool:
        return self.outcome == NO_WALK


def _shortcut(walk: Sequence[int]) -> List[int]:
    """Cut every cycle out of a walk (same endpoints, no repeats)."""
    path: List[int] = []
    position: Dict[int, int] = {}
    for node in walk:
        if node in position:
            cut = position[node]
            for dropped in path[cut + 1:]:
                del position[dropped]
            del path[cut + 1:]
        else:
            position[node] = len(path)
            path.append(node)
    return path


def product_search(
    graph: RefGraph, automaton: Automaton, source: int, target: int
) -> Reference:
    """Breadth-first search over node x state from ``source``."""
    starts = automaton.step(graph, 0, source)
    if not starts:
        return Reference(NO_WALK, start_alive=False)
    parent: Dict[Tuple[int, int], Optional[Tuple[int, int]]] = {}
    queue: deque = deque()
    for state in starts:
        parent[(source, state)] = None
        queue.append((source, state))
    accept = automaton.accept
    goal: Optional[Tuple[int, int]] = None
    if source == target:
        goal = next(((source, q) for q in starts if q in accept), None)
    while queue and goal is None:
        node, state = queue.popleft()
        for nxt in graph.out[node]:
            for nstate in automaton.step(graph, state, nxt):
                key = (nxt, nstate)
                if key in parent:
                    continue
                parent[key] = (node, state)
                if nxt == target and nstate in accept:
                    goal = key
                    break
                queue.append(key)
            if goal is not None:
                break
    if goal is None:
        return Reference(NO_WALK)
    walk: List[int] = []
    cursor: Optional[Tuple[int, int]] = goal
    while cursor is not None:
        walk.append(cursor[0])
        cursor = parent[cursor]
    walk.reverse()
    if len(set(walk)) == len(walk):
        return Reference(SIMPLE, witness=walk)
    if automaton.family == 1:
        return Reference(SIMPLE, witness=_shortcut(walk))
    return Reference(WALK_ONLY)


def witness_error(
    graph: RefGraph,
    automaton: Automaton,
    source: int,
    target: int,
    path: Optional[Sequence[int]],
) -> Optional[str]:
    """Why ``path`` is not a valid simple witness, or None if it is."""
    if not path:
        return "positive answer without a witness path"
    if path[0] != source or path[-1] != target:
        return f"witness runs {path[0]}..{path[-1]}, query asks {source}..{target}"
    if len(set(path)) != len(path):
        return "witness repeats a node"
    for u, v in zip(path, path[1:]):
        if not graph.has_edge(u, v):
            return f"witness uses missing edge {u}->{v}"
    if not automaton.accepts_path(graph, path):
        return "witness label word is not in the language"
    return None
