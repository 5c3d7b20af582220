"""Core machinery of :mod:`repro.lint` (see the package docstring).

The framework is deliberately small and dependency-free:

* :class:`FileContext` — one parsed source file (path, module name,
  source, AST, per-line suppression table), shared by every rule so the
  file is read and parsed exactly once.
* :class:`Rule` — the plug-in base class.  A rule overrides
  :meth:`Rule.check_file` (called once per file) and yields
  :class:`Violation` records.  Decorating the class with
  :func:`register` adds it to the registry the CLI runs.
* :func:`lint_paths` — discovery, parsing, rule dispatch, suppression
  filtering, stable ordering.

Suppression: append ``# repro: noqa[RULE-ID]`` (or several ids,
comma-separated) to the *reported* line to silence specific rules
there, or a bare ``# repro: noqa`` to silence every rule on that line.
For a statement spanning several physical lines, a marker on *any*
line of the span silences the whole statement — violations anchor to
the statement's first line, but black-style formatting routinely puts
the offending expression (and the comment) lines below it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import (
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

__all__ = [
    "FileContext",
    "Rule",
    "Violation",
    "all_rules",
    "lint_paths",
    "register",
    "render_text",
    "SYNTAX_RULE_ID",
]

#: pseudo rule id reported for files that do not parse
SYNTAX_RULE_ID = "SYNTAX"

#: marker meaning "every rule" in a suppression table entry
_SUPPRESS_ALL = "*"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s-]+)\])?"
)


class Violation(Tuple[str, int, int, str, str]):
    """One finding: ``(path, line, col, rule_id, message)``.

    A tuple subclass so findings sort stably (path, then position, then
    rule id) and deduplicate through ``set()`` for free.
    """

    __slots__ = ()

    def __new__(
        cls, path: str, line: int, col: int, rule_id: str, message: str
    ) -> "Violation":
        return super().__new__(cls, (path, line, col, rule_id, message))

    @property
    def path(self) -> str:
        return self[0]

    @property
    def line(self) -> int:
        return self[1]

    @property
    def col(self) -> int:
        return self[2]

    @property
    def rule_id(self) -> str:
        return self[3]

    @property
    def message(self) -> str:
        return self[4]

    def format_text(self) -> str:
        """The ``file:line:col: RULE-ID message`` form CI logs show."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


class FileContext:
    """One parsed source file plus everything rules ask about it."""

    def __init__(self, path: Path, relpath: str, source: str) -> None:
        self.path = path
        #: path as reported in violations (relative to the lint root)
        self.relpath = relpath
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        self.module: str = _module_name(path)
        self.is_package_init = path.name == "__init__.py"
        self._suppressions: Optional[Dict[int, Set[str]]] = None

    # ------------------------------------------------------------------
    def in_module(self, *prefixes: str) -> bool:
        """True if this file's dotted module is one of ``prefixes`` or
        lives inside one of them."""
        for prefix in prefixes:
            if self.module == prefix or self.module.startswith(prefix + "."):
                return True
        return False

    def violation(
        self, node: ast.AST, rule_id: str, message: str
    ) -> Violation:
        """Build a violation anchored at ``node``."""
        return Violation(
            self.relpath,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1,
            rule_id,
            message,
        )

    # ------------------------------------------------------------------
    @property
    def suppressions(self) -> Dict[int, Set[str]]:
        """line number -> rule ids silenced there (``*`` = every rule).

        Built in two passes: the raw per-line comment table, then a
        walk over every statement span so a marker on *any* physical
        line of a multi-line statement suppresses the whole span (a
        violation anchors to the statement's ``lineno``, but the
        comment usually sits on the closing line).  Compound
        statements (``def``/``if``/``with``/...) spread only over
        their *header* lines — a noqa inside the body must not
        silence the header."""
        if self._suppressions is None:
            table: Dict[int, Set[str]] = {}
            for number, text in enumerate(self.lines, start=1):
                match = _NOQA_RE.search(text)
                if match is None:
                    continue
                rules = match.group("rules")
                if rules is None:
                    table[number] = {_SUPPRESS_ALL}
                else:
                    table[number] = {
                        rule.strip() for rule in rules.split(",") if rule.strip()
                    }
            for start, end in _statement_spans(self.tree):
                if end <= start:
                    continue
                merged: Set[str] = set()
                for number in range(start, end + 1):
                    merged.update(table.get(number, set()))
                if not merged:
                    continue
                for number in range(start, end + 1):
                    table[number] = set(merged)
            self._suppressions = table
        return self._suppressions

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        entry = self.suppressions.get(line)
        if entry is None:
            return False
        return _SUPPRESS_ALL in entry or rule_id in entry


#: statements whose body is code of its own — only their *header* lines
#: form one suppression span
_COMPOUND_STMT = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.If,
    ast.With,
    ast.AsyncWith,
    ast.Try,
    ast.TryStar,
    ast.Match,
)


def _statement_spans(tree: ast.Module) -> List[Tuple[int, int]]:
    """``(first, last)`` physical-line spans of every statement, with
    compound statements clipped to their header."""
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        end = node.end_lineno or start
        if isinstance(node, _COMPOUND_STMT):
            if isinstance(node, ast.Match):
                first_inner = node.cases[0].pattern.lineno if node.cases else start
            else:
                body: List[ast.stmt] = getattr(node, "body", [])
                first_inner = body[0].lineno if body else start
            end = max(start, first_inner - 1)
        if end > start:
            spans.append((start, end))
    return spans


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`rule_id` and :attr:`description`, override
    :meth:`check_file`, and register themselves with the
    :func:`register` decorator::

        @register
        class NoFooRule(Rule):
            rule_id = "FOO001"
            description = "foo() is banned"

            def check_file(self, ctx):
                for node in ast.walk(ctx.tree):
                    ...
                    yield ctx.violation(node, self.rule_id, "...")
    """

    rule_id: ClassVar[str] = ""
    description: ClassVar[str] = ""

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        """Per-file findings (default: none)."""
        return iter(())


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} must set rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[Type[Rule]]:
    """Registered rule classes, sorted by id (imports the built-ins)."""
    # the built-in rules register on import; deferred to avoid a cycle
    import repro.lint.rules  # noqa: F401  (import for side effect)

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


# ---------------------------------------------------------------------------
# discovery and the runner
# ---------------------------------------------------------------------------
def _module_name(path: Path) -> str:
    """Dotted module name, rooted at the last ``repro`` path component.

    Files outside a ``repro`` tree (fixtures, scripts) fall back to
    their stem, which keeps module-scoped rules inert for them unless a
    test builds a realistic ``repro/...`` layout.
    """
    parts = list(path.parts)
    if path.suffix == ".py":
        parts[-1] = path.stem
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "repro" in parts:
        last = len(parts) - 1 - parts[::-1].index("repro")
        return ".".join(parts[last:])
    return parts[-1] if parts else ""


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Python files under ``paths`` (files kept as-is), sorted."""
    found: Set[Path] = set()
    for path in paths:
        if path.is_file():
            found.add(path)
            continue
        for candidate in path.rglob("*.py"):
            if "__pycache__" in candidate.parts:
                continue
            if any(part.startswith(".") for part in candidate.parts):
                continue
            found.add(candidate)
    return sorted(found)


def _relpath(path: Path, roots: Sequence[Path]) -> str:
    for root in roots:
        if root == path:
            continue  # a file given as its own root would render as "."
        try:
            return path.relative_to(root).as_posix()
        except ValueError:
            continue
    try:
        return path.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _select_rules(ignore: Optional[Iterable[str]]) -> List[Type[Rule]]:
    rules = all_rules()
    known = {cls.rule_id for cls in rules}
    unwanted = set(ignore or [])
    for requested in sorted(unwanted):
        if requested not in known:
            raise ValueError(
                f"unknown rule id {requested!r}; known: {', '.join(sorted(known))}"
            )
    return [cls for cls in rules if cls.rule_id not in unwanted]


def lint_paths(
    paths: Sequence[str], *, ignore: Optional[Iterable[str]] = None
) -> List[Violation]:
    """Lint files/directories and return sorted, suppression-filtered
    violations of every registered rule not in ``ignore``.

    Unparseable files surface as :data:`SYNTAX_RULE_ID` violations
    rather than aborting the run.
    """
    roots = [Path(path) for path in paths]
    rules = [cls() for cls in _select_rules(ignore)]
    violations: List[Violation] = []
    for file_path in discover_files(roots):
        relpath = _relpath(file_path, roots)
        try:
            source = file_path.read_text(encoding="utf-8")
            ctx = FileContext(file_path, relpath, source)
        except (OSError, SyntaxError, ValueError) as exc:
            line = getattr(exc, "lineno", None) or 1
            violations.append(
                Violation(
                    relpath, line, 1, SYNTAX_RULE_ID, f"cannot parse: {exc}"
                )
            )
            continue
        for rule in rules:
            violations.extend(
                violation
                for violation in rule.check_file(ctx)
                if not ctx.is_suppressed(violation.line, violation.rule_id)
            )
    return sorted(set(violations))


# ---------------------------------------------------------------------------
# reporters
# ---------------------------------------------------------------------------
def render_text(violations: Sequence[Violation]) -> str:
    """One ``file:line:col: RULE-ID message`` line per violation plus a
    summary line."""
    lines = [violation.format_text() for violation in violations]
    count = len(violations)
    lines.append(f"found {count} violation{'s' if count != 1 else ''}")
    return "\n".join(lines)
