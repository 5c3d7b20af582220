"""repro.lint — an AST-based invariant linter for this codebase.

The library's correctness contract (no false positives, reproducible
recall, identical answers across execution backends) rests on a handful
of conventions that ordinary linters cannot see: all randomness flows
through :func:`repro.rng.ensure_rng`, query logic never reads the wall
clock, iteration that feeds answers never runs over an unordered set,
nothing unpicklable reaches the process backend, engines compile
through the plan funnel and never import the oracle.  This package
machine-checks those conventions, one file at a time::

    python -m repro.lint src                             # exit 1 on hits
    python -m repro.lint --profile relaxed benchmarks    # script trees
    python -m repro.lint --list-rules                    # what is enforced

Invariants that can be checked on live objects are not linted: CSR
snapshot and shared-memory arrays are read-only, plan artifacts are
frozen dataclasses, tracing spans open only on ``with`` entry, and
``EngineBase`` rejects an ``_execute`` result that is not a
:class:`~repro.core.result.QueryResult`.

Suppress a finding on one line with ``# repro: noqa[RULE-ID]`` (or a
bare ``# repro: noqa`` for every rule).  New rules subclass
:class:`~repro.lint.framework.Rule` and register with
:func:`~repro.lint.framework.register`; see ``docs/architecture.md``
§5c.
"""

from repro.lint.framework import (
    FileContext,
    Rule,
    Violation,
    all_rules,
    lint_paths,
    register,
    render_text,
)

__all__ = [
    "FileContext",
    "Rule",
    "Violation",
    "all_rules",
    "lint_paths",
    "register",
    "render_text",
]
