"""Command line interface: ``python -m repro.lint [paths...]``.

Exit codes are CI-friendly: ``0`` clean, ``1`` violations found,
``2`` usage error.  ``--profile relaxed`` is for script trees
(benchmarks/, examples/) where the RNG funnel and wall-clock discipline
do not apply.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, FrozenSet, Optional, Sequence

from repro.lint.framework import all_rules, lint_paths, render_text

__all__ = ["main"]

#: rule ids each profile ignores
_PROFILES: Dict[str, FrozenSet[str]] = {
    "strict": frozenset(),
    # standalone scripts own their seeds and their stopwatches
    "relaxed": frozenset({"RNG002", "RNG004", "TIM001"}),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST invariant linter for the repro codebase: RNG "
            "discipline, iteration determinism, picklability, exception "
            "taxonomy, wall-clock discipline, the plan funnel, __all__ "
            "coverage and oracle independence."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--profile",
        choices=tuple(sorted(_PROFILES)),
        default="strict",
        help="rule profile (relaxed: script trees; default: strict)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id:8s} {rule.description}")
        return 0

    violations = lint_paths(args.paths, ignore=_PROFILES[args.profile])
    print(render_text(violations))
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
