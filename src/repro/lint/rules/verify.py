"""Oracle-independence rule.

The verification layer (:mod:`repro.verify`) exists to re-check the
engines with no shared code paths — which only means something if the
dependency arrow points one way.  VER001 enforces the direction:
engine-layer modules may not import from ``repro.verify`` (the one
sanctioned crossing, the lazy paranoid-mode hook in
``repro.core.engine``, carries an explicit ``noqa``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import FileContext, Rule, Violation, register

__all__ = ["OracleIndependenceRule"]

#: packages whose modules the oracle checks — they must not import it
_ENGINE_PACKAGES = ("repro.core", "repro.baselines")

_VERIFY_PACKAGE = "repro.verify"


@register
class OracleIndependenceRule(Rule):
    """Engines may not import from ``repro.verify``."""

    rule_id = "VER001"
    description = (
        "engine-layer module imports from repro.verify; the oracle must "
        "stay independent of the code it checks"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_module(*_ENGINE_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == _VERIFY_PACKAGE or alias.name.startswith(
                        _VERIFY_PACKAGE + "."
                    ):
                        yield ctx.violation(
                            node,
                            self.rule_id,
                            f"import of {alias.name} from engine module "
                            f"{ctx.module}; the witness oracle must share "
                            "no code paths with the engines it validates",
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                if module == _VERIFY_PACKAGE or module.startswith(
                    _VERIFY_PACKAGE + "."
                ):
                    yield ctx.violation(
                        node,
                        self.rule_id,
                        f"import from {module} in engine module "
                        f"{ctx.module}; the witness oracle must share no "
                        "code paths with the engines it validates",
                    )
