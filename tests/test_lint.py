"""Tests for :mod:`repro.lint` — the AST invariant linter.

Each rule family gets positive fixtures (the violation is caught) and
negative fixtures (conforming code passes).  Fixture files are written
under a ``repro/...`` layout inside ``tmp_path`` so the module-scoped
rules (which key on the dotted module name rooted at the last ``repro``
path component) activate exactly as they do on the real tree.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence

import pytest

from repro.lint.cli import main
from repro.lint.framework import (
    FileContext,
    SYNTAX_RULE_ID,
    Violation,
    all_rules,
    lint_paths,
    render_text,
)

ALL_RULE_IDS = {
    "API001",
    "API002",
    "DET001",
    "EXC001",
    "EXC002",
    "PKL001",
    "PLN001",
    "RNG001",
    "RNG002",
    "RNG003",
    "RNG004",
    "TIM001",
    "VER001",
}


def run_lint(
    tmp_path,
    files: Dict[str, str],
    *,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Write ``files`` (relpath -> source) under ``tmp_path``, lint, and
    keep only the ``select`` rule ids' violations when given."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    found = lint_paths([str(tmp_path)], ignore=ignore)
    if select is None:
        return found
    return [violation for violation in found if violation.rule_id in select]


def rule_ids(violations: Sequence[Violation]) -> set:
    return {violation.rule_id for violation in violations}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_all_rules_ids(self):
        assert {cls.rule_id for cls in all_rules()} == ALL_RULE_IDS

    def test_all_rules_sorted_with_descriptions(self):
        rules = all_rules()
        assert [cls.rule_id for cls in rules] == sorted(
            cls.rule_id for cls in rules
        )
        assert all(cls.description for cls in rules)

    def test_unknown_rule_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule id"):
            run_lint(tmp_path, {"ok.py": "X = 1\n"}, ignore=["NOPE999"])


# ---------------------------------------------------------------------------
# RNG discipline
# ---------------------------------------------------------------------------
class TestRngRules:
    def test_rng001_import_random(self, tmp_path):
        found = run_lint(
            tmp_path,
            {"repro/core/thing.py": "import random\n"},
            select=["RNG001"],
        )
        assert rule_ids(found) == {"RNG001"}

    def test_rng001_from_random_import(self, tmp_path):
        found = run_lint(
            tmp_path,
            {"repro/core/thing.py": "from random import shuffle\n"},
            select=["RNG001"],
        )
        assert rule_ids(found) == {"RNG001"}

    def test_rng001_clean(self, tmp_path):
        source = "from repro.rng import ensure_rng\n"
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG001"]
        )
        assert found == []

    def test_rng002_unseeded_default_rng(self, tmp_path):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG002"]
        )
        assert rule_ids(found) == {"RNG002"}

    def test_rng002_unseeded_via_from_import(self, tmp_path):
        source = (
            "from numpy.random import default_rng\n"
            "rng = default_rng()\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG002"]
        )
        assert rule_ids(found) == {"RNG002"}

    def test_rng002_seeded_is_fine(self, tmp_path):
        source = "import numpy as np\nrng = np.random.default_rng(7)\n"
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG002"]
        )
        assert found == []

    def test_rng002_exempt_inside_repro_rng(self, tmp_path):
        # ensure_rng(None) is the one sanctioned entropy source
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        found = run_lint(
            tmp_path, {"repro/rng.py": source}, select=["RNG002"]
        )
        assert found == []

    def test_rng003_legacy_call(self, tmp_path):
        source = "import numpy as np\nvalue = np.random.randint(10)\n"
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG003"]
        )
        assert rule_ids(found) == {"RNG003"}

    def test_rng003_legacy_import(self, tmp_path):
        source = "from numpy.random import shuffle\n"
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG003"]
        )
        assert rule_ids(found) == {"RNG003"}

    def test_rng003_generator_methods_pass(self, tmp_path):
        source = (
            "from repro.rng import ensure_rng\n"
            "def draw(rng=None):\n"
            "    return ensure_rng(rng).integers(0, 10)\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG003"]
        )
        assert found == []

    def test_rng004_seed_param_bypass(self, tmp_path):
        source = (
            "import numpy as np\n"
            "def sample(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG004"]
        )
        assert rule_ids(found) == {"RNG004"}

    def test_rng004_exempt_in_privileged_modules(self, tmp_path):
        source = (
            "import numpy as np\n"
            "def sample(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/executor.py": source}, select=["RNG004"]
        )
        assert found == []


# ---------------------------------------------------------------------------
# DET001 — set-iteration determinism
# ---------------------------------------------------------------------------
class TestDeterminismRule:
    def test_set_literal_iteration(self, tmp_path):
        source = (
            "def collect():\n"
            "    out = []\n"
            "    for item in {1, 2, 3}:\n"
            "        out.append(item)\n"
            "    return out\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["DET001"]
        )
        assert rule_ids(found) == {"DET001"}

    def test_tracked_set_name(self, tmp_path):
        source = (
            "def collect(items):\n"
            "    pending = set(items)\n"
            "    return [item for item in pending]\n"
        )
        found = run_lint(
            tmp_path, {"repro/baselines/thing.py": source}, select=["DET001"]
        )
        assert rule_ids(found) == {"DET001"}

    def test_keys_view(self, tmp_path):
        source = (
            "def names(table):\n"
            "    return [key for key in table.keys()]\n"
        )
        found = run_lint(
            tmp_path, {"repro/regex/thing.py": source}, select=["DET001"]
        )
        assert rule_ids(found) == {"DET001"}

    def test_sorted_wrapping_passes(self, tmp_path):
        source = (
            "def collect(items):\n"
            "    return [item for item in sorted(set(items))]\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["DET001"]
        )
        assert found == []

    def test_inert_outside_deterministic_packages(self, tmp_path):
        source = (
            "def collect():\n"
            "    return [item for item in {1, 2, 3}]\n"
        )
        found = run_lint(
            tmp_path, {"repro/datasets/thing.py": source}, select=["DET001"]
        )
        assert found == []


# ---------------------------------------------------------------------------
# PKL001 — process-backend picklability
# ---------------------------------------------------------------------------
class TestPicklabilityRule:
    def test_lambda_factory_process_backend(self, tmp_path):
        source = (
            "def build(graph):\n"
            "    return BatchExecutor(\n"
            "        factory=lambda: None,\n"
            '        backend="process",\n'
            "    )\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["PKL001"]
        )
        assert rule_ids(found) == {"PKL001"}

    def test_lambda_factory_thread_backend_ok(self, tmp_path):
        # threads share the interpreter; no pickling involved
        source = (
            "def build(graph):\n"
            "    return BatchExecutor(\n"
            "        factory=lambda: None,\n"
            '        backend="thread",\n'
            "    )\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["PKL001"]
        )
        assert found == []

    def test_lambda_pool_initializer(self, tmp_path):
        source = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "pool = ProcessPoolExecutor(initializer=lambda: None)\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["PKL001"]
        )
        assert rule_ids(found) == {"PKL001"}

    def test_local_function_submitted(self, tmp_path):
        source = (
            "def run(pool):\n"
            "    def job():\n"
            "        return 1\n"
            "    return pool.submit(job)\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["PKL001"]
        )
        assert rule_ids(found) == {"PKL001"}

    def test_module_level_function_submitted_ok(self, tmp_path):
        source = (
            "def job():\n"
            "    return 1\n"
            "def run(pool):\n"
            "    return pool.submit(job)\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["PKL001"]
        )
        assert found == []


# ---------------------------------------------------------------------------
# EXC001 / EXC002 — exception taxonomy
# ---------------------------------------------------------------------------
class TestExceptionRules:
    def test_bare_except(self, tmp_path):
        source = (
            "try:\n"
            "    x = 1\n"
            "except:\n"
            "    pass\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["EXC001"]
        )
        assert rule_ids(found) == {"EXC001"}

    def test_typed_except_passes(self, tmp_path):
        source = (
            "try:\n"
            "    x = 1\n"
            "except Exception:\n"
            "    pass\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["EXC001"]
        )
        assert found == []

    def test_adhoc_runtime_error(self, tmp_path):
        source = (
            "def fail():\n"
            '    raise RuntimeError("boom")\n'
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["EXC002"]
        )
        assert rule_ids(found) == {"EXC002"}

    def test_programmer_error_builtins_pass(self, tmp_path):
        source = (
            "def fail():\n"
            '    raise ValueError("bad arg")\n'
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["EXC002"]
        )
        assert found == []

    def test_inert_outside_repro(self, tmp_path):
        source = (
            "def fail():\n"
            '    raise RuntimeError("boom")\n'
        )
        found = run_lint(
            tmp_path, {"scratch.py": source}, select=["EXC002"]
        )
        assert found == []


# ---------------------------------------------------------------------------
# TIM001 — wall-clock discipline
# ---------------------------------------------------------------------------
class TestWallClockRule:
    def test_clock_read_in_query_logic(self, tmp_path):
        source = (
            "import time\n"
            "def search(graph):\n"
            "    started = time.perf_counter()\n"
            "    return started\n"
        )
        found = run_lint(
            tmp_path, {"repro/baselines/thing.py": source}, select=["TIM001"]
        )
        assert rule_ids(found) == {"TIM001"}

    def test_from_import_alias(self, tmp_path):
        source = (
            "from time import monotonic as clock\n"
            "def search(graph):\n"
            "    return clock()\n"
        )
        found = run_lint(
            tmp_path, {"repro/baselines/thing.py": source}, select=["TIM001"]
        )
        assert rule_ids(found) == {"TIM001"}

    def test_timing_layer_exempt(self, tmp_path):
        source = (
            "import time\n"
            "def measure():\n"
            "    return time.perf_counter()\n"
        )
        found = run_lint(
            tmp_path,
            {"repro/experiments/thing.py": source},
            select=["TIM001"],
        )
        assert found == []

    def test_sleep_is_not_a_clock_read(self, tmp_path):
        source = (
            "import time\n"
            "def pause():\n"
            "    time.sleep(0.01)\n"
        )
        found = run_lint(
            tmp_path, {"repro/baselines/thing.py": source}, select=["TIM001"]
        )
        assert found == []


# ---------------------------------------------------------------------------
# PLN001 — plan-funnel discipline
# ---------------------------------------------------------------------------
class TestPlanFunnelRule:
    def test_raw_compile_in_engine_module(self, tmp_path):
        source = (
            "from repro.regex.compiler import compile_regex\n"
            "def _execute(plan):\n"
            "    return compile_regex(plan)\n"
        )
        found = run_lint(
            tmp_path, {"repro/baselines/thing.py": source}, select=["PLN001"]
        )
        assert rule_ids(found) == {"PLN001"}

    def test_aliased_import_still_caught(self, tmp_path):
        source = (
            "from repro.regex.compiler import compile_regex as raw\n"
            "def _query(regex):\n"
            "    return raw(regex)\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["PLN001"]
        )
        assert rule_ids(found) == {"PLN001"}

    def test_attribute_call_caught(self, tmp_path):
        source = (
            "from repro.regex import compiler\n"
            "def _execute(plan):\n"
            "    return compiler.compile_regex(plan)\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["PLN001"]
        )
        assert rule_ids(found) == {"PLN001"}

    def test_module_level_call_caught(self, tmp_path):
        source = (
            "from repro.regex.compiler import compile_regex\n"
            "CACHED = compile_regex('a*')\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["PLN001"]
        )
        assert rule_ids(found) == {"PLN001"}

    def test_plan_time_hooks_exempt(self, tmp_path):
        source = (
            "from repro.regex.compiler import compile_regex\n"
            "def prepare(self):\n"
            "    return compile_regex('a*')\n"
            "def _prepare_engine(self):\n"
            "    return compile_regex('b*')\n"
            "def _plan_params(self, query, compiled):\n"
            "    return {'nfa': compile_regex(query)}\n"
        )
        found = run_lint(
            tmp_path, {"repro/baselines/thing.py": source}, select=["PLN001"]
        )
        assert found == []

    def test_funnel_module_exempt(self, tmp_path):
        source = (
            "from repro.regex.compiler import compile_regex\n"
            "def compile_query(regex):\n"
            "    return compile_regex(regex)\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/plan.py": source}, select=["PLN001"]
        )
        assert found == []

    def test_non_engine_packages_exempt(self, tmp_path):
        source = (
            "from repro.regex.compiler import compile_regex\n"
            "def check(query):\n"
            "    return compile_regex(query)\n"
        )
        found = run_lint(
            tmp_path, {"repro/verify/thing.py": source}, select=["PLN001"]
        )
        assert found == []

    def test_compile_query_funnel_passes(self, tmp_path):
        source = (
            "from repro.core.plan import compile_query\n"
            "def _execute(plan):\n"
            "    return compile_query(plan)\n"
        )
        found = run_lint(
            tmp_path, {"repro/baselines/thing.py": source}, select=["PLN001"]
        )
        assert found == []


# ---------------------------------------------------------------------------
# API001 / API002 — __all__ coverage
# ---------------------------------------------------------------------------
class TestPublicApiRules:
    def test_init_without_all(self, tmp_path):
        source = "def helper():\n    return 1\n"
        found = run_lint(
            tmp_path, {"repro/sub/__init__.py": source}, select=["API001"]
        )
        assert rule_ids(found) == {"API001"}
        assert "no __all__" in found[0].message

    def test_init_missing_public_name(self, tmp_path):
        source = (
            '__all__ = ["listed"]\n'
            "def listed():\n    return 1\n"
            "def forgotten():\n    return 2\n"
        )
        found = run_lint(
            tmp_path, {"repro/sub/__init__.py": source}, select=["API001"]
        )
        assert len(found) == 1
        assert "'forgotten'" in found[0].message

    def test_complete_all_passes(self, tmp_path):
        source = (
            '__all__ = ["helper"]\n'
            "def helper():\n    return 1\n"
            "def _private():\n    return 2\n"
        )
        found = run_lint(
            tmp_path, {"repro/sub/__init__.py": source}, select=["API001"]
        )
        assert found == []

    def test_non_init_modules_exempt_from_api001(self, tmp_path):
        source = "def helper():\n    return 1\n"
        found = run_lint(
            tmp_path, {"repro/sub/module.py": source}, select=["API001"]
        )
        assert found == []

    def test_stale_all_entry(self, tmp_path):
        source = (
            '__all__ = ["ghost"]\n'
            "def helper():\n    return 1\n"
        )
        found = run_lint(
            tmp_path, {"repro/sub/module.py": source}, select=["API002"]
        )
        assert rule_ids(found) == {"API002"}
        assert "'ghost'" in found[0].message

    def test_resolving_all_passes(self, tmp_path):
        source = (
            '__all__ = ["helper"]\n'
            "def helper():\n    return 1\n"
        )
        found = run_lint(
            tmp_path, {"repro/sub/module.py": source}, select=["API002"]
        )
        assert found == []


# ---------------------------------------------------------------------------
# VER001 — oracle independence
# ---------------------------------------------------------------------------
class TestVerifyRules:
    def test_engine_importing_oracle_flagged(self, tmp_path):
        source = "from repro.verify.witness import check_result\n"
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["VER001"]
        )
        assert rule_ids(found) == {"VER001"}

    def test_baseline_plain_import_flagged(self, tmp_path):
        source = "import repro.verify\n"
        found = run_lint(
            tmp_path, {"repro/baselines/thing.py": source}, select=["VER001"]
        )
        assert rule_ids(found) == {"VER001"}

    def test_sanctioned_crossing_carries_noqa(self, tmp_path):
        # the paranoid-mode hook in repro.core.engine is the one allowed
        # import, and it must be explicit about it
        source = (
            "def check(self):\n"
            "    from repro.verify.witness import check_result"
            "  # repro: noqa[VER001]\n"
            "    return check_result\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/engine.py": source}, select=["VER001"]
        )
        assert found == []

    def test_non_engine_module_may_import_oracle(self, tmp_path):
        source = "from repro.verify import check_witness\n"
        found = run_lint(
            tmp_path,
            {"repro/experiments/thing.py": source},
            select=["VER001"],
        )
        assert found == []
# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------
class TestSuppressions:
    def test_specific_id_suppresses(self, tmp_path):
        source = "import random  # repro: noqa[RNG001]\n"
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG001"]
        )
        assert found == []

    def test_bare_noqa_suppresses_every_rule(self, tmp_path):
        source = "import random  # repro: noqa\n"
        found = run_lint(tmp_path, {"repro/core/thing.py": source})
        assert found == []

    def test_wrong_id_does_not_suppress(self, tmp_path):
        source = "import random  # repro: noqa[DET001]\n"
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG001"]
        )
        assert rule_ids(found) == {"RNG001"}

    def test_comma_separated_ids(self, tmp_path):
        source = (
            "import random  # repro: noqa[RNG001, RNG003]\n"
            "import random as other_random\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG001"]
        )
        # only the un-annotated second import survives
        assert len(found) == 1
        assert found[0].line == 2

    def test_suppression_is_line_scoped(self, tmp_path):
        source = (
            "# repro: noqa[RNG001]\n"
            "import random\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG001"]
        )
        assert rule_ids(found) == {"RNG001"}


# ---------------------------------------------------------------------------
# framework: syntax errors, ordering, reporters
# ---------------------------------------------------------------------------
class TestFramework:
    def test_syntax_error_surfaces_not_aborts(self, tmp_path):
        found = run_lint(
            tmp_path,
            {
                "repro/core/broken.py": "def broken(:\n",
                "repro/core/bad.py": "import random\n",
            },
        )
        ids = rule_ids(found)
        assert SYNTAX_RULE_ID in ids
        assert "RNG001" in ids  # the parseable file was still linted

    def test_violations_sorted_and_deduplicated(self):
        first = Violation("a.py", 3, 1, "RNG001", "x")
        second = Violation("a.py", 1, 1, "RNG001", "x")
        third = Violation("b.py", 1, 1, "DET001", "y")
        assert sorted({first, second, first, third}) == [
            second,
            first,
            third,
        ]

    def test_violation_accessors_and_format(self):
        violation = Violation("pkg/mod.py", 12, 5, "TIM001", "no clocks")
        assert violation.path == "pkg/mod.py"
        assert violation.line == 12
        assert violation.col == 5
        assert violation.rule_id == "TIM001"
        assert violation.message == "no clocks"
        assert violation.format_text() == (
            "pkg/mod.py:12:5: TIM001 no clocks"
        )

    def test_render_text_summary_line(self):
        assert render_text([]).endswith("found 0 violations")
        one = [Violation("a.py", 1, 1, "RNG001", "x")]
        text = render_text(one)
        assert text.startswith("a.py:1:1: RNG001 x")
        assert text.endswith("found 1 violation")

    def test_ignore_filters_rules(self, tmp_path):
        source = (
            "import random\n"
            "try:\n"
            "    x = 1\n"
            "except:\n"
            "    pass\n"
        )
        everything = run_lint(tmp_path, {"repro/core/thing.py": source})
        assert {"RNG001", "EXC001"} <= rule_ids(everything)
        filtered = lint_paths([str(tmp_path)], ignore=["RNG001"])
        assert "RNG001" not in rule_ids(filtered)
        assert "EXC001" in rule_ids(filtered)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("X = 1\n", encoding="utf-8")
        code = main([str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "found 0 violations" in captured.out

    def test_exit_one_on_violations(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n", encoding="utf-8")
        code = main([str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "RNG001" in captured.out

    def test_list_rules(self, capsys):
        code = main(["--list-rules"])
        captured = capsys.readouterr()
        assert code == 0
        listed = [
            line.split()[0]
            for line in captured.out.splitlines()
            if line.strip()
        ]
        assert set(listed) == ALL_RULE_IDS

    @pytest.mark.parametrize(
        "flag",
        [
            "--format",
            "--select",
            "--ignore",
            "--jobs",
            "--cache-dir",
            "--changed",
            "--fix",
            "--stats",
        ],
    )
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as raised:
            main([str(tmp_path), flag])
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the real tree stays clean
# ---------------------------------------------------------------------------
class TestRealTree:
    def test_src_passes_the_linter(self):
        # the CI gate in miniature: the shipped tree has zero violations
        import repro

        package_root = repro.__path__[0]
        assert lint_paths([package_root]) == []


# ---------------------------------------------------------------------------
# seeded fixtures: every directory fires exactly its intended rule
# ---------------------------------------------------------------------------
_FIXTURE_ROOT = Path(__file__).parent / "lint_fixtures"

#: directory name -> rule ids the fixture must trigger (exactly)
FIXTURE_EXPECTATIONS = {
    "noqa_multiline": set(),
}


class TestSeededFixtures:
    def test_manifest_covers_every_fixture_directory(self):
        on_disk = {
            entry.name
            for entry in _FIXTURE_ROOT.iterdir()
            if entry.is_dir()
        }
        assert on_disk == set(FIXTURE_EXPECTATIONS)

    @pytest.mark.parametrize(
        "case", sorted(FIXTURE_EXPECTATIONS)
    )
    def test_fixture_triggers_exactly_its_rule(self, case):
        found = lint_paths([str(_FIXTURE_ROOT / case)])
        assert rule_ids(found) == FIXTURE_EXPECTATIONS[case], (
            f"{case}: {[v.format_text() for v in found]}"
        )


# ---------------------------------------------------------------------------
# multi-line statement suppression (the end_lineno fix)
# ---------------------------------------------------------------------------
class TestMultiLineSuppressions:
    def test_noqa_on_closing_line_of_multiline_statement(self, tmp_path):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(\n"
            ")  # repro: noqa[RNG002]\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG002"]
        )
        assert found == []

    def test_noqa_on_middle_line_of_multiline_statement(self, tmp_path):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(\n"
            "    # repro: noqa[RNG002]\n"
            ")\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG002"]
        )
        assert found == []

    def test_multiline_span_does_not_bleed_to_neighbours(self, tmp_path):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(\n"
            ")  # repro: noqa[RNG002]\n"
            "other = np.random.default_rng()\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG002"]
        )
        assert len(found) == 1
        assert found[0].line == 4

    def test_noqa_in_body_does_not_suppress_the_def_header(self, tmp_path):
        source = (
            "import numpy as np\n"
            "def sample():\n"
            "    x = 1  # repro: noqa[RNG002]\n"
            "    return np.random.default_rng(), x\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG002"]
        )
        assert rule_ids(found) == {"RNG002"}
        assert found[0].line == 4

    def test_suppression_table_spans_simple_statements(self, tmp_path):
        target = tmp_path / "spans.py"
        target.write_text(
            "value = (\n"
            "    1,\n"
            ")  # repro: noqa[XYZ001]\n",
            encoding="utf-8",
        )
        ctx = FileContext(
            target, "spans.py", target.read_text(encoding="utf-8")
        )
        assert ctx.is_suppressed(1, "XYZ001")
        assert ctx.is_suppressed(2, "XYZ001")
        assert ctx.is_suppressed(3, "XYZ001")
        assert not ctx.is_suppressed(1, "ABC001")


# ---------------------------------------------------------------------------
# CLI: rule profiles
# ---------------------------------------------------------------------------
class TestCliProductionFlags:
    def test_profile_relaxed_drops_script_rules(self, tmp_path, capsys):
        source = (
            "import numpy as np\n"
            "def sample(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        (tmp_path / "bench.py").write_text(source, encoding="utf-8")
        assert main([str(tmp_path)]) == 1
        capsys.readouterr()
        assert main([str(tmp_path), "--profile", "relaxed"]) == 0
        capsys.readouterr()
# ---------------------------------------------------------------------------
# script trees stay clean under the relaxed profile
# ---------------------------------------------------------------------------
class TestScriptTrees:
    @pytest.mark.parametrize("tree", ["benchmarks", "examples"])
    def test_scripts_pass_relaxed_profile(self, tree):
        root = Path(__file__).parent.parent / tree
        if not root.is_dir():
            pytest.skip(f"{tree}/ not present")
        found = lint_paths(
            [str(root)], ignore=["RNG002", "RNG004", "TIM001"]
        )
        assert found == []
