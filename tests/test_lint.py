"""Tests for :mod:`repro.lint` — the AST invariant linter.

Each rule family gets positive fixtures (the violation is caught) and
negative fixtures (conforming code passes).  Fixture files are written
under a ``repro/...`` layout inside ``tmp_path`` so the module-scoped
rules (which key on the dotted module name rooted at the last ``repro``
path component) activate exactly as they do on the real tree.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import pytest

from repro.lint.autofix import FIXABLE_RULES, apply_fixes
from repro.lint.cli import main
from repro.lint.framework import (
    FileContext,
    SYNTAX_RULE_ID,
    Violation,
    all_rules,
    lint_paths,
    render_json,
    render_text,
)
from repro.lint.framework import run_lint as framework_run_lint
from repro.lint.gitchanged import GitUnavailableError, changed_python_files
from repro.lint.sarif import render_sarif

ALL_RULE_IDS = {
    "API001",
    "API002",
    "DET001",
    "ENG001",
    "ENG002",
    "EXC001",
    "EXC002",
    "EXC003",
    "MUT001",
    "OBS001",
    "PKL001",
    "PLN001",
    "PLN002",
    "RNG001",
    "RNG002",
    "RNG003",
    "RNG004",
    "RNG006",
    "SHM001",
    "SNAP001",
    "TIM001",
    "VER001",
    "VER002",
}


def run_lint(
    tmp_path,
    files: Dict[str, str],
    *,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Write ``files`` (relpath -> source) under ``tmp_path`` and lint."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return lint_paths([str(tmp_path)], select=select, ignore=ignore)


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
            run_lint(tmp_path, {"ok.py": "X = 1\n"}, select=["NOPE999"])
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
# ENG001 / ENG002 — engine conformance (cross-file)
# ---------------------------------------------------------------------------
_REGISTRY_SOURCE = (
    "_ENGINE_SPECS = {\n"
    '    "good": ("repro.core.good", "GoodEngine", False),\n'
    "}\n"
)

_GOOD_ENGINE = (
    "from repro.core.engine import EngineBase\n"
    "class GoodEngine(EngineBase):\n"
    '    name = "good"\n'
    "    approximate = True\n"
)


class TestEngineRules:
    def test_unregistered_engine_flagged(self, tmp_path):
        rogue = (
            "from repro.core.engine import EngineBase\n"
            "class RogueEngine(EngineBase):\n"
            '    name = "rogue"\n'
            "    index_free = True\n"
        )
        found = run_lint(
            tmp_path,
            {
                "repro/core/engine.py": _REGISTRY_SOURCE,
                "repro/core/good.py": _GOOD_ENGINE,
                "repro/core/rogue.py": rogue,
            },
            select=["ENG001"],
        )
        assert len(found) == 1
        assert found[0].rule_id == "ENG001"
        assert "RogueEngine" in found[0].message

    def test_registered_engine_passes(self, tmp_path):
        found = run_lint(
            tmp_path,
            {
                "repro/core/engine.py": _REGISTRY_SOURCE,
                "repro/core/good.py": _GOOD_ENGINE,
            },
            select=["ENG001"],
        )
        assert found == []

    def test_silent_without_registry_in_run(self, tmp_path):
        # the registry module is outside the linted set: nothing to check
        found = run_lint(
            tmp_path,
            {"repro/core/good.py": _GOOD_ENGINE},
            select=["ENG001"],
        )
        assert found == []

    def test_missing_name_and_capabilities(self, tmp_path):
        source = (
            "from repro.core.engine import EngineBase\n"
            "class SilentEngine(EngineBase):\n"
            "    pass\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/silent.py": source}, select=["ENG002"]
        )
        messages = [violation.message for violation in found]
        assert len(found) == 2
        assert any("does not set `name`" in message for message in messages)
        assert any("no capabilities" in message for message in messages)

    def test_capabilities_override_counts(self, tmp_path):
        source = (
            "from repro.core.engine import EngineBase\n"
            "class CustomEngine(EngineBase):\n"
            '    name = "custom"\n'
            "    def capabilities(self):\n"
            "        return None\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/custom.py": source}, select=["ENG002"]
        )
        assert found == []

    def test_underscore_scaffolding_exempt(self, tmp_path):
        source = (
            "from repro.core.engine import EngineBase\n"
            "class _Scaffold(EngineBase):\n"
            "    pass\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/scaffold.py": source}, select=["ENG002"]
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
# SNAP001 — CSR snapshot immutability
# ---------------------------------------------------------------------------
class TestSnapshotRule:
    def test_item_write_through_tracked_snapshot(self, tmp_path):
        source = (
            "def corrupt(graph):\n"
            "    snap = graph.out_csr()\n"
            "    snap.indices[0] = 3\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["SNAP001"]
        )
        assert rule_ids(found) == {"SNAP001"}

    def test_field_assignment_on_foreign_object(self, tmp_path):
        source = (
            "def rewire(snapshot, data):\n"
            "    snapshot.indptr = data\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["SNAP001"]
        )
        assert rule_ids(found) == {"SNAP001"}

    def test_read_only_use_passes(self, tmp_path):
        source = (
            "def degree(graph, node):\n"
            "    snap = graph.out_csr()\n"
            "    return snap.indptr[node + 1] - snap.indptr[node]\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["SNAP001"]
        )
        assert found == []

    def test_producer_module_exempt(self, tmp_path):
        source = (
            "class LabeledGraph:\n"
            "    def _rebuild(self, data):\n"
            "        self.indptr = data\n"
        )
        found = run_lint(
            tmp_path,
            {"repro/graph/labeled_graph.py": source},
            select=["SNAP001"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# SHM001 — shared-memory plane immutability
# ---------------------------------------------------------------------------
class TestSharedMemoryRule:
    def test_item_write_through_attached_bundle(self, tmp_path):
        source = (
            "def corrupt(manifest):\n"
            "    bundle = attach_bundle(manifest)\n"
            "    bundle.arrays['out_indptr'][0] = 7\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["SHM001"]
        )
        assert rule_ids(found) == {"SHM001"}

    def test_setflags_write_true(self, tmp_path):
        source = (
            "def rearm(view):\n"
            "    view.setflags(write=True)\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["SHM001"]
        )
        assert rule_ids(found) == {"SHM001"}

    def test_buffer_view_fill(self, tmp_path):
        source = (
            "import numpy as np\n"
            "def scribble(segment, shape, dtype):\n"
            "    view = np.ndarray(shape, dtype=dtype, buffer=segment.buf)\n"
            "    view.fill(0)\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["SHM001"]
        )
        assert rule_ids(found) == {"SHM001"}

    def test_shared_memory_outside_exporter(self, tmp_path):
        source = (
            "from multiprocessing import shared_memory\n"
            "def grab(name):\n"
            "    return shared_memory.SharedMemory(name=name, create=False)\n"
        )
        found = run_lint(
            tmp_path,
            {"repro/baselines/thing.py": source},
            select=["SHM001"],
        )
        assert rule_ids(found) == {"SHM001"}

    def test_read_only_use_passes(self, tmp_path):
        source = (
            "def degree(manifest, node):\n"
            "    bundle = attach_bundle(manifest)\n"
            "    indptr = bundle.arrays['out_indptr']\n"
            "    return indptr[node + 1] - indptr[node]\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["SHM001"]
        )
        assert found == []

    def test_exporter_module_exempt(self, tmp_path):
        source = (
            "import numpy as np\n"
            "from multiprocessing import shared_memory\n"
            "def export(array, name):\n"
            "    seg = shared_memory.SharedMemory(\n"
            "        name=name, create=True, size=array.nbytes\n"
            "    )\n"
            "    view = np.ndarray(\n"
            "        array.shape, dtype=array.dtype, buffer=seg.buf\n"
            "    )\n"
            "    view[...] = array\n"
            "    return seg\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/shm.py": source}, select=["SHM001"]
        )
        assert found == []

    def test_outside_scope_ignored(self, tmp_path):
        source = (
            "def rearm(view):\n"
            "    view.setflags(write=True)\n"
        )
        found = run_lint(
            tmp_path, {"repro/obs/thing.py": source}, select=["SHM001"]
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
# OBS001 — span discipline
# ---------------------------------------------------------------------------
class TestObsSpanRule:
    def test_span_outside_with(self, tmp_path):
        source = (
            "from repro import obs\n"
            "def run(plan):\n"
            "    s = obs.span('engine.query')\n"
            "    return plan\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["OBS001"]
        )
        assert rule_ids(found) == {"OBS001"}

    def test_manual_end_on_bound_span(self, tmp_path):
        source = (
            "def run(tracer):\n"
            "    s = tracer.span('engine.query')\n"
            "    s.end()\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["OBS001"]
        )
        # the bare call outside `with` AND the manual close
        assert len(found) == 2
        assert rule_ids(found) == {"OBS001"}

    def test_chained_end(self, tmp_path):
        source = (
            "def run(tracer):\n"
            "    tracer.span('engine.query').end()\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["OBS001"]
        )
        assert len(found) == 2

    def test_with_span_is_clean(self, tmp_path):
        source = (
            "from repro import obs\n"
            "def run(plan):\n"
            "    with obs.span('engine.query', engine='A') as s:\n"
            "        s.set_attr('done', True)\n"
            "    return plan\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["OBS001"]
        )
        assert found == []

    def test_obs_package_exempt(self, tmp_path):
        source = (
            "def close(tracer):\n"
            "    s = tracer.span('x')\n"
            "    s.end()\n"
        )
        found = run_lint(
            tmp_path, {"repro/obs/thing.py": source}, select=["OBS001"]
        )
        assert found == []

    def test_unrelated_end_call_is_clean(self, tmp_path):
        source = (
            "def run(match):\n"
            "    return match.end()\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["OBS001"]
        )
        assert found == []

    def test_noqa_suppresses(self, tmp_path):
        source = (
            "from repro import obs\n"
            "def run(plan):\n"
            "    s = obs.span('engine.query')  # repro: noqa[OBS001]\n"
            "    return plan\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["OBS001"]
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
# VER001 / VER002 — oracle independence and conformance coverage
# ---------------------------------------------------------------------------
_SPECS_TWO_ENGINES = (
    "_ENGINE_SPECS = {\n"
    '    "good": ("repro.core.good", "GoodEngine", False),\n'
    '    "rogue": ("repro.core.rogue", "RogueEngine", False),\n'
    "}\n"
)

_FRAGMENTS_GOOD_ONLY = (
    "FRAGMENTS = {\n"
    '    "good": ["a*"],\n'
    "}\n"
)


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

    def test_missing_conformance_entry_flagged(self, tmp_path):
        found = run_lint(
            tmp_path,
            {
                "repro/core/engine.py": _SPECS_TWO_ENGINES,
                "tests/test_engine_conformance.py": _FRAGMENTS_GOOD_ONLY,
            },
            select=["VER002"],
        )
        assert len(found) == 1
        assert found[0].rule_id == "VER002"
        assert "'rogue'" in found[0].message

    def test_full_conformance_coverage_passes(self, tmp_path):
        fragments = (
            "FRAGMENTS = {\n"
            '    "good": ["a*"],\n'
            '    "rogue": ["b*"],\n'
            "}\n"
        )
        found = run_lint(
            tmp_path,
            {
                "repro/core/engine.py": _SPECS_TWO_ENGINES,
                "tests/test_engine_conformance.py": fragments,
            },
            select=["VER002"],
        )
        assert found == []

    def test_inert_without_reachable_conformance_table(self, tmp_path):
        # CI lints src only; with no tests/ on disk next to the registry
        # the rule abstains rather than false-alarming
        found = run_lint(
            tmp_path,
            {"repro/core/engine.py": _SPECS_TWO_ENGINES},
            select=["VER002"],
        )
        assert found == []

    def test_real_registry_is_fully_covered(self):
        # the live cross-check: every engine in the real _ENGINE_SPECS
        # has a FRAGMENTS entry in this repo's conformance suite
        from repro.core.engine import engine_names
        from test_engine_conformance import FRAGMENTS

        assert set(engine_names()) <= set(FRAGMENTS)


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

    def test_render_json_document(self):
        violations = [Violation("a.py", 2, 3, "RNG001", "x")]
        document = json.loads(render_json(violations))
        assert document["count"] == 1
        assert document["violations"] == [
            {
                "path": "a.py",
                "line": 2,
                "col": 3,
                "rule": "RNG001",
                "message": "x",
            }
        ]

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

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("X = 1\n", encoding="utf-8")
        code = main([str(tmp_path), "--select", "NOPE999"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown rule id" in captured.err

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n", encoding="utf-8")
        code = main([str(tmp_path), "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["count"] >= 1
        assert document["violations"][0]["rule"] == "RNG001"

    def test_select_option(self, tmp_path, capsys):
        source = "import random\nimport numpy as np\nnp.random.seed(0)\n"
        (tmp_path / "bad.py").write_text(source, encoding="utf-8")
        code = main([str(tmp_path), "--select", "RNG003"])
        captured = capsys.readouterr()
        assert code == 1
        assert "RNG003" in captured.out
        assert "RNG001" not in captured.out

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
# MUT001: alias-aware snapshot/graph mutation (dataflow)
# ---------------------------------------------------------------------------
class TestAliasedMutationRule:
    def test_tuple_unpack_alias(self, tmp_path):
        source = (
            "def rewrite(graph):\n"
            "    snap = graph.out_csr()\n"
            "    ptr, idx = snap.indptr, snap.indices\n"
            "    idx[0] = 99\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["MUT001"]
        )
        assert rule_ids(found) == {"MUT001"}
        assert found[0].line == 4

    def test_augmented_assignment_on_alias(self, tmp_path):
        source = (
            "def shift(snapshot):\n"
            "    arr = snapshot.indices\n"
            "    arr += 1\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["MUT001"]
        )
        assert rule_ids(found) == {"MUT001"}

    def test_with_target_alias(self, tmp_path):
        source = (
            "def pin(graph):\n"
            "    with graph.out_csr() as snap:\n"
            "        snap.indices.fill(0)\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["MUT001"]
        )
        assert rule_ids(found) == {"MUT001"}

    def test_decorated_function_still_analyzed(self, tmp_path):
        source = (
            "import functools\n"
            "@functools.lru_cache(maxsize=None)\n"
            "def poke(snapshot):\n"
            "    view = snapshot.indptr\n"
            "    view.fill(0)\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["MUT001"]
        )
        assert rule_ids(found) == {"MUT001"}

    def test_graph_internal_store_through_alias(self, tmp_path):
        source = (
            "def bump(graph):\n"
            "    alias = graph\n"
            "    alias.version = 7\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["MUT001"]
        )
        assert rule_ids(found) == {"MUT001"}

    def test_copy_breaks_the_alias(self, tmp_path):
        source = (
            "def relabel(graph):\n"
            "    snap = graph.out_csr()\n"
            "    arr = snap.indices.copy()\n"
            "    arr += 1\n"
            "    return arr\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["MUT001"]
        )
        assert found == []

    def test_comprehension_target_does_not_leak(self, tmp_path):
        source = (
            "def degrees(graph):\n"
            "    snap = graph.out_csr()\n"
            "    spans = [row for row in range(3)]\n"
            "    row = [0]\n"
            "    row[0] = 1\n"
            "    return spans, snap\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["MUT001"]
        )
        assert found == []

    def test_rebind_kills_the_taint(self, tmp_path):
        source = (
            "def swap(graph):\n"
            "    arr = graph.out_csr().indices\n"
            "    arr = [0, 1]\n"
            "    arr[0] = 5\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["MUT001"]
        )
        assert found == []

    def test_producer_package_exempt(self, tmp_path):
        source = (
            "def rebuild(self_graph):\n"
            "    snap = self_graph.out_csr()\n"
            "    snap.indices[0] = 1\n"
        )
        found = run_lint(
            tmp_path,
            {"repro/graph/labeled_graph.py": source},
            select=["MUT001"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RNG006: Generator escape across worker boundaries (dataflow)
# ---------------------------------------------------------------------------
class TestGeneratorEscapeRule:
    def test_submit_argument(self, tmp_path):
        source = (
            "def fan_out(pool, work, rng):\n"
            "    generator = rng\n"
            "    pool.submit(work, generator)\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG006"]
        )
        assert rule_ids(found) == {"RNG006"}

    def test_closure_capture_into_thread(self, tmp_path):
        source = (
            "import threading\n"
            "def sample_async(rng):\n"
            "    def draw():\n"
            "        return rng.integers(100)\n"
            "    worker = threading.Thread(target=draw)\n"
            "    worker.start()\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG006"]
        )
        assert rule_ids(found) == {"RNG006"}
        assert "closure" in found[0].message

    def test_thread_args_tuple(self, tmp_path):
        source = (
            "import threading\n"
            "def launch(work, rng):\n"
            "    thread = threading.Thread(target=work, args=(rng,))\n"
            "    thread.start()\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG006"]
        )
        assert rule_ids(found) == {"RNG006"}

    def test_partial_carries_the_generator(self, tmp_path):
        source = (
            "import functools\n"
            "def batch(pool, work, rng):\n"
            "    job = functools.partial(work, rng)\n"
            "    pool.submit(job)\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG006"]
        )
        assert rule_ids(found) == {"RNG006"}

    def test_spawned_children_are_sanctioned(self, tmp_path):
        source = (
            "def fan_out(pool, work, seed_seq):\n"
            "    children = seed_seq.spawn(4)\n"
            "    for child in children:\n"
            "        pool.submit(work, child)\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["RNG006"]
        )
        assert found == []

    def test_executor_module_privileged(self, tmp_path):
        source = (
            "def run_all(pool, work, rng):\n"
            "    pool.submit(work, rng)\n"
        )
        found = run_lint(
            tmp_path,
            {"repro/core/executor.py": source},
            select=["RNG006"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# PLN002: plans are frozen after construction (dataflow)
# ---------------------------------------------------------------------------
class TestPlanFrozenRule:
    def test_alias_store(self, tmp_path):
        source = (
            "def warm(engine, query):\n"
            "    plan = engine.prepare(query)\n"
            "    cached = plan\n"
            "    cached.cache_hit = True\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["PLN002"]
        )
        assert rule_ids(found) == {"PLN002"}
        assert found[0].line == 4

    def test_parameter_store(self, tmp_path):
        source = "def touch(artifact):\n    artifact.params = {}\n"
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["PLN002"]
        )
        assert rule_ids(found) == {"PLN002"}

    def test_augmented_store(self, tmp_path):
        source = (
            "def count(plan):\n"
            "    plan.evictions += 1\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["PLN002"]
        )
        assert rule_ids(found) == {"PLN002"}

    def test_plan_for_funnel_exempt(self, tmp_path):
        source = (
            "class Runner:\n"
            "    def _plan_for(self, query):\n"
            "        plan = self.prepare(query)\n"
            "        plan.plan_s = 0.0\n"
            "        return plan\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["PLN002"]
        )
        assert found == []

    def test_plan_module_exempt(self, tmp_path):
        source = (
            "def evict(plan):\n"
            "    plan.evictions = 0\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/plan.py": source}, select=["PLN002"]
        )
        assert found == []

    def test_reads_are_fine(self, tmp_path):
        source = (
            "def describe(plan):\n"
            "    return (plan.cache_hit, plan.compile_s)\n"
        )
        found = run_lint(
            tmp_path, {"repro/core/thing.py": source}, select=["PLN002"]
        )
        assert found == []


# ---------------------------------------------------------------------------
# EXC003: engine raise paths over the call graph (whole-program)
# ---------------------------------------------------------------------------
_EXC003_ENGINE = (
    "_ENGINE_SPECS = {\n"
    '    "demo": ("repro.baselines.demo", "DemoEngine"),\n'
    "}\n"
    "class EngineBase:\n"
    "    def query(self, query):\n"
    "        return self._execute(query)\n"
    "    def _execute(self, query):\n"
    "        raise NotImplementedError\n"
)

_EXC003_ERRORS = (
    "class ReproError(Exception):\n"
    "    pass\n"
    "class QueryError(ReproError):\n"
    "    pass\n"
)


class TestEngineRaisePathRule:
    def test_deep_raise_reported_with_path(self, tmp_path):
        files = {
            "repro/errors.py": _EXC003_ERRORS,
            "repro/core/engine.py": _EXC003_ENGINE,
            "repro/core/helpers.py": (
                "def expand(query):\n"
                "    return _inner(query)\n"
                "def _inner(query):\n"
                "    if not query:\n"
                '        raise RuntimeError("empty")\n'
                "    return query\n"
            ),
            "repro/baselines/demo.py": (
                "from repro.core.engine import EngineBase\n"
                "from repro.core.helpers import expand\n"
                "class DemoEngine(EngineBase):\n"
                "    def _execute(self, query):\n"
                "        return expand(query)\n"
            ),
        }
        found = run_lint(tmp_path, files, select=["EXC003"])
        assert rule_ids(found) == {"EXC003"}
        assert found[0].path.endswith("helpers.py")
        assert "via _execute -> expand -> _inner" in found[0].message

    def test_return_none_contract(self, tmp_path):
        files = {
            "repro/core/engine.py": _EXC003_ENGINE,
            "repro/baselines/demo.py": (
                "from repro.core.engine import EngineBase\n"
                "class DemoEngine(EngineBase):\n"
                "    def _execute(self, query):\n"
                "        if query is None:\n"
                "            return None\n"
                "        return query\n"
            ),
        }
        found = run_lint(tmp_path, files, select=["EXC003"])
        assert rule_ids(found) == {"EXC003"}
        assert "returns None" in found[0].message

    def test_nested_helper_returns_are_not_the_engines(self, tmp_path):
        files = {
            "repro/core/engine.py": _EXC003_ENGINE,
            "repro/baselines/demo.py": (
                "from repro.core.engine import EngineBase\n"
                "class DemoEngine(EngineBase):\n"
                "    def _execute(self, query):\n"
                "        def probe(item):\n"
                "            if item:\n"
                "                return None\n"
                "            return item\n"
                "        return [probe(part) for part in query]\n"
            ),
        }
        found = run_lint(tmp_path, files, select=["EXC003"])
        assert found == []

    def test_taxonomy_and_sanctioned_builtins_pass(self, tmp_path):
        files = {
            "repro/errors.py": _EXC003_ERRORS,
            "repro/core/engine.py": _EXC003_ENGINE,
            "repro/baselines/demo.py": (
                "from repro.core.engine import EngineBase\n"
                "from repro.errors import QueryError\n"
                "class DemoEngine(EngineBase):\n"
                "    def _execute(self, query):\n"
                "        if not query:\n"
                '            raise QueryError("empty")\n'
                '        if query == "odd":\n'
                '            raise ValueError("unsupported")\n'
                "        return query\n"
            ),
        }
        found = run_lint(tmp_path, files, select=["EXC003"])
        assert found == []

    def test_unreachable_raise_not_reported(self, tmp_path):
        files = {
            "repro/core/engine.py": _EXC003_ENGINE,
            "repro/core/unrelated.py": (
                "def helper():\n"
                '    raise RuntimeError("not on any engine path")\n'
            ),
            "repro/baselines/demo.py": (
                "from repro.core.engine import EngineBase\n"
                "class DemoEngine(EngineBase):\n"
                "    def _execute(self, query):\n"
                "        return query\n"
            ),
        }
        found = run_lint(tmp_path, files, select=["EXC003"])
        assert found == []


# ---------------------------------------------------------------------------
# seeded fixtures: every directory fires exactly its intended rule
# ---------------------------------------------------------------------------
_FIXTURE_ROOT = Path(__file__).parent / "lint_fixtures"

#: directory name -> rule ids the fixture must trigger (exactly)
FIXTURE_EXPECTATIONS = {
    "exc003_deep_raise": {"EXC003"},
    "exc003_negative_taxonomy": set(),
    "exc003_return_none": {"EXC003"},
    "mut001_aug_assign": {"MUT001"},
    "mut001_decorator": {"MUT001"},
    "mut001_graph_version": {"MUT001"},
    "mut001_negative_comprehension": set(),
    "mut001_negative_copy": set(),
    "mut001_tuple_unpack": {"MUT001"},
    "mut001_with_target": {"MUT001"},
    "noqa_multiline": set(),
    "pln002_alias_store": {"PLN002"},
    "pln002_negative_read": set(),
    "pln002_param": {"PLN002"},
    "rng006_closure": {"RNG006"},
    "rng006_negative_spawn": set(),
    "rng006_partial": {"RNG006"},
    "rng006_submit_arg": {"RNG006"},
    "rng006_thread_args": {"RNG006"},
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
# incremental cache + parallel analysis
# ---------------------------------------------------------------------------
def _write_tree(root: Path, count: int) -> None:
    body = "\n".join(
        f"def helper_{index}(value):\n"
        f"    total = value + {index}\n"
        f"    items = [total for _ in range(3)]\n"
        f"    return sorted(items)\n"
        for index in range(12)
    )
    for index in range(count):
        target = root / "repro" / "core" / f"module_{index:03d}.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(body + "\n", encoding="utf-8")


class TestIncrementalCache:
    def test_warm_run_analyzes_zero_files_and_is_5x_faster(self, tmp_path):
        tree = tmp_path / "tree"
        _write_tree(tree, 40)
        cache_dir = tmp_path / "cache"

        started = time.perf_counter()
        cold = framework_run_lint([str(tree)], cache_dir=cache_dir)
        cold_s = time.perf_counter() - started
        assert cold.files_total == 40
        assert cold.files_analyzed == 40
        assert cold.violations == []

        started = time.perf_counter()
        warm = framework_run_lint([str(tree)], cache_dir=cache_dir)
        warm_s = time.perf_counter() - started
        assert warm.files_total == 40
        assert warm.files_analyzed == 0
        assert warm.files_from_cache == 40
        assert warm.project_from_cache
        assert warm.violations == cold.violations
        assert warm_s * 5 <= cold_s, (
            f"warm {warm_s:.4f}s not 5x faster than cold {cold_s:.4f}s"
        )

    def test_single_edit_reanalyzes_only_that_file(self, tmp_path):
        tree = tmp_path / "tree"
        _write_tree(tree, 8)
        cache_dir = tmp_path / "cache"
        framework_run_lint([str(tree)], cache_dir=cache_dir)

        edited = tree / "repro" / "core" / "module_003.py"
        edited.write_text(
            edited.read_text(encoding="utf-8") + "import random\n",
            encoding="utf-8",
        )
        second = framework_run_lint([str(tree)], cache_dir=cache_dir)
        assert second.files_analyzed == 1
        assert second.files_from_cache == 7
        assert not second.project_from_cache
        assert rule_ids(second.violations) == {"RNG001"}

    def test_cached_violations_replay_on_warm_runs(self, tmp_path):
        tree = tmp_path / "tree"
        bad = tree / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n", encoding="utf-8")
        cache_dir = tmp_path / "cache"
        cold = framework_run_lint([str(tree)], cache_dir=cache_dir)
        warm = framework_run_lint([str(tree)], cache_dir=cache_dir)
        assert warm.files_analyzed == 0
        assert warm.violations == cold.violations
        assert rule_ids(warm.violations) == {"RNG001"}

    def test_rule_version_bump_invalidates_the_cache(
        self, tmp_path, monkeypatch
    ):
        from repro.lint.rules.rng_discipline import StdlibRandomRule

        tree = tmp_path / "tree"
        _write_tree(tree, 4)
        cache_dir = tmp_path / "cache"
        framework_run_lint([str(tree)], cache_dir=cache_dir)
        monkeypatch.setattr(
            StdlibRandomRule, "version", StdlibRandomRule.version + 1
        )
        bumped = framework_run_lint([str(tree)], cache_dir=cache_dir)
        assert bumped.files_analyzed == 4
        assert bumped.files_from_cache == 0

    def test_corrupt_cache_degrades_to_cold_run(self, tmp_path):
        tree = tmp_path / "tree"
        _write_tree(tree, 3)
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "lint-cache.json").write_text(
            "{not json", encoding="utf-8"
        )
        report = framework_run_lint([str(tree)], cache_dir=cache_dir)
        assert report.files_analyzed == 3
        assert report.violations == []

    def test_parallel_jobs_match_serial_results(self, tmp_path):
        tree = tmp_path / "tree"
        _write_tree(tree, 10)
        (tree / "repro" / "core" / "bad.py").write_text(
            "import random\nimport numpy as np\nnp.random.seed(0)\n",
            encoding="utf-8",
        )
        serial = framework_run_lint([str(tree)], jobs=1)
        parallel = framework_run_lint([str(tree)], jobs=4)
        assert parallel.violations == serial.violations
        assert parallel.files_analyzed == 11


# ---------------------------------------------------------------------------
# SARIF output
# ---------------------------------------------------------------------------
class TestSarifOutput:
    def _document(self, violations):
        return json.loads(render_sarif(violations))

    def test_sarif_shape_matches_2_1_0(self):
        violations = [
            Violation("repro/core/a.py", 3, 5, "RNG001", "no stdlib random"),
            Violation("repro/core/b.py", 1, 1, "MUT001", "alias mutation"),
        ]
        document = self._document(violations)
        assert document["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in document["$schema"]
        assert len(document["runs"]) == 1
        run = document["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_index = {
            entry["id"]: position
            for position, entry in enumerate(driver["rules"])
        }
        assert set(rule_index) >= ALL_RULE_IDS
        assert len(run["results"]) == 2
        for result in run["results"]:
            assert result["ruleIndex"] == rule_index[result["ruleId"]]
            assert result["level"] == "error"
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uriBaseId"] == "SRCROOT"
            assert location["region"]["startLine"] >= 1
            assert location["region"]["startColumn"] >= 1
            assert "partialFingerprints" in result

    def test_sarif_covers_pseudo_rules(self):
        violations = [Violation("broken.py", 1, 1, "SYNTAX", "cannot parse")]
        document = self._document(violations)
        driver = document["runs"][0]["tool"]["driver"]
        assert any(entry["id"] == "SYNTAX" for entry in driver["rules"])
        assert document["runs"][0]["results"][0]["ruleId"] == "SYNTAX"

    def test_sarif_empty_run_still_valid(self):
        document = self._document([])
        assert document["runs"][0]["results"] == []

    def test_cli_sarif_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n", encoding="utf-8")
        code = main([str(tmp_path), "--format", "sarif"])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["results"][0]["ruleId"] == "RNG001"


# ---------------------------------------------------------------------------
# autofixes
# ---------------------------------------------------------------------------
class TestAutofix:
    def test_bare_except_fix(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "try:\n    x = 1\nexcept:\n    x = 2\n", encoding="utf-8"
        )
        edited = apply_fixes([str(tmp_path)])
        assert edited
        assert "except Exception:" in target.read_text(encoding="utf-8")
        assert lint_paths([str(tmp_path)], select=["EXC001"]) == []

    def test_all_regeneration_adds_and_drops_names(self, tmp_path):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "__init__.py").write_text(
            '"""Pkg."""\n\n'
            "from repro.mod import thing\n\n\n"
            "def helper():\n"
            "    return thing\n\n\n"
            "__all__ = [\n"
            '    "helper",\n'
            '    "stale_name",\n'
            "]\n",
            encoding="utf-8",
        )
        (package / "mod.py").write_text(
            "def thing():\n    return 1\n", encoding="utf-8"
        )
        apply_fixes([str(tmp_path)])
        updated = (package / "__init__.py").read_text(encoding="utf-8")
        assert '"thing",' in updated
        assert "stale_name" not in updated
        assert lint_paths(
            [str(tmp_path)], select=["API001", "API002"]
        ) == []

    def test_fix_is_idempotent(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "try:\n    x = 1\nexcept:\n    x = 2\n", encoding="utf-8"
        )
        apply_fixes([str(tmp_path)])
        first = target.read_text(encoding="utf-8")
        assert apply_fixes([str(tmp_path)]) == {}
        assert target.read_text(encoding="utf-8") == first

    def test_cli_fix_flag(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "try:\n    x = 1\nexcept:\n    x = 2\n", encoding="utf-8"
        )
        code = main([str(tmp_path), "--fix", "--select", "EXC001"])
        capsys.readouterr()
        assert code == 0

    def test_deep_rules_are_never_autofixed(self):
        assert not FIXABLE_RULES & {"MUT001", "RNG006", "PLN002", "EXC003"}


# ---------------------------------------------------------------------------
# --changed (git-aware selection)
# ---------------------------------------------------------------------------
def _git(tmp_path, *args):
    subprocess.run(
        ["git", *args],
        cwd=tmp_path,
        check=True,
        capture_output=True,
        env={
            **os.environ,
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@example.invalid",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@example.invalid",
            "HOME": str(tmp_path),
        },
    )


class TestChangedSelection:
    @pytest.fixture()
    def repo(self, tmp_path, monkeypatch):
        _git(tmp_path, "init", "-q")
        committed = tmp_path / "src" / "committed.py"
        committed.parent.mkdir(parents=True)
        committed.write_text("X = 1\n", encoding="utf-8")
        _git(tmp_path, "add", "-A")
        _git(tmp_path, "commit", "-qm", "seed")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_untracked_and_modified_files_selected(self, repo):
        (repo / "src" / "committed.py").write_text(
            "X = 2\n", encoding="utf-8"
        )
        fresh = repo / "src" / "fresh.py"
        fresh.write_text("Y = 1\n", encoding="utf-8")
        (repo / "src" / "notes.txt").write_text("n\n", encoding="utf-8")
        selected = changed_python_files(["src"])
        assert [Path(item).name for item in selected] == [
            "committed.py",
            "fresh.py",
        ]

    def test_clean_tree_selects_nothing(self, repo):
        assert changed_python_files(["src"]) == []

    def test_scope_filter(self, repo):
        outside = repo / "scripts" / "tool.py"
        outside.parent.mkdir()
        outside.write_text("Z = 1\n", encoding="utf-8")
        assert changed_python_files(["src"]) == []
        assert [Path(p).name for p in changed_python_files(["scripts"])] == [
            "tool.py"
        ]

    def test_cli_changed_flag(self, repo, capsys):
        bad = repo / "src" / "bad.py"
        bad.write_text("import random\n", encoding="utf-8")
        code = main(["src", "--changed", "--select", "RNG001"])
        captured = capsys.readouterr()
        assert code == 1
        assert "RNG001" in captured.out
        # files passed as their own lint roots must render a real path,
        # not "." (regression: relpath against the file itself)
        assert "src/bad.py:1:" in captured.out

    def test_cli_changed_clean_tree(self, repo, capsys):
        code = main(["src", "--changed"])
        captured = capsys.readouterr()
        assert code == 0
        assert "no changed python files" in captured.out

    def test_git_unavailable_raises(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "nope"))
        with pytest.raises(GitUnavailableError):
            changed_python_files(["src"])


# ---------------------------------------------------------------------------
# CLI: new flags
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

    def test_stats_flag_reports_cache_counts(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("X = 1\n", encoding="utf-8")
        cache_dir = tmp_path / ".cache"
        main([str(tmp_path), "--cache-dir", str(cache_dir), "--stats"])
        capsys.readouterr()
        code = main(
            [str(tmp_path), "--cache-dir", str(cache_dir), "--stats"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "0 analyzed" in captured.err
        assert "project cached" in captured.err

    def test_jobs_flag(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n", encoding="utf-8")
        code = main([str(tmp_path), "--jobs", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert "RNG001" in captured.out

    def test_list_rules_marks_project_rules(self, capsys):
        main(["--list-rules"])
        captured = capsys.readouterr()
        kinds = {}
        for line in captured.out.splitlines():
            parts = line.split()
            kinds[parts[0]] = parts[1].strip("[]")
        assert kinds["EXC003"] == "project"
        assert kinds["MUT001"] == "file"


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
