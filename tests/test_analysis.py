"""Tests for the project-native static analysis suite (``repro check``).

Every rule gets a positive case (a synthetic module that violates the
invariant), a negative case (compliant code stays clean), and a
pragma-suppression case.  The suite closes with the self-check: the
shipped package must be clean under an empty baseline, which is the
exact gate CI runs via ``repro check --strict``.
"""

from __future__ import annotations

import json

import pytest

from repro import analysis
from repro.analysis.engine import module_name_for
from repro.analysis.pragmas import parse_pragmas, suppresses
from repro.analysis.rules import (
    ExecutorContractRule,
    HotPathPurityRule,
    LayeringRule,
    RngDisciplineRule,
    ShmLifecycleRule,
    WallclockDisciplineRule,
)
from repro.cli import main as cli_main


def check(sources, rules, baseline=None):
    return analysis.analyze_source(sources, rules=rules, baseline=baseline)


def rule_ids(report):
    return [f.rule for f in report.findings]


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------


class TestLayeringRule:
    def test_core_importing_exec_is_flagged(self):
        report = check(
            {"repro.core.widget": "from repro.exec.base import BatchResult\n"},
            [LayeringRule],
        )
        assert rule_ids(report) == ["layering"]
        assert "repro.exec" in report.findings[0].message

    @pytest.mark.parametrize("upper", ["exec", "engine", "resilience", "obs", "cli"])
    def test_every_upper_layer_is_forbidden(self, upper):
        for layer in ("core", "index", "metrics"):
            report = check(
                {f"repro.{layer}.x": f"import repro.{upper}\n"}, [LayeringRule]
            )
            assert rule_ids(report) == ["layering"], (layer, upper)

    def test_util_importing_anything_above_is_flagged(self):
        report = check(
            {"repro.util.helper": "from repro.core.dbscan import dbscan\n"},
            [LayeringRule],
        )
        assert rule_ids(report) == ["layering"]
        assert "bottom layer" in report.findings[0].message

    def test_allowed_imports_are_clean(self):
        report = check(
            {
                "repro.core.widget": (
                    "from repro.index.rtree import RTree\n"
                    "from repro.util.tracing import Tracer\n"
                    "from repro.metrics.counters import WorkCounters\n"
                ),
                "repro.util.helper": "from repro.util.errors import ValidationError\n",
                "repro.engine.thing": "from repro.exec.base import BatchResult\n",
            },
            [LayeringRule],
        )
        assert report.findings == []

    def test_type_checking_imports_are_exempt(self):
        source = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.exec.base import BatchResult\n"
        )
        report = check({"repro.core.widget": source}, [LayeringRule])
        assert report.findings == []

    def test_pragma_suppresses(self):
        source = "import repro.obs  # repro: allow[layering]\n"
        report = check({"repro.core.widget": source}, [LayeringRule])
        assert report.findings == []
        assert report.suppressed == 1


# ---------------------------------------------------------------------------
# rng-discipline
# ---------------------------------------------------------------------------


class TestRngDisciplineRule:
    def test_np_random_call_is_flagged(self):
        report = check(
            {"repro.data.gen": "import numpy as np\nrng = np.random.default_rng(3)\n"},
            [RngDisciplineRule],
        )
        assert rule_ids(report) == ["rng-discipline"]

    def test_stdlib_random_import_is_flagged(self):
        report = check({"repro.data.gen": "import random\n"}, [RngDisciplineRule])
        assert rule_ids(report) == ["rng-discipline"]
        report = check(
            {"repro.data.gen": "from random import shuffle\n"}, [RngDisciplineRule]
        )
        assert rule_ids(report) == ["rng-discipline"]

    def test_seedless_default_rng_flagged_even_in_util_rng(self):
        report = check(
            {
                "repro.util.rng": (
                    "import numpy as np\n"
                    "def fresh():\n"
                    "    return np.random.default_rng()\n"
                )
            },
            [RngDisciplineRule],
        )
        assert rule_ids(report) == ["rng-discipline"]
        assert "seedless" in report.findings[0].message

    def test_util_rng_itself_may_call_numpy_random(self):
        report = check(
            {
                "repro.util.rng": (
                    "import numpy as np\n"
                    "def resolve_rng(seed):\n"
                    "    return np.random.default_rng(seed)\n"
                )
            },
            [RngDisciplineRule],
        )
        assert report.findings == []

    def test_annotation_is_not_a_call(self):
        source = (
            "import numpy as np\n"
            "def sizes(rng: np.random.Generator) -> int:\n"
            "    return 1\n"
        )
        report = check({"repro.data.gen": source}, [RngDisciplineRule])
        assert report.findings == []

    def test_resolve_rng_usage_is_clean(self):
        source = (
            "from repro.util.rng import resolve_rng\n"
            "rng = resolve_rng(42)\n"
        )
        report = check({"repro.data.gen": source}, [RngDisciplineRule])
        assert report.findings == []

    def test_pragma_suppresses(self):
        source = (
            "import numpy as np\n"
            "x = np.random.default_rng(1)  # repro: allow[rng-discipline]\n"
        )
        report = check({"repro.data.gen": source}, [RngDisciplineRule])
        assert report.findings == []
        assert report.suppressed == 1


# ---------------------------------------------------------------------------
# shm-lifecycle
# ---------------------------------------------------------------------------


class TestShmLifecycleRule:
    def test_direct_construction_is_flagged(self):
        source = (
            "from multiprocessing import shared_memory\n"
            "seg = shared_memory.SharedMemory(create=True, size=64)\n"
        )
        report = check({"repro.exec.rogue": source}, [ShmLifecycleRule])
        ids = rule_ids(report)
        assert "shm-lifecycle" in ids
        # Both the import and the construction are flagged.
        assert len(ids) == 2

    def test_unlink_outside_shm_module_is_flagged(self):
        source = "def teardown(idx_shm):\n    idx_shm.unlink()\n"
        report = check({"repro.exec.rogue": source}, [ShmLifecycleRule])
        assert rule_ids(report) == ["shm-lifecycle"]

    def test_path_unlink_is_not_flagged(self):
        source = "def rm(path):\n    path.unlink()\n"
        report = check({"repro.resilience.files": source}, [ShmLifecycleRule])
        assert report.findings == []

    def test_engine_shm_module_is_exempt(self):
        source = (
            "from multiprocessing import shared_memory\n"
            "def create(size):\n"
            "    shm = shared_memory.SharedMemory(create=True, size=size)\n"
            "    return shm\n"
        )
        report = check({"repro.engine.shm": source}, [ShmLifecycleRule])
        assert report.findings == []

    def test_ensure_shared_without_close_path_is_flagged(self):
        source = "def run(store):\n    return store.ensure_shared()\n"
        report = check({"repro.exec.rogue": source}, [ShmLifecycleRule])
        assert rule_ids(report) == ["shm-lifecycle"]
        assert "close" in report.findings[0].message

    def test_ensure_shared_with_close_path_is_clean(self):
        source = (
            "def run(store):\n"
            "    handle = store.ensure_shared()\n"
            "    try:\n"
            "        return handle\n"
            "    finally:\n"
            "        store.close()\n"
        )
        report = check({"repro.exec.ok": source}, [ShmLifecycleRule])
        assert report.findings == []

    def test_pragma_suppresses(self):
        source = "def teardown(idx_shm):\n    idx_shm.unlink()  # repro: allow[shm-lifecycle]\n"
        report = check({"repro.exec.rogue": source}, [ShmLifecycleRule])
        assert report.findings == []


# ---------------------------------------------------------------------------
# wallclock-discipline
# ---------------------------------------------------------------------------


class TestWallclockDisciplineRule:
    def test_time_time_call_is_flagged(self):
        source = "import time\nt0 = time.time()\n"
        report = check({"repro.exec.timed": source}, [WallclockDisciplineRule])
        assert rule_ids(report) == ["wallclock-discipline"]

    def test_from_time_import_time_is_flagged(self):
        report = check(
            {"repro.exec.timed": "from time import time\n"},
            [WallclockDisciplineRule],
        )
        assert rule_ids(report) == ["wallclock-discipline"]

    def test_perf_counter_is_clean(self):
        source = (
            "import time\n"
            "t0 = time.perf_counter()\n"
            "from time import perf_counter\n"
        )
        report = check({"repro.exec.timed": source}, [WallclockDisciplineRule])
        assert report.findings == []

    def test_pragma_suppresses(self):
        source = "import time\nstamp = time.time()  # repro: allow[wallclock-discipline] log timestamp\n"
        report = check({"repro.obs.logts": source}, [WallclockDisciplineRule])
        assert report.findings == []


# ---------------------------------------------------------------------------
# executor-contract
# ---------------------------------------------------------------------------

def _module(name):
    return (
        "from repro.exec.graph import GraphRuntime\n\n"
        f"def run_{name}(ctx, variants):\n"
        "    return GraphRuntime(\"sim\").run(ctx, variants)\n"
    )


def _project(*names):
    sources = {"repro.exec": "EXECUTORS = {\"serial\": (\"sim\", \"variant\")}\n"}
    for i, name in enumerate(names):
        sources[f"repro.exec.mod{i}"] = _module(name)
    return sources


class TestExecutorContractRule:
    def test_conforming_backends_are_clean(self):
        report = check(_project("alpha", "beta"), [ExecutorContractRule])
        assert report.findings == []

    def test_private_pool_spawn_is_flagged(self):
        sources = _project("alpha")
        sources["repro.exec.mod0"] = _module("alpha") + (
            "\nfrom concurrent.futures import ProcessPoolExecutor\n"
            "POOL = ProcessPoolExecutor(max_workers=2)\n"
        )
        report = check(sources, [ExecutorContractRule])
        assert rule_ids(report) == ["executor-contract", "executor-contract"]
        assert all("spawns workers" in f.message for f in report.findings)

    def test_runtime_module_may_spawn_pools(self):
        sources = _project("alpha")
        sources["repro.exec.graph"] = (
            "import threading\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "class GraphRuntime:\n"
            "    def spawn(self):\n"
            "        threading.Thread(target=print).start()\n"
            "        return ProcessPoolExecutor(max_workers=1)\n"
        )
        report = check(sources, [ExecutorContractRule])
        assert report.findings == []

    def test_pragma_on_class_line_suppresses(self):
        sources = _project("alpha")
        sources["repro.exec.mod0"] = (
            "class Alpha:  # repro: allow[executor-contract]\n"
            "    from concurrent.futures import ProcessPoolExecutor\n"
            "    POOL = ProcessPoolExecutor(max_workers=2)\n"
        )
        report = check(sources, [ExecutorContractRule])
        assert report.findings == []
        assert report.suppressed >= 1

    # -- supervision discipline ---------------------------------------
    def test_rogue_heartbeat_emitter_is_flagged(self):
        sources = _project("alpha")
        sources["repro.engine.rogue"] = (
            "from repro.supervise.signals import worker_pulse\n"
            "pulse = worker_pulse(None)\n"
        )
        report = check(sources, [ExecutorContractRule])
        assert rule_ids(report) == ["executor-contract"]
        assert "worker_pulse" in report.findings[0].message
        assert "repro.exec.graph" in report.findings[0].message

    def test_runtime_and_signals_may_emit_heartbeats(self):
        sources = _project("alpha")
        sources["repro.exec.graph"] = (
            "from repro.supervise.signals import worker_pulse\n"
            "class GraphRuntime:\n"
            "    def go(self, handle):\n"
            "        return worker_pulse(handle)\n"
        )
        sources["repro.supervise.signals"] = (
            "def worker_pulse(handle):\n"
            "    return None\n"
            "PULSE = worker_pulse(None)\n"
        )
        report = check(sources, [ExecutorContractRule])
        assert report.findings == []

    def test_adhoc_action_construction_is_flagged(self):
        sources = _project("alpha")
        sources["repro.resilience.rogue"] = (
            "from repro.supervise.remedy import Action\n"
            "FIX = Action('degrade', target='group:g0')\n"
        )
        report = check(sources, [ExecutorContractRule])
        assert rule_ids(report) == ["executor-contract"]
        assert "Action" in report.findings[0].message
        assert "repro.supervise.remedy" in report.findings[0].message

    def test_proposer_registry_may_construct_actions(self):
        sources = _project("alpha")
        sources["repro.supervise.remedy"] = (
            "class Action:\n"
            "    def __init__(self, kind, target=''):\n"
            "        self.kind = kind\n"
            "def propose():\n"
            "    return [Action('respawn-lane')]\n"
        )
        report = check(sources, [ExecutorContractRule])
        assert report.findings == []


# ---------------------------------------------------------------------------
# hot-path-purity
# ---------------------------------------------------------------------------


class TestHotPathPurityRule:
    def test_for_loop_in_batch_kernel_is_flagged(self):
        source = (
            "def query_candidates_batch(mbbs):\n"
            "    out = []\n"
            "    for i in range(len(mbbs)):\n"
            "        out.append(i)\n"
            "    return out\n"
        )
        report = check({"repro.index.fancy": source}, [HotPathPurityRule])
        assert rule_ids(report) == ["hot-path-purity"]

    def test_comprehension_in_batch_kernel_is_flagged(self):
        source = (
            "def _batch_descend(mbbs):\n"
            "    return [m for m in mbbs]\n"
        )
        report = check({"repro.index.fancy": source}, [HotPathPurityRule])
        assert rule_ids(report) == ["hot-path-purity"]

    def test_tolist_in_index_module_is_flagged(self):
        source = "def helper(arr):\n    return arr.tolist()\n"
        report = check({"repro.index.fancy": source}, [HotPathPurityRule])
        assert rule_ids(report) == ["hot-path-purity"]

    def test_loop_outside_batch_function_is_clean(self):
        source = (
            "def build(points):\n"
            "    for p in points:\n"
            "        pass\n"
        )
        report = check({"repro.index.fancy": source}, [HotPathPurityRule])
        assert report.findings == []

    def test_loop_outside_index_package_is_clean(self):
        source = (
            "def run_batch(items):\n"
            "    for x in items:\n"
            "        pass\n"
        )
        report = check({"repro.core.batchy": source}, [HotPathPurityRule])
        assert report.findings == []

    def test_pragma_on_def_line_covers_whole_function(self):
        source = (
            "def query_candidates_batch(mbbs):  # repro: allow[hot-path-purity]\n"
            "    rows = [m for m in mbbs]\n"
            "    for r in rows:\n"
            "        pass\n"
        )
        report = check({"repro.index.fancy": source}, [HotPathPurityRule])
        assert report.findings == []
        assert report.suppressed == 2

    def test_level_synchronous_loop_is_pure_without_pragma(self):
        source = (
            "def _batch_descend(self, mbbs):\n"
            "    for depth in range(self.height):\n"
            "        pass\n"
        )
        report = check({"repro.index.fancy": source}, [HotPathPurityRule])
        assert report.findings == []
        assert report.suppressed == 0

    @pytest.mark.parametrize(
        "bound", ["tree.depth + 1", "n_levels", "self.tree_height"]
    )
    def test_level_word_bounds_are_pure(self, bound):
        source = (
            "def query_candidates_batch(self, mbbs):\n"
            f"    for i in range({bound}):\n"
            "        pass\n"
        )
        report = check({"repro.index.fancy": source}, [HotPathPurityRule])
        assert report.findings == []

    @pytest.mark.parametrize(
        "bound",
        [
            "len(points)",          # per-point bound
            "self.heightmap",       # 'height' only as a fragment, not a word
            "n",                    # anonymous bound
        ],
    )
    def test_non_level_range_bounds_stay_flagged(self, bound):
        source = (
            "def query_candidates_batch(self, mbbs):\n"
            f"    for i in range({bound}):\n"
            "        pass\n"
        )
        report = check({"repro.index.fancy": source}, [HotPathPurityRule])
        assert rule_ids(report) == ["hot-path-purity"]

    def test_non_range_iteration_over_levels_stays_flagged(self):
        # Only the range(<level bound>) shape is provably O(height);
        # iterating a container named 'levels' could still be per-point.
        source = (
            "def query_candidates_batch(self, mbbs):\n"
            "    for lvl in self.levels:\n"
            "        pass\n"
        )
        report = check({"repro.index.fancy": source}, [HotPathPurityRule])
        assert rule_ids(report) == ["hot-path-purity"]


# ---------------------------------------------------------------------------
# pragmas, baseline, engine plumbing
# ---------------------------------------------------------------------------


class TestPragmaParsing:
    def test_basic_and_multi_rule(self):
        source = (
            "x = 1  # repro: allow[layering]\n"
            "y = 2  # repro: allow[rng-discipline, shm-lifecycle]\n"
        )
        pragmas = parse_pragmas(source)
        assert pragmas == {
            1: {"layering"},
            2: {"rng-discipline", "shm-lifecycle"},
        }

    def test_wildcard(self):
        pragmas = parse_pragmas("x = 1  # repro: allow[*]\n")
        assert suppresses(pragmas, (1,), "anything")

    def test_pragma_inside_string_is_ignored(self):
        pragmas = parse_pragmas('s = "# repro: allow[layering]"\n')
        assert pragmas == {}

    def test_no_match_on_other_lines(self):
        pragmas = parse_pragmas("x = 1  # repro: allow[layering]\n")
        assert not suppresses(pragmas, (2,), "layering")


class TestBaselineWorkflow:
    def test_baselined_findings_do_not_fail(self, tmp_path):
        source = "import repro.obs\n"
        report = check({"repro.core.widget": source}, [LayeringRule])
        assert len(report.findings) == 1
        baseline_file = tmp_path / "baseline.txt"
        analysis.write_baseline(baseline_file, report.findings)
        keys = analysis.load_baseline(baseline_file)
        again = check({"repro.core.widget": source}, [LayeringRule], baseline=keys)
        assert again.findings == []
        assert len(again.baselined) == 1
        assert again.exit_code(strict=True) == 0

    def test_stale_baseline_fails_strict_only(self):
        keys = {"repro/core/widget.py :: layering :: long gone"}
        report = check({"repro.core.widget": "x = 1\n"}, [LayeringRule], baseline=keys)
        assert report.stale_baseline == sorted(keys)
        assert report.exit_code(strict=False) == 0
        assert report.exit_code(strict=True) == 1

    def test_missing_baseline_file_is_empty(self, tmp_path):
        assert analysis.load_baseline(tmp_path / "nope.txt") == set()


class TestEnginePlumbing:
    def test_module_name_for_resolves_packages(self):
        import repro.engine.shm as shm_mod

        assert module_name_for(__import__("pathlib").Path(shm_mod.__file__)) == (
            "repro.engine.shm"
        )

    def test_iter_python_files_skips_pycache(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "a.cpython-311.py").write_text("x = 1\n")
        files = analysis.iter_python_files([tmp_path])
        assert [f.name for f in files] == ["a.py"]

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = analysis.analyze_paths([bad])
        assert report.errors and not report.clean


# ---------------------------------------------------------------------------
# CLI + repo self-check
# ---------------------------------------------------------------------------


class TestCheckCli:
    def test_list_rules(self, capsys):
        assert cli_main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in analysis.RULES_BY_ID:
            assert rule_id in out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        ok = tmp_path / "ok.py"
        ok.write_text("import time\nt = time.perf_counter()\n")
        assert cli_main(["check", str(ok)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_one_and_prints_anchor(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert cli_main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:2" in out
        assert "wallclock-discipline" in out

    def test_json_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("t0 = __import__('time').time()\n")
        bad.write_text("import time\nt0 = time.time()\n")
        cli_main(["check", "--json", str(bad)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "wallclock-discipline"

    def test_write_baseline_roundtrip(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt0 = time.time()\n")
        baseline = tmp_path / "baseline.txt"
        assert cli_main(
            ["check", str(bad), "--write-baseline", str(baseline)]
        ) == 0
        capsys.readouterr()
        assert cli_main(["check", str(bad), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out


class TestRepoSelfCheck:
    def test_repo_is_clean_with_empty_baseline(self):
        """The acceptance gate: zero findings over the shipped package."""
        root = analysis.default_check_root()
        report = analysis.analyze_paths([root], relative_to=root.parent)
        assert report.errors == []
        assert report.findings == [], "\n" + "\n".join(
            analysis.format_finding(f) for f in report.findings
        )

    def test_self_check_via_cli_strict(self, capsys):
        assert cli_main(["check", "--strict"]) == 0
