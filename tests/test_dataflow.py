"""Tests for the dataflow layer and the concurrency soundness rules.

Covers the CFG builder (exception edges, ``finally`` routing, branch
assume-facts), reaching definitions, call-graph summaries, the
resource-state lattice, the three dataflow rules (``shm-paths``,
``dag-soundness``, ``worker-boundary``), the trace-replay race checker,
SARIF export, the scope-tracking half of the rule visitor, and the
seeded-mutation acceptance checks: deleting a real release call,
demoting a real hard dep, and capturing a live object in a worker
submit must each produce exactly one finding.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro import analysis
from repro.analysis.dataflow.cfg import build_cfg, stmt_calls
from repro.analysis.dataflow.lattice import analyze_sites, find_sites
from repro.analysis.dataflow.reaching import compute_reaching, tags_at
from repro.analysis.dataflow.summaries import build_summaries
from repro.analysis.rules import RULES_BY_ID
from repro.analysis.rules.boundary import WorkerBoundaryRule
from repro.analysis.rules.dag import DagSoundnessRule
from repro.analysis.rules.shm import ShmLifecycleRule
from repro.analysis.rules.shm_paths import SPEC, ShmPathsRule
from repro.analysis.sarif import to_sarif
from repro.analysis.traces import (
    TRACE_RULE_ID,
    check_trace,
    check_traces,
    read_task_spans,
)
from repro.analysis.visitor import ModuleFile, Project, RuleVisitor, finding_at
from repro.cli import main

REPO = Path(__file__).resolve().parents[1]
GRAPH_PY = REPO / "src" / "repro" / "exec" / "graph.py"
TASKGRAPH_PY = REPO / "src" / "repro" / "core" / "taskgraph.py"
TRACE_FIXTURES = sorted((REPO / "traces").glob("*.jsonl"))

#: In-scope module names for each rule's synthetic sources.
ENGINE_MOD = "repro.engine.scratch"
RUNTIME_MOD = "repro.exec.graph"
LOWERING_MOD = "repro.core.taskgraph"
EXEC_MOD = "repro.exec.pools"

CONCURRENCY_RULES = [ShmPathsRule, DagSoundnessRule, WorkerBoundaryRule]


def check(sources, rules, baseline=None):
    return analysis.analyze_source(sources, rules=rules, baseline=baseline)


def rule_ids(report):
    return [f.rule for f in report.findings]


def make_project(sources):
    project = Project()
    for module, src in sources.items():
        src = textwrap.dedent(src)
        project.modules[module] = ModuleFile(
            path=module.replace(".", "/") + ".py",
            module=module,
            tree=ast.parse(src),
            source=src,
        )
    return project


def fn_named(src, name):
    tree = ast.parse(textwrap.dedent(src))
    return next(
        n
        for n in tree.body
        if isinstance(n, ast.FunctionDef) and n.name == name
    )


def node_at(cfg, lineno):
    return next(n for n in cfg.stmt_nodes() if n.stmt.lineno == lineno)


def only_fallible_raises(stmt):
    """``can_raise`` for tests: only calls literally named ``fallible``."""
    return any(
        isinstance(call.func, ast.Name) and call.func.id == "fallible"
        for call in stmt_calls(stmt)
    )


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------


class TestCfg:
    def test_linear_chain_reaches_exit(self):
        fn = fn_named("def f():\n    x = 1\n    y = 2\n", "f")
        cfg = build_cfg(fn)
        first, second = node_at(cfg, 2), node_at(cfg, 3)
        assert [e.dst for e in first.succ] == [second.index]
        assert [e.dst for e in second.succ] == [cfg.exit]

    def test_call_statement_gets_exceptional_edge(self):
        fn = fn_named("def f():\n    g()\n", "f")
        cfg = build_cfg(fn)
        node = node_at(cfg, 2)
        exc = [e for e in node.succ if e.exceptional]
        assert [e.dst for e in exc] == [cfg.raise_exit]

    def test_plain_assign_has_no_exceptional_edge(self):
        fn = fn_named("def f():\n    x = 1\n", "f")
        cfg = build_cfg(fn)
        assert not [e for e in node_at(cfg, 2).succ if e.exceptional]

    def test_compound_header_contributes_only_its_own_calls(self):
        # The `if` node must not inherit its body's calls: only g() is
        # evaluated when the header itself executes.
        tree = ast.parse("if g():\n    h()\n")
        calls = stmt_calls(tree.body[0])
        assert [c.func.id for c in calls] == ["g"]

    def test_deferred_lambda_body_excluded_from_stmt_calls(self):
        tree = ast.parse("fn = lambda: h()\n")
        assert stmt_calls(tree.body[0]) == []

    def test_is_none_assume_facts_point_at_the_right_arms(self):
        src = """
        def f(x):
            if x is None:
                a = 1
            else:
                b = 2
        """
        fn = fn_named(src, "f")
        cfg = build_cfg(fn)
        branch = node_at(cfg, 3)
        to_body = next(e for e in branch.succ if e.dst == node_at(cfg, 4).index)
        to_else = next(e for e in branch.succ if e.dst == node_at(cfg, 6).index)
        assert to_body.assume == ("x", True)
        assert to_else.assume == ("x", False)

    def test_truthiness_assume_facts(self):
        src = """
        def f(x):
            if x:
                a = 1
            else:
                b = 2
        """
        fn = fn_named(src, "f")
        cfg = build_cfg(fn)
        branch = node_at(cfg, 3)
        to_body = next(e for e in branch.succ if e.dst == node_at(cfg, 4).index)
        assert to_body.assume == ("x", False)  # truthy => not-None

    def test_loop_body_links_back_to_header(self):
        src = """
        def f(items):
            total = 0
            for i in items:
                total = total + i
            return total
        """
        fn = fn_named(src, "f")
        cfg = build_cfg(fn)
        header, body = node_at(cfg, 4), node_at(cfg, 5)
        assert header.index in [e.dst for e in body.succ]

    def test_finally_resume_edge_is_post_effect(self):
        # Regression: when a try body raises, the finally runs to
        # completion *before* the exception resumes — the edge from the
        # last finally statement to the outer raise exit must be an
        # ordinary (post-effect) edge, or a release performed there is
        # invisible on the exceptional path.
        src = """
        def f():
            fallible()
            try:
                fallible()
            finally:
                cleanup()
        """
        fn = fn_named(src, "f")
        cfg = build_cfg(fn, can_raise=only_fallible_raises)
        fin = node_at(cfg, 7)
        resume = [e for e in fin.succ if e.dst == cfg.raise_exit]
        assert resume
        assert all(not e.exceptional for e in resume)


# ---------------------------------------------------------------------------
# Reaching definitions
# ---------------------------------------------------------------------------


class TestReachingDefinitions:
    def test_both_branch_defs_reach_the_join(self):
        # Regression: the worklist must be seeded with every node —
        # seeding only the entry stalls on all-empty IN sets and no
        # definition ever propagates.
        src = """
        def f(c):
            if c:
                x = 1
            else:
                x = 2
            use(x)
        """
        fn = fn_named(src, "f")
        cfg = build_cfg(fn)
        rd = compute_reaching(cfg)
        defs = rd.at(node_at(cfg, 7).index, "x")
        assert len(defs) == 2

    def test_redefinition_kills_the_previous_def(self):
        src = """
        def f():
            x = 1
            x = 2
            use(x)
        """
        fn = fn_named(src, "f")
        cfg = build_cfg(fn)
        rd = compute_reaching(cfg)
        defs = rd.at(node_at(cfg, 5).index, "x")
        assert len(defs) == 1
        assert rd.defs[defs[0]].value == 2

    def test_tags_trace_through_definition_chains(self):
        src = """
        def f(parent):
            dep = merge_task_id(parent)
            soft = (dep,)
            use(soft)
        """
        fn = fn_named(src, "f")
        cfg = build_cfg(fn)
        rd = compute_reaching(cfg)
        use = node_at(cfg, 5)
        arg = stmt_calls(use.stmt)[0].args[0]
        assert tags_at(rd, use.index, arg, {"merge_task_id": "merge"}) == {
            "merge"
        }

    def test_loop_target_defs_are_opaque(self):
        src = """
        def f(items):
            for x in items:
                use(x)
        """
        fn = fn_named(src, "f")
        cfg = build_cfg(fn)
        rd = compute_reaching(cfg)
        use = node_at(cfg, 4)
        arg = stmt_calls(use.stmt)[0].args[0]
        # The loop target reaches, but carries no derivation tags.
        assert rd.at(use.index, "x")
        assert tags_at(rd, use.index, arg, {"merge_task_id": "merge"}) == set()


# ---------------------------------------------------------------------------
# Call-graph summaries
# ---------------------------------------------------------------------------


class TestSummaries:
    def test_releaser_call_credits_the_parameter(self):
        project = make_project(
            {"m": "def cleanup(seg):\n    release_segment(seg)\n"}
        )
        summaries = build_summaries(
            project,
            releasers=frozenset({"release_segment"}),
            release_methods=frozenset({"close"}),
        )
        assert summaries.functions["cleanup"].releases == {0}

    def test_transitive_credit_through_helpers(self):
        project = make_project(
            {
                "m": (
                    "def cleanup(seg):\n"
                    "    release_segment(seg)\n"
                    "def outer(s):\n"
                    "    cleanup(s)\n"
                )
            }
        )
        summaries = build_summaries(
            project,
            releasers=frozenset({"release_segment"}),
            release_methods=frozenset({"close"}),
        )
        assert summaries.functions["outer"].releases == {0}

    def test_nonraising_ctor_set(self):
        project = make_project(
            {
                "m": (
                    "@dataclass\n"
                    "class Frozen:\n"
                    "    x: int = 0\n"
                    "class Busy:\n"
                    "    def __init__(self):\n"
                    "        connect()\n"
                )
            }
        )
        summaries = build_summaries(
            project, releasers=frozenset(), release_methods=frozenset()
        )
        assert "Frozen" in summaries.nonraising_ctors
        assert "Busy" not in summaries.nonraising_ctors


# ---------------------------------------------------------------------------
# Resource-state lattice (direct, with a controlled can_raise)
# ---------------------------------------------------------------------------


def lattice_leaks(src, fn_name="grab"):
    src = textwrap.dedent(src)
    project = make_project({"m": src})
    summaries = build_summaries(
        project, releasers=SPEC.releasers, release_methods=SPEC.release_methods
    )
    fn = fn_named(src, fn_name)
    cfg = build_cfg(fn, can_raise=only_fallible_raises)
    sites = find_sites(fn, cfg, SPEC)
    return analyze_sites(fn, cfg, sites, SPEC, summaries)


class TestLattice:
    def test_summary_credited_helper_releases(self):
        leaks = lattice_leaks(
            """
            def cleanup(seg):
                release_segment(seg)

            def grab(name):
                shm = attach_shm(name)
                cleanup(shm)
            """
        )
        assert leaks == []

    def test_non_releasing_helper_leaks_on_the_normal_path(self):
        leaks = lattice_leaks(
            """
            def cleanup(seg):
                pass

            def grab(name):
                shm = attach_shm(name)
                cleanup(shm)
            """
        )
        assert len(leaks) == 1
        assert not leaks[0].exceptional

    def test_bare_argument_to_unknown_callee_transfers_ownership(self):
        leaks = lattice_leaks(
            """
            def grab(handle):
                store = PointStore.attach(handle)
                consume(store)
            """
        )
        assert leaks == []

    def test_view_argument_does_not_transfer_ownership(self):
        leaks = lattice_leaks(
            """
            def grab(handle):
                store = PointStore.attach(handle)
                consume(store.points)
            """
        )
        assert len(leaks) == 1
        assert not leaks[0].exceptional

    def test_walrus_acquisition_is_a_site(self):
        src = textwrap.dedent(
            """
            def grab(name):
                use((shm := attach_shm(name)))
                shm.close()
            """
        )
        fn = fn_named(src, "grab")
        cfg = build_cfg(fn, can_raise=only_fallible_raises)
        sites = find_sites(fn, cfg, SPEC)
        assert [s.bindings for s in sites] == [{"shm"}]

    def test_with_managed_acquisition_is_skipped(self):
        leaks = lattice_leaks(
            """
            def grab(name):
                with attach_shm(name) as shm:
                    fallible()
            """
        )
        assert leaks == []


# ---------------------------------------------------------------------------
# shm-paths (rule level, default can_raise)
# ---------------------------------------------------------------------------


class TestShmPaths:
    def test_leak_when_a_later_call_raises(self):
        report = check(
            {
                ENGINE_MOD: (
                    "def grab(name):\n"
                    "    shm = attach_shm(name)\n"
                    "    fallible()\n"
                    "    shm.close()\n"
                )
            },
            [ShmPathsRule],
        )
        assert rule_ids(report) == ["shm-paths"]
        assert report.findings[0].line == 2
        assert report.findings[0].qualname == "grab"

    @pytest.mark.parametrize(
        "acquire",
        [
            "shm, handle = share_indexes(factory, store, wanted)",
            "shm = attach_indexes(handle, store, factory)",
        ],
    )
    def test_leaked_index_pack_is_reported(self, acquire):
        report = check(
            {
                ENGINE_MOD: (
                    "def ship(factory, store, wanted, handle):\n"
                    f"    {acquire}\n"
                    "    fallible()\n"
                    "    release_segment(shm)\n"
                )
            },
            [ShmPathsRule],
        )
        assert rule_ids(report) == ["shm-paths"]
        assert report.findings[0].line == 2

    def test_try_finally_release_is_clean(self):
        # Also the end-to-end regression for the finally resume edge:
        # the close in the finally must count on the exceptional path.
        report = check(
            {
                ENGINE_MOD: (
                    "def grab(name):\n"
                    "    shm = attach_shm(name)\n"
                    "    try:\n"
                    "        fallible()\n"
                    "    finally:\n"
                    "        shm.close()\n"
                )
            },
            [ShmPathsRule],
        )
        assert report.findings == []

    def test_multi_step_finally_teardown_is_clean(self):
        # close is trusted not to raise, so the two teardown steps do
        # not generate leak paths between themselves.
        report = check(
            {
                ENGINE_MOD: (
                    "def grab(name):\n"
                    "    a = attach_shm(name)\n"
                    "    try:\n"
                    "        b = attach_shm(name)\n"
                    "        fallible()\n"
                    "    finally:\n"
                    "        a.close()\n"
                    "        b.close()\n"
                )
            },
            [ShmPathsRule],
        )
        assert report.findings == []

    @pytest.mark.parametrize("guard", ["if shm is not None:", "if shm:"])
    def test_guarded_close_correlates_with_the_binding(self, guard):
        report = check(
            {
                ENGINE_MOD: (
                    "def grab(name, want):\n"
                    "    shm = None\n"
                    "    if want:\n"
                    "        shm = attach_shm(name)\n"
                    "    try:\n"
                    "        fallible()\n"
                    "    finally:\n"
                    f"        {guard}\n"
                    "            shm.close()\n"
                )
            },
            [ShmPathsRule],
        )
        assert report.findings == []

    def test_ifexp_acquisition_with_guarded_close_is_clean(self):
        report = check(
            {
                ENGINE_MOD: (
                    "def grab(name, want):\n"
                    "    shm = attach_shm(name) if want else None\n"
                    "    try:\n"
                    "        fallible()\n"
                    "    finally:\n"
                    "        if shm is not None:\n"
                    "            shm.close()\n"
                )
            },
            [ShmPathsRule],
        )
        assert report.findings == []

    def test_immediate_return_transfers_ownership(self):
        report = check(
            {
                ENGINE_MOD: (
                    "def grab(name):\n"
                    "    shm = attach_shm(name)\n"
                    "    return shm\n"
                )
            },
            [ShmPathsRule],
        )
        assert report.findings == []

    def test_leak_between_acquire_and_return(self):
        report = check(
            {
                ENGINE_MOD: (
                    "def grab(name):\n"
                    "    shm = attach_shm(name)\n"
                    "    fallible()\n"
                    "    return shm\n"
                )
            },
            [ShmPathsRule],
        )
        assert rule_ids(report) == ["shm-paths"]

    def test_attribute_store_transfers_ownership(self):
        report = check(
            {
                ENGINE_MOD: (
                    "class Store:\n"
                    "    def open(self, name):\n"
                    "        self._shm = attach_shm(name)\n"
                )
            },
            [ShmPathsRule],
        )
        assert report.findings == []

    def test_out_of_scope_modules_are_ignored(self):
        leaky = "def grab(name):\n    shm = attach_shm(name)\n    fallible()\n"
        report = check({"repro.core.widgets": leaky}, [ShmPathsRule])
        assert report.findings == []

    def test_pragma_suppresses_on_the_acquisition_line(self):
        report = check(
            {
                ENGINE_MOD: (
                    "def grab(name):\n"
                    "    shm = attach_shm(name)  # repro: allow[shm-paths]\n"
                    "    fallible()\n"
                )
            },
            [ShmPathsRule],
        )
        assert report.findings == []
        assert report.suppressed == 1

    def test_dataflow_finding_supersedes_the_syntactic_one(self):
        src = (
            "def grab():\n"
            '    shm = SharedMemory(name="x")\n'
            "    fallible()\n"
        )
        both = check({ENGINE_MOD: src}, [ShmPathsRule, ShmLifecycleRule])
        assert rule_ids(both) == ["shm-paths"]
        alone = check({ENGINE_MOD: src}, [ShmLifecycleRule])
        assert rule_ids(alone) == ["shm-lifecycle"]


# ---------------------------------------------------------------------------
# dag-soundness
# ---------------------------------------------------------------------------


class TestDagSoundness:
    def test_merge_derived_id_in_soft_deps(self):
        report = check(
            {
                LOWERING_MOD: (
                    "def lower(parent, payload):\n"
                    "    soft = (merge_task_id(parent),)\n"
                    "    return VariantTask(payload, soft_deps=soft)\n"
                )
            },
            [DagSoundnessRule],
        )
        assert rule_ids(report) == ["dag-soundness"]
        assert "merge-derived" in report.findings[0].message

    def test_variant_derived_soft_deps_are_fine(self):
        report = check(
            {
                LOWERING_MOD: (
                    "def lower(parent, payload):\n"
                    "    soft = (variant_task_id(parent),)\n"
                    "    return VariantTask(payload, soft_deps=soft)\n"
                )
            },
            [DagSoundnessRule],
        )
        assert report.findings == []

    def test_only_the_misbinding_constructor_is_blamed(self):
        report = check(
            {
                LOWERING_MOD: (
                    "def lower(parent, a, b):\n"
                    "    soft = (variant_task_id(parent),)\n"
                    "    first = VariantTask(a, soft_deps=soft)\n"
                    "    soft = (merge_task_id(parent),)\n"
                    "    second = VariantTask(b, soft_deps=soft)\n"
                    "    return first, second\n"
                )
            },
            [DagSoundnessRule],
        )
        assert [f.line for f in report.findings] == [5]

    def test_merge_task_without_deps(self):
        report = check(
            {
                LOWERING_MOD: (
                    "def lower(parent, shards):\n"
                    "    return MergeTask(parent)\n"
                )
            },
            [DagSoundnessRule],
        )
        assert rule_ids(report) == ["dag-soundness"]
        assert "without deps" in report.findings[0].message

    def test_filtered_fan_in_is_flagged_even_through_a_name(self):
        report = check(
            {
                LOWERING_MOD: (
                    "def lower(parent, shards):\n"
                    "    deps = [shard_task_id(s) for s in shards if s.alive]\n"
                    "    return MergeTask(parent, deps=deps)\n"
                )
            },
            [DagSoundnessRule],
        )
        assert rule_ids(report) == ["dag-soundness"]
        assert "filter" in report.findings[0].message

    def test_unfiltered_fan_in_is_fine(self):
        report = check(
            {
                LOWERING_MOD: (
                    "def lower(parent, shards):\n"
                    "    return MergeTask(\n"
                    "        parent,\n"
                    "        deps=tuple(shard_task_id(s) for s in shards),\n"
                    "    )\n"
                )
            },
            [DagSoundnessRule],
        )
        assert report.findings == []

    def test_soft_deps_must_not_gate_dispatch(self):
        report = check(
            {
                RUNTIME_MOD: (
                    "def dispatch(task, ready):\n"
                    "    if task.soft_deps:\n"
                    "        ready.append(task)\n"
                )
            },
            [DagSoundnessRule],
        )
        assert rule_ids(report) == ["dag-soundness"]
        assert "soft_deps" in report.findings[0].message

    def test_non_gating_soft_deps_read_is_fine(self):
        report = check(
            {
                RUNTIME_MOD: (
                    "def order_hints(task):\n"
                    "    return list(task.soft_deps)\n"
                )
            },
            [DagSoundnessRule],
        )
        assert report.findings == []

    def test_span_outside_a_with_block(self):
        report = check(
            {
                RUNTIME_MOD: (
                    "def run(tracer, payload):\n"
                    '    span = tracer.span("task", kind="variant")\n'
                    "    span.__enter__()\n"
                    "    return compute(payload)\n"
                )
            },
            [DagSoundnessRule],
        )
        assert rule_ids(report) == ["dag-soundness"]
        assert "with-block" in report.findings[0].message

    def test_with_span_is_fine(self):
        report = check(
            {
                RUNTIME_MOD: (
                    "def run(tracer, payload):\n"
                    '    with tracer.span("task", kind="variant"):\n'
                    "        return compute(payload)\n"
                )
            },
            [DagSoundnessRule],
        )
        assert report.findings == []

    def test_pulse_handle_leak_on_exception(self):
        report = check(
            {
                RUNTIME_MOD: (
                    "def worker(pulse, payload):\n"
                    "    hb = worker_pulse(pulse)\n"
                    '    hb.beat("start")\n'
                    "    result = compute(payload)\n"
                    "    hb.close()\n"
                    "    return result\n"
                )
            },
            [DagSoundnessRule],
        )
        assert rule_ids(report) == ["dag-soundness"]
        assert "worker_pulse" in report.findings[0].message

    def test_pulse_closed_in_finally_is_fine(self):
        report = check(
            {
                RUNTIME_MOD: (
                    "def worker(pulse, payload):\n"
                    "    hb = worker_pulse(pulse)\n"
                    "    try:\n"
                    '        hb.beat("start")\n'
                    "        return compute(payload)\n"
                    "    finally:\n"
                    "        hb.close()\n"
                )
            },
            [DagSoundnessRule],
        )
        assert report.findings == []

    def test_opener_module_must_beat(self):
        report = check(
            {
                RUNTIME_MOD: (
                    "def worker(pulse):\n"
                    "    hb = worker_pulse(pulse)\n"
                    "    try:\n"
                    "        return 0\n"
                    "    finally:\n"
                    "        hb.close()\n"
                )
            },
            [DagSoundnessRule],
        )
        assert rule_ids(report) == ["dag-soundness"]
        assert "never beats" in report.findings[0].message

    def test_set_tracer_without_reset(self):
        report = check(
            {
                RUNTIME_MOD: (
                    "def worker(tracer, payload):\n"
                    "    set_tracer(tracer)\n"
                    "    return compute(payload)\n"
                )
            },
            [DagSoundnessRule],
        )
        assert rule_ids(report) == ["dag-soundness"]
        assert "set_tracer(None)" in report.findings[0].message

    def test_set_tracer_with_reset_is_fine(self):
        report = check(
            {
                RUNTIME_MOD: (
                    "def worker(tracer, payload):\n"
                    "    set_tracer(tracer)\n"
                    "    try:\n"
                    "        return compute(payload)\n"
                    "    finally:\n"
                    "        set_tracer(None)\n"
                )
            },
            [DagSoundnessRule],
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# worker-boundary
# ---------------------------------------------------------------------------


class TestWorkerBoundary:
    def test_lambda_callee(self):
        report = check(
            {
                EXEC_MOD: (
                    "def fan_out(pool, items):\n"
                    "    return [pool.submit(lambda x: x + 1, i) for i in items]\n"
                )
            },
            [WorkerBoundaryRule],
        )
        assert rule_ids(report) == ["worker-boundary"]
        assert "lambda" in report.findings[0].message

    def test_nested_def_callee(self):
        report = check(
            {
                EXEC_MOD: (
                    "def fan_out(pool, items):\n"
                    "    def work(x):\n"
                    "        return x + 1\n"
                    "    return [pool.submit(work, i) for i in items]\n"
                )
            },
            [WorkerBoundaryRule],
        )
        assert rule_ids(report) == ["worker-boundary"]
        assert "nested function 'work'" in report.findings[0].message

    def test_self_argument(self):
        report = check(
            {
                EXEC_MOD: (
                    "class Runtime:\n"
                    "    def go(self, pool):\n"
                    "        return pool.submit(_worker, self)\n"
                    "def _worker(rt):\n"
                    "    return rt\n"
                )
            },
            [WorkerBoundaryRule],
        )
        assert rule_ids(report) == ["worker-boundary"]
        assert "self" in report.findings[0].message
        assert report.findings[0].qualname == "Runtime.go"

    def test_live_constructor_inline(self):
        report = check(
            {
                EXEC_MOD: (
                    "def go(pool):\n"
                    "    return pool.submit(_worker, Tracer())\n"
                    "def _worker(tracer):\n"
                    "    return tracer\n"
                )
            },
            [WorkerBoundaryRule],
        )
        assert rule_ids(report) == ["worker-boundary"]
        assert "Tracer(...)" in report.findings[0].message

    def test_handles_and_values_are_fine(self):
        report = check(
            {
                EXEC_MOD: (
                    "def go(pool, handle, ctx):\n"
                    "    return pool.submit(_worker, handle, ctx.fingerprint)\n"
                    "def _worker(handle, fingerprint):\n"
                    "    return attach(handle, fingerprint)\n"
                )
            },
            [WorkerBoundaryRule],
        )
        assert report.findings == []

    def test_modules_outside_exec_are_ignored(self):
        report = check(
            {
                "repro.engine.pools": (
                    "def go(pool):\n"
                    "    return pool.submit(lambda: 1)\n"
                )
            },
            [WorkerBoundaryRule],
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# Seeded mutations against the real sources (acceptance checks)
# ---------------------------------------------------------------------------

_SHARD_TEARDOWN = (
    "        if store is not None:\n"
    "            store.close()\n"
    "        if hb is not None:\n"
    "            hb.close()"
)
_MERGE_HARD_DEP = "hard = (merge_task_id(parent),)"
_LANE_PACK_ATTACH = "self.pack = attach_indexes("


class TestSeededMutations:
    @pytest.fixture(scope="class")
    def graph_src(self):
        return GRAPH_PY.read_text()

    @pytest.fixture(scope="class")
    def taskgraph_src(self):
        return TASKGRAPH_PY.read_text()

    def test_unmutated_sources_are_clean(self, graph_src, taskgraph_src):
        report = check(
            {
                "repro.exec.graph": graph_src,
                "repro.core.taskgraph": taskgraph_src,
            },
            CONCURRENCY_RULES,
        )
        assert report.findings == []

    def test_deleting_a_release_call_yields_one_finding(self, graph_src):
        assert graph_src.count(_SHARD_TEARDOWN) == 1
        mutated = graph_src.replace(
            _SHARD_TEARDOWN,
            "        if hb is not None:\n            hb.close()",
        )
        report = check({"repro.exec.graph": mutated}, CONCURRENCY_RULES)
        assert rule_ids(report) == ["shm-paths"]
        assert report.findings[0].qualname == "_shard_worker"

    def test_unstored_lane_attachment_yields_one_finding(self, graph_src):
        """A lane worker's pack is owned by its lane state: bound to a
        local instead, it leaks."""
        assert graph_src.count(_LANE_PACK_ATTACH) == 1
        mutated = graph_src.replace(_LANE_PACK_ATTACH, "pack = attach_indexes(")
        report = check({"repro.exec.graph": mutated}, CONCURRENCY_RULES)
        assert rule_ids(report) == ["shm-paths"]
        assert report.findings[0].qualname == "_LaneState.bind"

    def test_demoting_a_hard_dep_yields_one_finding(self, taskgraph_src):
        assert taskgraph_src.count(_MERGE_HARD_DEP) == 1
        mutated = taskgraph_src.replace(
            _MERGE_HARD_DEP, "soft = (merge_task_id(parent),)"
        )
        report = check({"repro.core.taskgraph": mutated}, CONCURRENCY_RULES)
        assert rule_ids(report) == ["dag-soundness"]
        assert "merge-derived" in report.findings[0].message

    def test_live_session_in_a_submit_yields_one_finding(self, graph_src):
        mutated = graph_src + (
            "\n\ndef _rogue_submit(pool, points, group):\n"
            "    session = Session(points)\n"
            "    return pool.submit(_chain_worker, session, group)\n"
        )
        report = check({"repro.exec.graph": mutated}, CONCURRENCY_RULES)
        assert rule_ids(report) == ["worker-boundary"]
        assert "'session'" in report.findings[0].message
        assert report.findings[0].qualname == "_rogue_submit"


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------


def span_line(task_id, kind, deps, t0, dur, soft=()):
    args = {"kind": kind, "id": task_id, "deps": list(deps)}
    if soft:
        args["soft"] = list(soft)
    return json.dumps(
        {
            "type": "span",
            "name": "task",
            "cat": "task",
            "t0": t0,
            "dur": dur,
            "thread": "w0",
            "args": args,
        }
    )


def write_trace(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestTraceReplay:
    def test_read_skips_non_task_lines(self, tmp_path):
        path = write_trace(
            tmp_path,
            "t.jsonl",
            [
                json.dumps({"type": "meta", "note": "header"}),
                json.dumps(
                    {"type": "span", "name": "cache", "t0": 0.0, "dur": 0.1}
                ),
                span_line("shard:a#0", "shard", [], 0.0, 1.0),
            ],
        )
        spans = read_task_spans(path)
        assert [s.task_id for s in spans] == ["shard:a#0"]
        assert spans[0].line == 3

    def test_bad_json_raises_with_the_line_number(self, tmp_path):
        path = write_trace(tmp_path, "t.jsonl", ["{not json"])
        with pytest.raises(ValueError, match=":1"):
            read_task_spans(path)

    def test_ordered_trace_is_clean(self, tmp_path):
        path = write_trace(
            tmp_path,
            "t.jsonl",
            [
                span_line("shard:a#0", "shard", [], 0.0, 1.0),
                span_line("merge:a", "merge", ["shard:a#0"], 1.5, 0.2),
            ],
        )
        assert check_trace(path) == []

    def test_consumer_overlapping_its_producer_is_flagged(self, tmp_path):
        path = write_trace(
            tmp_path,
            "t.jsonl",
            [
                span_line("shard:a#0", "shard", [], 0.0, 1.0),
                span_line("merge:a", "merge", ["shard:a#0"], 0.5, 0.2),
            ],
        )
        findings = check_trace(path)
        assert [f.rule for f in findings] == [TRACE_RULE_ID]
        assert findings[0].qualname == "merge:a"
        assert findings[0].line == 2

    def test_untraced_producer_is_recovery_not_a_race(self, tmp_path):
        path = write_trace(
            tmp_path,
            "t.jsonl",
            [span_line("merge:a", "merge", ["shard:dead#0"], 0.5, 0.2)],
        )
        assert check_trace(path) == []

    def test_exact_boundary_is_within_tolerance(self, tmp_path):
        path = write_trace(
            tmp_path,
            "t.jsonl",
            [
                span_line("shard:a#0", "shard", [], 0.0, 1.0),
                span_line("merge:a", "merge", ["shard:a#0"], 1.0, 0.2),
            ],
        )
        assert check_trace(path) == []

    def test_soft_deps_impose_no_order(self, tmp_path):
        path = write_trace(
            tmp_path,
            "t.jsonl",
            [
                span_line("variant:donor", "variant", [], 0.0, 1.0),
                span_line(
                    "variant:reuse", "variant", [], 0.2, 0.3,
                    soft=["variant:donor"],
                ),
            ],
        )
        assert check_trace(path) == []

    def test_committed_traces_are_accepted(self):
        assert len(TRACE_FIXTURES) >= 3
        findings, checked = check_traces(list(TRACE_FIXTURES))
        assert findings == []
        assert sum(checked.values()) > 0

    def test_reordered_committed_trace_is_rejected(self, tmp_path):
        src = REPO / "traces" / "chaos_sharded.jsonl"
        lines = []
        for raw in src.read_text().splitlines():
            obj = json.loads(raw)
            args = obj.get("args") or {}
            if obj.get("name") == "task" and args.get("kind") == "merge":
                obj["t0"] = 0.0  # merge now starts before its shards
            lines.append(json.dumps(obj))
        path = write_trace(tmp_path, "reordered.jsonl", lines)
        findings = check_trace(path)
        assert findings
        assert all(f.rule == TRACE_RULE_ID for f in findings)


# ---------------------------------------------------------------------------
# SARIF export
# ---------------------------------------------------------------------------


class TestSarif:
    def test_document_structure(self):
        report = check(
            {
                ENGINE_MOD: (
                    "def grab(name):\n"
                    "    shm = attach_shm(name)\n"
                    "    fallible()\n"
                )
            },
            [ShmPathsRule],
        )
        doc = to_sarif(report.findings)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-check"
        (result,) = run["results"]
        assert result["ruleId"] == "shm-paths"
        declared = run["tool"]["driver"]["rules"][result["ruleIndex"]]
        assert declared["id"] == "shm-paths"
        loc = result["locations"][0]
        assert loc["physicalLocation"]["region"]["startLine"] == 2
        assert loc["logicalLocations"] == [{"fullyQualifiedName": "grab"}]
        finding = report.findings[0]
        assert result["partialFingerprints"] == {
            "reproCheckKey/v1": finding.key()
        }

    def test_every_rule_is_declared_even_with_no_findings(self):
        doc = to_sarif([])
        declared = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert set(RULES_BY_ID) <= declared
        assert TRACE_RULE_ID in declared
        assert doc["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# Engine: per-rule stats, baseline keys across line drift
# ---------------------------------------------------------------------------


class TestEngineReporting:
    def test_per_rule_stats(self):
        sources = {
            ENGINE_MOD: "def ok(name):\n    return name\n",
            LOWERING_MOD: "def lower(p):\n    return p\n",
        }
        report = check(sources, [ShmPathsRule, DagSoundnessRule])
        assert set(report.stats) == {"shm-paths", "dag-soundness"}
        for stat in report.stats.values():
            assert stat["files"] == len(sources)
            assert stat["findings"] == 0
            assert stat["wall_s"] >= 0

    def test_baseline_key_survives_line_drift(self):
        body = (
            "def grab(name):\n"
            "    shm = attach_shm(name)\n"
            "    fallible()\n"
        )
        drifted = "# a comment\n\n\n" + body
        key = check({ENGINE_MOD: body}, [ShmPathsRule]).findings[0].key()
        drifted_report = check({ENGINE_MOD: drifted}, [ShmPathsRule])
        assert drifted_report.findings[0].key() == key
        # ... and the baseline entry keeps suppressing after the drift.
        baselined = check({ENGINE_MOD: drifted}, [ShmPathsRule], baseline={key})
        assert baselined.findings == []
        assert [f.key() for f in baselined.baselined] == [key]
        assert baselined.stale_baseline == []

    def test_rules_are_registered(self):
        for rule_id in ("shm-paths", "dag-soundness", "worker-boundary"):
            assert rule_id in RULES_BY_ID


# ---------------------------------------------------------------------------
# Visitor scope tracking (qualnames, anonymous scopes, TYPE_CHECKING)
# ---------------------------------------------------------------------------


class FlagRule(RuleVisitor):
    """Test rule: report every load of the name ``FLAG``."""

    rule_id = "test-flag"

    def visit_Name(self, node):
        if node.id == "FLAG" and not self.in_type_checking:
            self.report(node, "flagged")
        self.generic_visit(node)


def flag_findings(src):
    src = textwrap.dedent(src)
    mf = ModuleFile(path="m.py", module="m", tree=ast.parse(src), source=src)
    return FlagRule(mf).run()


class TestScopeTracking:
    def test_nested_function_qualname(self):
        found = flag_findings(
            """
            def outer():
                def inner():
                    return FLAG
            """
        )
        assert [f.qualname for f in found] == ["outer.inner"]

    def test_scope_pops_after_a_nested_def(self):
        found = flag_findings(
            """
            def outer():
                def inner():
                    pass
                return FLAG
            """
        )
        assert [f.qualname for f in found] == ["outer"]

    def test_lambda_scope(self):
        found = flag_findings("def outer():\n    fn = lambda: FLAG\n")
        assert [f.qualname for f in found] == ["outer.<lambda>"]

    @pytest.mark.parametrize(
        ("expr", "label"),
        [
            ("[FLAG for _ in items]", "<listcomp>"),
            ("{FLAG for _ in items}", "<setcomp>"),
            ("{FLAG: 1 for _ in items}", "<dictcomp>"),
            ("list(FLAG for _ in items)", "<genexpr>"),
        ],
    )
    def test_comprehension_scopes(self, expr, label):
        found = flag_findings(f"def outer(items):\n    return {expr}\n")
        assert [f.qualname for f in found] == [f"outer.{label}"]

    def test_comprehension_without_the_name_is_silent(self):
        assert flag_findings(
            "def outer(items):\n    return [x for x in items]\n"
        ) == []

    def test_class_method_qualname(self):
        found = flag_findings(
            """
            class C:
                def m(self):
                    return FLAG
            """
        )
        assert [f.qualname for f in found] == ["C.m"]

    def test_module_level_qualname_is_empty(self):
        found = flag_findings("x = FLAG\n")
        assert [f.qualname for f in found] == [""]

    def test_walrus_inside_a_comprehension(self):
        found = flag_findings(
            "def outer(items):\n    return [y for _ in items if (y := FLAG)]\n"
        )
        assert [f.qualname for f in found] == ["outer.<listcomp>"]

    @pytest.mark.parametrize(
        "header",
        ["if TYPE_CHECKING:", "if typing.TYPE_CHECKING:"],
    )
    def test_type_checking_blocks_are_skipped(self, header):
        found = flag_findings(
            f"{header}\n"
            "    x = FLAG\n"
            "y = FLAG\n"
        )
        assert [f.line for f in found] == [3]

    def test_type_checking_else_branch_still_counts(self):
        found = flag_findings(
            "if TYPE_CHECKING:\n"
            "    x = 1\n"
            "else:\n"
            "    y = FLAG\n"
        )
        assert [f.line for f in found] == [4]

    def test_finding_at_recovers_the_scope_chain(self):
        src = "def outer(shards):\n    return [s for s in shards]\n"
        mf = ModuleFile(
            path="m.py", module="m", tree=ast.parse(src), source=src
        )
        comp = next(
            n for n in ast.walk(mf.tree) if isinstance(n, ast.ListComp)
        )
        f = finding_at(mf, comp.elt, "test-flag", "msg")
        assert f.qualname == "outer.<listcomp>"


# ---------------------------------------------------------------------------
# CLI: --traces, --sarif, --json
# ---------------------------------------------------------------------------


class TestCheckCli:
    def test_traces_accept_the_committed_fixtures(self, capsys):
        rc = main(["check", "--traces", *map(str, TRACE_FIXTURES)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 happens-before violation(s)" in out

    def test_traces_reject_a_reordered_trace(self, tmp_path, capsys):
        path = write_trace(
            tmp_path,
            "bad.jsonl",
            [
                span_line("shard:a#0", "shard", [], 0.0, 1.0),
                span_line("merge:a", "merge", ["shard:a#0"], 0.2, 0.2),
            ],
        )
        rc = main(["check", "--traces", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "trace-race" in out

    def test_traces_missing_file_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["check", "--traces", str(tmp_path / "nope.jsonl")])
        assert rc == 2

    def test_traces_json_output(self, tmp_path, capsys):
        path = write_trace(
            tmp_path,
            "ok.jsonl",
            [span_line("shard:a#0", "shard", [], 0.0, 1.0)],
        )
        rc = main(["check", "--traces", str(path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["findings"] == []
        assert payload["spans_checked"] == {str(path): 1}

    @pytest.fixture()
    def leaky_tree(self, tmp_path):
        pkg = tmp_path / "repro" / "engine"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "scratch.py").write_text(
            "def grab(name):\n"
            "    shm = attach_shm(name)\n"
            "    fallible()\n"
        )
        return tmp_path / "repro"

    def test_sarif_flag_writes_a_document(self, leaky_tree, tmp_path, capsys):
        out = tmp_path / "findings.sarif"
        rc = main(["check", str(leaky_tree), "--sarif", str(out)])
        assert rc == 1
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        assert [r["ruleId"] for r in doc["runs"][0]["results"]] == [
            "shm-paths"
        ]

    def test_json_reports_per_rule_stats(self, leaky_tree, capsys):
        rc = main(["check", str(leaky_tree), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        (finding,) = [
            f for f in payload["findings"] if f["rule"] == "shm-paths"
        ]
        assert finding["qualname"] == "grab"
        assert " :: " in finding["key"]
        stats = payload["stats"]["shm-paths"]
        assert set(stats) == {"wall_s", "files", "findings"}
        assert stats["findings"] == 1
