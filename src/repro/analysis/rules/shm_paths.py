"""shm-paths: every segment acquisition reaches a release on all paths.

The syntactic ``shm-lifecycle`` rule pins *where* raw SharedMemory may
be constructed; this rule checks the *lifecycle* of every acquisition
flow-sensitively.  For each function in the concurrency core
(``repro.exec.graph``, ``repro.engine.*`` and ``repro.supervise.*``),
each call that acquires a segment-backed resource::

    shm = attach_shm(name)
    shm = create_shm(size, tag)
    store = PointStore.attach(handle)
    mailbox = supervisor.open_mailbox(n)

must reach a release (``release_segment`` / ``destroy_segment`` /
``.close()`` / ``.unlink()`` / the paired ``close_mailbox``), an
ownership transfer (returned, stored on an object, handed to a callee
whose summary keeps it), or a helper credited by the call-graph
summary pass — on **every** path, including the edges taken when a
later statement raises.  The leak the syntactic rule can never see is
exactly the one this catches: an acquisition followed by a fallible
setup call *outside* the ``try`` whose ``finally`` does the cleanup.

Findings anchor to the acquisition statement.  When this rule and the
syntactic rule flag the same line, the engine keeps only this one
(``supersedes``).
"""

from __future__ import annotations

import ast

from repro.analysis.dataflow.cfg import build_cfg, stmt_calls
from repro.analysis.dataflow.lattice import (
    ResourceSpec,
    analyze_sites,
    find_sites,
)
from repro.analysis.dataflow.summaries import ProjectSummaries, build_summaries
from repro.analysis.findings import Finding
from repro.analysis.visitor import (
    ModuleFile,
    Project,
    ProjectRule,
    dotted_source,
    finding_at,
)

__all__ = ["ShmPathsRule", "module_in_scope", "shm_can_raise"]

#: Calls whose result is a live segment-backed resource.
_ACQUIRERS = frozenset(
    {
        "create_shm",
        "attach_shm",
        "open_mailbox",
        "SharedMemory",
    }
)
_ACQUIRE_SUFFIXES = ("Store.attach",)
_RELEASERS = frozenset(
    {"release_segment", "destroy_segment", "destroy_segment_by_name"}
)
_RELEASE_METHODS = frozenset({"close", "unlink"})
_PAIRED = {"open_mailbox": "close_mailbox"}

#: Teardown helpers the CFG may trust not to raise: a cleanup sequence
#: in a ``finally`` must not generate leak paths between its own steps.
_NON_RAISING_CALLS = frozenset(
    {
        *_RELEASERS,
        *_RELEASE_METHODS,
        "close_mailbox",
        "beat",
        "set_tracer",
        "perf_counter",
    }
)

SPEC = ResourceSpec(
    acquirers=_ACQUIRERS,
    acquire_suffixes=_ACQUIRE_SUFFIXES,
    releasers=_RELEASERS,
    release_methods=_RELEASE_METHODS,
    paired=dict(_PAIRED),
)

#: The module that owns raw segment plumbing checks itself by hand.
_EXEMPT_MODULE = "repro.engine.shm"
_SCOPE_PREFIXES = ("repro.engine.", "repro.supervise.")
_SCOPE_MODULES = ("repro.exec.graph", "repro.engine", "repro.supervise")


def module_in_scope(module: str) -> bool:
    if module == _EXEMPT_MODULE:
        return False
    return module in _SCOPE_MODULES or module.startswith(_SCOPE_PREFIXES)


def shm_can_raise(summaries: ProjectSummaries):
    """``can_raise`` that trusts teardown helpers and plain ctors."""

    def can_raise(stmt: ast.stmt) -> bool:
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            return True
        calls = stmt_calls(stmt)
        if not calls:
            return False
        for call in calls:
            bare = dotted_source(call.func).rsplit(".", 1)[-1]
            if bare in _NON_RAISING_CALLS:
                continue
            if bare in summaries.nonraising_ctors:
                continue
            return True
        return False

    return can_raise


class ShmPathsRule(ProjectRule):
    rule_id = "shm-paths"
    description = (
        "flow-sensitive segment lifecycle: every shm acquisition in the "
        "concurrency core reaches release/destroy (or an ownership "
        "transfer) on all paths, exception edges included"
    )
    #: When both rules flag the same line, keep the dataflow finding.
    supersedes = ("shm-lifecycle",)

    def _check_module(
        self, mf: ModuleFile, summaries: ProjectSummaries
    ) -> list[Finding]:
        findings: list[Finding] = []
        can_raise = shm_can_raise(summaries)
        for node in ast.walk(mf.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cfg = build_cfg(node, can_raise=can_raise)
            sites = find_sites(node, cfg, SPEC)
            for leak in analyze_sites(node, cfg, sites, SPEC, summaries):
                findings.append(
                    finding_at(mf, leak.site.stmt, self.rule_id, leak.describe())
                )
        return findings

    def check(self, project: Project) -> list[Finding]:
        targets = [
            mf
            for _, mf in sorted(project.modules.items())
            if module_in_scope(mf.module)
        ]
        if not targets:
            return []
        summaries = build_summaries(
            project, releasers=_RELEASERS, release_methods=_RELEASE_METHODS
        )
        findings: list[Finding] = []
        for mf in targets:
            findings.extend(self._check_module(mf, summaries))
        return findings
