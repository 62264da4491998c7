"""Executor contract: one runtime owns every worker and every heartbeat.

The recovery-transparency grid (tests/test_resilience.py) and the
canonical-label equivalence suite hold *because* every executor name
runs on the shared task-graph runtime
(:class:`repro.exec.graph.GraphRuntime`), which is the single place
that owns worker pools and handles every failure in its one failure
path (the consumer of the :class:`FaultPlan` and the retry budgets).  dislib's history shows what happens when
distributed backends drift: one grows a private pool the others lack,
and every cross-backend equivalence claim silently narrows.  This rule
pins the contract:

* no module under ``repro.exec`` other than ``repro.exec.graph``
  spawns workers (``ProcessPoolExecutor`` / ``ThreadPoolExecutor`` /
  ``threading.Thread`` / ``multiprocessing.Process``) — a private pool
  would bypass the FaultPlan and retry budgets the runtime consumes;
* supervision discipline: heartbeat emitters (``worker_pulse``) are
  constructed only inside ``repro.exec.graph`` workers (and the
  defining module ``repro.supervise.signals``) — a pulse beating
  outside the runtime would fake liveness for work the supervisor
  cannot see — and remediation :class:`Action` objects are built only
  through the :class:`~repro.supervise.remedy.Proposer` registry in
  ``repro.supervise.remedy``, so every action the runtime executes is
  one the registry proposed and the risk gate scored.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.visitor import ModuleFile, Project, ProjectRule, finding_at

__all__ = ["ExecutorContractRule"]

_EXEC_PACKAGE = "repro.exec"
#: The one module allowed to spawn workers (it owns the pools).
_RUNTIME_MODULE = f"{_EXEC_PACKAGE}.graph"
#: Worker-spawning names banned everywhere else under repro.exec.
_POOL_NAMES = frozenset({"ProcessPoolExecutor", "ThreadPoolExecutor"})
#: module name -> attribute that spawns a worker.
_POOL_ATTRS = {"threading": "Thread", "multiprocessing": "Process"}

#: Supervision call discipline: callable name -> modules allowed to
#: call it.  ``worker_pulse`` builds the heartbeat emitter (defined in
#: signals, beaten only by the runtime's workers); ``Action`` is the
#: remediation dataclass (constructed only by the Proposer registry).
_SUPERVISE_SITES = {
    "worker_pulse": frozenset({"repro.supervise.signals", _RUNTIME_MODULE}),
    "Action": frozenset({"repro.supervise.remedy"}),
}


def _pool_spawn_sites(tree: ast.AST) -> list[tuple[ast.AST, str]]:
    """Every ``(node, spawned_name)`` that creates a worker pool/thread."""
    sites: list[tuple[ast.AST, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in _POOL_NAMES:
                    sites.append((node, alias.name))
        elif isinstance(node, ast.Name) and node.id in _POOL_NAMES:
            sites.append((node, node.id))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and _POOL_ATTRS.get(node.value.id) == node.attr
        ):
            sites.append((node, f"{node.value.id}.{node.attr}"))
    return sites


class ExecutorContractRule(ProjectRule):
    rule_id = "executor-contract"
    description = (
        "only GraphRuntime (repro.exec.graph) spawns workers; heartbeats and "
        "remediation actions are built only at their sanctioned sites"
    )

    def _finding(self, mf: ModuleFile, node: ast.AST, message: str) -> Finding:
        return finding_at(mf, node, self.rule_id, message)

    def _supervision_sites(self, project: Project) -> list[Finding]:
        """Flag worker_pulse / Action construction outside sanctioned modules."""
        findings: list[Finding] = []
        for module, mf in sorted(project.modules.items()):
            for node in ast.walk(mf.tree):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                if isinstance(fn, ast.Name):
                    called = fn.id
                elif isinstance(fn, ast.Attribute):
                    called = fn.attr
                else:
                    continue
                allowed = _SUPERVISE_SITES.get(called)
                if allowed is None or module in allowed:
                    continue
                where = " / ".join(sorted(allowed))
                what = (
                    "heartbeat emitters are constructed"
                    if called == "worker_pulse"
                    else "remediation actions are proposed"
                )
                findings.append(
                    self._finding(
                        mf, node,
                        f"{module} calls {called}(); {what} only in {where}",
                    )
                )
        return findings

    def check(self, project: Project) -> list[Finding]:
        findings = self._supervision_sites(project)
        for mf in project.in_package(_EXEC_PACKAGE):
            if mf.module == _RUNTIME_MODULE:
                continue
            for node, spawned in _pool_spawn_sites(mf.tree):
                findings.append(
                    self._finding(
                        mf, node,
                        f"{mf.module} spawns workers ({spawned}); only "
                        f"{_RUNTIME_MODULE} may own pools — executors "
                        "run through GraphRuntime",
                    )
                )
        return findings
