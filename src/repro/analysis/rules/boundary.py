"""worker-boundary: nothing live crosses the parent→worker boundary.

Everything submitted to a process-pool worker is pickled; a closure, a
bound method, or a captured live object (a ``Session`` with its shm
store, a ``Tracer`` mid-batch, a lock) either fails to pickle or —
worse — silently pickles a *copy* whose mutations are lost.  The
runtime's contract is that ``_chain_worker`` / ``_shard_worker``
receive only shm handles, fingerprints, and frozen value objects, and
re-attach everything live on the worker side.

For every ``pool.submit(fn, *args)`` under ``repro.exec`` this rule
checks:

* ``fn`` is a plain module-level function (or imported name) — not a
  lambda, not a nested ``def`` capturing parent state, not a bound
  method;
* no argument is a lambda or nested ``def``;
* no argument is bare ``self`` (an executor/runtime instance drags
  its pools and tracer across the boundary);
* no argument is a live-object constructor call or a name bound to
  one (``Session``, ``Tracer``, ``Supervisor``, locks, queues...).

Attribute reads like ``tracer.enabled`` or ``spec.cost_model`` are
fine: the *value* crosses, not the object.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.visitor import (
    ModuleFile,
    Project,
    ProjectRule,
    dotted_source,
    finding_at,
)

__all__ = ["WorkerBoundaryRule"]

_SCOPE_PACKAGE = "repro.exec"

#: Constructors whose instances must never cross the boundary.
_LIVE_CTORS = frozenset(
    {
        "Session",
        "Tracer",
        "Supervisor",
        "Lock",
        "RLock",
        "Condition",
        "Semaphore",
        "BoundedSemaphore",
        "Event",
        "Barrier",
        "Queue",
        "SimpleQueue",
        "ThreadPoolExecutor",
        "ProcessPoolExecutor",
    }
)


def _module_level_callables(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def _live_bound_names(scope: ast.AST) -> set[str]:
    """Names assigned from a live-object constructor inside ``scope``."""
    names: set[str] = set()
    for node in ast.walk(scope):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if isinstance(value, ast.IfExp):
            value = value.body
        if not isinstance(value, ast.Call):
            continue
        if dotted_source(value.func).rsplit(".", 1)[-1] not in _LIVE_CTORS:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _enclosing_functions(
    tree: ast.Module, target: ast.AST
) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Function chain containing ``target`` (outermost first)."""
    chain: list[ast.FunctionDef | ast.AsyncFunctionDef] = []

    def walk(node: ast.AST, stack: list) -> bool:
        if node is target:
            chain.extend(stack)
            return True
        is_fn = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if is_fn:
            stack.append(node)
        try:
            for child in ast.iter_child_nodes(node):
                if walk(child, stack):
                    return True
        finally:
            if is_fn:
                stack.pop()
        return False

    walk(tree, [])
    return chain


class WorkerBoundaryRule(ProjectRule):
    rule_id = "worker-boundary"
    description = (
        "pool.submit under repro.exec sends only module-level functions "
        "and picklable value arguments across the worker boundary — no "
        "closures, bound methods, self, or live Session/Tracer/lock "
        "objects"
    )

    def _check_submit(
        self, mf: ModuleFile, call: ast.Call
    ) -> list[Finding]:
        findings: list[Finding] = []
        if not call.args:
            return findings
        top_level = _module_level_callables(mf.tree)
        enclosing = _enclosing_functions(mf.tree, call)
        nested_defs: set[str] = set()
        for fn in enclosing:
            for node in ast.walk(fn):
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node is not fn
                ):
                    nested_defs.add(node.name)
        live_names: set[str] = set()
        for scope in (mf.tree, *enclosing):
            live_names |= _live_bound_names(scope)

        callee, *args = call.args
        if isinstance(callee, ast.Lambda):
            findings.append(
                finding_at(
                    mf,
                    callee,
                    self.rule_id,
                    "lambda submitted to a worker: closures cannot cross "
                    "the process boundary — submit a module-level function "
                    "taking shm handles",
                )
            )
        elif not isinstance(callee, ast.Name) or callee.id not in top_level:
            label = (
                f"nested function {callee.id!r}"
                if isinstance(callee, ast.Name) and callee.id in nested_defs
                else dotted_source(callee) or "expression"
            )
            findings.append(
                finding_at(
                    mf,
                    callee,
                    self.rule_id,
                    f"worker callable {label} is not a module-level "
                    "function: bound methods and closures capture parent "
                    "state that must not cross the worker boundary",
                )
            )
        for arg in args:
            if isinstance(arg, ast.Starred):
                arg = arg.value
            if isinstance(arg, ast.Lambda):
                findings.append(
                    finding_at(
                        mf,
                        arg,
                        self.rule_id,
                        "lambda passed as a worker argument: closures must "
                        "not cross the worker boundary",
                    )
                )
            elif isinstance(arg, ast.Name):
                if arg.id == "self":
                    findings.append(
                        finding_at(
                            mf,
                            arg,
                            self.rule_id,
                            "self passed to a worker: the runtime instance "
                            "(pools, tracer, mailbox) must not cross the "
                            "worker boundary",
                        )
                    )
                elif arg.id in live_names or arg.id in nested_defs:
                    what = (
                        "a nested function"
                        if arg.id in nested_defs
                        else "a live object"
                    )
                    findings.append(
                        finding_at(
                            mf,
                            arg,
                            self.rule_id,
                            f"{arg.id!r} is {what} and must not cross the "
                            "worker boundary: pass a handle/fingerprint and "
                            "re-attach worker-side",
                        )
                    )
            elif isinstance(arg, ast.Call):
                bare = dotted_source(arg.func).rsplit(".", 1)[-1]
                if bare in _LIVE_CTORS:
                    findings.append(
                        finding_at(
                            mf,
                            arg,
                            self.rule_id,
                            f"{bare}(...) constructed inline as a worker "
                            "argument: live objects must not cross the "
                            "worker boundary",
                        )
                    )
        return findings

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for mf in project.in_package(_SCOPE_PACKAGE):
            for node in ast.walk(mf.tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "submit"
                ):
                    findings.extend(self._check_submit(mf, node))
        return findings
