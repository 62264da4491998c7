"""Call-graph summaries: credit helpers that tear down for callers.

The path analysis in :mod:`~repro.analysis.dataflow.lattice` is
per-function, but teardown is often delegated — ``_close_lane(lane)``
releases the lane's pool, ``Session._finalize`` unlinks the store.  A
flow-*insensitive* pre-pass over every function in the project
produces one :class:`FunctionSummary` per bare callable name:

``releases``
    parameter indices the function releases (directly, or via another
    summarized helper — computed to a fixpoint);
``escapes``
    parameter indices the function keeps beyond the call (stored on an
    object, returned, handed to an unknown callee);
``params`` / ``is_method``
    enough shape to match call-site arguments to parameters, shifting
    by one for bound-method calls.

Name collisions (two functions named ``close``) merge conservatively:
``releases`` intersects (credit only what *every* homonym frees),
``escapes`` unions.

The pass also records which classes are **non-raising constructors**:
``@dataclass`` classes without ``__init__``/``__post_init__`` bodies of
their own.  After ``shm = create_shm(size)``, a
``return shm, PointStoreHandle(...)`` is an ownership transfer, not a
leak window, precisely because the generated ``__init__`` only assigns
fields — rules feed this set into the CFG's ``can_raise`` predicate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.visitor import Project, dotted_source

__all__ = ["FunctionSummary", "ProjectSummaries", "build_summaries"]


@dataclass(frozen=True)
class FunctionSummary:
    params: tuple[str, ...]
    releases: frozenset[int] = frozenset()
    escapes: frozenset[int] = frozenset()
    is_method: bool = False


@dataclass
class ProjectSummaries:
    """Bare-name-keyed summaries plus the non-raising constructor set."""

    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    nonraising_ctors: frozenset[str] = frozenset()


def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    return tuple(a.arg for a in (*fn.args.posonlyargs, *fn.args.args))


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        name = dotted_source(deco)
        if name.rsplit(".", 1)[-1] == "dataclass":
            return True
    return False


def _plain_ctor_classes(project: Project) -> frozenset[str]:
    """Dataclasses whose generated ``__init__`` cannot raise."""
    names: set[str] = set()
    for mf in project.modules.values():
        for node in ast.walk(mf.tree):
            if not isinstance(node, ast.ClassDef) or not _is_dataclass(node):
                continue
            methods = {
                s.name for s in node.body if isinstance(s, ast.FunctionDef)
            }
            if "__init__" in methods or "__post_init__" in methods:
                continue
            names.add(node.name)
    return frozenset(names)


def _call_parts(call: ast.Call) -> tuple[str, str]:
    dotted = dotted_source(call.func)
    bare = dotted.rsplit(".", 1)[-1]
    receiver = dotted[: -len(bare) - 1] if "." in dotted else ""
    return bare, receiver


def _summarize_one(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    releasers: frozenset[str],
    release_methods: frozenset[str],
    known: dict[str, FunctionSummary],
) -> FunctionSummary:
    params = _param_names(fn)
    index_of = {name: i for i, name in enumerate(params)}
    is_method = bool(params) and params[0] in ("self", "cls")
    releases: set[int] = set()
    escapes: set[int] = set()

    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            bare, receiver = _call_parts(node)
            if bare in releasers:
                for arg in node.args:
                    if isinstance(arg, ast.Name) and arg.id in index_of:
                        releases.add(index_of[arg.id])
                continue
            if bare in release_methods and receiver in index_of:
                releases.add(index_of[receiver])
                continue
            callee = known.get(bare)
            offset = 1 if (callee is not None and callee.is_method and receiver) else 0
            for idx, arg in enumerate(node.args):
                if not (isinstance(arg, ast.Name) and arg.id in index_of):
                    continue
                p = index_of[arg.id]
                if callee is None:
                    escapes.add(p)
                elif (idx + offset) in callee.releases:
                    releases.add(p)
                elif (idx + offset) in callee.escapes:
                    escapes.add(p)
            for kw in node.keywords:
                if not (
                    isinstance(kw.value, ast.Name) and kw.value.id in index_of
                ):
                    continue
                p = index_of[kw.value.id]
                if callee is None or kw.arg is None:
                    escapes.add(p)
                elif kw.arg in callee.params:
                    cp = callee.params.index(kw.arg)
                    if cp in callee.releases:
                        releases.add(p)
                    elif cp in callee.escapes:
                        escapes.add(p)
                else:
                    escapes.add(p)
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = node.value
            if value is not None:
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Name) and sub.id in index_of:
                        escapes.add(index_of[sub.id])
        elif isinstance(node, ast.Assign):
            if any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in node.targets
            ):
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name) and sub.id in index_of:
                        escapes.add(index_of[sub.id])

    return FunctionSummary(
        params=params,
        releases=frozenset(releases),
        escapes=frozenset(escapes),
        is_method=is_method,
    )


def build_summaries(
    project: Project,
    *,
    releasers: frozenset[str],
    release_methods: frozenset[str],
    rounds: int = 3,
) -> ProjectSummaries:
    """Summarize every function in the project, to a small fixpoint."""
    functions: list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]] = []
    for mf in project.modules.values():
        for node in ast.walk(mf.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((node.name, node))

    known: dict[str, FunctionSummary] = {}
    for _ in range(rounds):
        fresh: dict[str, FunctionSummary] = {}
        for name, fn in functions:
            summary = _summarize_one(fn, releasers, release_methods, known)
            prior = fresh.get(name)
            if prior is not None:
                # Homonyms: only credit releases every variant performs.
                summary = FunctionSummary(
                    params=prior.params,
                    releases=prior.releases & summary.releases,
                    escapes=prior.escapes | summary.escapes,
                    is_method=prior.is_method or summary.is_method,
                )
            fresh[name] = summary
        if fresh == known:
            break
        known = fresh

    return ProjectSummaries(
        functions=known,
        nonraising_ctors=_plain_ctor_classes(project),
    )
