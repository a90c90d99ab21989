"""Pickle / multiprocess-safety rules (PICK).

``run_batch(specs, workers=N)`` pickles work items into a
``multiprocessing`` pool.  Lambdas, closures, and locally-defined
functions/classes do not pickle; and module-level globals mutated inside a
worker mutate the *worker's* copy only, so the parent silently never sees
the write.  Both failure modes surface far from their cause (or not at
all), which makes them lint material.

``run_batch``'s ``progress=`` and ``store=`` keywords are exempt from
PICK001: both are documented parent-side-only (workers never receive
them), so closures there are fine.

Flow-aware since the project layer landed: the dispatch point is
recognised through import aliases (``from repro.api import run_batch as
rb``), a name argument bound to a lambda is resolved to it, and a
module-level **wrapper** that forwards a parameter into ``run_batch`` or
a pool method taints that parameter one call level up.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.core import (
    Finding,
    FunctionSymbol,
    ModuleInfo,
    Rule,
    register,
)

#: pool fan-out methods whose first argument is shipped to workers
_POOL_METHODS = {"imap", "imap_unordered", "map_async", "starmap",
                 "starmap_async", "apply", "apply_async"}
#: ``.map``/``.submit`` are common enough to need a pool-ish receiver name
_POOL_METHODS_GUARDED = {"map", "submit"}
#: run_batch kwargs that stay in the parent process
_PARENT_SIDE_KWARGS = {"progress", "store"}


def _pool_receiver(func: ast.Attribute) -> bool:
    if func.attr in _POOL_METHODS:
        return True
    if func.attr in _POOL_METHODS_GUARDED:
        recv = func.value
        name = recv.id if isinstance(recv, ast.Name) else (
            recv.attr if isinstance(recv, ast.Attribute) else "")
        low = name.lower()
        return "pool" in low or "executor" in low
    return False


def _local_defs(scope: ast.AST) -> set[str]:
    """Function/class names defined directly inside a function scope
    (nested defs — unpicklable by reference)."""
    names: set[str] = set()
    for node in ast.walk(scope):
        if node is scope:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


@register
class UnpicklableWorkerArgRule(Rule):
    id = "PICK001"
    name = "unpicklable-worker-callable"
    rationale = (
        "lambdas and locally-defined functions/classes cannot be pickled "
        "into multiprocessing workers; run_batch and pool fan-out need "
        "module-level callables and plain-data specs"
    )

    def __init__(self) -> None:
        #: canonical wrapper name -> params it forwards into a dispatch
        self._forwarding: dict[str, set[str]] = {}

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        # map each call to its innermost enclosing function's local defs
        scopes: list[tuple[ast.AST, set[str]]] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((node, _local_defs(node)))

        def locals_for(call: ast.Call) -> set[str]:
            best: set[str] = set()
            best_span = None
            for scope, names in scopes:
                if (scope.lineno <= call.lineno
                        and call.lineno <= (scope.end_lineno or scope.lineno)):
                    span = (scope.end_lineno or scope.lineno) - scope.lineno
                    if best_span is None or span < best_span:
                        best, best_span = names, span
            return best

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            worker_args = self._worker_bound_args(node, module)
            via = None
            if worker_args is None:
                worker_args, via = self._wrapper_forwarded_args(module, node)
            if worker_args is None:
                continue
            local_names = locals_for(node)
            through = f" (through {via}())" if via else ""
            for arg in worker_args:
                if isinstance(arg, ast.Lambda):
                    yield self.finding(
                        module, arg,
                        "lambda flows into a worker-executed path"
                        f"{through}; multiprocessing cannot pickle it — "
                        "use a module-level function",
                    )
                elif isinstance(arg, ast.Name):
                    if arg.id in local_names:
                        yield self.finding(
                            module, arg,
                            f"locally-defined {arg.id!r} flows into a "
                            f"worker-executed path{through}; nested "
                            "functions/classes do not pickle — define it "
                            "at module level",
                        )
                        continue
                    origin = module.flow.origin(arg)
                    if origin.node is not None and isinstance(
                            origin.node, ast.Lambda):
                        yield self.finding(
                            module, arg,
                            f"{arg.id!r} is bound to a lambda and flows "
                            f"into a worker-executed path{through}; "
                            "multiprocessing cannot pickle it — use a "
                            "module-level function",
                        )

    @staticmethod
    def _worker_bound_args(
            node: ast.Call,
            module: "ModuleInfo | None" = None) -> "list[ast.expr] | None":
        """The argument expressions of ``node`` that reach workers, or
        None when the call is not a worker dispatch point."""
        func = node.func
        is_run_batch = (
            (isinstance(func, ast.Name) and func.id == "run_batch")
            or (isinstance(func, ast.Attribute) and func.attr == "run_batch"))
        if not is_run_batch and module is not None:
            # flow hop: ``from repro.api import run_batch as rb; rb(...)``
            target = module.flow.call_target(node)
            is_run_batch = target is not None and (
                target == "run_batch" or target.endswith(".run_batch"))
        if is_run_batch:
            return list(node.args) + [
                kw.value for kw in node.keywords
                if kw.arg not in _PARENT_SIDE_KWARGS
            ]
        if isinstance(func, ast.Attribute) and _pool_receiver(func):
            return list(node.args) + [kw.value for kw in node.keywords]
        return None

    def _wrapper_forwarded_args(
            self, module: ModuleInfo,
            node: ast.Call) -> "tuple[list[ast.expr] | None, str | None]":
        """Arguments of ``node`` that land on parameters its (project-
        resolved) callee forwards into a worker dispatch point."""
        sym = None if self.project is None else self.project.called_function(
            module, node)
        if sym is None:
            return None, None
        forwarded = self._forwarded_params(sym)
        if not forwarded:
            return None, None
        params = sym.params
        out: list[ast.expr] = []
        for i, arg in enumerate(node.args):
            if i < len(params) and params[i] in forwarded:
                out.append(arg)
        for kw in node.keywords:
            if kw.arg is not None and kw.arg in forwarded:
                out.append(kw.value)
        return (out, sym.canonical) if out else (None, None)

    def _forwarded_params(self, sym: FunctionSymbol) -> set[str]:
        cached = self._forwarding.get(sym.canonical)
        if cached is not None:
            return cached
        params = set(sym.params)
        forwarded: set[str] = set()
        for call in ast.walk(sym.node):
            if not isinstance(call, ast.Call):
                continue
            wargs = self._worker_bound_args(call, sym.module)
            if wargs is None:
                continue
            for a in wargs:
                if isinstance(a, ast.Name) and a.id in params:
                    forwarded.add(a.id)
        self._forwarding[sym.canonical] = forwarded
        return forwarded


@register
class WorkerGlobalMutationRule(Rule):
    id = "PICK002"
    name = "worker-global-mutation"
    rationale = (
        "a module-level global rebound inside a function mutates only the "
        "current process's copy; under run_batch fan-out the parent never "
        "observes worker-side writes, so results silently diverge from "
        "the serial path"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Global):
                yield self.finding(
                    module, node,
                    f"function rebinds module global(s) "
                    f"{', '.join(node.names)}; worker processes each mutate "
                    "their own copy — pass state explicitly or keep a "
                    "per-process memo passed as a parameter",
                )
