"""Multiprocess-safety rule (PICK) and the worker-dispatch matcher.

``run_batch(specs, workers=N)`` ships work into a ``multiprocessing``
pool.  A module-level global mutated inside a worker mutates the
*worker's* copy only, so the parent silently never sees the write and
results diverge from the serial path (PICK002).

:func:`worker_bound_args` recognises the dispatch points — ``run_batch``
(also through aliased imports) and pool fan-out methods — and returns the
argument expressions that reach workers; ``IPC001`` uses it to find
per-process resources shipped across the boundary.  ``run_batch``'s
``progress=`` and ``store=`` keywords stay in the parent and are
excluded.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, ModuleInfo, Rule, register

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


def worker_bound_args(node: ast.Call,
                      module: ModuleInfo) -> "list[ast.expr] | None":
    """The argument expressions of ``node`` that reach workers, or None
    when the call is not a worker dispatch point."""
    func = node.func
    is_run_batch = (
        (isinstance(func, ast.Name) and func.id == "run_batch")
        or (isinstance(func, ast.Attribute) and func.attr == "run_batch"))
    if not is_run_batch:
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
