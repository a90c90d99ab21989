"""Multiprocess-safety rule (PICK).

``run_batch(specs, workers=N)`` ships work into a ``multiprocessing``
pool.  A module-level global mutated inside a worker mutates the
*worker's* copy only, so the parent silently never sees the write and
results diverge from the serial path (PICK002).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, ModuleInfo, Rule, register


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
