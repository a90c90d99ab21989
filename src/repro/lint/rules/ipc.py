"""Cross-process discipline rules (IPC).

The work-stealing campaign runner fans out over ``multiprocessing``
workers that coordinate *only* through the filesystem protocol of
:class:`repro.sim.store.FingerprintStore`: per-writer append-only
segments, advisory lease claims with wall-clock expiry, and read-back
verification after publishing a claim.  Three ways code quietly violates
that model:

- IPC001 — a ``FingerprintStore`` (or raw file handle) opened in the
  parent and shipped into worker arguments.  The store's writer identity,
  open segment fd, and in-memory index are all per-process; a forked or
  pickled copy either fails to pickle or — worse — two processes append
  through one inherited fd and interleave torn records.
- IPC002 — a lease/claim deadline computed or compared with
  ``time.monotonic()``.  Monotonic clocks are per-boot and per-host:
  another shard on another machine cannot interpret the value, so an
  expired lease never becomes reclaimable (or is reclaimed instantly).
  Leases are the one sanctioned *wall-clock* use (``time.time`` with a
  DET002 suppression), precisely because they are cross-host.
- IPC003 — publishing a claim without reading it back.  ``os.replace``
  decides the race, but only the read-back tells you whether *you* won;
  skipping it means two shards both believe they hold the lease and
  duplicate (or double-publish) the work.

Like the FS rules these lean on marker-based path/vocabulary
recognition; ``FingerprintStore.try_claim`` is the no-fire exemplar for
IPC003 (atomic write, then ``read_claim`` compares writer ids).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.core import Finding, ModuleInfo, Rule, register
from repro.lint.rules.pickle_safety import worker_bound_args

#: tokens marking a function/statement as lease-protocol code.  Note
#: "deadline" is deliberately absent: ``deadline = time.monotonic() + t``
#: is the correct single-process polling-timeout idiom.
_LEASE_TOKENS = {"lease", "claim", "claims", "expires", "expiry",
                 "stale", "holder"}
#: call targets that create a per-process resource
_PER_PROCESS_CTORS = ("FingerprintStore", "open")


def _lease_context(module: ModuleInfo, node: ast.AST) -> bool:
    """Is ``node`` inside lease-protocol code?  True when the enclosing
    function's name, or the enclosing statement's construction markers,
    use the lease vocabulary."""
    fn = module.flow.enclosing_function(node)
    if fn is not None:
        name_tokens = {t.lower() for t in fn.name.split("_") if t}
        if name_tokens & _LEASE_TOKENS:
            return True
    # climb to the enclosing statement; for compound statements (While/
    # If/For...) judge only the header expression containing the call,
    # not the whole body — a polling loop must not inherit lease
    # vocabulary from unrelated statements inside it
    prev: ast.AST = node
    stmt = module.flow.parents.get(id(node))
    while stmt is not None and not isinstance(stmt, ast.stmt):
        prev = stmt
        stmt = module.flow.parents.get(id(stmt))
    subject = prev if (stmt is not None
                       and hasattr(stmt, "body")) else stmt
    if subject is not None and module.flow.markers(subject) & _LEASE_TOKENS:
        return True
    return False


@register
class StoreIntoWorkerRule(Rule):
    id = "IPC001"
    name = "per-process-resource-into-worker"
    rationale = (
        "a FingerprintStore or open file handle is a per-process "
        "resource (writer id, segment fd, in-memory index); shipping one "
        "into pool/run_batch workers either fails to pickle or makes two "
        "processes write through one inherited descriptor"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            worker_args = worker_bound_args(node, module)
            if worker_args is None:
                continue
            for arg in worker_args:
                for name in ast.walk(arg):
                    if not isinstance(name, ast.Name):
                        continue
                    ctor = self._per_process_ctor(module, name)
                    if ctor is not None:
                        yield self.finding(
                            module, name,
                            f"{name.id!r} (from {ctor}()) is a per-process "
                            "resource and flows into a worker-executed "
                            "path; open it inside the worker instead — "
                            "the store protocol is designed for one "
                            "instance per process",
                        )

    @staticmethod
    def _per_process_ctor(module: ModuleInfo,
                          name: ast.Name) -> Optional[str]:
        origin = module.flow.origin(name)
        if origin.kind != "call" or origin.path is None:
            return None
        tail = origin.path.rsplit(".", 1)[-1]
        return origin.path if tail in _PER_PROCESS_CTORS else None


@register
class MonotonicLeaseClockRule(Rule):
    id = "IPC002"
    name = "monotonic-lease-clock"
    rationale = (
        "lease expiry crosses process and host boundaries; "
        "time.monotonic() is per-boot and means nothing to the shard "
        "that reads the claim file — lease deadlines are the sanctioned "
        "wall-clock (time.time) use"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = module.flow.call_target(node)
            if target not in ("time.monotonic", "time.monotonic_ns"):
                continue
            if _lease_context(module, node):
                yield self.finding(
                    module, node,
                    f"{target}() used for a lease/claim deadline; "
                    "monotonic clocks are per-boot and per-host, so other "
                    "shards cannot interpret the expiry — use time.time() "
                    "(with a DET002 suppression citing the lease "
                    "protocol)",
                )


@register
class ClaimWithoutReadbackRule(Rule):
    id = "IPC003"
    name = "claim-publish-without-readback"
    rationale = (
        "os.replace decides a claim race but does not report the winner; "
        "without reading the claim back and comparing writer ids, two "
        "shards both believe they hold the lease and duplicate the work"
    )

    _READ_TOKENS = {"read", "load", "loads", "holder", "get", "verify",
                    "check"}

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            publishes = []
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and self._publishes_claim(
                        module, node):
                    publishes.append(node)
            if not publishes:
                continue
            readback_lines = [
                node.lineno for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and self._reads_claim(module, node)
            ]
            for pub in publishes:
                if not any(line >= pub.lineno for line in readback_lines):
                    yield self.finding(
                        module, pub,
                        "claim published without read-back verification "
                        "in this function; re-read the claim and compare "
                        "writer ids to learn who won the race (see "
                        "FingerprintStore.try_claim)",
                    )

    @staticmethod
    def _publishes_claim(module: ModuleInfo, call: ast.Call) -> bool:
        """A write-flavored call whose path argument speaks the claim
        vocabulary: ``_atomic_write_text(claim_path, ...)``,
        ``claim_path.write_text(...)``, ``os.replace(tmp, claim_path)``."""
        func = call.func
        write_name = None
        if isinstance(func, ast.Name):
            write_name = func.id
        elif isinstance(func, ast.Attribute):
            write_name = func.attr
        if write_name is None:
            return False
        low = write_name.lower()
        if not ("write" in low or "replace" in low or "publish" in low):
            return False
        subject_markers: set[str] = set()
        for arg in call.args:
            subject_markers |= module.flow.markers(arg)
        if isinstance(func, ast.Attribute):
            subject_markers |= module.flow.markers(func.value)
        return bool(subject_markers & {"claim", "claims", "lease"})

    def _reads_claim(self, module: ModuleInfo, call: ast.Call) -> bool:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        name_tokens = {t.lower() for t in name.split("_") if t}
        if not (name_tokens & self._READ_TOKENS):
            return False
        markers = module.flow.markers(call)
        return bool(markers & {"claim", "claims", "lease"})
