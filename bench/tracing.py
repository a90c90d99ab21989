"""Outside-in instrumentation for the benchmark's traced pass.

Everything here is installed from the benchmark's side: timing wrappers
on public entry points of the simulator (resolved by name when the pass
starts) and one engine observer attached through the public
:func:`repro.engine.observer.attach_observer`.  Nothing in ``src/`` is
edited, and :meth:`Tracer.uninstall` puts every attribute back.

Recording model
---------------
* Every timed region is a *frame* on one stack: a wrapped call, a
  delivered engine callback, or a span the benchmark opens around its own
  calls.  A frame's **self time** is its duration minus the durations of
  the frames opened inside it, so the self times of all frames add up to
  the root frame's duration exactly (integer nanoseconds).
* Per-event frames (engine callbacks, prefetch/DRAM accesses, store
  record reads and writes) are only aggregated as count, total and self
  per key.
* Coarse frames (per spec and per public call) are also kept as spans
  ``(name, key, start, end, parent)`` and written as Chrome-trace JSON.

``ExecOptions(trace=True)`` is deliberately not used: it adds sampler
events (changing the event count) and traced specs bypass the store.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro.engine.observer import attach_observer, detach_observer

_now = time.perf_counter_ns

_STORE = "repro.sim.store"

#: (module, attribute path, frame key, coarse) of every wrapped entry point
TARGETS = (
    ("repro.workloads.base", "Workload.build", "workloads.build", True),
    ("repro.workloads.base", "BuiltWorkload.validate", "workloads.validate", True),
    ("repro.isa.vector", "execute", "isa.vector.execute", True),
    ("repro.isa.vector", "execute_simt", "isa.vector.execute_simt", True),
    ("repro.engine.events", "Engine.run", "engine.run", True),
    ("repro.mem.prefetch_buffer", "PrefetchBuffer.demand_access",
     "mem.prefetch_buffer.demand", False),
    ("repro.mem.prefetcher", "SequentialPrefetcher.demand_access",
     "mem.prefetcher.demand", False),
    ("repro.mem.prefetcher", "SequentialPrefetcher.demand_access_multi",
     "mem.prefetcher.demand", False),
    ("repro.dram.controller", "MemoryController.access", "dram.access", False),
    (_STORE, "FingerprintStore.__init__", "sim.store.open", True),
    (_STORE, "FingerprintStore.refresh", "sim.store.refresh", True),
    (_STORE, "FingerprintStore.get", "sim.store.get", False),
    (_STORE, "FingerprintStore.get_spec", "sim.store.get_spec", False),
    (_STORE, "FingerprintStore.put", "sim.store.put", False),
    (_STORE, "FingerprintStore.try_claim", "sim.store.try_claim", False),
    (_STORE, "FingerprintStore.release_claim", "sim.store.release_claim", False),
    (_STORE, "FingerprintStore.write_manifest", "sim.store.write_manifest", True),
    (_STORE, "FingerprintStore.write_index", "sim.store.write_index", True),
    (_STORE, "FingerprintStore.compact", "sim.store.compact", True),
    ("repro.sim.campaign", "run_campaign", "sim.campaign", True),
)

#: engine callbacks are charged to the ``repro.<layer>`` package that
#: defines them; anything else lands in ``other.callback``
CALLBACK_LAYERS = ("core", "arch", "mem", "dram", "engine")

#: frame key -> per-layer metric carrying its self time.  Together these
#: partition the traced wall; ``bench`` (the benchmark's own frames) is
#: the unattributed remainder.
SELF_METRICS = {
    "workloads.build": "workloads.build_s",
    "workloads.validate": "workloads.validate_s",
    "isa.vector.execute": "isa.vector.execute_s",
    "isa.vector.execute_simt": "isa.vector.execute_simt_s",
    "engine.run": "engine.self_s",
    "core.callback": "core.callback_s",
    "arch.callback": "arch.callback_s",
    "mem.callback": "mem.callback_s",
    "dram.callback": "dram.callback_s",
    "engine.callback": "engine.callback_s",
    "other.callback": "other.callback_s",
    "mem.prefetch_buffer.demand": "mem.prefetch_buffer.demand_s",
    "mem.prefetcher.demand": "mem.prefetcher.demand_s",
    "dram.access": "dram.access_s",
    "sim.store.open": "sim.store.read_s",
    "sim.store.refresh": "sim.store.read_s",
    "sim.store.get": "sim.store.read_s",
    "sim.store.get_spec": "sim.store.read_s",
    "sim.store.put": "sim.store.write_s",
    "sim.store.try_claim": "sim.store.write_s",
    "sim.store.release_claim": "sim.store.write_s",
    "sim.store.write_manifest": "sim.store.write_s",
    "sim.store.write_index": "sim.store.write_s",
    "sim.store.compact": "sim.store.compact_s",
    "sim.campaign": "sim.campaign.self_s",
    "sim.driver": "sim.driver.self_s",
    "experiments": "experiments.self_s",
    "bench": "trace.unattributed_s",
}

#: frame key -> per-layer metric carrying its call count
COUNT_METRICS = {
    "workloads.build": "workloads.build_calls",
    "isa.vector.execute": "isa.vector.calls",
    "isa.vector.execute_simt": "isa.vector.calls",
    "core.callback": "core.callbacks",
    "arch.callback": "arch.callbacks",
    "mem.callback": "mem.callbacks",
    "dram.callback": "dram.callbacks",
    "engine.callback": "engine.callbacks",
    "other.callback": "other.callbacks",
    "mem.prefetch_buffer.demand": "mem.prefetch_buffer.demand_calls",
    "mem.prefetcher.demand": "mem.prefetcher.demand_calls",
    "dram.access": "dram.access_calls",
    "sim.store.put": "sim.store.put_calls",
    "sim.store.get": "sim.store.get_calls",
    "sim.store.try_claim": "sim.store.claim_calls",
}


def _resolve(module: str, path: str):
    """(owner, attribute name) for ``module`` + dotted ``path``."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    getattr(owner, attr)  # AttributeError when the entry point is gone
    return owner, attr


def _repro_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")]


def _code_of(fn):
    return getattr(getattr(fn, "__func__", fn), "__code__", None)


class Tracer:
    """One traced pass: a frame stack, per-key aggregates, coarse spans.

    Use as a context manager (``with Tracer() as tracer: ...``) so the
    wrappers are removed even when the traced code raises."""

    def __init__(self) -> None:
        #: open frames: [key, start_ns, child_ns, span index or -1]
        self._stack: list[list] = []
        self.self_ns: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        #: coarse spans: [name, key, start_ns, end_ns, parent span index]
        self.spans: list[list] = []
        self._open_span = -1
        self.events = 0  #: engine callbacks delivered
        self.store_wait_ns = 0  #: store wall minus store thread CPU
        self.stolen = 0  #: Σ CampaignReport.stolen
        self._in_store = False
        self._callback_keys: dict[object, str] = {}
        #: (owner, attribute, previous value or None, owned) per patch
        self._patches: list[tuple] = []
        #: (wrapper, original) per wrapped module-level function
        self._functions: list[tuple] = []
        #: targets that could not be resolved (entry point renamed/removed)
        self.missing: list[str] = []

    # ------------------------------------------------------------------
    # frames
    # ------------------------------------------------------------------
    def enter(self, key: str, name: "str | None" = None) -> int:
        """Open a frame; a ``name`` also records a coarse span.  Returns
        the stack depth before the frame, for :meth:`unwind`."""
        depth = len(self._stack)
        start = _now()
        index = -1
        if name is not None:
            index = len(self.spans)
            self.spans.append([name, key, start, start, self._open_span])
            self._open_span = index
        self._stack.append([key, start, 0, index])
        return depth

    def exit(self) -> None:
        key, start, child, index = self._stack.pop()
        end = _now()
        dur = end - start
        self.self_ns[key] = self.self_ns.get(key, 0) + dur - child
        self.total_ns[key] = self.total_ns.get(key, 0) + dur
        self.calls[key] = self.calls.get(key, 0) + 1
        if self._stack:
            self._stack[-1][2] += dur
        if index >= 0:
            span = self.spans[index]
            span[3] = end
            self._open_span = span[4]

    def unwind(self, depth: int) -> None:
        """Close every frame above ``depth`` (a callback that raised never
        reaches ``on_return``, so its frame is closed here)."""
        while len(self._stack) > depth:
            self.exit()

    @contextmanager
    def span(self, name: str, key: str = "bench"):
        depth = self.enter(key, name)
        try:
            yield
        finally:
            self.unwind(depth)

    # ------------------------------------------------------------------
    # engine callbacks
    # ------------------------------------------------------------------
    def on_deliver(self, ev) -> None:
        fn = ev.fn
        key = self._callback_keys.get(_code_of(fn)) or self.callback_key(fn)
        self.events += 1
        self._stack.append([key, _now(), 0, -1])

    def on_return(self, ev) -> None:
        self.exit()

    def callback_key(self, fn) -> str:
        """``<layer>.callback`` for the ``repro`` package defining ``fn``
        (memoised per code object, so closures share one entry)."""
        inner = getattr(fn, "func", fn)  # functools.partial
        inner = getattr(inner, "__func__", inner)
        parts = (getattr(inner, "__module__", None) or "").split(".")
        layer = parts[1] if len(parts) > 1 and parts[0] == "repro" else ""
        key = f"{layer if layer in CALLBACK_LAYERS else 'other'}.callback"
        code = _code_of(fn)
        if code is not None:
            self._callback_keys[code] = key
        return key

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every resolvable target.  A module-level function is also
        replaced wherever a loaded ``repro`` module imported it by name,
        so ``from repro.sim.campaign import run_campaign`` call sites see
        the wrapper too."""
        # import the call sites first, so their by-name imports are found
        importlib.import_module("repro.api")
        importlib.import_module("repro.experiments.runner")
        for module, path, key, coarse in TARGETS:
            try:
                owner, attr = _resolve(module, path)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, key, path if coarse else None)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            self._functions.append((wrapper, original))
            for mod in _repro_modules():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        owned = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), owned))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, then replace any function
        wrapper that a module imported by name while the pass ran."""
        for owner, attr, previous, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)
        self._patches.clear()
        for wrapper, original in self._functions:
            for mod in _repro_modules():
                for name, value in list(vars(mod).items()):
                    if value is wrapper:
                        setattr(mod, name, original)
        self._functions.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, original, key: str, name: "str | None"):
        tracer = self
        if key == "engine.run":
            def wrapper(engine, *args, **kwargs):
                attach_observer(engine, tracer)
                depth = tracer.enter(key, name)
                try:
                    return original(engine, *args, **kwargs)
                finally:
                    tracer.unwind(depth)
                    detach_observer(engine, tracer)
        elif key.startswith("sim.store."):
            def wrapper(*args, **kwargs):
                outer = not tracer._in_store
                if outer:
                    tracer._in_store = True
                    cpu0, wall0 = time.thread_time_ns(), _now()
                depth = tracer.enter(key, name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.unwind(depth)
                    if outer:
                        wall = _now() - wall0
                        cpu = time.thread_time_ns() - cpu0
                        tracer.store_wait_ns += max(wall - cpu, 0)
                        tracer._in_store = False
        elif key == "sim.campaign":
            def wrapper(*args, **kwargs):
                depth = tracer.enter(key, name)
                try:
                    report = original(*args, **kwargs)
                finally:
                    tracer.unwind(depth)
                tracer.stolen += getattr(report, "stolen", 0)
                return report
        else:
            def wrapper(*args, **kwargs):
                depth = tracer.enter(key, name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.unwind(depth)
        return functools.wraps(original)(wrapper)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics aggregated from the frames (seconds, counts).
        Every self-time metric plus ``trace.unattributed_s`` sums to the
        root frame's duration."""
        out: dict[str, float] = dict.fromkeys(SELF_METRICS.values(), 0.0)
        out.update(dict.fromkeys(COUNT_METRICS.values(), 0))
        for key, ns in self.self_ns.items():
            out[SELF_METRICS[key]] += ns / 1e9
        for key, n in self.calls.items():
            if key in COUNT_METRICS:
                out[COUNT_METRICS[key]] += n
        engine_self = self.self_ns.get("engine.run", 0)
        out["engine.events"] = self.events
        out["engine.run_s"] = self.total_ns.get("engine.run", 0) / 1e9
        out["engine.ns_per_event"] = engine_self / self.events if self.events else 0.0
        out["sim.store.wait_s"] = self.store_wait_ns / 1e9
        out["sim.campaign.stolen"] = self.stolen
        return out

    def chrome_trace(self) -> dict:
        """Coarse spans as Chrome trace-event JSON (chrome://tracing,
        ui.perfetto.dev); per-key aggregates ride along in ``otherData``."""
        t0 = self.spans[0][2] if self.spans else 0
        events = [{
            "name": name, "cat": key, "ph": "X", "pid": 1, "tid": 1,
            "ts": (start - t0) / 1e3, "dur": (end - start) / 1e3,
            "args": {"parent": self.spans[parent][0] if parent >= 0 else None},
        } for name, key, start, end, parent in self.spans]
        aggregates = {key: {"calls": self.calls[key],
                            "total_s": self.total_ns[key] / 1e9,
                            "self_s": self.self_ns[key] / 1e9}
                      for key in sorted(self.calls)}
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"aggregates": aggregates}}

    def write_chrome_trace(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()))
        return path
