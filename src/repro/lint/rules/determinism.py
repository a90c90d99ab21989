"""Determinism rules (DET).

The paper's flow-control and rate-matching results rest on bit-identical
re-execution: ``run_batch(specs, workers=N)`` promises the same counters
for any ``N``, the fingerprint store keys on a content hash of the spec, and
the determinism regression diffs ``Stats.sorted_dump`` across runs.  Any
unseeded RNG, wall-clock read, or set-iteration order reaching sim state
silently breaks all three.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import (
    Finding,
    ModuleInfo,
    Rule,
    register,
)

#: module-level ``random`` functions that draw from (or reseed) the hidden
#: global Mersenne Twister
_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "getrandbits", "randbytes", "seed",
}

#: legacy ``numpy.random`` module-level functions (hidden global RandomState)
_GLOBAL_NP_RANDOM_FNS = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "seed", "normal",
    "uniform", "standard_normal", "binomial", "poisson", "exponential",
}

#: wall-clock reads; monotonic host-profiling clocks (``perf_counter``,
#: ``monotonic``, ``process_time``) are deliberately allowed — they cannot
#: reach sim state because sim time is the engine's integer picoseconds
_WALL_CLOCK = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
    "datetime.datetime.today": "datetime.today()",
    "datetime.date.today": "date.today()",
}


@register
class UnseededRandomRule(Rule):
    id = "DET001"
    name = "unseeded-rng"
    rationale = (
        "module-level random/numpy.random draws use a hidden global RNG "
        "whose state depends on import order and process history; results "
        "stop being a pure function of the RunSpec"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        # flow-aware: resolves aliased imports AND value-aliased bindings
        # (``factory = np.random.default_rng; factory()``)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = module.flow.call_target(node)
            if target is None:
                continue
            msg = self._diagnose(target, node)
            if msg is not None:
                yield self.finding(module, node, msg)

    def _diagnose(self, target: str, node: ast.Call) -> "str | None":
        unseeded = not node.args and not node.keywords
        if target.startswith("random."):
            fn = target.split(".", 1)[1]
            if fn in _GLOBAL_RANDOM_FNS:
                return (f"{target}() draws from the process-global RNG; use a "
                        "per-spec-seeded random.Random(seed) instance")
            if fn == "Random" and unseeded:
                return ("random.Random() without a seed is entropy-seeded; "
                        "pass the spec's seed")
        if target.startswith("numpy.random."):
            fn = target.split(".", 2)[2]
            if fn in _GLOBAL_NP_RANDOM_FNS:
                return (f"{target}() uses numpy's global RandomState; use a "
                        "per-spec-seeded numpy.random.default_rng(seed)")
            if fn in ("default_rng", "RandomState", "Generator") and unseeded:
                return (f"{target}() without a seed is entropy-seeded; "
                        "pass the spec's seed")
        return None


@register
class WallClockRule(Rule):
    id = "DET002"
    name = "wall-clock-read"
    rationale = (
        "wall-clock reads differ across runs and hosts; elapsed-time "
        "reporting should use the monotonic time.perf_counter(), and "
        "simulated time is engine.now (integer picoseconds)"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = module.flow.call_target(node)
            if target in _WALL_CLOCK:
                yield self.finding(
                    module, node,
                    f"wall-clock read {_WALL_CLOCK[target]}; use the "
                    "monotonic time.perf_counter() for host elapsed time "
                    "(or engine.now for simulated time)",
                )


def _is_set_expr(node: ast.AST, module: "ModuleInfo | None" = None) -> bool:
    """Set display, set comprehension, a set()/frozenset() call, or (with
    flow) a name bound to one (``s = set(xs); for x in s``)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if module is not None and isinstance(node, ast.Name):
        origin = module.flow.origin(node)
        if origin.is_call_to("set", "frozenset"):
            return True
        if origin.node is not None and isinstance(origin.node,
                                                  (ast.Set, ast.SetComp)):
            return True
    return False


@register
class SetIterationRule(Rule):
    id = "DET003"
    name = "set-iteration-order"
    rationale = (
        "set iteration order depends on insertion history and hash "
        "randomization; iterating one into sim state (or into an ordered "
        "container) leaks that order — wrap in sorted()"
    )

    _ORDER_SENSITIVE_WRAPPERS = {"list", "tuple", "enumerate"}
    #: consumers whose result does not depend on iteration order — a
    #: comprehension fed straight into one of these is fine
    _ORDER_INSENSITIVE_SINKS = {
        "sorted", "set", "frozenset", "sum", "min", "max", "len",
        "any", "all", "dict",
    }

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (isinstance(node, (ast.For, ast.AsyncFor))
                    and _is_set_expr(node.iter, module)):
                yield self.finding(
                    module, node.iter,
                    "iteration over a set has nondeterministic order; "
                    "iterate sorted(...) instead",
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                if self._order_insensitive_sink(module, node):
                    continue
                for gen in node.generators:
                    if _is_set_expr(gen.iter, module):
                        yield self.finding(
                            module, gen.iter,
                            "comprehension over a set has nondeterministic "
                            "order; iterate sorted(...) instead",
                        )
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in self._ORDER_SENSITIVE_WRAPPERS
                  and node.args and _is_set_expr(node.args[0], module)):
                yield self.finding(
                    module, node,
                    f"{node.func.id}() of a set captures nondeterministic "
                    "order; use sorted(...) instead",
                )

    def _order_insensitive_sink(self, module: ModuleInfo,
                                node: ast.AST) -> bool:
        parent = module.flow.parents.get(id(node))
        return (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in self._ORDER_INSENSITIVE_SINKS
                and node in parent.args)
