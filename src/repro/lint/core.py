"""Framework for the simulator-aware static analysis pass.

The linter is the static counterpart of the runtime sanitizer
(:mod:`repro.sanitize`): it checks the properties no simulated run can
see — determinism of the campaign, store and report code that no golden
digest pins, global mutation under worker fan-out, and NumPy platform
determinism.

Structure
---------
* :class:`Finding` — one structured diagnostic (rule id, location,
  message, suppressed flag).
* :class:`Rule` — base class; subclasses register themselves with
  :func:`register` and see each parsed module via
  :meth:`Rule.check_module`.
* :class:`ModuleFlow` — an intraprocedural view of one module (import
  aliases, per-scope binding tables, value provenance as
  :class:`Origin`, parent links), which lets rules see through aliased
  imports and value-aliased bindings (``clock = time.time; clock()``).
* :class:`LintRunner` — walks ``.py`` files, parses them once, runs every
  selected rule on each module, applies inline suppressions, and returns
  a :class:`LintReport`.

Suppressions
------------
``# repro-lint: disable=RULE1,RULE2`` as a trailing comment suppresses
those rules on that line; on a line of its own it suppresses them on the
next line.  ``disable=all`` suppresses every rule.  Suppressed findings
are retained (so ``--show-suppressed`` can audit them) but do not fail
the run.
"""

from __future__ import annotations

import ast
import builtins
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\-\s]+)")


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule."""

    rule: str  #: rule id, e.g. ``"DET002"``
    path: str  #: file the finding is in (as given on the command line)
    line: int  #: 1-based line number
    col: int  #: 0-based column offset
    message: str
    suppressed: bool = False  #: matched an inline ``repro-lint: disable``

    def text(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{tag}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
        }


class ModuleInfo:
    """One parsed source file plus its suppression table."""

    def __init__(self, path: Path, display_path: str, source: str):
        self.path = path
        self.display_path = display_path
        self.source = source
        self.tree = ast.parse(source, filename=display_path)
        #: line number -> set of rule ids (or ``{"all"}``) disabled there
        self.suppressions: dict[int, set[str]] = _parse_suppressions(source)
        #: dotted import name derived from the package layout on disk
        self.module_name = module_name_for(path)
        self._flow: "Optional[ModuleFlow]" = None

    @property
    def flow(self) -> "ModuleFlow":
        """The module's intraprocedural dataflow view (built lazily)."""
        if self._flow is None:
            self._flow = ModuleFlow(self)
        return self._flow

    def suppressed(self, rule: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        return rules is not None and ("all" in rules or rule in rules)


def module_name_for(path: Path) -> str:
    """Dotted module name from the on-disk package layout: walk up while
    ``__init__.py`` siblings exist (``src/repro/sim/store.py`` ->
    ``repro.sim.store``); a file outside any package is just its stem."""
    path = Path(path)
    parts = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        if parent.parent == parent:
            break
        parent = parent.parent
    return ".".join(reversed(parts)) or path.stem


def _parse_suppressions(source: str) -> dict[int, set[str]]:
    table: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _SUPPRESS_RE.search(tok.string)
            if m is None:
                continue
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            line = tok.start[0]
            table.setdefault(line, set()).update(rules)
            if tok.line.lstrip().startswith("#"):
                # a comment-only line also covers the line below it
                table.setdefault(line + 1, set()).update(rules)
    except tokenize.TokenError:  # pragma: no cover - ast.parse catches first
        pass
    return table


class Rule:
    """Base class: subclasses set ``id``/``name``/``rationale`` and
    override :meth:`check_module`."""

    id: str = ""
    name: str = ""
    rationale: str = ""

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        return iter(())

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


#: rule id -> rule class (populated by :func:`register` at import time)
REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: add a rule to the global registry."""
    if not cls.id:
        raise ValueError(f"{cls.__name__} has no rule id")
    if cls.id in REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    REGISTRY[cls.id] = cls
    return cls


def all_rule_classes() -> dict[str, type[Rule]]:
    """The registry with every built-in rule module imported."""
    import repro.lint.rules  # noqa: F401  (imports populate REGISTRY)

    return dict(REGISTRY)


# ----------------------------------------------------------------------
# AST helpers behind ModuleFlow
# ----------------------------------------------------------------------
def root_name(node: ast.AST) -> Optional[str]:
    """The leftmost Name an expression hangs off (through attribute,
    subscript, and call chains): ``self`` for ``self.shadow.get(x)``."""
    while True:
        if isinstance(node, ast.Attribute):
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Starred):
            node = node.value
        elif isinstance(node, ast.Name):
            return node.id
        else:
            return None


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> canonical dotted module/attribute path for every
    top-level import (``np`` -> ``numpy``, ``randint`` ->
    ``random.randint``)."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for a in node.names:
                if a.name == "*":
                    continue
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


# ----------------------------------------------------------------------
# per-module dataflow
# ----------------------------------------------------------------------
#: provenance kinds produced by :meth:`ModuleFlow.origin`
#: ``ref``     an import-rooted dotted path (``clock = time.time``)
#: ``def``     a function/class defined in this module
#: ``call``    the value returned by a call (``p = claim_path(fp)``)
#: ``param``   a parameter of the enclosing function
#: ``const``   a literal constant
#: ``expr``    some other expression (BinOp, comprehension, ...)
#: ``unknown`` an opaque binding (loop target, ``with ... as``, ...)
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


@dataclass(frozen=True)
class Origin:
    """Where a value came from, as far as one function can tell."""

    kind: str
    path: Optional[str] = None  #: canonical dotted path (ref/def/call)
    node: Optional[ast.AST] = None  #: the defining value expression

    def is_call_to(self, *paths: str) -> bool:
        return self.kind == "call" and self.path in paths


@dataclass(frozen=True)
class Binding:
    """One assignment of a name within a scope."""

    name: str
    lineno: int
    value: Optional[ast.expr]  #: None for opaque bindings (loop vars, ...)


#: names resolvable to themselves when nothing shadows them (so rules can
#: match ``set``/``open``/``sum`` canonically, same as imported targets)
_BUILTIN_NAMES = frozenset(dir(builtins))


class ModuleFlow:
    """Intraprocedural dataflow for one module: per-scope binding tables,
    parent links, and provenance queries.  This is what lets rules see
    through value-aliased bindings and recognise what produced a value."""

    #: resolution depth bound for alias chains (a = b; b = c; ...)
    MAX_DEPTH = 6

    def __init__(self, module: ModuleInfo):
        self.module = module
        self.aliases = import_aliases(module.tree)
        #: id(child) -> parent node, for scope lookup
        self.parents: dict[int, ast.AST] = {}
        #: id(scope node) -> name -> [Binding, ...] in line order
        self._bindings: dict[int, dict[str, list[Binding]]] = {}
        #: id(scope node) -> set of parameter names
        self._params: dict[int, set[str]] = {}
        #: module-level function/class defs by name
        self.top_defs: dict[str, ast.AST] = {}

        for node in ast.walk(module.tree):
            for child in ast.iter_child_nodes(node):
                self.parents[id(child)] = node
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self.top_defs[stmt.name] = stmt
        for node in ast.walk(module.tree):
            if isinstance(node, _SCOPE_NODES):
                a = node.args
                names = {p.arg for p in (a.posonlyargs + a.args + a.kwonlyargs)}
                if a.vararg:
                    names.add(a.vararg.arg)
                if a.kwarg:
                    names.add(a.kwarg.arg)
                self._params[id(node)] = names
            self._collect_bindings(node)

    # -- binding collection --------------------------------------------
    def _collect_bindings(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                self._bind_target(tgt, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._bind_target(node.target, node.value)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._bind_target(node.target, None)  # opaque: loop-carried
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    # ``with open(p) as f``: provenance is the ctx manager
                    self._bind_target(item.optional_vars, item.context_expr)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            scope = self.scope_of(node)
            self._scope_table(scope).setdefault(node.name, []).append(
                Binding(node.name, node.lineno, None))
        elif isinstance(node, (ast.NamedExpr,)):
            if isinstance(node.target, ast.Name):
                self._bind_target(node.target, node.value)

    def _bind_target(self, tgt: ast.expr, value: Optional[ast.expr]) -> None:
        if isinstance(tgt, (ast.Tuple, ast.List)):
            for elt in tgt.elts:
                self._bind_target(elt, None)  # unpacking: opaque pieces
        elif isinstance(tgt, ast.Name):
            scope = self.scope_of(tgt)
            self._scope_table(scope).setdefault(tgt.id, []).append(
                Binding(tgt.id, tgt.lineno, value))

    def _scope_table(self, scope: ast.AST) -> dict[str, list[Binding]]:
        return self._bindings.setdefault(id(scope), {})

    # -- scope navigation ----------------------------------------------
    def scope_of(self, node: ast.AST) -> ast.AST:
        """The innermost function (or the module) enclosing ``node``."""
        cur = self.parents.get(id(node))
        while cur is not None:
            if isinstance(cur, _SCOPE_NODES):
                return cur
            cur = self.parents.get(id(cur))
        return self.module.tree

    def _scope_chain(self, scope: ast.AST) -> list[ast.AST]:
        chain = [scope]
        while not isinstance(chain[-1], ast.Module):
            nxt = self.scope_of(chain[-1])
            chain.append(nxt)
        return chain

    def binding_of(self, name: str, at: ast.AST) -> Optional[Binding]:
        """The binding of ``name`` visible at node ``at``: the last
        assignment at or before ``at``'s line in the innermost scope that
        has one (params shadow outer scopes and report no binding)."""
        line = getattr(at, "lineno", None)
        for scope in self._scope_chain(self.scope_of(at)):
            if name in self._params.get(id(scope), ()):
                return None  # a parameter: provenance is the caller's
            bindings = self._bindings.get(id(scope), {}).get(name)
            if bindings:
                before = [b for b in bindings
                          if line is None or b.lineno <= line]
                return (before or bindings)[-1]
        return None

    # -- provenance ----------------------------------------------------
    def canonical(self, expr: ast.AST, _depth: int = 0) -> Optional[str]:
        """The canonical dotted path of a name/attribute chain, resolved
        through import aliases, value-aliased bindings, and module-level
        defs: ``clock = time.time; clock`` -> ``"time.time"``."""
        if _depth > self.MAX_DEPTH:
            return None
        parts: list[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        tail = list(reversed(parts))
        origin = self._resolve_name(node, _depth)
        if origin is None or origin.kind not in ("ref", "def"):
            return None
        return ".".join([origin.path] + tail) if tail else origin.path

    def _resolve_name(self, node: ast.Name, _depth: int) -> Optional[Origin]:
        binding = self.binding_of(node.id, node)
        if binding is not None:
            if binding.value is None:
                return Origin("unknown")
            return self.origin(binding.value, _depth + 1)
        base = self.aliases.get(node.id)
        if base is not None:
            return Origin("ref", base)
        if node.id in self.top_defs:
            return Origin("def", f"{self.module.module_name}.{node.id}",
                          self.top_defs[node.id])
        if node.id in _BUILTIN_NAMES:
            return Origin("ref", node.id)
        return None

    def origin(self, expr: ast.AST, _depth: int = 0) -> Origin:
        """Provenance of an arbitrary expression (see the kinds above)."""
        if _depth > self.MAX_DEPTH:
            return Origin("unknown")
        if isinstance(expr, ast.Call):
            return Origin("call", self.canonical(expr.func, _depth), expr)
        if isinstance(expr, ast.Constant):
            return Origin("const", None, expr)
        if isinstance(expr, (ast.Name, ast.Attribute)):
            path = self.canonical(expr, _depth)
            if path is not None:
                return Origin("ref", path, expr)
            root = root_name(expr)
            if root is not None:
                if root in self._params.get(id(self.scope_of(expr)), ()):
                    return Origin("param", root, expr)
                binding = self.binding_of(root, expr)
                if binding is not None and binding.value is not None:
                    if isinstance(expr, ast.Name):
                        return self.origin(binding.value, _depth + 1)
                    # attribute of a tracked value: keep the base's origin
                    base = self.origin(binding.value, _depth + 1)
                    return Origin("expr", base.path, expr)
            return Origin("unknown", None, expr)
        return Origin("expr", None, expr)

    def call_target(self, call: ast.Call) -> Optional[str]:
        """Canonical dotted path of a call's target, through aliases and
        value bindings; None when unresolvable."""
        return self.canonical(call.func)


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files: int = 0
    errors: list[str] = field(default_factory=list)  #: unparsable files

    @property
    def unsuppressed(self) -> list[Finding]:
        """Findings that fail the run."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def ok(self) -> bool:
        return not self.unsuppressed and not self.errors

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.unsuppressed:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict:
        return {
            "files": self.files,
            "ok": self.ok,
            "errors": list(self.errors),
            "summary": self.by_rule(),
            "suppressed": sum(1 for f in self.findings if f.suppressed),
            "findings": [f.to_dict() for f in self.findings],
        }


def iter_py_files(paths: Iterable[Path]) -> list[tuple[Path, str]]:
    """Expand files/directories into (path, display_path) pairs, sorted
    for deterministic output."""
    out: list[tuple[Path, str]] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                out.append((f, str(f)))
        else:
            out.append((p, str(p)))
    return out


class LintRunner:
    def __init__(
        self,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ):
        classes = all_rule_classes()
        wanted = set(select) if select else set(classes)
        wanted -= set(ignore or ())
        unknown = wanted - set(classes)
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        self.rules: list[Rule] = [classes[rid]() for rid in sorted(wanted)]

    def run(self, paths: Iterable[Path]) -> LintReport:
        report = LintReport()
        modules: list[ModuleInfo] = []
        for path, display in iter_py_files(paths):
            try:
                source = path.read_text()
                modules.append(ModuleInfo(path, display, source))
            except (OSError, SyntaxError, ValueError) as exc:
                report.errors.append(f"{display}: {exc}")
        report.files = len(modules)

        for module in modules:
            for rule in self.rules:
                for f in rule.check_module(module):
                    if module.suppressed(f.rule, f.line):
                        f = Finding(f.rule, f.path, f.line, f.col, f.message,
                                    suppressed=True)
                    report.findings.append(f)
        report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return report


def lint_paths(
    paths: Iterable[Path],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint files/directories with the selected rules (default: all)."""
    return LintRunner(select=select, ignore=ignore).run(paths)
