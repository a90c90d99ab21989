"""repro.lint — simulator-aware static analysis.

The static counterpart of the runtime sanitizer (:mod:`repro.sanitize`):
AST-based rules for the properties no simulated run can check —
determinism of campaign/store/report code (DET*), worker global mutation
(PICK*), and NumPy platform determinism (NUM*).

Run it as ``python -m repro.lint [paths]`` or ``repro-lint`` (installed
entry point).  See ``docs/linting.md`` for the rule catalog and
suppression syntax.
"""

from repro.lint.core import (
    Finding,
    LintReport,
    LintRunner,
    REGISTRY,
    Rule,
    all_rule_classes,
    lint_paths,
    register,
)

__all__ = [
    "Finding",
    "LintReport",
    "LintRunner",
    "REGISTRY",
    "Rule",
    "all_rule_classes",
    "lint_paths",
    "register",
]
