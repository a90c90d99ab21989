"""Command-line front end for :mod:`repro.lint`.

Examples::

    python -m repro.lint                 # lint the repro package itself
    python -m repro.lint src/repro tests
    python -m repro.lint --json src/repro
    python -m repro.lint --list-rules
    repro-lint --select DET001,DET002 src/repro
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.core import all_rule_classes, lint_paths


def _default_paths() -> list[Path]:
    """``src/repro`` when run from a checkout, else the installed package."""
    checkout = Path("src/repro")
    if checkout.is_dir():
        return [checkout]
    import repro

    return [Path(repro.__file__).parent]


def _split_ids(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Simulator-aware static analysis: determinism (DET), "
        "worker global mutation (PICK), and NumPy determinism (NUM) "
        "(see docs/linting.md).",
    )
    p.add_argument("paths", nargs="*", type=Path,
                   help="files or directories to lint "
                   "(default: src/repro, or the installed repro package)")
    p.add_argument("--json", action="store_true",
                   help="emit findings as a JSON object on stdout")
    p.add_argument("--select", type=_split_ids, metavar="IDS", default=None,
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--ignore", type=_split_ids, metavar="IDS", default=None,
                   help="comma-separated rule ids to skip")
    p.add_argument("--show-suppressed", action="store_true",
                   help="also print findings silenced by inline "
                   "'# repro-lint: disable=...' comments")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    return p


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule_id, cls in sorted(all_rule_classes().items()):
            print(f"{rule_id}  {cls.name}")
            print(f"    {cls.rationale}")
        return 0

    paths = args.paths or _default_paths()
    for p in paths:
        if not p.exists():
            print(f"error: no such path: {p}", file=sys.stderr)
            return 2
    try:
        report = lint_paths(paths, select=args.select, ignore=args.ignore)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        shown = (report.findings if args.show_suppressed
                 else report.unsuppressed)
        for f in shown:
            print(f.text())
        for err in report.errors:
            print(f"parse error: {err}", file=sys.stderr)
        n = len(report.unsuppressed)
        n_sup = len(report.findings) - n
        summary = ", ".join(f"{r} x{c}" for r, c in report.by_rule().items())
        print(f"{n} finding(s) ({n_sup} suppressed) across "
              f"{report.files} file(s)" + (f": {summary}" if summary else ""))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
