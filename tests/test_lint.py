"""repro.lint: every rule fires on a minimal bad fixture, stays silent on
the matching good fixture, the flow layer resolves aliases, suppressions
work and are registered count-exact, and the self-run on the whole
project tree is clean."""

from __future__ import annotations

import ast
import json
import re
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.lint import all_rule_classes, lint_paths
from repro.lint.cli import main as lint_main
from repro.lint.core import ModuleInfo

_REPO = Path(__file__).resolve().parent.parent


def lint_source(tmp_path: Path, *sources: str, select=None):
    """Write each source as its own module and lint the set."""
    paths = []
    for i, src in enumerate(sources):
        p = tmp_path / f"fixture_{i}.py"
        p.write_text(src)
        paths.append(p)
    return lint_paths(paths, select=select)


def rule_ids(report) -> list[str]:
    return [f.rule for f in report.unsuppressed]


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_has_all_families():
    ids = set(all_rule_classes())
    assert ids == {"DET001", "DET002", "DET003", "PICK002",
                   "NUM001", "NUM002", "NUM003", "NUM004"}
    for rule_id, cls in all_rule_classes().items():
        assert cls.id == rule_id
        assert cls.name and cls.rationale


def test_unknown_rule_id_rejected(tmp_path):
    with pytest.raises(KeyError):
        lint_source(tmp_path, "x = 1", select=["NOPE999"])


# ----------------------------------------------------------------------
# DET: determinism
# ----------------------------------------------------------------------
def test_det001_unseeded_random_fires(tmp_path):
    report = lint_source(tmp_path, (
        "import random\n"
        "import numpy as np\n"
        "a = random.randint(0, 9)\n"
        "b = np.random.rand(4)\n"
        "rng = np.random.default_rng()\n"
        "r = random.Random()\n"
    ))
    assert rule_ids(report).count("DET001") == 4


def test_det001_seeded_random_silent(tmp_path):
    report = lint_source(tmp_path, (
        "import random\n"
        "import numpy as np\n"
        "rng = np.random.default_rng(1234)\n"
        "r = random.Random(42)\n"
        "x = rng.integers(0, 9)\n"
        "y = r.randint(0, 9)\n"
    ))
    assert "DET001" not in rule_ids(report)


def test_det001_resolves_import_aliases(tmp_path):
    report = lint_source(tmp_path, (
        "from random import shuffle\n"
        "import numpy.random as npr\n"
        "shuffle([1, 2])\n"
        "npr.seed(0)\n"
    ))
    assert rule_ids(report).count("DET001") == 2


def test_det002_wall_clock_fires(tmp_path):
    report = lint_source(tmp_path, (
        "import time\n"
        "from datetime import datetime\n"
        "t = time.time()\n"
        "d = datetime.now()\n"
    ))
    assert rule_ids(report).count("DET002") == 2


def test_det002_monotonic_clocks_silent(tmp_path):
    report = lint_source(tmp_path, (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "t1 = time.perf_counter_ns()\n"
        "t2 = time.monotonic()\n"
    ))
    assert "DET002" not in rule_ids(report)


def test_det003_set_iteration_fires(tmp_path):
    report = lint_source(tmp_path, (
        "s = {3, 1, 2}\n"
        "for x in set([1, 2]):\n"
        "    print(x)\n"
        "order = list({'a', 'b'})\n"
        "pairs = [v for v in frozenset((1, 2))]\n"
    ))
    assert rule_ids(report).count("DET003") == 3


def test_det002_value_aliased_clock_fires(tmp_path):
    # regression: ``clock = time.time; clock()`` used to be invisible
    report = lint_source(tmp_path, (
        "import time\n"
        "clock = time.time\n"
        "t = clock()\n"
    ))
    assert rule_ids(report) == ["DET002"]


def test_det001_value_aliased_factory_fires(tmp_path):
    report = lint_source(tmp_path, (
        "import numpy as np\n"
        "factory = np.random.default_rng\n"
        "rng = factory()\n"
    ))
    assert rule_ids(report) == ["DET001"]


def test_det002_value_aliased_monotonic_silent(tmp_path):
    report = lint_source(tmp_path, (
        "import time\n"
        "clock = time.perf_counter\n"
        "t0 = clock()\n"
    ))
    assert "DET002" not in rule_ids(report)


def test_det_alias_shadowed_by_parameter_silent(tmp_path):
    # a parameter named like the alias has caller-side provenance
    report = lint_source(tmp_path, (
        "import time\n"
        "clock = time.time\n"
        "def elapsed(clock):\n"
        "    return clock()\n"
    ))
    assert "DET002" not in rule_ids(report)


def test_det003_sorted_iteration_silent(tmp_path):
    report = lint_source(tmp_path, (
        "for x in sorted(set([1, 2])):\n"
        "    print(x)\n"
        "order = sorted({'a', 'b'})\n"
        "ok = 3 in {1, 2, 3}\n"  # membership tests are order-free
    ))
    assert "DET003" not in rule_ids(report)


# ----------------------------------------------------------------------
# PICK: multiprocess safety
# ----------------------------------------------------------------------
def test_pick002_global_rebinding_fires(tmp_path):
    report = lint_source(tmp_path, (
        "COUNT = 0\n"
        "def worker(item):\n"
        "    global COUNT\n"
        "    COUNT += 1\n"
        "    return item\n"
    ))
    assert "PICK002" in rule_ids(report)


def test_pick002_parameter_passing_silent(tmp_path):
    report = lint_source(tmp_path, (
        "def worker(item, memo):\n"
        "    memo[item] = item * 2\n"
        "    return memo[item]\n"
    ))
    assert "PICK002" not in rule_ids(report)


# ----------------------------------------------------------------------
# flow layer: ModuleFlow provenance
# ----------------------------------------------------------------------
def _module(tmp_path: Path, source: str, name: str = "mod_a.py") -> ModuleInfo:
    p = tmp_path / name
    p.write_text(source)
    return ModuleInfo(p, str(p), source)


def test_flow_call_target_through_value_alias(tmp_path):
    m = _module(tmp_path, (
        "import time\n"
        "clock = time.time\n"
        "t = clock()\n"
    ))
    call = next(n for n in ast.walk(m.tree) if isinstance(n, ast.Call))
    assert m.flow.call_target(call) == "time.time"


def test_flow_parameter_shadows_module_alias(tmp_path):
    m = _module(tmp_path, (
        "import time\n"
        "clock = time.time\n"
        "def f(clock):\n"
        "    return clock()\n"
    ))
    call = next(n for n in ast.walk(m.tree) if isinstance(n, ast.Call))
    assert m.flow.call_target(call) is None


def test_flow_origin_kinds(tmp_path):
    m = _module(tmp_path, (
        "from repro.sim.store import FingerprintStore\n"
        "store = FingerprintStore('runs')\n"
        "copy = store\n"
        "out = copy\n"
        "n = 3\n"
    ))
    names = {n.id: n for n in ast.walk(m.tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    origin = m.flow.origin(names["copy"])
    assert origin.kind == "call"
    assert origin.path == "repro.sim.store.FingerprintStore"
    assert origin.is_call_to("repro.sim.store.FingerprintStore")
    # rebuild a Load use of ``n`` via the binding table instead
    binding = m.flow.binding_of("n", m.tree.body[-1])
    assert m.flow.origin(binding.value).kind == "const"


# ----------------------------------------------------------------------
# NUM: NumPy determinism
# ----------------------------------------------------------------------
def test_num001_unpinned_int_reduction_fires(tmp_path):
    report = lint_source(tmp_path, (
        "import numpy as np\n"
        "data = np.array([1, 2, 3])\n"
        "total = np.sum(data)\n"
        "big = np.sum(np.arange(10))\n"
    ))
    assert rule_ids(report).count("NUM001") == 2


def test_num001_pinned_or_float_silent(tmp_path):
    report = lint_source(tmp_path, (
        "import numpy as np\n"
        "data = np.array([1, 2, 3], dtype=np.int64)\n"
        "total = np.sum(data)\n"
        "floats = np.array([1.0, 2.0])\n"
        "t2 = np.sum(floats)\n"
        "t3 = np.sum(np.arange(10), dtype=np.int64)\n"
    ))
    assert "NUM001" not in rule_ids(report)


def test_num002_sum_over_set_fires(tmp_path):
    report = lint_source(tmp_path, (
        "vals = {0.5, 1.5}\n"
        "total = sum(vals)\n"
        "t2 = sum({1.0, 2.0})\n"
    ))
    assert rule_ids(report).count("NUM002") == 2


def test_num002_ordered_operands_silent(tmp_path):
    report = lint_source(tmp_path, (
        "vals = {0.5, 1.5}\n"
        "total = sum(sorted(vals))\n"
        "t2 = sum([1.0, 2.0])\n"
        "d = {'a': 1.0, 'b': 2.0}\n"
        "t3 = sum(d.values())\n"  # dicts iterate in insertion order
    ))
    assert "NUM002" not in rule_ids(report)


def test_num003_empty_read_before_write_fires(tmp_path):
    report = lint_source(tmp_path, (
        "import numpy as np\n"
        "def f(n):\n"
        "    acc = np.empty(n)\n"
        "    s = float(acc[0])\n"
        "    acc[0] = 1.0\n"
        "    return s\n"
    ))
    assert rule_ids(report) == ["NUM003"]


def test_num003_write_before_read_silent(tmp_path):
    report = lint_source(tmp_path, (
        "import numpy as np\n"
        "def g(n):\n"
        "    acc = np.empty(n)\n"
        "    acc.fill(0.0)\n"
        "    return acc[0]\n"
        "def h(n):\n"
        "    out = np.empty(n)\n"
        "    for i in range(n):\n"
        "        out[i] = i\n"
        "    return out.sum()\n"
    ))
    assert "NUM003" not in rule_ids(report)


def test_num004_default_argsort_fires(tmp_path):
    report = lint_source(tmp_path, (
        "import numpy as np\n"
        "def rank(keys):\n"
        "    a = np.argsort(keys)\n"
        "    b = keys.argsort()\n"
        "    return a, b\n"
    ))
    assert rule_ids(report).count("NUM004") == 2


def test_num004_stable_kinds_and_lexsort_silent(tmp_path):
    report = lint_source(tmp_path, (
        "import numpy as np\n"
        "def rank(keys, a, b):\n"
        "    x = np.argsort(keys, kind='stable')\n"
        "    y = keys.argsort(kind='mergesort')\n"
        "    z = np.lexsort((a, b))\n"
        "    return x, y, z\n"
    ))
    assert "NUM004" not in rule_ids(report)


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def test_same_line_suppression(tmp_path):
    report = lint_source(tmp_path, (
        "import time\n"
        "t = time.time()  # repro-lint: disable=DET002\n"
    ))
    assert report.ok
    assert len(report.findings) == 1 and report.findings[0].suppressed


def test_standalone_comment_suppresses_next_line(tmp_path):
    report = lint_source(tmp_path, (
        "import time\n"
        "# repro-lint: disable=DET002\n"
        "t = time.time()\n"
    ))
    assert report.ok and report.findings[0].suppressed


def test_disable_all_and_wrong_rule(tmp_path):
    report = lint_source(tmp_path, (
        "import time\n"
        "a = time.time()  # repro-lint: disable=all\n"
        "b = time.time()  # repro-lint: disable=DET001\n"  # wrong id
    ))
    assert [f.suppressed for f in report.findings] == [True, False]
    assert not report.ok


# ----------------------------------------------------------------------
# the self-run: the package must hold itself to these rules
# ----------------------------------------------------------------------
def test_self_run_on_repro_package_is_clean():
    pkg = Path(repro.__file__).parent
    report = lint_paths([pkg])
    assert report.errors == []
    assert report.unsuppressed == [], "\n".join(
        f.text() for f in report.unsuppressed)
    # the suppressions that do exist are deliberate and documented
    assert all(f.suppressed for f in report.findings)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_exit_codes_and_json(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")

    assert lint_main([str(good)]) == 0
    assert lint_main([str(bad)]) == 1
    assert lint_main([str(tmp_path / "missing.py")]) == 2
    assert lint_main(["--select", "NOPE1", str(good)]) == 2
    capsys.readouterr()

    assert lint_main(["--json", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files"] == 1 and not payload["ok"]
    assert payload["summary"] == {"DET002": 1}
    assert payload["findings"][0]["rule"] == "DET002"


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in all_rule_classes():
        assert rule_id in out


def test_cli_select_and_ignore(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    assert lint_main(["--select", "DET001", str(bad)]) == 0
    assert lint_main(["--ignore", "DET002", str(bad)]) == 0
    assert lint_main(["--select", "DET002", str(bad)]) == 1


def test_cli_reports_syntax_errors(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert lint_main([str(broken)]) == 1
    assert "parse error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# docs coupling: the catalog and the suppression register stay honest
# ----------------------------------------------------------------------
_TREE_DIRS = [_REPO / "src" / "repro", _REPO / "tests",
              _REPO / "benchmarks", _REPO / "examples"]


@pytest.fixture(scope="module")
def tree_report():
    """One lint run over the whole project tree, shared by the
    self-run and register tests."""
    return lint_paths([d for d in _TREE_DIRS if d.exists()])


def test_every_rule_documented_in_linting_md():
    doc = (_REPO / "docs" / "linting.md").read_text()
    for rule_id in all_rule_classes():
        assert rule_id in doc, (
            f"{rule_id} is registered but missing from docs/linting.md")


#: one suppression-register row: | `path` | RULE | count | why |
_REGISTER_ROW = re.compile(r"^\| `([^`]+)` \| ([A-Z]+\d+) \| (\d+) \|",
                           re.MULTILINE)


def test_every_suppression_registered_in_linting_md(tree_report):
    """The suppression ratchet: the inline suppressions per (file, rule)
    must equal the docs register's count column exactly, so adding or
    dropping one silently is a test failure, not a shrug."""
    doc = (_REPO / "docs" / "linting.md").read_text()
    register = {(m[1], m[2]): int(m[3])
                for m in _REGISTER_ROW.finditer(doc)}
    assert register, "docs/linting.md has no suppression register rows"
    found = Counter(
        (Path(f.path).resolve().relative_to(_REPO).as_posix(), f.rule)
        for f in tree_report.findings if f.suppressed)
    assert dict(found) == register


def test_self_run_on_project_tree_is_clean(tree_report):
    """src/repro, tests/, benchmarks/, and examples/ all hold themselves
    to the full rule set (modulo registered suppressions)."""
    assert tree_report.errors == []
    assert tree_report.unsuppressed == [], "\n".join(
        f.text() for f in tree_report.unsuppressed)
