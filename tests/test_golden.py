"""Golden digests: every arch x workload reproduces its committed outcome.

``bench/expected/campaign-store.json`` records, per campaign seed, the
sha256 of :func:`~repro.sim.store.canonical_result_blob` for every spec
the ``campaign-store`` benchmark simulates: all 9 arches x 8 workloads at
256 records, seeds ``s`` and ``s + 1``, on the vector backend.  The
backends are bit-identical, so the reference interpreter must reproduce
the very same digests.  Observer hooks are read-only, so a run with the
sanitizer and the tracer attached must reproduce them too.

``tests/test_backends.py`` proves the backends agree with each other;
only these committed digests prove neither one drifted.  The file has a
single writer, ``python3 bench/run.py --update-expected``: a digest
change is a change in what the simulator computes and must be explained.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro import api
from repro.sim.store import canonical_result_blob

EXPECTED = (Path(__file__).resolve().parents[1]
            / "bench" / "expected" / "campaign-store.json")

#: ``str(RunSpec)`` of a vector-backend spec, e.g.
#: ``gpgpu/count[n=256,seed=0,backend=vector]``
_KEY = re.compile(r"(?P<arch>[^/]+)/(?P<workload>[^\[]+)"
                  r"\[n=(?P<n>\d+),seed=(?P<seed>\d+),backend=vector\]")


def golden() -> dict[str, str]:
    """Digests of campaign seed ``"0"`` keyed by ``str(spec)``."""
    return json.loads(EXPECTED.read_text())["0"]


@pytest.mark.parametrize("options", [
    pytest.param(api.ExecOptions(backend="reference"), id="reference"),
    pytest.param(api.ExecOptions(backend="vector"), id="vector"),
    pytest.param(api.ExecOptions(backend="vector", sanitize=True, trace=True),
                 id="vector-sanitize-trace"),
])
def test_digests_match_committed(options):
    want = golden()
    specs = []
    for key in want:
        m = _KEY.fullmatch(key)
        assert m is not None, f"unexpected key {key!r} in {EXPECTED.name}"
        specs.append(api.RunSpec(m["arch"], m["workload"],
                                 n_records=int(m["n"]), seed=int(m["seed"]),
                                 options=options))
    assert len({(s.arch, s.workload) for s in specs}) == 9 * 8

    results = api.run_batch(specs)
    drifted = [key for key, result in zip(want, results)
               if hashlib.sha256(canonical_result_blob(result)).hexdigest()
               != want[key]]
    assert not drifted, f"{len(drifted)}/{len(want)} digests drifted: {drifted}"
