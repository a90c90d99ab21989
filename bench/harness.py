"""The benchmark's workloads, run one per fresh child process.

``python bench/harness.py --workload NAME --seed S --workdir D`` (with
``src`` on ``PYTHONPATH``) runs one workload and prints one JSON object
as its last stdout line: the raw measurements :mod:`run` turns into
metrics.  Progress and errors go to stderr.

Every workload is a closed loop with one client: the next call starts
only after the previous one returned.  The simulator is driven only
through ``repro.experiments.runner.main``, ``repro.api.run``,
``repro.api.run_campaign`` and ``FingerprintStore``, so the same
benchmark keeps measuring commits that restructure ``src/``.

Noise on a shared host only ever adds time, so a spec's host time is its
best over the workload's R rounds (see README.md, "Noise model").  R is
fixed per workload, so a faster or slower host never changes how many
samples a run takes.  Garbage is
collected before each timed operation, so a collection triggered by
earlier operations' garbage is not charged to it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import re
import resource
import sys
import time
import traceback
from pathlib import Path

from repro import api
from repro.experiments import runner
from repro.sim.store import canonical_result_blob

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: every registered architecture and kernel, fixed here so a commit that
#: registers more does not silently change the workload
ARCHES = ("gpgpu", "vws", "vws-row", "ssmc", "millipede-nofc", "millipede",
          "millipede-rm", "millipede-bar", "multicore")
KERNELS = ("count", "sample", "nbayes", "variance", "gda", "pca", "kmeans",
           "classify")

_TOOK_LINE = re.compile(r"^\[\S+ took [0-9.]+s\]$", re.MULTILINE)


def sha256(data: "bytes | str") -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def result_digest(result) -> str:
    return sha256(canonical_result_blob(result))


def experiment_digest(stdout: str) -> str:
    """Digest of an experiment's printed table minus its timing line."""
    return sha256(_TOOK_LINE.sub("", stdout))


def row_stats(stats: dict) -> tuple[float, float]:
    """(row misses, row accesses) of one result's simulated DRAM; the
    multicore node reports its off-chip DRAM under ``offchip.``."""
    prefix = "dram" if stats.get("dram.row_accesses") else "offchip"
    return (stats.get(f"{prefix}.row_misses", 0.0),
            stats.get(f"{prefix}.row_accesses", 0.0))


class Checker:
    """Counts operations and checks each one's output digests.

    An operation fails when it raises (golden-model validation included)
    or when a digest differs from the committed one.  A seed with no
    committed digests is checked for determinism instead: every later
    output must equal the first one seen."""

    def __init__(self, expected: "dict[str, str] | None") -> None:
        self.expected = expected
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, digests) -> bool:
        """One operation whose outputs are the ``(key, digest)`` pairs."""
        self.attempted += 1
        bad = []
        for key, digest in digests:
            first = self.seen.setdefault(key, digest)
            want = self.expected.get(key) if self.expected is not None else first
            if digest != want:
                bad.append(key)
        if bad:
            self._fail(f"digest mismatch on {len(bad)} output(s), e.g. {bad[0]}")
        return not bad

    def raised(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self._fail(f"{what}: {type(exc).__name__}: {exc}")
        if exc.__traceback__ is not None:
            traceback.print_exception(exc, file=sys.stderr)

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"[bench] FAILED {message}", file=sys.stderr)


class Context:
    """What one workload run needs: seed, scratch space, checks, and the
    tracer of a traced pass (None when untraced)."""

    def __init__(self, seed: int, workdir: Path,
                 expected: "dict[str, str] | None", tracer=None,
                 single_round: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.check = Checker(expected)
        self.tracer = tracer
        self.single_round = single_round
        self._dirs = 0

    def span(self, name: str, key: str = "bench"):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, key)

    def rounds(self, count: int) -> range:
        """Round indices: ``count`` of them, or one in a single-round
        (traced or reference) pass."""
        return range(1 if self.single_round else count)

    def fresh_dir(self, tag: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{tag}-{self._dirs}"
        path.mkdir(parents=True)
        return path


def warm_resume(ctx: Context, specs: list, root: Path) -> "float | None":
    """One resume of a complete store: open a new ``FingerprintStore`` and
    run the campaign, which must be all hits.  Returns its host time, or
    None when the operation failed."""
    gc.collect()
    try:
        with ctx.span("resume"):
            t0 = time.perf_counter()
            with api.FingerprintStore(root) as store:
                report = api.run_campaign(specs, store)
            dt = time.perf_counter() - t0
    except Exception as exc:  # an operation failed; keep measuring
        ctx.check.raised("resume", exc)
        return None
    if report.misses:
        ctx.check.raised("resume", RuntimeError(
            f"{report.misses} spec(s) re-simulated on a warm store"))
        return None
    ok = ctx.check.op((str(s), result_digest(report.results[s.content_hash()]))
                      for s in specs)
    return dt if ok else None


class ClosedLoop:
    """``api.run`` over an arch × kernel grid, one spec after another.

    Once the first round has filled a store, a warm resume of it runs
    after every ``resume_stride``-th spec, so resume samples are spread
    over the whole run like the spec samples."""

    resumes = 15
    resume_stride = 4

    def __init__(self, name: str, arches: tuple, kernels: tuple,
                 n_records: int, backend: str, rounds: int = 1) -> None:
        self.name = name
        self.arches = arches
        self.kernels = kernels
        self.n_records = n_records
        self.backend = backend
        self.rounds = rounds

    def specs(self, seed: int) -> list:
        options = api.ExecOptions(backend=self.backend)
        return [api.RunSpec(a, k, n_records=self.n_records, seed=seed,
                            options=options)
                for k in self.kernels for a in self.arches]

    def run(self, ctx: Context) -> dict:
        specs = self.specs(ctx.seed)
        best: dict[str, float] = {}
        latest: dict[str, object] = {}
        round_walls, resumes = [], []
        root = None
        for r in ctx.rounds(self.rounds):
            wall = 0.0
            with ctx.span(f"round {r}"):
                for i, spec in enumerate(specs, 1):
                    dt = self._run_spec(ctx, spec, latest)
                    if dt is not None:
                        wall += dt
                        best[str(spec)] = min(dt, best.get(str(spec), dt))
                    if root is not None and i % self.resume_stride == 0:
                        resumes.append(warm_resume(ctx, specs, root))
            round_walls.append(wall)
            if root is None:
                root = ctx.workdir / "store"
                with api.FingerprintStore(root) as store:
                    for spec in specs:
                        if str(spec) in latest:
                            store.put(spec, latest[str(spec)])
                    store.write_index()
        while len(resumes) < self.resumes:
            resumes.append(warm_resume(ctx, specs, root))
        results = [latest[str(s)] for s in specs if str(s) in latest]
        return {
            "wall_s": sum(best.values()),
            "round_walls_s": round_walls,
            "resume_times_s": [t for t in resumes if t is not None],
            **totals(results),
            "digests": {key: result_digest(r) for key, r in latest.items()},
        }

    @staticmethod
    def _run_spec(ctx: Context, spec, latest: dict) -> "float | None":
        key = str(spec)
        gc.collect()
        try:
            with ctx.span(f"api.run {key}", "sim.driver"):
                t0 = time.perf_counter()
                result = api.run(spec)
                dt = time.perf_counter() - t0
        except Exception as exc:
            ctx.check.raised(key, exc)
            return None
        if not ctx.check.op([(key, result_digest(result))]):
            return None
        latest[key] = result
        return dt


class PaperRegen:
    """The paper-regeneration command: every table and figure experiment
    in turn through ``runner.main``, sharing one fresh store per round.

    From the second round on, a warm regeneration (all six experiments on
    the previous round's complete store) runs after every
    ``resume_stride``-th experiment."""

    name = "paper-regen"
    backend = "vector"
    rounds = 3
    resumes = 5
    resume_stride = 2
    #: the CLI has no seed flag: every seed runs the same inputs
    seed_dependent = False

    def __init__(self, n_records: int = 512,
                 experiments: tuple = ("table4", "fig3", "fig4", "fig5",
                                       "fig6", "fig7")) -> None:
        self.n_records = n_records
        self.experiments = experiments

    def _main(self, ctx: Context, exp: str, store: Path) -> tuple[float, str]:
        """One experiment call: (host time, digest of its printed table)."""
        argv = [exp, "--records", str(self.n_records), "--backend",
                self.backend, "--store", str(store)]
        buf = io.StringIO()
        gc.collect()
        with ctx.span(f"runner.main {exp}", "experiments"):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = runner.main(argv)
            dt = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"runner.main({argv}) returned {code}")
        return dt, experiment_digest(buf.getvalue())

    def _warm(self, ctx: Context, store: Path) -> "float | None":
        """One warm regeneration of a complete store (one operation)."""
        total, outputs = 0.0, []
        try:
            with ctx.span("resume"):
                for exp in self.experiments:
                    dt, digest = self._main(ctx, exp, store)
                    total += dt
                    outputs.append((exp, digest))
        except Exception as exc:
            ctx.check.raised("resume", exc)
            return None
        return total if ctx.check.op(outputs) else None

    def run(self, ctx: Context) -> dict:
        best: dict[str, float] = {}
        round_walls, resumes = [], []
        complete = None  # the last store every experiment filled
        outputs: dict[str, str] = {}
        for r in ctx.rounds(self.rounds):
            store = ctx.fresh_dir("store")
            outputs, wall = {}, 0.0
            with ctx.span(f"round {r}"):
                for i, exp in enumerate(self.experiments, 1):
                    try:
                        dt, outputs[exp] = self._main(ctx, exp, store)
                    except Exception as exc:
                        ctx.check.raised(exp, exc)
                        continue
                    if ctx.check.op([(exp, outputs[exp])]):
                        wall += dt
                        best[exp] = min(dt, best.get(exp, dt))
                    if complete is not None and i % self.resume_stride == 0:
                        resumes.append(self._warm(ctx, complete))
            round_walls.append(wall)
            if len(outputs) == len(self.experiments):
                complete = store
        while complete is not None and len(resumes) < self.resumes:
            resumes.append(self._warm(ctx, complete))
        return {
            "wall_s": sum(best.values()),
            "round_walls_s": round_walls,
            "resume_times_s": [t for t in resumes if t is not None],
            "store": complete,
            "outputs": outputs,
        }

    @staticmethod
    def finish(out: dict) -> dict:
        """Add instruction totals and spec digests, read from the last
        complete store, to the experiments' output digests.  Called after
        any traced region, so these reads are not measured."""
        store, digests = out.pop("store"), out.pop("outputs")
        results = []
        if store is not None:
            with api.FingerprintStore(store) as st:
                for rec in st.records():
                    spec = api.RunSpec.from_dict(rec["spec"])
                    results.append(rec["result"])
                    digests[str(spec)] = sha256(canonical_result_blob(rec["result"]))
        return {**out, **totals(results), "digests": digests}


class CampaignStore:
    """A two-shard campaign on a fresh store, then warm resumes.

    A cold phase runs shard 1 of 2, which claims and steals every spec,
    then shard 2, which finds every spec recorded.  Its host time is split
    per spec at shard 1's progress events, so ``wall_s`` can take each
    spec's best over the phases like the closed loops do."""

    name = "campaign-store"
    backend = "vector"
    rounds = 2
    resumes = 15

    def __init__(self, n_records: int = 256, arches: tuple = ARCHES,
                 kernels: tuple = KERNELS) -> None:
        self.n_records = n_records
        self.arches = arches
        self.kernels = kernels

    def specs(self, seed: int) -> list:
        options = api.ExecOptions(backend=self.backend)
        return [api.RunSpec(a, k, n_records=self.n_records, seed=s,
                            options=options)
                for s in (seed, seed + 1) for k in self.kernels
                for a in self.arches]

    def _cold_phase(self, ctx: Context, specs: list, store: Path, r: int):
        """(per-step host times, results by spec) of one cold phase; the
        last step is everything after shard 1's final progress event."""
        marks: dict[str, float] = {}

        def mark(event) -> None:
            marks[str(event.spec)] = time.perf_counter()

        gc.collect()
        with ctx.span(f"cold phase {r}"):
            t0 = time.perf_counter()
            first = api.run_campaign(specs, store, shard=(1, 2), progress=mark)
            second = api.run_campaign(specs, store, shard=(2, 2))
            end = time.perf_counter()
        steps, last = {}, t0
        for key, t in marks.items():
            steps[key], last = t - last, t
        steps["(campaign overhead)"] = end - last
        results = {}
        for spec in specs:
            fp = spec.content_hash()
            results[str(spec)] = [x for x in (first.results.get(fp),
                                              second.results.get(fp))
                                  if x is not None]
        return steps, results

    def run(self, ctx: Context) -> dict:
        specs = self.specs(ctx.seed)
        best: dict[str, float] = {}
        phases, resumes = [], []
        latest: dict[str, object] = {}
        store = None
        per_phase = -(-self.resumes // self.rounds)
        for r in ctx.rounds(self.rounds):
            try:
                fresh = ctx.fresh_dir("store")
                steps, results = self._cold_phase(ctx, specs, fresh, r)
            except Exception as exc:
                ctx.check.raised(f"cold phase {r}", exc)
                continue
            ok = True
            for key, served in results.items():
                # shard 1 simulated it; shard 2 was served the stored record
                if not served:
                    ctx.check.raised(key, RuntimeError("no shard produced it"))
                    ok = False
                    continue
                ok &= ctx.check.op((key, result_digest(x)) for x in served)
                latest[key] = served[0]
            if ok:
                phases.append(sum(steps.values()))
                for key, dt in steps.items():
                    best[key] = min(dt, best.get(key, dt))
            store = fresh
            for _ in range(min(per_phase, self.resumes - len(resumes))):
                resumes.append(warm_resume(ctx, specs, store))
        while store is not None and len(resumes) < self.resumes:
            resumes.append(warm_resume(ctx, specs, store))
        compact_s = []
        if store is not None:
            try:
                with api.FingerprintStore(store) as st:
                    t0 = time.perf_counter()
                    st.compact()
                    compact_s = [time.perf_counter() - t0]
            except Exception as exc:
                ctx.check.raised("compact", exc)
        return {
            "wall_s": sum(best.values()),
            "round_walls_s": phases,
            "resume_times_s": [t for t in resumes if t is not None],
            "compact_s": compact_s,
            **totals(latest.values()),
            "digests": {key: result_digest(x) for key, x in latest.items()},
        }


def totals(results) -> dict:
    """Simulated instruction and DRAM row totals over RunResults or
    stored result payloads (exact, host-independent)."""
    instructions = misses = accesses = 0.0
    for r in results:
        payload = r if isinstance(r, dict) else {"collected": r.collected,
                                                 "stats": r.stats}
        instructions += payload["collected"].get("instructions", 0.0)
        m, a = row_stats(payload["stats"])
        misses += m
        accesses += a
    return {"instructions": instructions, "row_misses": misses,
            "row_accesses": accesses}


#: R (``rounds``) of each workload fills about BENCHMARK.json's
#: run_seconds on a 2-core box; each workload's ``why`` there records it
WORKLOADS = {
    "paper-regen": PaperRegen(),
    "membound-vector": ClosedLoop(
        "membound-vector", ("millipede", "millipede-nofc", "ssmc", "gpgpu"),
        ("count", "sample", "nbayes", "variance"), n_records=8192,
        backend="vector", rounds=5),
    "compute-reference": ClosedLoop(
        "compute-reference", ("millipede", "ssmc", "gpgpu", "vws-row"),
        ("gda", "pca", "kmeans", "classify"), n_records=256,
        backend="reference", rounds=4),
    "campaign-store": CampaignStore(),
}


def expected_digests(name: str, seed: int) -> "dict[str, str] | None":
    """Committed digests for ``seed`` (None: determinism check only)."""
    path = EXPECTED_DIR / f"{name}.json"
    if not path.exists():
        return None
    table = json.loads(path.read_text())
    if not getattr(WORKLOADS[name], "seed_dependent", True):
        seed = 0
    return table.get(str(seed))


def run_workload(workload, seed: int, workdir: Path,
                 traced: bool = False, single_round: bool = False,
                 expected: "dict[str, str] | None" = None,
                 trace_path: "Path | None" = None) -> dict:
    """Run one workload in this process and return its raw measurements.

    ``traced`` installs :class:`tracing.Tracer` for the run (one round)
    and adds its per-layer metrics; the wrappers are removed before this
    returns, whatever happens.  ``expected`` maps output keys to the
    committed digests (None: check determinism only)."""
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        single_round = True
    ctx = Context(seed, workdir, expected, tracer, single_round)
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        with ctx.span(workload.name):
            out = workload.run(ctx)
        total = time.perf_counter() - t0
    if hasattr(workload, "finish"):
        out = workload.finish(out)
    out.update(total_s=total, attempted=ctx.check.attempted,
               failed=ctx.check.failed, errors=ctx.check.errors[:20],
               checked=ctx.check.seen)
    if tracer is not None:
        _, _, start, end, _ = tracer.spans[0]
        wall_ns = end - start
        out["layers"] = tracer.layer_metrics()
        out["trace_wall_s"] = wall_ns / 1e9
        # the self times partition the root frame exactly, in integer ns
        out["trace_partition_ns"] = sum(tracer.self_ns.values()) - wall_ns
        out["trace_missing"] = tracer.missing
        if trace_path is not None:
            tracer.write_chrome_trace(trace_path)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main(argv: "list[str] | None" = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workdir", type=Path, required=True,
                   help="scratch directory for stores (the caller removes it)")
    p.add_argument("--traced", action="store_true",
                   help="one round under the tracing wrappers")
    p.add_argument("--single-round", action="store_true")
    p.add_argument("--no-expected", action="store_true",
                   help="check determinism only, not the committed digests")
    p.add_argument("--trace-out", type=Path, default=None,
                   help="write the traced pass's Chrome trace here")
    args = p.parse_args(argv)
    expected = None if args.no_expected else expected_digests(args.workload, args.seed)
    args.workdir.mkdir(parents=True, exist_ok=True)
    out = run_workload(WORKLOADS[args.workload], args.seed, args.workdir,
                       traced=args.traced, single_round=args.single_round,
                       expected=expected, trace_path=args.trace_out)
    out["checked_against"] = "committed" if expected is not None else "determinism"
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
