"""Campaign runner: deduplicated, stored, multiprocess batches of RunSpecs.

Every figure/table sweep is a cross product of independent simulations,
each a pure function of its :class:`RunSpec`.  :func:`run_batch` and
:func:`run_campaign` exploit that through one execution loop:

* **dedup** - identical specs (by content hash) are simulated once,
* **store** - the calling process consults/populates the result tier (a
  :class:`~repro.sim.store.FingerprintStore`) before and after dispatch,
  so workers never touch the store directory,
* **fan-out** - at most ``workers`` store misses are in flight at once, on
  one executor opened per call: in-process for ``workers <= 1``,
  otherwise one process pool.  Each process keeps a :class:`BuiltWorkload`
  memo keyed by :meth:`RunSpec.build_key` for the whole call, so the
  dataset/kernel for one (workload, threads, barriers, traversal) group
  is built once per process,
* **progress** - an optional callback receives a :class:`BatchProgress`
  event as each result lands (store hits first, then live results in
  completion order), carrying call-cumulative hit/miss counters.

Simulations are deterministic, so ``run_batch(specs, workers=N)`` returns
bit-identical results for any ``N`` (only the ``host_seconds`` wall-clock
field varies).

:func:`run_campaign` layers durability on top (see ``docs/campaigns.md``):
results land in a :class:`~repro.sim.store.FingerprintStore`, a manifest
checkpoints the planned fingerprint list, a killed campaign **resumes**
with only the missing fingerprints re-simulated, independent processes
**shard** one spec list (``shard=(i, n)``) and merge through the shared
store, and a config change turns into a **delta campaign** - only specs
whose fingerprints changed are simulated (:func:`plan_campaign` previews
exactly which).

Sharded campaigns **work-steal**: ``shard=(i, n)`` is a hint for claim
order, not a hard assignment.  Each shard claims pending fingerprints
through small atomic lease files in the shared store (``claims/``), works
its own round-robin slice first, then steals whatever is still unclaimed
- so a straggler shard no longer idles the others, and a SIGKILL'd
shard's leases expire and its work is picked up.  Unsharded campaigns
take no claims.  A hard split is a campaign over a :func:`shard_specs`
slice.

>>> from repro.sim.campaign import cross, run_batch, run_campaign
>>> specs = cross(["ssmc", "millipede"], ["count", "kmeans"], n_records=2048)
>>> results = run_batch(specs, workers=4)          # doctest: +SKIP
>>> report = run_campaign(specs, store="campaign_store")  # doctest: +SKIP
>>> report.misses                                  # doctest: +SKIP
0
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.sim.driver import RunResult, _execute
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec
from repro.sim.store import DEFAULT_LEASE_S, FingerprintStore, plan_fingerprint
from repro.workloads.base import BuiltWorkload
from repro.workloads.registry import get_workload

#: builds kept per process before the memo resets (bounds memory when a
#: campaign sweeps many distinct datasets)
_MEMO_LIMIT = 16

#: per-worker-process BuiltWorkload memo (see _run_with_memo)
_WORKER_MEMO: dict[tuple, BuiltWorkload] = {}


@dataclass(frozen=True)
class BatchProgress:
    """One per-spec completion event streamed to ``run_batch(progress=...)``."""

    spec: RunSpec
    result: RunResult
    cached: bool  #: served from the store without simulating
    done: int  #: completed unique specs so far (including this one)
    total: int  #: unique specs in the batch
    #: cumulative store hits so far (including this event when
    #: ``cached``); in a resumed campaign this is the resumed-spec count
    hits: int = 0

    @property
    def misses(self) -> int:
        """Cumulative live simulations so far."""
        return self.done - self.hits

    @property
    def host_seconds(self) -> float:
        """Host wall-clock *this batch* spent on the spec: the live
        simulation's wall-clock, or 0.0 for store hits (the stored
        result's own wall-clock is :attr:`sim_host_seconds`)."""
        return 0.0 if self.cached else self.result.host_seconds

    @property
    def sim_host_seconds(self) -> float:
        """Wall-clock of the simulation that produced the result - this
        batch's, or the original run that populated the store."""
        return self.result.host_seconds

    def __str__(self) -> str:
        tag = "cached" if self.cached else f"{self.host_seconds:.2f}s"
        return (f"[{self.done}/{self.total}] {self.spec} ({tag}; "
                f"{self.hits} hit / {self.misses} miss)")


def cross(
    arches: Sequence[str],
    workloads: Sequence[str],
    config: SystemConfig = DEFAULT_CONFIG,
    n_records: Optional[int] = None,
    seed: int = 0,
    options: ExecOptions = ExecOptions(),
) -> list[RunSpec]:
    """Specs for the full arch x workload cross product, workload-major
    (matches the figures' iteration order)."""
    return [
        RunSpec(a, wl, config=config, n_records=n_records, seed=seed,
                options=options)
        for wl in workloads
        for a in arches
    ]


def _run_with_memo(spec: RunSpec, memo: dict[tuple, BuiltWorkload]) -> RunResult:
    """Execute one spec, reusing/building its BuiltWorkload via ``memo``."""
    wl = get_workload(spec.workload)
    key = spec.build_key()
    built = memo.get(key)
    if built is None:
        cfg = spec.effective_config
        built = wl.build(
            spec.n_threads,
            n_records=spec.n_records,
            block_records=cfg.dram.row_words,
            seed=spec.seed,
            record_barrier=spec.needs_barriers,
            traversal=spec.traversal,
        )
        if len(memo) >= _MEMO_LIMIT:
            # evict only the oldest build (dict insertion order -
            # deterministic); clearing the whole memo would throw away
            # the hot build mid-group
            memo.pop(next(iter(memo)))
        memo[key] = built
    return _execute(spec, wl, built)


def _pool_run(spec: RunSpec) -> RunResult:
    """Top-level worker entry (must be picklable); store-oblivious."""
    return _run_with_memo(spec, _WORKER_MEMO)


def dedup_specs(specs: Iterable[RunSpec]) -> dict[str, RunSpec]:
    """fingerprint -> spec, first-seen order (the campaign's canonical
    ordering; sharding and manifests both derive from it)."""
    unique: dict[str, RunSpec] = {}
    for spec in specs:
        if not isinstance(spec, RunSpec):
            raise TypeError(f"campaigns take RunSpecs, got {type(spec).__name__}")
        unique.setdefault(spec.content_hash(), spec)
    return unique


def _execute_specs(
    unique: dict[str, RunSpec],
    store: Optional[FingerprintStore],
    workers: int,
    progress: Optional[Callable[[BatchProgress], None]],
    resume: bool = True,
    claims: bool = False,
    lease_s: float = DEFAULT_LEASE_S,
) -> tuple[dict[str, RunResult], list[str]]:
    """The execution loop behind :func:`run_batch` and :func:`run_campaign`.

    Serves store hits first (not with ``resume`` off, never for traced
    specs: a stored record carries no trace, and the trace artifact is the
    point of the run), then keeps at most ``workers`` of the rest in
    flight, in ``unique`` order.  With ``claims`` (a sharded campaign)
    each freed slot refreshes the store, serves what other shards have
    recorded meanwhile, and leases the next spec before simulating it;
    specs under a live foreign lease are left to their holder.

    Returns the results by fingerprint, in landing order, and the
    fingerprints this call simulated."""
    for spec in unique.values():
        get_workload(spec.workload)  # fail fast on unknown workloads
    results: dict[str, RunResult] = {}
    simulated: list[str] = []
    held: set[str] = set()  # claims taken and not yet landed

    def land(fp: str, result: RunResult, cached: bool) -> None:
        results[fp] = result
        if not cached:
            simulated.append(fp)
            if store is not None:
                store.put(unique[fp], result)
                if claims:
                    store.release_claim(fp)
                    held.discard(fp)
        if progress is not None:
            progress(BatchProgress(unique[fp], result, cached, len(results),
                                   len(unique), len(results) - len(simulated)))

    def serve(fp: str) -> bool:
        if store is None or not resume or unique[fp].trace:
            return False
        result = store.get(fp)
        if result is not None:
            land(fp, result, cached=True)
        return result is not None

    pending = [fp for fp in unique if not serve(fp)]

    def take() -> Optional[str]:
        """The next pending spec to simulate, or None."""
        if not pending:
            return None
        if not claims:
            return pending.pop(0)
        store.refresh()
        for fp in list(pending):
            if serve(fp):
                pending.remove(fp)
            elif store.try_claim(fp, lease_s=lease_s,
                                 resimulate=not resume or unique[fp].trace):
                pending.remove(fp)
                held.add(fp)
                return fp
            elif serve(fp):  # recorded while the claim was being taken
                pending.remove(fp)
        return None

    try:
        if workers <= 1:
            memo: dict[tuple, BuiltWorkload] = {}
            while (fp := take()) is not None:
                land(fp, _run_with_memo(unique[fp], memo), cached=False)
        elif pending:
            # imported here: serial callers (the common case) skip its start-up
            from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                            wait)

            with ProcessPoolExecutor(min(workers, len(pending))) as pool:
                running: dict = {}
                while True:
                    while len(running) < workers and (fp := take()) is not None:
                        running[pool.submit(_pool_run, unique[fp])] = fp
                    if not running:
                        break
                    finished, _ = wait(running, return_when=FIRST_COMPLETED)
                    for future in finished:
                        land(running.pop(future), future.result(), cached=False)
    finally:
        # a failed simulation or store write leaves its spec to other shards
        for fp in sorted(held):
            store.release_claim(fp)
    return results, simulated


def run_batch(
    specs: Iterable[RunSpec],
    workers: int = 1,
    store: Optional[FingerprintStore] = None,
    progress: Optional[Callable[[BatchProgress], None]] = None,
) -> list[RunResult]:
    """Run a batch of specs, returning results aligned with ``specs``.

    ``workers > 1`` fans store misses out over a process pool; ``workers
    <= 1`` runs serially in-process.  Duplicate specs are simulated once
    and share one result object.  ``store`` (a
    :class:`~repro.sim.store.FingerprintStore`) is consulted and
    populated only from the calling process.
    """
    specs = list(specs)
    results, _ = _execute_specs(dedup_specs(specs), store, workers, progress)
    return [results[spec.content_hash()] for spec in specs]


# ----------------------------------------------------------------------
# persistent campaigns: resume, shard, delta (docs/campaigns.md)
# ----------------------------------------------------------------------
def parse_shard(text: str) -> tuple[int, int]:
    """Parse ``"i/n"`` (1-based) into ``(i, n)``; e.g. ``"2/3"``."""
    try:
        index_s, count_s = text.split("/", 1)
        index, count = int(index_s), int(count_s)
    except ValueError:
        raise ValueError(f"shard must look like 'i/n' (e.g. 2/3), got {text!r}")
    if count < 1 or not 1 <= index <= count:
        raise ValueError(f"shard {text!r}: need 1 <= i <= n")
    return index, count


def shard_specs(specs: Iterable[RunSpec], index: int, count: int) -> list[RunSpec]:
    """Deterministic 1-based shard ``index`` of ``count``: the deduped
    campaign is split round-robin by position, so every spec lands in
    exactly one shard regardless of which process computes the split.
    A campaign over this slice is a hard (non-stealing) split."""
    if count < 1 or not 1 <= index <= count:
        raise ValueError(f"shard {index}/{count}: need 1 <= i <= n")
    unique = dedup_specs(specs)
    return [spec for pos, spec in enumerate(unique.values())
            if pos % count == index - 1]


@dataclass(frozen=True)
class CampaignPlan:
    """What :func:`run_campaign` would do, without doing it.

    The delta-campaign primitive: build the new spec list (changed config
    and all), plan it against the store, and ``to_run`` is exactly the
    specs whose fingerprints are not already recorded."""

    specs: list[RunSpec]  #: the campaign's deduped specs, campaign order
    fingerprints: list[str]  #: content hashes aligned with ``specs``
    to_run: list[RunSpec]  #: specs missing from the store (would simulate)
    done: list[str]  #: fingerprints already in the store (would resume)

    @property
    def complete(self) -> bool:
        return not self.to_run


def plan_campaign(
    specs: Iterable[RunSpec],
    store: "FingerprintStore | Path | str",
) -> CampaignPlan:
    """Plan ``specs`` against ``store``: dedup, then split into
    already-recorded fingerprints vs. specs that need simulation."""
    unique = dedup_specs(specs)
    store = coerce_store(store)
    store.refresh()
    # traced specs always re-simulate (stored records carry no trace
    # artifact; the execution loop bypasses the store for them the same way)
    return CampaignPlan(
        specs=list(unique.values()),
        fingerprints=list(unique),
        to_run=[spec for fp, spec in unique.items()
                if fp not in store or spec.trace],
        done=[fp for fp, spec in unique.items()
              if fp in store and not spec.trace],
    )


def coerce_store(store: "FingerprintStore | Path | str") -> FingerprintStore:
    if isinstance(store, FingerprintStore):
        return store
    if isinstance(store, (str, Path)):
        return FingerprintStore(store)
    raise TypeError(
        f"store must be a FingerprintStore or a directory path, "
        f"got {type(store).__name__}"
    )


@dataclass
class CampaignReport:
    """What one :func:`run_campaign` call did, plus store-backed access
    to the merged campaign (other shards' results included)."""

    store: FingerprintStore
    name: str  #: manifest name under ``<store>/manifests/``
    plan: CampaignPlan
    resumed: int  #: planned specs served from pre-existing records
    hits: int  #: specs served without simulating (== ``resumed`` here)
    misses: int  #: specs simulated by this call
    stolen: int = 0  #: simulated specs outside this call's shard hint
    results: dict[str, RunResult] = dc_field(default_factory=dict)
    shard: Optional[tuple[int, int]] = None  #: the claim-order hint

    def gather(self, specs: Sequence[RunSpec]) -> list[Optional[RunResult]]:
        """Results aligned with ``specs``, merged across shards: this
        call's live results where available, store-served otherwise,
        ``None`` for fingerprints no shard has completed yet."""
        self.store.refresh()
        out: list[Optional[RunResult]] = []
        for spec in specs:
            fp = spec.content_hash()
            result = self.results.get(fp)
            out.append(result if result is not None else self.store.get(fp))
        return out

    def missing(self, specs: Sequence[RunSpec]) -> list[RunSpec]:
        """Specs (deduped) still absent from the store - the work other
        shards must finish before :meth:`gather` is complete."""
        self.store.refresh()
        return [spec for fp, spec in dedup_specs(specs).items()
                if fp not in self.store]

    def summary(self) -> str:
        tag = (f" shard {self.shard[0]}/{self.shard[1]}"
               if self.shard is not None else "")
        stolen = f" ({self.stolen} stolen)" if self.stolen else ""
        return (f"campaign {self.name!r}{tag}: {len(self.plan.specs)} specs, "
                f"{self.hits} resumed from store, {self.misses} simulated"
                f"{stolen} ({len(self.store)} records in store)")


def run_campaign(
    specs: Iterable[RunSpec],
    store: "FingerprintStore | Path | str",
    workers: int = 1,
    shard: Optional[tuple[int, int]] = None,
    resume: bool = True,
    name: Optional[str] = None,
    progress: Optional[Callable[[BatchProgress], None]] = None,
    lease_s: float = DEFAULT_LEASE_S,
) -> CampaignReport:
    """Run a campaign against a persistent :class:`FingerprintStore`.

    The durable counterpart of :func:`run_batch`: the deduped spec list is
    checkpointed as a manifest, fingerprints already recorded in the store
    are **not** re-simulated (``resume=True``; a killed campaign picks up
    where its store left off), and ``resume=False`` forces re-simulation
    of every planned spec while still appending the fresh records.

    ``shard=(i, n)`` splits the campaign across independent
    processes/hosts that merge through the shared store directory.  The
    split is a *hint*: this shard claims its own round-robin slice first
    through atomic lease files, then steals whatever other shards have not
    claimed, so a straggler never idles the rest, and a killed shard's
    leases expire (``lease_s``) and its work is re-claimed.  The report
    covers the *whole* campaign; ``report.stolen`` counts the simulated
    specs that were outside this shard's hinted slice.  Unsharded
    campaigns take no claims; for a hard split, run a campaign over
    :func:`shard_specs`.

    The report's ``resumed``/``hits``/``misses`` counters count what
    actually happened (a racing shard's records landing mid-campaign
    included), not the plan-time view.

    If ``store`` is a path, the store instance is created for this call
    and closed before returning (reads, e.g. ``report.gather``, still
    work); pass a :class:`FingerprintStore` to manage its lifetime
    yourself.

    Returns a :class:`CampaignReport`; use :meth:`CampaignReport.gather`
    to assemble the merged result list once every shard has run.
    """
    owned = not isinstance(store, FingerprintStore)
    store = coerce_store(store)
    try:
        plan = plan_campaign(specs, store)
        unique = dict(zip(plan.fingerprints, plan.specs))
        if name is None:
            name = "c-" + plan_fingerprint(plan.fingerprints)
        store.write_manifest(name, unique, shard=shard)
        mine = order = unique
        if shard is not None:
            # claim order: this shard's hinted slice first, then the rest
            mine = {spec.content_hash(): spec
                    for spec in shard_specs(plan.specs, *shard)}
            order = {**mine, **unique}
        results, simulated = _execute_specs(
            order, store, workers, progress, resume=resume,
            claims=shard is not None, lease_s=lease_s)
        store.write_index()
        hits = len(results) - len(simulated)
        return CampaignReport(
            store=store,
            name=store.safe_name(name),
            plan=plan,
            resumed=hits,
            hits=hits,
            misses=len(simulated),
            stolen=sum(fp not in mine for fp in simulated),
            results=results,
            shard=shard,
        )
    finally:
        if owned:
            store.close()
