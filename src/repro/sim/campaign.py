"""Campaign runner: deduplicated, stored, multiprocess batches of RunSpecs.

Every figure/table sweep is a cross product of independent simulations,
each a pure function of its :class:`RunSpec`.  :func:`run_batch` exploits
that:

* **dedup** - identical specs (by content hash) are simulated once,
* **store** - the parent process consults/populates the result tier (a
  :class:`~repro.sim.store.FingerprintStore`) before and after dispatch,
  so workers never touch the store directory,
* **fan-out** - store misses are distributed over a ``multiprocessing``
  pool; each worker keeps a per-process :class:`BuiltWorkload` memo keyed
  by :meth:`RunSpec.build_key`, so the dataset/kernel for one
  (workload, threads, barriers, traversal) group is built once per worker
  (serial batches share one memo the same way),
* **progress** - an optional callback receives a :class:`BatchProgress`
  event as each result lands (store hits first, then live results in
  completion order), carrying cumulative hit/miss counters.

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

Sharded campaigns **work-steal** by default: ``shard=(i, n)`` is a hint
for initial partition order, not a hard assignment.  Each shard claims
pending fingerprints through small atomic lease files in the shared
store (``claims/``), works its own round-robin slice first, then steals
whatever is still unclaimed - so a straggler shard no longer idles the
others, and a SIGKILL'd shard's leases expire and its work is picked up.
``steal=False`` restores the static :func:`shard_specs` split.

>>> from repro.sim.campaign import cross, run_batch, run_campaign
>>> specs = cross(["ssmc", "millipede"], ["count", "kmeans"], n_records=2048)
>>> results = run_batch(specs, workers=4)          # doctest: +SKIP
>>> report = run_campaign(specs, store="campaign_store")  # doctest: +SKIP
>>> report.misses                                  # doctest: +SKIP
0
"""

from __future__ import annotations

import dataclasses
import multiprocessing
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


def _pool_run(item: tuple[str, RunSpec]) -> tuple[str, RunResult]:
    """Top-level worker entry (must be picklable); store-oblivious."""
    spec_hash, spec = item
    return spec_hash, _run_with_memo(spec, _WORKER_MEMO)


def run_batch(
    specs: Iterable[RunSpec],
    workers: int = 1,
    store: "FingerprintStore | _WriteOnlyTier | None" = None,
    progress: Optional[Callable[[BatchProgress], None]] = None,
) -> list[RunResult]:
    """Run a batch of specs, returning results aligned with ``specs``.

    ``workers > 1`` fans store misses out over a process pool; ``workers
    <= 1`` runs serially in-process.  Duplicate specs are simulated once
    and share one result object.  ``store`` (a
    :class:`~repro.sim.store.FingerprintStore`, or :func:`run_campaign`'s
    write-only view of one) is consulted and populated only from the
    calling process.
    """
    specs = list(specs)
    for spec in specs:
        if not isinstance(spec, RunSpec):
            raise TypeError(f"run_batch takes RunSpecs, got {type(spec).__name__}")
        get_workload(spec.workload)  # fail fast on unknown workloads

    # dedup by content hash, preserving first-seen order
    unique: dict[str, RunSpec] = {}
    for spec in specs:
        unique.setdefault(spec.content_hash(), spec)

    total = len(unique)
    done = 0
    hits = 0
    results: dict[str, RunResult] = {}

    def _finish(spec_hash: str, result: RunResult, cached: bool) -> None:
        nonlocal done, hits
        results[spec_hash] = result
        done += 1
        hits += cached
        if not cached and store is not None:
            store.put_spec(unique[spec_hash], result)
        if progress is not None:
            progress(BatchProgress(unique[spec_hash], result, cached, done,
                                   total, hits))

    pending: list[tuple[str, RunSpec]] = []
    for spec_hash, spec in unique.items():
        # traced specs always simulate: a stored RunResult carries no
        # trace, and the trace artifact is the point of the run
        hit = (store.get_spec(spec)
               if store is not None and not spec.trace else None)
        if hit is not None:
            _finish(spec_hash, hit, cached=True)
        else:
            pending.append((spec_hash, spec))

    if pending:
        if workers > 1:
            with multiprocessing.Pool(processes=min(workers, len(pending))) as pool:
                for spec_hash, result in pool.imap_unordered(_pool_run, pending):
                    _finish(spec_hash, result, cached=False)
        else:
            memo: dict[tuple, BuiltWorkload] = {}
            for spec_hash, spec in pending:
                _finish(spec_hash, _run_with_memo(spec, memo), cached=False)

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


def dedup_specs(specs: Iterable[RunSpec]) -> dict[str, RunSpec]:
    """fingerprint -> spec, first-seen order (the campaign's canonical
    ordering; sharding and manifests both derive from it)."""
    unique: dict[str, RunSpec] = {}
    for spec in specs:
        unique.setdefault(spec.content_hash(), spec)
    return unique


def shard_specs(specs: Iterable[RunSpec], index: int, count: int) -> list[RunSpec]:
    """Deterministic 1-based shard ``index`` of ``count``: the deduped
    campaign is split round-robin by position, so every spec lands in
    exactly one shard regardless of which process computes the split."""
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

    specs: list[RunSpec]  #: this shard's deduped specs, campaign order
    fingerprints: list[str]  #: content hashes aligned with ``specs``
    to_run: list[RunSpec]  #: specs missing from the store (would simulate)
    done: list[str]  #: fingerprints already in the store (would resume)
    campaign_total: int  #: unique specs in the whole campaign (all shards)
    shard: Optional[tuple[int, int]] = None

    @property
    def complete(self) -> bool:
        return not self.to_run


def plan_campaign(
    specs: Iterable[RunSpec],
    store: "FingerprintStore | Path | str",
    shard: Optional[tuple[int, int]] = None,
) -> CampaignPlan:
    """Plan ``specs`` against ``store``: dedup, shard-filter, and split
    into already-recorded fingerprints vs. specs that need simulation."""
    return _plan(dedup_specs(specs), coerce_store(store), shard)


def _plan(unique: dict[str, RunSpec], store: FingerprintStore,
          shard: Optional[tuple[int, int]]) -> CampaignPlan:
    """:func:`plan_campaign` over an already deduped ``fp -> spec`` map."""
    store.refresh()
    if shard is not None:
        index, count = shard
        mine = {fp: spec for pos, (fp, spec) in enumerate(unique.items())
                if pos % count == index - 1}
    else:
        mine = unique
    # traced specs always re-simulate (stored records carry no trace
    # artifact; run_batch bypasses the tier for them the same way)
    done = [fp for fp, spec in mine.items() if fp in store and not spec.trace]
    to_run = [spec for fp, spec in mine.items()
              if fp not in store or spec.trace]
    return CampaignPlan(
        specs=list(mine.values()),
        fingerprints=list(mine),
        to_run=to_run,
        done=done,
        campaign_total=len(unique),
        shard=shard,
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


class _WriteOnlyTier:
    """Store adapter for ``resume=False``: never serves hits, still
    records every fresh result durably."""

    def __init__(self, store: FingerprintStore):
        self._store = store

    def get_spec(self, spec: RunSpec) -> None:
        return None

    def put_spec(self, spec: RunSpec, result: RunResult) -> str:
        return self._store.put_spec(spec, result)


class _CampaignTally:
    """Campaign counters derived from the :class:`BatchProgress` stream.

    The report's ``resumed``/``hits``/``misses`` must reflect what the
    batch *actually did* - a racing shard landing records mid-campaign,
    traced specs, or stolen work all diverge from the plan-time view - so
    every completion funnels through here, and the user's ``progress``
    callback sees campaign-cumulative counters."""

    def __init__(self, progress: Optional[Callable[[BatchProgress], None]],
                 total: int):
        self.progress = progress
        self.total = total
        self.done = 0
        self.hits = 0
        self.misses = 0

    def emit(self, spec: RunSpec, result: RunResult, cached: bool) -> None:
        self.done += 1
        if cached:
            self.hits += 1
        else:
            self.misses += 1
        if self.progress is not None:
            self.progress(BatchProgress(spec, result, cached, self.done,
                                        self.total, self.hits))

    def __call__(self, event: BatchProgress) -> None:
        """run_batch progress hook: re-emit with campaign-cumulative
        counters (the batch's own done/total are wave-local)."""
        self.emit(event.spec, event.result, event.cached)


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

    @property
    def shard(self) -> Optional[tuple[int, int]]:
        return self.plan.shard

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


def _steal_order(unique: dict[str, RunSpec],
                 shard: Optional[tuple[int, int]]) -> \
        tuple[list[tuple[str, RunSpec]], frozenset[str]]:
    """Claim order for a stealing shard: its own round-robin slice first
    (the ``shard`` hint), the rest of the campaign after.  Returns the
    ordered (fingerprint, spec) list and the hinted slice's fingerprints."""
    items = list(unique.items())
    if shard is None:
        return items, frozenset(unique)
    index, count = shard
    mine = [(fp, spec) for pos, (fp, spec) in enumerate(items)
            if pos % count == index - 1]
    rest = [(fp, spec) for pos, (fp, spec) in enumerate(items)
            if pos % count != index - 1]
    return mine + rest, frozenset(fp for fp, _ in mine)


def _run_stealing(
    store: FingerprintStore,
    unique: dict[str, RunSpec],
    shard: Optional[tuple[int, int]],
    workers: int,
    resume: bool,
    lease_s: float,
    tally: _CampaignTally,
) -> tuple[dict[str, RunResult], int]:
    """Work-stealing campaign body: serve store hits, then repeatedly
    claim-and-simulate waves of pending fingerprints until everything is
    recorded or the remainder is leased to other live shards.

    Claims are taken one wave at a time (wave = the worker count), so a
    shard only holds leases on work it is actively simulating - that is
    what lets an idle shard steal a straggler's untouched slice."""
    order, mine = _steal_order(unique, shard)
    results: dict[str, RunResult] = {}
    stolen = 0
    tier = store if resume else _WriteOnlyTier(store)

    def serve_hit(fp: str, spec: RunSpec) -> bool:
        if not resume or spec.trace:
            return False
        result = store.get(fp)
        if result is None:
            return False
        results[fp] = result
        tally.emit(spec, result, cached=True)
        return True

    pending = [(fp, spec) for fp, spec in order if not serve_hit(fp, spec)]
    wave_cap = max(workers, 1)
    while pending:
        store.refresh()
        wave: list[tuple[str, RunSpec]] = []
        rest: list[tuple[str, RunSpec]] = []
        for fp, spec in pending:
            if len(wave) >= wave_cap:
                rest.append((fp, spec))
            elif serve_hit(fp, spec):  # another shard finished it
                continue
            elif store.try_claim(fp, lease_s=lease_s, resimulate=not resume):
                wave.append((fp, spec))
            else:
                rest.append((fp, spec))  # live foreign lease; retry later
        if not wave:
            # everything left is leased to live shards - their leases
            # would expire eventually, but they are working, not dead
            break
        wave_cached: set[str] = set()

        def forward(event: BatchProgress) -> None:
            tally.emit(event.spec, event.result, event.cached)
            if event.cached:
                wave_cached.add(event.spec.content_hash())

        batch = run_batch([spec for _, spec in wave], workers=workers,
                          store=tier, progress=forward)
        for (fp, spec), result in zip(wave, batch):
            results[fp] = result
            store.release_claim(fp)
            if fp not in mine and fp not in wave_cached:
                stolen += 1
        pending = rest
    return results, stolen


def run_campaign(
    specs: Iterable[RunSpec],
    store: "FingerprintStore | Path | str",
    workers: int = 1,
    shard: Optional[tuple[int, int]] = None,
    resume: bool = True,
    name: Optional[str] = None,
    progress: Optional[Callable[[BatchProgress], None]] = None,
    steal: Optional[bool] = None,
    lease_s: float = DEFAULT_LEASE_S,
) -> CampaignReport:
    """Run a campaign against a persistent :class:`FingerprintStore`.

    The durable counterpart of :func:`run_batch`: the deduped spec list is
    checkpointed as a manifest, fingerprints already recorded in the store
    are **not** re-simulated (``resume=True``; a killed campaign picks up
    where its store left off), and ``resume=False`` forces re-simulation
    of every planned spec while still appending the fresh records.

    ``shard=(i, n)`` splits the campaign across independent
    processes/hosts that merge through the shared store directory.  With
    ``steal`` (the default whenever ``shard`` is given) the split is a
    *hint*: this shard claims its own round-robin slice first through
    atomic lease files, then steals whatever other shards have not
    claimed, so a straggler never idles the rest, and a killed shard's
    leases expire (``lease_s``) and its work is re-claimed.  With
    ``steal=False`` the slice is a hard assignment (the static
    :func:`shard_specs` split).  A stealing report covers the *whole*
    campaign (its plan is unsharded); ``report.stolen`` counts the
    simulated specs that were outside this shard's hinted slice.

    The report's ``resumed``/``hits``/``misses`` counters are derived
    from the :class:`BatchProgress` stream - what actually happened, not
    the plan-time view.

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
        # dedup once: the plan, the manifest and the stealing loop all
        # work from this one fingerprint -> spec map
        unique = dedup_specs(specs)
        if steal is None:
            steal = shard is not None
        # a stealing shard may end up running any spec in the campaign,
        # so its plan (and report) covers the full deduped list
        plan = _plan(unique, store, shard=None if steal else shard)
        if steal and shard is not None:
            plan = dataclasses.replace(plan, shard=shard)
        if name is None:
            name = "c-" + plan_fingerprint(list(unique))
        store.write_manifest(name, unique, shard=shard)

        tally = _CampaignTally(progress, total=len(plan.specs))
        if steal:
            results, stolen = _run_stealing(
                store, unique, shard, workers, resume, lease_s, tally)
        else:
            tier = store if resume else _WriteOnlyTier(store)
            batch = run_batch(plan.specs, workers=workers, store=tier,
                              progress=tally)
            results = dict(zip(plan.fingerprints, batch))
            stolen = 0
        store.write_index()

        return CampaignReport(
            store=store,
            name=store.safe_name(name),
            plan=plan,
            resumed=tally.hits,
            hits=tally.hits,
            misses=tally.misses,
            stolen=stolen,
            results=results,
        )
    finally:
        if owned:
            store.close()
