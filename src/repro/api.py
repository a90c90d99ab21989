"""repro.api: the coherent entry-point facade.

The only public run surface: one import gives every way to run
simulations, all speaking the same vocabulary — a *what* (arch,
workload, config, n_records, seed) and a *how*
(:class:`~repro.sim.options.ExecOptions`):

>>> from repro import api
>>> from repro.sim.options import ExecOptions
>>> r = api.run("millipede", "count", n_records=2048)       # doctest: +SKIP
>>> fast = ExecOptions(backend="vector")
>>> r = api.run("millipede", "count", options=fast)         # doctest: +SKIP
>>> grid = api.sweep(["ssmc", "millipede"], ["count", "kmeans"],
...                  options=fast, workers=4)               # doctest: +SKIP
>>> grid[("millipede", "count")].validated                  # doctest: +SKIP
True

Execution options travel as one frozen value instead of a trail of
boolean arguments, so adding an axis (as the ``backend`` axis was) never
widens these signatures again.  Results have one tier, the durable
:class:`FingerprintStore`: pass ``store=`` (a store or its directory) to
``run_batch``/``sweep`` and a fingerprint already recorded there is
served instead of re-simulated (traced specs always simulate).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from pathlib import Path

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.sim.campaign import (
    CampaignReport,
    coerce_store,
    cross,
    run_batch as _campaign_run_batch,
    run_campaign as _campaign_run_campaign,
)
from repro.sim.driver import RunResult, _execute, run as _driver_run
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec
from repro.sim.store import DEFAULT_LEASE_S, FingerprintStore
from repro.workloads.base import Workload
from repro.workloads.registry import workload_names

__all__ = [
    "CampaignReport",
    "ExecOptions",
    "FingerprintStore",
    "RunSpec",
    "RunResult",
    "run",
    "run_batch",
    "run_campaign",
    "sweep",
]


def run(
    arch: Union[str, RunSpec],
    workload: Union[str, Workload, None] = None,
    *,
    config: SystemConfig = DEFAULT_CONFIG,
    n_records: Optional[int] = None,
    seed: int = 0,
    options: Optional[ExecOptions] = None,
) -> RunResult:
    """Simulate one configuration and validate the result.

    ``run(RunSpec(...))`` runs a prepared spec; ``run(arch, workload)``
    builds one from the *what* arguments plus ``options`` (defaulting to
    ``ExecOptions()``: validated, reference backend, no sanitizer/tracer).
    ``workload`` may also be an unregistered :class:`Workload` object.
    """
    if isinstance(arch, RunSpec):
        if workload is not None or options is not None:
            raise TypeError(
                "run(RunSpec) carries its own workload and options; "
                "use spec.replace(...) to change them"
            )
        return _driver_run(arch)
    if workload is None:
        raise TypeError("run(arch, workload): workload is required")
    spec = RunSpec(
        arch, workload if isinstance(workload, str) else workload.name,
        config=config, n_records=n_records, seed=seed,
        options=options if options is not None else ExecOptions(),
    )
    if isinstance(workload, str):
        return _driver_run(spec)
    return _execute(spec, workload)


def run_batch(
    specs: Sequence[RunSpec],
    *,
    workers: int = 1,
    store: "FingerprintStore | Path | str | None" = None,
    progress=None,
) -> list[RunResult]:
    """Run many specs with dedup, an optional result store, and fan-out.

    Results come back in ``specs`` order.  ``store`` (a
    :class:`FingerprintStore` or its directory path) serves completed
    fingerprints and records fresh results.  This is
    :func:`repro.sim.campaign.run_batch` re-exported under the facade;
    see that module for the dedup/store/progress contract.
    """
    if store is None or isinstance(store, FingerprintStore):
        return _campaign_run_batch(specs, workers=workers, store=store,
                                   progress=progress)
    # created for this call: close its segment fd before returning
    owned = coerce_store(store)
    try:
        return _campaign_run_batch(specs, workers=workers, store=owned,
                                   progress=progress)
    finally:
        owned.write_index()
        owned.close()


def run_campaign(
    specs: Sequence[RunSpec],
    store: "FingerprintStore | Path | str",
    *,
    workers: int = 1,
    shard: Optional[tuple[int, int]] = None,
    resume: bool = True,
    name: Optional[str] = None,
    progress=None,
    lease_s: float = DEFAULT_LEASE_S,
) -> CampaignReport:
    """Run a persistent, resumable, shard-able campaign (docs/campaigns.md).

    :func:`repro.sim.campaign.run_campaign` re-exported under the facade:
    results land in the durable :class:`FingerprintStore`, a manifest
    checkpoints the plan, already-recorded fingerprints are not
    re-simulated (``resume``), and ``shard=(i, n)`` splits the campaign
    across independent processes that merge through the shared store.
    Sharded campaigns **work-steal**: the slice is a claim-order hint,
    pending fingerprints are claimed through atomic lease files
    (``lease_s``), and an idle shard picks up a straggler's or a dead
    shard's work.  Unsharded campaigns take no claims; a hard split is a
    campaign over :func:`repro.sim.campaign.shard_specs`, whose manifest
    records only that slice (give each slice its own ``name``).
    """
    return _campaign_run_campaign(specs, store, workers=workers, shard=shard,
                                  resume=resume, name=name, progress=progress,
                                  lease_s=lease_s)


def sweep(
    arches: Sequence[str],
    workloads: Optional[Sequence[str]] = None,
    *,
    config: SystemConfig = DEFAULT_CONFIG,
    n_records: Optional[int] = None,
    seed: int = 0,
    options: Optional[ExecOptions] = None,
    workers: int = 1,
    store: "FingerprintStore | Path | str | None" = None,
) -> dict[tuple[str, str], RunResult]:
    """Run the arch × workload cross product; results keyed ``(arch, wl)``.

    ``workloads`` defaults to all eight registered benchmarks.  The grid
    is workload-major (the figures' iteration order) and shares
    :func:`run_batch`'s dedup/store machinery.
    """
    specs = cross(arches, workloads if workloads is not None else workload_names(),
                  config=config, n_records=n_records, seed=seed,
                  options=options if options is not None else ExecOptions())
    results = run_batch(specs, workers=workers, store=store)
    return {(s.arch, s.workload): r for s, r in zip(specs, results)}
