"""RunSpec: the frozen, serializable description of one simulation.

A :class:`RunSpec` is a pure value — *what* to simulate (architecture,
workload, config, record count, seed) plus *how* to execute it (an
:class:`~repro.sim.options.ExecOptions` sub-value: validate / sanitize /
trace / backend) — that fully determines a simulation's outcome.  Because
it is frozen, hashable, picklable, and carries a stable content hash, it
is the unit the campaign runner (:mod:`repro.sim.campaign`) deduplicates,
ships to worker processes, and keys the fingerprint store on.

>>> spec = RunSpec("millipede", "count", n_records=2048)
>>> RunSpec.from_dict(spec.to_dict()) == spec
True
>>> RunSpec("millipede", "count", options=ExecOptions(backend="vector")).backend
'vector'

Execution options serialize as flat wire keys (``validate``/``sanitize``/
``trace``, plus ``backend`` when non-default) so content hashes - and
every existing :class:`~repro.sim.store.FingerprintStore` - stay valid.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace as dc_replace
from typing import Optional

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.sim.options import ExecOptions


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one simulation run.

    ``workload`` is a registry *name* (see :mod:`repro.workloads.registry`)
    so specs stay serializable; an unregistered :class:`Workload` object
    runs through :func:`repro.api.run` instead.  Execution knobs live in
    ``options`` (:class:`ExecOptions`).
    """

    arch: str
    workload: str
    config: SystemConfig = DEFAULT_CONFIG
    n_records: Optional[int] = None
    seed: int = 0
    options: ExecOptions = ExecOptions()

    def __post_init__(self):
        if not isinstance(self.options, ExecOptions):
            raise TypeError(
                f"options must be ExecOptions, got {type(self.options).__name__}")
        # lazy import: driver imports this module at load time
        from repro.sim.driver import ARCHITECTURES

        if self.arch not in ARCHITECTURES:
            raise KeyError(
                f"unknown architecture {self.arch!r}; "
                f"available: {', '.join(ARCHITECTURES)}"
            )
        if self.n_records is not None and self.n_records <= 0:
            raise ValueError(f"n_records must be positive, got {self.n_records}")

    # ------------------------------------------------------------------
    # execution-option views (read-only)
    # ------------------------------------------------------------------
    @property
    def validate(self) -> bool:
        return self.options.validate

    @property
    def sanitize(self) -> bool:
        return self.options.sanitize

    @property
    def trace(self) -> bool:
        return self.options.trace

    @property
    def backend(self) -> str:
        return self.options.backend

    # ------------------------------------------------------------------
    # derived build parameters (shared by driver and campaign)
    # ------------------------------------------------------------------
    @property
    def effective_config(self) -> SystemConfig:
        """The config after the architecture's transform (flow-control /
        rate-match / barrier flags)."""
        from repro.sim.driver import ARCHITECTURES

        return ARCHITECTURES[self.arch][1](self.config)

    @property
    def n_threads(self) -> int:
        cfg = self.effective_config
        sub = cfg.multicore if self.arch == "multicore" else cfg.core
        return sub.n_cores * sub.n_threads

    @property
    def traversal(self) -> str:
        from repro.sim.driver import TRAVERSAL

        return TRAVERSAL.get(self.arch, "chunked")

    @property
    def needs_barriers(self) -> bool:
        from repro.sim.driver import ARCHITECTURES

        return ARCHITECTURES[self.arch][2]

    def build_key(self) -> tuple:
        """Specs with equal build keys can share one :class:`BuiltWorkload`
        (same data, same kernel, same thread ABI)."""
        return (
            self.workload,
            self.n_records,
            self.seed,
            self.n_threads,
            self.needs_barriers,
            self.traversal,
            self.effective_config.dram.row_words,
        )

    # ------------------------------------------------------------------
    # identity / serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-portable dict; inverse of :meth:`from_dict`.

        Execution options are emitted as the pre-redesign flat keys (with
        ``backend`` only when non-default) so content hashes of
        semantically-unchanged specs are stable across the redesign."""
        out = {
            "arch": self.arch,
            "workload": self.workload,
            "config": self.config.as_canonical_dict(),
            "n_records": self.n_records,
            "seed": self.seed,
        }
        out.update(self.options.to_dict())
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Inverse of :meth:`to_dict`: flat execution-option keys, any of
        them absent in dicts written before that option existed."""
        data = dict(data)
        cfg = data.pop("config", None)
        config = SystemConfig.from_dict(cfg) if cfg is not None else DEFAULT_CONFIG
        options = ExecOptions.from_dict(
            {f.name: data.pop(f.name) for f in fields(ExecOptions) if f.name in data})
        return cls(config=config, options=options, **data)

    def content_hash(self) -> str:
        """Stable hash of every field (including the full config); equal
        specs always hash equal across processes and sessions.

        Computed once per instance: the spec is frozen, so the 16-char
        fingerprint is kept on it and can never go stale."""
        fp = self.__dict__.get("_content_hash")
        if fp is None:
            blob = json.dumps(self.to_dict(), sort_keys=True, default=str)
            fp = hashlib.sha256(blob.encode()).hexdigest()[:16]
            object.__setattr__(self, "_content_hash", fp)
        return fp

    def replace(self, **kwargs) -> "RunSpec":
        """Field-wise copy (``spec.replace(options=...)`` for the how)."""
        return dc_replace(self, **kwargs)

    def __str__(self) -> str:
        n = self.n_records if self.n_records is not None else "default"
        tag = f",backend={self.backend}" if self.backend != "reference" else ""
        return f"{self.arch}/{self.workload}[n={n},seed={self.seed}{tag}]"
