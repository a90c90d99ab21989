"""Hardware configuration (the paper's Table III, plus reproduction knobs).

Every architecture model is constructed from these frozen dataclasses so an
experiment can sweep a parameter (corelet count, prefetch-buffer entries,
channel bandwidth, ...) by calling :func:`dataclasses.replace`.

Calibration note
----------------
The paper runs 128 MB inputs on a modified GPGPU-Sim; we run scaled-down
inputs on a from-scratch simulator.  The preserved quantity is the
*compute-to-memory rate ratio*: the default channel bandwidth is calibrated
so that the compute/memory crossover falls mid-way through the benchmark
suite, which is where the paper's Table IV places it (rate-matched clocks
rise monotonically from `count` toward `gda`).  ``DramConfig.channel_bytes_per_cycle``
is the single knob; see EXPERIMENTS.md for the calibration record.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

WORD_BYTES = 4  #: global memory is word-addressed; one word = 4 bytes.


def _require_positive(section: str, cfg, *names: str) -> None:
    """Raise a ``ValueError`` naming the first field of ``cfg`` below 1."""
    for name in names:
        value = getattr(cfg, name)
        if value < 1:
            raise ValueError(f"{section}.{name}={value!r}: must be >= 1")


@dataclass(frozen=True)
class DramConfig:
    """Die-stacked DRAM channel parameters (Table III, bottom half)."""

    channel_clock_hz: float = 1.2e9
    #: bytes transferred per channel clock on the data bus.  128-bit SDR
    #: would be 16; the default 8 is the reproduction's calibrated
    #: compute:memory ratio (see module docstring).
    channel_bytes_per_cycle: int = 8
    row_bytes: int = 2048
    banks_per_channel: int = 4
    #: timing in channel-clock cycles: tCAS-tRP-tRCD-tRAS = 9-9-9-27
    t_cas: int = 9
    t_rp: int = 9
    t_rcd: int = 9
    t_ras: int = 27
    #: FR-FCFS scheduling window depth
    controller_queue_depth: int = 16
    #: aggregate DRAM access energy (paper cites 6 pJ/bit [31])
    access_pj_per_bit: float = 6.0
    #: extra energy per row activation (charged on every row miss/open)
    activate_pj: float = 2000.0

    @property
    def row_words(self) -> int:
        return self.row_bytes // WORD_BYTES

    @property
    def peak_bandwidth_bytes_per_s(self) -> float:
        return self.channel_clock_hz * self.channel_bytes_per_cycle


@dataclass(frozen=True)
class CoreConfig:
    """Per-corelet/lane/core parameters shared by all PNM architectures."""

    clock_hz: float = 700e6
    n_cores: int = 32  #: corelets per Millipede processor / lanes per SM / SSMC cores
    n_threads: int = 4  #: hardware multithreading contexts
    n_registers: int = 32
    #: cycles before the same thread may issue again (pipeline depth the
    #: 4-way multithreading is there to hide, section IV-A)
    issue_gap_cycles: int = 4
    icache_bytes: int = 4096
    icache_line_bytes: int = 128

    def __post_init__(self):
        _require_positive("core", self, "n_cores", "n_threads")


@dataclass(frozen=True)
class MillipedeConfig:
    """Millipede-specific resources (Table III)."""

    local_memory_bytes: int = 4096  #: per corelet
    prefetch_entries: int = 16  #: prefetch buffer entries (rows in flight)
    slab_bytes: int = 64  #: per-corelet slice of one prefetch-buffer entry
    #: rows to prefetch ahead of the newest first-touched row (section IV-C
    #: allows software hints about prefetch distance).  8 hides the row
    #: fetch latency across every record's field sweep while leaving half
    #: the 16-entry queue as straying slack - pushing it to 15 starves the
    #: no-flow-control ablation into constant premature eviction
    prefetch_ahead: int = 8
    flow_control: bool = True
    rate_match: bool = False
    #: software-barrier ablation (section IV-C / VI-A "not shown" result)
    record_barriers: bool = False
    rate_match_step: float = 0.05  #: 5% DFS steps
    rate_match_min_hz: float = 200e6
    rate_match_max_hz: float = 700e6
    #: minimum picoseconds between DFS adjustments (debounce; the paper's
    #: controller reacts to individual full/empty observations)
    rate_match_interval_ps: int = 200_000


@dataclass(frozen=True)
class SsmcConfig:
    """Plain sea-of-simple-MIMD-cores baseline (Table III)."""

    l1d_bytes: int = 5120  #: 5 KB per core
    #: 64 B lines match each core's per-row slab exactly; this is SSMC's
    #: best case (128 B lines would fetch every block twice across two
    #: cores' private caches), making Millipede's measured edge conservative
    l1d_line_bytes: int = 64
    l1d_assoc: int = 4
    prefetch_degree: int = 3  #: oracle stream prefetch distance


@dataclass(frozen=True)
class GpgpuConfig:
    """GPGPU SM baseline (Table III)."""

    l1d_bytes: int = 32768
    l1d_line_bytes: int = 128
    l1d_assoc: int = 8
    shared_memory_bytes: int = 131072
    shared_memory_banks: int = 32
    warp_width: int = 32
    #: the SM's single stream feeds 4 concurrent warps, so it prefetches
    #: deeper than the per-core MIMD streams
    prefetch_degree: int = 6
    #: meant as the pipeline cycles lost per divergent branch (stack push/
    #: pop, mask regeneration; 1-3 in real SIMT hardware), but nothing reads
    #: it: it never changed timing (docs/backends.md).  Kept because it is
    #: part of every RunSpec.content_hash.
    divergence_penalty_cycles: int = 2


@dataclass(frozen=True)
class VwsConfig:
    """Variable Warp Sizing [41]: dynamically choose 4- or 32-wide warps.

    Like the paper we observe VWS "always chooses 4-wide warps" on BMLAs, so
    the model selects the narrow width whenever the measured divergence rate
    exceeds ``divergence_threshold``."""

    narrow_width: int = 4
    wide_width: int = 32
    divergence_threshold: float = 0.05
    #: VWS-row variant: add Millipede's row-orientedness + flow control
    row_oriented: bool = False


@dataclass(frozen=True)
class MulticoreConfig:
    """Conventional multicore for Fig. 5 (section VI-C)."""

    clock_hz: float = 3.6e9
    n_cores: int = 8
    issue_width: int = 4
    n_threads: int = 4  #: 4-way SMT
    l1_bytes: int = 65536
    l2_bytes_per_core: int = 1 << 20
    line_bytes: int = 64
    #: off-chip memory: one-fourth the die-stacked bandwidth
    offchip_bandwidth_fraction: float = 0.25
    offchip_pj_per_bit: float = 70.0
    offchip_extra_latency_ps: int = 40_000  #: pin/PCB crossing latency
    #: per-instruction dynamic energy of a wide OoO core at 3.6 GHz relative
    #: to a simple in-order corelet (rename/wakeup/bypass networks, larger
    #: structures); order-of-magnitude per published core-energy studies
    core_energy_multiplier: float = 6.0

    def __post_init__(self):
        _require_positive("multicore", self, "n_cores", "n_threads")


@dataclass(frozen=True)
class EnergyConfig:
    """Component energies (22 nm, GPUWattch-flavoured magnitudes).

    Only *relative* magnitudes matter for the paper's Fig. 4; these defaults
    follow the usual ordering: DRAM access >> SRAM access > register/ALU op,
    and shared-memory access > scratchpad access (crossbar + banking).
    """

    alu_op_pj: float = 6.0  #: pipeline energy per executed instruction
    regfile_pj: float = 2.0  #: register file access per instruction
    icache_access_pj: float = 8.0  #: per instruction fetch (per core in MIMD)
    local_mem_pj: float = 4.0  #: scratchpad word access
    l1d_access_pj: float = 12.0  #: L1 D-cache word access
    shared_mem_pj: float = 20.0  #: shared-memory bank word access
    shared_mem_crossbar_pj: float = 15.0  #: 32x32 crossbar traversal per access
    prefetch_buffer_pj: float = 3.0  #: prefetch-buffer slab word access
    #: dynamic energy burnt per core per *idle* cycle (imperfect clock
    #: gating, section V); per paper this is what rate-matching recovers.
    idle_cycle_pj: float = 4.0
    #: static leakage power per core (W); leakage energy = power x runtime
    leakage_w_per_core: float = 0.010


@dataclass(frozen=True)
class SystemConfig:
    """Top-level bundle handed to the simulation driver."""

    core: CoreConfig = field(default_factory=CoreConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    millipede: MillipedeConfig = field(default_factory=MillipedeConfig)
    ssmc: SsmcConfig = field(default_factory=SsmcConfig)
    gpgpu: GpgpuConfig = field(default_factory=GpgpuConfig)
    vws: VwsConfig = field(default_factory=VwsConfig)
    multicore: MulticoreConfig = field(default_factory=MulticoreConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    #: number of PNM processors in a node (paper: 32; Figs 3/4/6/7 simulate 1)
    n_processors: int = 32

    def replace(self, **kwargs) -> "SystemConfig":
        """Shallow ``dataclasses.replace`` convenience."""
        return dataclasses.replace(self, **kwargs)

    # ------------------------------------------------------------------
    # canonical dict / hash round-trip (used by RunSpec and the
    # fingerprint store so a config can cross process and disk boundaries
    # losslessly)
    # ------------------------------------------------------------------
    def canonical_json(self) -> str:
        """Deterministic JSON encoding (sorted keys) of every field.

        The one canonical encoding of a config.  It is computed once per
        instance and kept as immutable text: the instance is frozen, so
        the text can never go stale (``dataclasses.replace`` builds a new
        instance, and copies or pickles carry text that still matches)."""
        text = self.__dict__.get("_canonical_json")
        if text is None:
            text = json.dumps(dataclasses.asdict(self), sort_keys=True,
                              default=str)
            object.__setattr__(self, "_canonical_json", text)
        return text

    def as_canonical_dict(self) -> dict:
        """Plain nested dict of every field, suitable for JSON/pickling.

        A fresh dict decoded from :meth:`canonical_json`, so callers may
        mutate it freely."""
        return json.loads(self.canonical_json())

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        """Inverse of :meth:`as_canonical_dict`.

        Unknown keys are rejected (they would silently change the
        fingerprint); missing sections fall back to their defaults."""
        kwargs = {}
        for key, value in data.items():
            section = _CONFIG_SECTIONS.get(key)
            if section is not None:
                kwargs[key] = section(**value)
            elif key == "n_processors":
                kwargs[key] = value
            else:
                raise KeyError(f"unknown SystemConfig field {key!r}")
        return cls(**kwargs)

    def fingerprint(self) -> str:
        """Stable short hash of every config field."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def with_core(self, **kwargs) -> "SystemConfig":
        return self.replace(core=dataclasses.replace(self.core, **kwargs))

    def with_dram(self, **kwargs) -> "SystemConfig":
        return self.replace(dram=dataclasses.replace(self.dram, **kwargs))

    def with_millipede(self, **kwargs) -> "SystemConfig":
        return self.replace(millipede=dataclasses.replace(self.millipede, **kwargs))

    def with_gpgpu(self, **kwargs) -> "SystemConfig":
        return self.replace(gpgpu=dataclasses.replace(self.gpgpu, **kwargs))

    def with_vws(self, **kwargs) -> "SystemConfig":
        return self.replace(vws=dataclasses.replace(self.vws, **kwargs))

    def with_ssmc(self, **kwargs) -> "SystemConfig":
        return self.replace(ssmc=dataclasses.replace(self.ssmc, **kwargs))

    def with_multicore(self, **kwargs) -> "SystemConfig":
        return self.replace(multicore=dataclasses.replace(self.multicore, **kwargs))

    def scaled_system_size(self, n: int) -> "SystemConfig":
        """Fig. 6 sweep: ``n`` corelets/lanes/cores with proportionally
        scaled memory bandwidth (paper doubles bandwidth at 64 cores).

        The SM's shared memory scales with the lane count so the per-thread
        live-state budget stays constant - the MIMD architectures already
        scale per-core resources (4 KB local memory / 5 KB L1 per core)."""
        base = CoreConfig().n_cores
        scale = n / base
        dram = dataclasses.replace(
            self.dram,
            channel_bytes_per_cycle=max(1, round(self.dram.channel_bytes_per_cycle * scale)),
        )
        gpgpu = dataclasses.replace(
            self.gpgpu,
            shared_memory_bytes=round(self.gpgpu.shared_memory_bytes * scale),
        )
        return self.replace(
            core=dataclasses.replace(self.core, n_cores=n), dram=dram, gpgpu=gpgpu
        )


#: nested dataclass type per SystemConfig section (for from_dict)
_CONFIG_SECTIONS: dict[str, type] = {
    "core": CoreConfig,
    "dram": DramConfig,
    "millipede": MillipedeConfig,
    "ssmc": SsmcConfig,
    "gpgpu": GpgpuConfig,
    "vws": VwsConfig,
    "multicore": MulticoreConfig,
    "energy": EnergyConfig,
}

DEFAULT_CONFIG = SystemConfig()
