"""Variable Warp Sizing [41] and the VWS-row variant (sections II, V, VI).

VWS dynamically chooses between 4-wide and 32-wide warps: narrow warps lose
less to branch divergence, wide warps amortize instruction processing when
control flow is uniform.  The paper observes that on BMLAs "VWS always
chooses 4-wide warps" - their data-dependent branches split ~70/30, so the
probability that even 4 threads agree is under 25%.  We implement the
selection policy explicitly (:meth:`VwsSM.select_width`), verify in tests
that every BMLA's measured divergence trips the narrow choice, and run the
SM with 8 concurrent 4-wide warps issuing in parallel lane slices.

``VwsRowSM`` adds Millipede's row-orientedness and flow control on top of
VWS (the paper's generality check): warp loads go to a shared row prefetch
buffer, with each 4-wide warp acting as one consumption unit.
"""

from __future__ import annotations

from repro.arch.gpgpu import GpgpuSM
from repro.config import SystemConfig, VwsConfig
from repro.mem.prefetch_buffer import PrefetchBuffer


class VwsSM(GpgpuSM):
    """GPGPU SM running the VWS-selected (narrow) warp width."""

    def __init__(self, engine, config: SystemConfig, program, global_mem, stats, **kw):
        kw.setdefault("warp_width", config.vws.narrow_width)
        super().__init__(engine, config, program, global_mem, stats, **kw)

    @staticmethod
    def select_width(divergence_rate: float, cfg: VwsConfig) -> int:
        """The VWS policy: fraction of branches that diverge (measured over
        a profiling window on wide warps) above the threshold selects
        narrow warps.  BMLAs always exceed the threshold (tested)."""
        if divergence_rate > cfg.divergence_threshold:
            return cfg.narrow_width
        return cfg.wide_width


class VwsRowSM(VwsSM):
    """VWS + Millipede's row-oriented, flow-controlled prefetch buffer.

    Each narrow warp is one consumption unit of the prefetch buffer (its
    four lanes read four adjacent words of the same row), so the DF
    counters saturate at the warp count.
    """

    uses_l1d_input_path = False
    #: interleaved traversal: a warp's lanes read words of other warps'
    #: slabs, so the sanitizer's ``slab-privacy`` check does not apply
    private_slabs = False

    def __init__(self, engine, config: SystemConfig, program, global_mem, stats,
                 *, input_base_word: int, input_end_word: int, layout=None, **kw):
        super().__init__(
            engine, config, program, global_mem, stats,
            input_base_word=input_base_word, input_end_word=input_end_word, **kw,
        )
        row_words = config.dram.row_words
        if input_base_word % row_words or input_end_word % row_words:
            raise ValueError("input region must be row-aligned")
        n_warps = len(self.warps)
        self.prefetch_buffer = PrefetchBuffer(
            engine,
            self.mc,
            stats,
            n_corelets=n_warps,
            n_entries=config.millipede.prefetch_entries,
            row_words=row_words,
            flow_control=config.millipede.flow_control,
            demand_block_words=config.millipede.slab_bytes // 4,
            prefetch_ahead=config.millipede.prefetch_ahead,
            record_row_span=layout.n_fields if layout is not None else 1,
        )

    def start(self) -> None:
        row_words = self.config.dram.row_words
        self.prefetch_buffer.start(
            self._input_base // row_words,
            self._input_end // row_words - 1,
        )
        super().start()

    def _issue_global(self, warp, addr_lanes: list) -> None:
        remaining = len(addr_lanes)
        latest = self.engine.now

        def word_ready(ready_ps: int, _code: str) -> None:
            nonlocal remaining, latest
            remaining -= 1
            latest = max(latest, ready_ps)
            if remaining == 0:
                warp.blocked = False
                self.pending -= 1
                warp.ready_at = latest + self.clock.period_ps
                self._schedule_run(max(self.t, warp.ready_at))

        self.mem_transactions += 1
        for _, addr in addr_lanes:
            self.prefetch_buffer.demand_access(warp.wid, addr, word_ready)

    def collect(self) -> dict[str, float]:
        out = super().collect()
        out.pop("l1d_accesses", None)
        return out
