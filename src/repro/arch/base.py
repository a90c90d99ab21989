"""Common processor interface consumed by the simulation driver."""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class Processor(Protocol):
    """What every architecture model exposes to :mod:`repro.sim.driver`.

    Concrete implementations: the MIMD processors
    :class:`repro.core.MillipedeProcessor`, :class:`repro.arch.SsmcProcessor`
    and :class:`repro.arch.MulticoreProcessor`, which share one shell,
    :class:`repro.core.MimdProcessor`; and the SIMT SMs
    :class:`repro.arch.GpgpuSM`, :class:`repro.arch.VwsSM` and
    :class:`repro.arch.VwsRowSM`.
    """

    finish_ps: Optional[int]

    def set_thread_args(self, args_per_thread: list[dict[int, float]]) -> None:
        """Load the kernel ABI registers for every hardware thread."""
        ...

    def start(self) -> None:
        """Begin execution at the current engine time."""
        ...

    @property
    def done(self) -> bool:
        """True once every thread has halted."""
        ...

    def thread_states(self) -> list[np.ndarray]:
        """Per-global-thread live-state arrays (host copy-out order)."""
        ...

    def collect(self) -> dict[str, float]:
        """Aggregate run counters for the energy model and reports."""
        ...
