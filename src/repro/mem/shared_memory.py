"""GPGPU banked shared memory (section III-E / V).

The live state of lane *i*'s threads is striped so it lives entirely in
bank *i* ("the i-th thread's state in the i-th bank"); the SM translates a
thread-private local address ``a`` of the thread on lane ``l`` to physical
word ``a * n_banks + l``, so a warp's 32 simultaneous *irregular* accesses
are conflict-free - this is how the paper's GPGPU sidesteps uncoalesced
indirect accesses.  So the simulator counts accesses, not conflicts:
:meth:`BankedSharedMemory.conflict_cycles` is the bank-service model the
striping property tests check, and the access count charges the crossbar
energy that makes shared memory "power-hungry" in Fig. 4.
"""

from __future__ import annotations


class BankedSharedMemory:
    """Bank geometry and access counters of the word-interleaved scratchpad.

    The contents live in the SIMT functional phase's live-state matrix;
    the SM installs that phase's access total here at finish.

    >>> sm = BankedSharedMemory(n_words=64, n_banks=4)
    >>> sm.conflict_cycles([0, 1, 2, 3])   # four distinct banks
    1
    >>> sm.conflict_cycles([0, 4, 8])      # all in bank 0
    3
    """

    def __init__(self, n_words: int, n_banks: int):
        if n_words % n_banks:
            raise ValueError(f"{n_words} words not divisible by {n_banks} banks")
        self.n_words = n_words
        self.n_banks = n_banks
        self.accesses = 0

    # ------------------------------------------------------------------
    def translate(self, thread_local_addr: int, lane: int) -> int:
        """Thread-private local address -> physical word (bank striping)."""
        return thread_local_addr * self.n_banks + (lane % self.n_banks)

    def bank_of(self, phys_addr: int) -> int:
        return phys_addr % self.n_banks

    # ------------------------------------------------------------------
    def conflict_cycles(self, phys_addrs: list[int]) -> int:
        """Cycles to serve one warp's simultaneous accesses: the maximum
        number of accesses landing in any single bank."""
        if not phys_addrs:
            return 0
        counts: dict[int, int] = {}
        for a in phys_addrs:
            b = a % self.n_banks
            counts[b] = counts.get(b, 0) + 1
        self.accesses += len(phys_addrs)
        return max(counts.values())
