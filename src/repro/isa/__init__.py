"""A small RISC-style ISA shared by every simulated architecture.

BMLA kernels are written once in this ISA (see ``repro.workloads``) and run
unmodified on Millipede (MIMD corelets), plain SSMC (MIMD cores), GPGPU /
VWS (SIMT warps with divergence stacks) and the conventional multicore; only
the memory system and the instruction scheduling differ between models,
which is exactly the experimental isolation the paper's section V demands.

Two producers compute a kernel's functional trajectory:
:mod:`repro.isa.executor` decodes each instruction once into a closure
(the one copy of the scalar semantics) and walks threads or warps over
them (the ``reference`` backend); :mod:`repro.isa.vector` runs all threads
as NumPy column ops (the ``vector`` backend).
"""

from repro.isa.instructions import (
    Instr,
    Op,
    ALU_OPS,
    BRANCH_OPS,
    MEMORY_OPS,
    is_branch,
    is_memory,
)
from repro.isa.assembler import assemble, AssemblyError
from repro.isa.program import Program

__all__ = [
    "Instr",
    "Op",
    "ALU_OPS",
    "BRANCH_OPS",
    "MEMORY_OPS",
    "is_branch",
    "is_memory",
    "assemble",
    "AssemblyError",
    "Program",
]
