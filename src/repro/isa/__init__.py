"""A small RISC-style ISA shared by every simulated architecture.

BMLA kernels are written once in this ISA (see ``repro.workloads``) and run
unmodified on Millipede (MIMD corelets), plain SSMC (MIMD cores), GPGPU /
VWS (SIMT warps with divergence stacks) and the conventional multicore; only
the memory system and the instruction scheduling differ between models,
which is exactly the experimental isolation the paper's section V demands.
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
from repro.isa.executor import ThreadContext, MemAccess, step_one, branch_taken, exec_non_memory

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
    "ThreadContext",
    "MemAccess",
    "step_one",
    "branch_taken",
    "exec_non_memory",
]
