"""Differential property tests: the ISA interpreter against a direct
Python evaluation of the same operation sequence, and the two MIMD trace
producers against each other.

Hypothesis generates random straight-line ALU programs; both executors
must agree on every register, for any inputs.  This is the deepest
correctness net under every simulated result (all kernels reduce to these
semantics plus memory moves, which the golden-model validation covers
end-to-end).

The two backends differ only in how the issue traces are computed.  For
the MIMD cores, :func:`repro.isa.executor.trace_threads` walks each
thread with the scalar interpreter and :func:`repro.isa.vector.execute`
runs all threads as NumPy column ops; for the SIMT SMs,
:func:`repro.isa.executor.trace_warps` walks each warp under its PDOM
stack and :func:`repro.isa.vector.execute_simt` runs the NumPy divergence
engine.  :class:`TestTraceEquality` and :class:`TestSimtTraceEquality`
check that both producers build the same plan, trace for trace and
counter for counter.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.dram import GlobalMemory
from repro.isa.executor import ALU, BRANCH, decode, trace_threads, trace_warps
from repro.isa.instructions import Op
from repro.isa.program import Program
from repro.isa.vector import K_BAR, execute, execute_simt
from repro.sim.driver import run
from repro.sim.spec import RunSpec
from repro.workloads.registry import workload_names

# ops closed over positive ints (keep idiv/rem/shift well-defined)
_INT_BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "min": lambda a, b: min(a, b),
    "max": lambda a, b: max(a, b),
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "slt": lambda a, b: int(a < b),
    "sle": lambda a, b: int(a <= b),
    "seq": lambda a, b: int(a == b),
    "sne": lambda a, b: int(a != b),
}

_FLOAT_BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "min": lambda a, b: min(a, b),
    "max": lambda a, b: max(a, b),
}

_UNOPS = {
    "abs": abs,
    "neg": lambda a: -a,
    "mov": lambda a: a,
}


_J, _HALT = int(Op.J), int(Op.HALT)


def interpret(source: str, init: dict[int, float]) -> list[float]:
    """Run an ALU/branch program over its :func:`decode` closures and
    return the registers at the halt (exact Python ints, unlike the
    float64 live state)."""
    code = decode(Program.from_source(source))
    regs: list = [0] * 32
    for r, v in init.items():
        regs[r] = v
    pc = steps = 0
    while True:
        kind, fn, target = code[pc][:3]
        assert kind in (ALU, BRANCH, _J, _HALT), \
            "ALU-only programs must not touch memory"
        if kind == _HALT:
            return regs
        if kind == ALU:
            fn(regs)
            pc += 1
        elif kind == BRANCH:
            pc = target if fn(regs) else pc + 1
        else:
            pc = target
        steps += 1
        assert steps < 10_000


@st.composite
def alu_program(draw, ops_dict, value_strategy, store=False):
    """A random straight-line program over registers r1..r7 with model.
    With ``store``, every written register is stored to the live-state
    word of its own number before the ``halt``."""
    n_init = draw(st.integers(min_value=1, max_value=7))
    init = {r: draw(value_strategy) for r in range(1, n_init + 1)}
    regs = list(range(1, n_init + 1))
    model = {0: 0, **init}
    lines = []
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        kind = draw(st.sampled_from(["bin", "un"]))
        rd = draw(st.integers(min_value=1, max_value=7))
        if kind == "bin":
            op = draw(st.sampled_from(sorted(ops_dict)))
            rs, rt = draw(st.sampled_from(regs)), draw(st.sampled_from(regs))
            lines.append(f"{op} r{rd}, r{rs}, r{rt}")
            model[rd] = ops_dict[op](model.get(rs, 0), model.get(rt, 0))
        else:
            op = draw(st.sampled_from(sorted(_UNOPS)))
            rs = draw(st.sampled_from(regs))
            lines.append(f"{op} r{rd}, r{rs}")
            model[rd] = _UNOPS[op](model.get(rs, 0))
        if rd not in regs:
            regs.append(rd)
    if store:
        lines += [f"stl r{r}, r0, {r}" for r in regs]
    lines.append("halt")
    return "\n".join(lines), init, model


class TestDifferential:
    @given(alu_program(_INT_BINOPS, st.integers(min_value=0, max_value=1 << 20)))
    @settings(max_examples=200, deadline=None)
    def test_integer_programs_agree(self, case):
        source, init, model = case
        regs = interpret(source, init)
        for r, want in model.items():
            assert regs[r] == want, f"r{r} after:\n{source}"

    @given(alu_program(_FLOAT_BINOPS,
                       st.floats(min_value=-1e6, max_value=1e6,
                                 allow_nan=False, allow_infinity=False)))
    @settings(max_examples=200, deadline=None)
    def test_float_programs_agree(self, case):
        source, init, model = case
        regs = interpret(source, init)
        for r, want in model.items():
            got = regs[r]
            assert got == want or math.isclose(got, want, rel_tol=0, abs_tol=0), (
                f"r{r}: {got} != {want} after:\n{source}"
            )

    @given(st.integers(min_value=1, max_value=1 << 16),
           st.integers(min_value=1, max_value=1 << 10))
    @settings(max_examples=100, deadline=None)
    def test_idiv_rem_identity(self, a, b):
        regs = interpret("idiv r3, r1, r2\nrem r4, r1, r2\nhalt", {1: a, 2: b})
        assert regs[3] * b + regs[4] == a

    @given(st.floats(min_value=0, max_value=1e12, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_sqrt_matches_math(self, x):
        regs = interpret("sqrt r2, r1\nhalt", {1: x} if x else {2: 0, 1: 0})
        assert regs[2] == math.sqrt(x)

    @given(st.integers(min_value=-1000, max_value=1000),
           st.integers(min_value=-1000, max_value=1000))
    @settings(max_examples=100, deadline=None)
    def test_branch_agrees_with_comparison(self, a, b):
        """A branch on (a < b) and the slt comparison must agree."""
        src = """
            blt r1, r2, took
            li r3, 0
            j out
        took:
            li r3, 1
        out:
            slt r4, r1, r2
            halt
        """
        regs = interpret(src, {1: a, 2: b})
        assert regs[3] == regs[4] == int(a < b)


# ----------------------------------------------------------------------
# trace equality: the scalar walker and the NumPy executor build the
# same replay plan
# ----------------------------------------------------------------------
_FLOATS = st.floats(min_value=-1e6, max_value=1e6,
                    allow_nan=False, allow_infinity=False)


def assert_plans_equal(a, b) -> None:
    assert len(a.traces) == len(b.traces)
    for g, (x, y) in enumerate(zip(a.traces, b.traces)):
        assert x.gaps == y.gaps, f"thread {g} gaps"
        assert x.kinds == y.kinds, f"thread {g} kinds"
        assert x.addrs == y.addrs, f"thread {g} addrs"
    # bytes, so -0.0, inf and NaN must match exactly as well
    assert a.local.shape == b.local.shape
    assert a.local.tobytes() == b.local.tobytes()
    for name in ("branches", "taken_branches", "local_reads", "local_writes"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


_SIMT_COUNTERS = (
    "instr_count", "branches", "taken_branches", "local_reads",
    "local_writes", "warp_instructions", "active_lane_slots",
    "divergence_idle_slots", "divergent_branches", "uniform_branches",
    "shared_accesses",
)


def assert_simt_plans_equal(a, b) -> None:
    assert len(a.warp_traces) == len(b.warp_traces)
    for w, (x, y) in enumerate(zip(a.warp_traces, b.warp_traces)):
        for name in ("gaps", "kinds", "payloads", "tmasks"):
            assert getattr(x, name) == getattr(y, name), f"warp {w} {name}"
    assert a.local.shape == b.local.shape
    assert a.local.tobytes() == b.local.tobytes()
    for name in _SIMT_COUNTERS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class _Launched(Exception):
    """Carries the processor out of the driver before simulated time."""


def launch_state(arch: str, workload: str):
    def grab(proc, engine, sanitizer):
        raise _Launched(proc)

    with pytest.raises(_Launched) as exc:
        run(RunSpec(arch, workload, n_records=64), probe=grab)
    return exc.value.args[0]


class TestTraceEquality:
    @pytest.mark.parametrize("wl", workload_names())
    @pytest.mark.parametrize("arch", ["millipede", "millipede-bar", "ssmc",
                                      "multicore"])
    def test_workload_plans_agree(self, arch, wl):
        proc = launch_state(arch, wl)
        shape = (proc._thread_args, proc.config.core.n_registers,
                 proc.cores[0].state_words, proc._initial_state)
        scalar = trace_threads(proc.program, proc.global_mem.read_word,
                               *shape)
        vector = execute(proc.program, proc.global_mem.data, *shape)
        assert_plans_equal(scalar, vector)
        if arch == "millipede-bar":
            assert any(K_BAR in tr.kinds for tr in scalar.traces)

    @given(alu_program(_FLOAT_BINOPS, _FLOATS, store=True),
           st.lists(st.lists(_FLOATS, min_size=7, max_size=7),
                    min_size=8, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_float_program_plans_agree(self, case, inputs):
        source, init, _ = case
        program = Program.from_source(source)
        thread_args = [{r: vals[r - 1] for r in init} for vals in inputs]
        scalar = trace_threads(program, lambda addr: 0.0, thread_args,
                               32, 8)
        vector = execute(program, np.zeros(1), thread_args, 32, 8)
        assert_plans_equal(scalar, vector)
        assert int(scalar.local_writes.sum()) > 0


class TestSimtTraceEquality:
    @pytest.mark.parametrize("wl", workload_names())
    @pytest.mark.parametrize("arch", ["gpgpu", "vws", "vws-row"])
    def test_workload_plans_agree(self, arch, wl):
        sm = launch_state(arch, wl)
        shape = (sm._thread_args, sm.config.core.n_registers,
                 sm.state_words, sm.width, sm._initial_state)
        scalar = trace_warps(sm.program, sm.global_mem.read_word, *shape)
        vector = execute_simt(sm.program, sm.global_mem.data, *shape)
        assert_simt_plans_equal(scalar, vector)


# ----------------------------------------------------------------------
# end-to-end differential sweep under the sanitizer: every architecture
# runs every workload with runtime invariant checking attached, and every
# simulated reduction must match the golden NumPy model (validate=True
# raises inside run_batch on any mismatch; the sanitizer raises
# InvariantViolation on any broken mechanism invariant)
# ----------------------------------------------------------------------
class TestSanitizedDifferentialSweep:
    def test_every_arch_every_workload_sanitized(self):
        from repro import ARCHITECTURES
        from repro.sim.campaign import cross, run_batch
        from repro.sim.options import ExecOptions
        from repro.workloads.registry import workload_names

        specs = cross(list(ARCHITECTURES), workload_names(), n_records=256,
                      options=ExecOptions(sanitize=True))
        results = run_batch(specs, workers=1)
        assert len(results) == len(specs)
        assert all(r.validated for r in results)
        assert all(r.finish_ps > 0 for r in results)


# ----------------------------------------------------------------------
# error parity: the scalar walkers and the NumPy executors fail alike
# ----------------------------------------------------------------------
_WIDTH = 4


def _mimd_reference(program, gm, args, state_words):
    return trace_threads(program, gm.read_word, args, 32, state_words)


def _mimd_vector(program, gm, args, state_words):
    return execute(program, gm.data, args, 32, state_words)


def _simt_reference(program, gm, args, state_words):
    return trace_warps(program, gm.read_word, args, 32, state_words, _WIDTH)


def _simt_vector(program, gm, args, state_words):
    return execute_simt(program, gm.data, args, 32, state_words, _WIDTH)


#: id -> (source, exception, names data: the messages must match too);
#: every thread gets r1 = its global index
_FAULTS = {
    "div-by-zero": ("li r2, 1\ndiv r3, r2, r0\nhalt", ZeroDivisionError, False),
    "div-by-zero-into-r0": ("li r2, 1\ndiv r0, r2, r0\nhalt", ZeroDivisionError, False),
    "idiv-by-zero": ("li r2, 1\nidiv r3, r2, r0\nhalt", ZeroDivisionError, False),
    "idiv-by-zero-into-r0": ("li r2, 1\nidiv r0, r2, r0\nhalt", ZeroDivisionError, False),
    "rem-by-zero": ("li r2, 1\nrem r3, r2, r0\nhalt", ZeroDivisionError, False),
    "rem-by-zero-into-r0": ("li r2, 1\nrem r0, r2, r0\nhalt", ZeroDivisionError, False),
    "sqrt-negative": ("li r2, -1\nsqrt r3, r2\nhalt", ValueError, False),
    # threads 2 and 3 read words 8 and 9 of an 8-word image
    "global-read-range": ("ldg r2, r1, 6\nhalt", IndexError, True),
    # threads 2 and 3 address words 4 and 5 of a 4-word partition
    "ldl-partition": ("ldl r2, r1, 2\nhalt", IndexError, True),
    "stl-partition": ("stl r1, r1, 2\nhalt", IndexError, True),
    "stg": ("stg r1, r0, 0\nhalt", NotImplementedError, False),
    # thread 2 passes an argument in r0
    "argument-in-r0": ("halt", ValueError, True),
    # lane 0 branches to its own halt while lanes 1-3 halt at pc 1
    "divergent-halt": ("beqz r1, done\nhalt\ndone:\nhalt", AssertionError, True),
}


_PAIRS = {
    "trace_threads-execute": (_mimd_reference, _mimd_vector),
    "trace_warps-execute_simt": (_simt_reference, _simt_vector),
}


class TestErrorParity:
    @pytest.mark.parametrize("pair, fault", [
        (pair, fault) for pair in _PAIRS for fault in _FAULTS
        # MIMD threads halt independently: no divergent halt there
        if not (fault == "divergent-halt" and pair == "trace_threads-execute")
    ])
    def test_same_exception(self, pair, fault):
        source, error, names_data = _FAULTS[fault]
        args = [{1: t} for t in range(_WIDTH)]
        if fault == "argument-in-r0":
            args[2] = {0: 1.0}
        program = Program.from_source(source)
        messages = []
        for producer in _PAIRS[pair]:
            with pytest.raises(error) as exc:
                producer(program, GlobalMemory(8), args, 4)
            assert type(exc.value) is error
            messages.append(str(exc.value))
        if names_data:
            assert messages[0] == messages[1]
