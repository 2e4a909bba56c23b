"""Error paths of the machine: where it stops, what it has counted, and
that a bad instruction fails only when (and as) it is reached."""

import pytest

from repro.sve.decoder import assemble
from repro.sve.machine import Machine, SimulationError
from repro.sve.memory import Memory, MemoryError_
from repro.sve.tracer import Tracer
from repro.sve.vl import VL

#: A VLA load loop: 2 prologue instructions, 4 per iteration.
LOAD_LOOP = """
    mov     x8, xzr
    whilelo p0.d, xzr, x0
.Lloop:
    ld1d    {z0.d}, p0/z, [x1, x8, lsl #3]
    incd    x8
    whilelo p0.d, x8, x0
    b.mi    .Lloop
    ret
"""
LOAD_PC = 2


def _machine(vl_bits=128, memory=None):
    return Machine(VL(vl_bits), memory=memory, tracer=Tracer())


class TestFaultingLoad:
    def test_active_out_of_bounds_load_mid_loop(self):
        # 64 doubles fit between the array start and the end of memory:
        # at VL128 (2 lanes) the 33rd load's active lanes fall outside.
        mem = Memory(size=1024)
        m = _machine(memory=mem)
        with pytest.raises(MemoryError_, match=r"access \[1024, 1040\)"):
            m.call(assemble(LOAD_LOOP), 1000, 512)
        full_iterations = 64 // 2
        retired = 2 + 4 * full_iterations
        assert m.pc == LOAD_PC
        assert m.steps == m.tracer.total == retired
        assert m.tracer.by_mnemonic["ld1d"] == full_iterations
        assert m.tracer.by_mnemonic["whilelo"] == 1 + full_iterations
        assert m.tracer.by_mnemonic["b.mi"] == full_iterations
        assert sum(m.tracer.by_category.values()) == retired
        assert m.x.read(8) == 2 * full_iterations

    def test_machine_runs_again_after_the_fault(self):
        mem = Memory(size=1024)
        m = _machine(memory=mem)
        prog = assemble(LOAD_LOOP)
        with pytest.raises(MemoryError_):
            m.call(prog, 1000, 512)
        before = m.steps
        assert m.call(prog, 4, 512) == 4
        assert m.steps - before == 2 + 4 * 2 + 1


# Operand combinations that cannot execute, with the error each raises.
BAD = [
    ("frobnicate x0, x1", SimulationError,
     "unimplemented instruction: 'frobnicate x0, x1'"),
    ("fmul z0.d, z1.d", ValueError,
     "not enough values to unpack (expected 4, got 2)"),
    ("ld2d {z0.d}, p0/z, [x0]", SimulationError,
     "ld2d needs 2 registers: 'ld2d {z0.d}, p0/z, [x0]'"),
    ("mov z0.d, p0", SimulationError, "bad mov: 'mov z0.d, p0'"),
    ("mov x40, #1", IndexError, "no such general-purpose register x40"),
    ("fadd z33.d, z1.d, z2.d", IndexError, "no such vector register z33"),
    ("whilelo p16.d, xzr, x0", IndexError, "no such predicate register p16"),
    ("ptrue p0.d, mul3", ValueError, "unknown ptrue pattern 'mul3'"),
    ("cntd x0, mul4", ValueError, "unknown ptrue pattern 'mul4'"),
    ("b.xx .Lend", ValueError, "unknown condition code 'xx'"),
    ("b .Lnowhere", KeyError, "undefined label '.Lnowhere'"),
]


@pytest.mark.parametrize("line,kind,message", BAD,
                         ids=[b[0].split()[0] for b in BAD])
class TestBadInstruction:
    def test_never_reached_runs(self, line, kind, message):
        m = _machine()
        assert m.run(assemble(f"mov x0, #1\nret\n{line}\n.Lend:\n")) == 2
        assert m.x.read(0) == 1 and m.tracer.total == 2

    def test_reached_raises_as_before(self, line, kind, message):
        m = _machine()
        prog = assemble(f"mov x0, #1\nmov x1, #2\n{line}\nret\n.Lend:\n")
        with pytest.raises(kind) as err:
            m.run(prog)
        assert message in str(err.value)
        assert m.pc == 2 and m.steps == m.tracer.total == 2
        # Bound once, the failure repeats on every run that reaches it.
        with pytest.raises(kind):
            m.run(prog)
        assert m.steps == 4


def test_untaken_branch_to_undefined_label_runs():
    m = _machine()
    prog = assemble("mov x0, #1\ncmp x0, #1\nb.ne .Lnowhere\nret\n")
    assert m.run(prog) == 4


class TestMaxSteps:
    PROG = "mov x0, #1\nmov x1, #2\nmov x2, #3\nret\n"

    def test_exact_boundary_completes(self):
        # ret retires without the check: 3 counted steps + ret.
        m = _machine()
        assert m.run(assemble(self.PROG), max_steps=3) == 4
        assert m.pc == 3 and m.steps == m.tracer.total == 4

    def test_one_under_raises_at_the_last_retired(self):
        m = _machine()
        with pytest.raises(SimulationError, match="exceeded 2 steps"):
            m.run(assemble(self.PROG), max_steps=2)
        assert m.pc == 2 and m.steps == m.tracer.total == 3
        assert m.x.read(2) == 3

    def test_runaway_loop_counts_max_plus_one(self):
        m = _machine()
        with pytest.raises(SimulationError, match="exceeded 100 steps"):
            m.run(assemble(".La:\nb .La\nret\n"), max_steps=100)
        assert m.pc == 0 and m.steps == m.tracer.total == 101
        assert m.tracer.by_mnemonic == {"b": 101}
