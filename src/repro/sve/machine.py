"""The SVE machine executor.

Runs a :class:`repro.sve.program.Program` at a fixed vector length — the
role ArmIE played in the paper (Section V-D): *"The emulator allows for
functional code verification by emulating SVE instructions ... The SVE
vector length is supplied to ArmIE as a command-line parameter."*

The machine owns the architectural state (Z/P/X registers, NZCV,
memory) and decodes each program once per vector length: a binder
``(insn, vl, program) -> step`` resolves what depends on the instruction
and the VL alone — register indices (checked there), element dtypes and
lane counts, address constants, branch targets, counter amounts,
``ptrue`` patterns, rotations, condition codes — and the step closure
reads registers, calls the pure semantics in :mod:`repro.sve.ops`,
writes the result and returns the next pc (``None`` falls through).  A
bad instruction binds to a step that raises its error when reached.  The
steps are kept on the program, keyed by ``VL.bits``; the run loop is
``pc = steps[pc](machine)``.  A :class:`repro.sve.tracer.Tracer` counts
the retired instructions (folded in per pc when the run ends); a
:class:`repro.sve.faults.FaultModel` may corrupt predicate-generating
instructions to model the immature-toolchain failures of Section V-D.
Fault hooks and memory reads happen as an instruction-at-a-time
interpreter makes them: same instructions, same order.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from typing import Optional

import numpy as np

from repro.sve import predicate as predops
from repro.sve.decoder import Imm, Pattern, POp, ShiftSpec, VOp, XOp, ZOp
from repro.sve.memory import Memory
from repro.sve.ops import arith, cplx, convert, loadstore, permute, reduce
from repro.sve.program import Program
from repro.sve.regfile import (CONDITIONS, Flags, PRegisterFile,
                               XRegisterFile, ZRegisterFile)
from repro.sve.tracer import categorize
from repro.sve.types import (FLOAT_BY_SUFFIX, INT_BY_SUFFIX, SIZE_BY_SUFFIX,
                             UINT_BY_SUFFIX)
from repro.sve.vl import VL

_MASK64 = (1 << 64) - 1
_STOP = -1  # what ``ret`` returns: retire, then leave the run loop
_U8, _U64 = np.dtype(np.uint8), np.dtype(np.uint64)
#: Element size of a counter or load/store mnemonic suffix (``w`` = 4).
_MNEMONIC_ESIZE = {"b": 1, "h": 2, "w": 4, "d": 8}


class SimulationError(RuntimeError):
    """Raised for unimplemented instructions or runaway programs."""


class Machine:
    """Architectural state + executor for one SVE hardware thread."""

    def __init__(self, vl: VL, memory: Optional[Memory] = None,
                 tracer=None, fault_model=None) -> None:
        self.vl = vl
        self.mem = memory if memory is not None else Memory()
        self.z = ZRegisterFile(vl)
        self.p = PRegisterFile(vl)
        self.x = XRegisterFile()
        self.flags = Flags()
        self.tracer = tracer
        self.faults = fault_model
        self.pc = 0
        self.steps = 0

    def run(self, program: Program, max_steps: int = 10_000_000) -> int:
        """Execute ``program`` from instruction 0 until ``ret``.

        Returns the number of retired instructions.  When an instruction
        raises, ``pc`` is left at it, and ``steps`` and the tracer count
        the instructions retired before it.
        """
        steps, keys, categories = _bind(program, self.vl)
        n = len(steps)
        tracer = self.tracer
        stream = tracer.stream if tracer is not None and tracer.record_stream \
            else None
        insns = program.instructions
        counts: dict = defaultdict(int)  # pc -> retired, first-retired order
        retired = pc = 0
        try:
            while pc < n:
                nxt = steps[pc](self)
                counts[pc] += 1
                retired += 1
                if stream is not None:
                    stream.append(insns[pc].text)
                if nxt is None:
                    nxt = pc + 1
                elif nxt < 0:
                    break  # ret
                if retired > max_steps:
                    raise SimulationError(
                        f"program exceeded {max_steps} steps (infinite loop?)"
                    )
                pc = nxt
        finally:
            self.pc = pc
            self.steps += retired
            if tracer is not None:
                tracer.retire(counts, keys, categories)
        return retired

    def call(self, program: Program, *args: int, max_steps: int = 10_000_000) -> int:
        """AAPCS-style call: integer args in x0..x7, result from x0."""
        if len(args) > 8:
            raise ValueError("at most 8 integer arguments supported")
        for i, a in enumerate(args):
            self.x.write(i, a)
        self.run(program, max_steps=max_steps)
        return self.x.read(0)

    def read_fp_scalar(self, idx: int, suffix: str = "d") -> float:
        """Read a ``d<idx>``/``s<idx>`` scalar (low element of z<idx>)."""
        return float(self.z.read(idx, FLOAT_BY_SUFFIX[suffix])[0])


# ---- Binding -------------------------------------------------------

def _bind(program: Program, vl: VL) -> tuple:
    """(steps, tracer keys, tracer categories) per pc of ``program`` at
    ``vl``, bound on first use and kept on the program."""
    bound = program._bound.get(vl.bits)
    if bound is None:
        insns = program.instructions
        bound = program._bound[vl.bits] = (
            tuple(_bind_one(insn, vl, program) for insn in insns),
            tuple(i.mnemonic if i.cond is None else f"b.{i.cond}"
                  for i in insns),
            tuple(categorize(i.mnemonic) for i in insns),
        )
    return bound


def _bind_one(insn, vl: VL, program: Program):
    binder = _BINDERS.get(insn.mnemonic)
    try:
        if binder is None:
            raise SimulationError(f"unimplemented instruction: {insn.text!r}")
        return binder(insn, vl, program)
    except Exception as exc:  # raised when (and only if) it is reached
        kind, args = type(exc), exc.args

        def fail(m):
            raise kind(*args)
        return fail


# Bind-time operand helpers.  ``_z``/``_p``/``_x`` check a register
# index; ``_zf``/``_zi``/``_zu`` give (dtype, index) of a Z operand read
# as floats, signed or unsigned integers per its suffix.

def _index_checker(limit: int, what: str, letter: str):
    def check(op) -> int:
        if not 0 <= op.idx < limit:
            raise IndexError(f"no such {what} register {letter}{op.idx}")
        return op.idx
    return check


_z = _index_checker(ZRegisterFile.NREGS, "vector", "z")
_p = _index_checker(PRegisterFile.NREGS, "predicate", "p")
_x = _index_checker(XRegisterFile.XZR + 1, "general-purpose", "x")


def _reader(table):
    return lambda op: (table[op.suffix].dtype, _z(op))


_zf, _zi, _zu = (_reader(FLOAT_BY_SUFFIX), _reader(INT_BY_SUFFIX),
                 _reader(UINT_BY_SUFFIX))


def _esize(op) -> int:
    if getattr(op, "suffix", None) is None:
        raise SimulationError(f"operand {op} needs an element suffix")
    return SIZE_BY_SUFFIX[op.suffix]


def _filter(m: Machine, mnemonic: str, active: np.ndarray) -> np.ndarray:
    """The fault model's view of a freshly generated predicate."""
    if m.faults is not None:
        return m.faults.filter_predicate(mnemonic, active, m.vl)
    return active


def _address(mem, vl: VL):
    """``addr(machine)`` for a base/index/immediate memory operand."""
    base = None if mem.base.is_sp else _x(mem.base)
    index = None if mem.index is None else _x(mem.index)
    shift, off = mem.shift, mem.imm * vl.bytes if mem.mul_vl else mem.imm

    def addr(m):
        a = m.x.sp if base is None else m.x.regs[base]
        if index is not None:
            a += m.x.regs[index] << shift
        return (a + off) & _MASK64
    return addr


def _jump(program: Program, label):
    """``go()`` -> the branch target's pc.  A label that does not resolve
    is looked up (and raises) again only when the branch is taken."""
    try:
        target = program.target(label.name)
    except Exception:
        return lambda: program.target(label.name)
    return lambda: target


def _put_fp_scalar(m: Machine, idx: int, dtype, value) -> None:
    """Scalar FP destination: low element of z<idx>, the rest zeroed."""
    vec = np.zeros(m.z.views[dtype].shape[1], dtype=dtype)
    vec[0] = value
    m.z.put(idx, dtype, vec)


# ---- Scalar binders ------------------------------------------------

def _nop(insn, vl, program):
    return lambda m: None


def _ret(insn, vl, program):
    return lambda m: _STOP


def _mov(insn, vl, program):
    dst, src = insn.operands[0], insn.operands[-1]
    if isinstance(dst, XOp):
        d = _x(dst)
        if isinstance(src, XOp):
            s = _x(src)
            return lambda m: m.x.write(d, m.x.regs[s])
        if isinstance(src, Imm):
            value = int(src.value)
            return lambda m: m.x.write(d, value)
    elif isinstance(dst, ZOp):
        if isinstance(src, ZOp):
            return _copy_z(dst, src)
        if isinstance(src, (Imm, XOp)):
            return _broadcast(insn, dst, src, vl)
    elif isinstance(dst, POp) and isinstance(src, POp):
        d, s = _p(dst), _p(src)
        return lambda m: m.p.bits.__setitem__(d, m.p.bits[s])
    raise SimulationError(f"bad mov: {insn.text!r}")


def _copy_z(dst, src):
    s, d = _z(src), _z(dst)
    return lambda m: m.z.views[_U8].__setitem__(d, m.z.views[_U8][s])


def _movprfx(insn, vl, program):
    dst, src = insn.operands[0], insn.operands[-1]
    # movprfx zd, zn  /  movprfx zd.T, pg/z|m, zn.T — a plain copy
    # functionally (the zeroing form also zeroes inactive lanes).
    if not (len(insn.operands) == 3 and isinstance(insn.operands[1], POp)):
        return _copy_z(dst, src)
    pg = insn.operands[1]
    esize, p = _esize(dst), _p(pg)
    (sdt, s), (dt, d) = _zu(src), _zu(dst)
    zeroing = pg.qualifier == "z"

    def step(m):
        src_v = m.z.views[sdt][s]
        old = np.zeros_like(src_v) if zeroing else m.z.views[dt][d]
        m.z.put(d, dt, np.where(m.p.bits[p, ::esize], src_v, old))
    return step


def _scalar_binop(insn, fn):
    dst, a, b = insn.operands[0], insn.operands[1], insn.operands[2]
    d, ai = _x(dst), _x(a)
    if isinstance(b, Imm):
        bv = int(b.value)
        return lambda m: m.x.write(d, fn(m.x.regs[ai], bv))
    bi, kind, amount = _x(b), None, 0
    if len(insn.operands) == 4 and isinstance(insn.operands[3], ShiftSpec):
        kind, amount = insn.operands[3].kind, insn.operands[3].amount

    def step(m):
        bv = m.x.regs[bi]
        if kind == "lsl":
            bv = (bv << amount) & _MASK64
        elif kind == "lsr":
            bv >>= amount
        m.x.write(d, fn(m.x.regs[ai], bv))
    return step


def _vec_int_binop(insn, fn):
    ops = insn.operands
    predicated = not (len(ops) == 3 and not isinstance(ops[1], POp))
    if predicated:
        dst, pg, a, b = ops
        esize, p = _esize(dst), _p(pg)
    else:
        dst, a, b = ops
    bimm, (bdt, bi) = (int(b.value), (None, None)) if isinstance(b, Imm) \
        else (None, _zi(b))
    (adt, ai), (dt, d) = _zi(a), _zi(dst)

    def step(m):
        rows = m.z.views
        r = fn(rows[adt][ai], bimm if bdt is None else rows[bdt][bi])
        if predicated:
            r = np.where(m.p.bits[p, ::esize], r, rows[dt][d])
        m.z.put(d, dt, r)
    return step


def _int_alu(scalar_fn, vec_fn):
    def bind(insn, vl, program):
        if isinstance(insn.operands[0], ZOp):
            return _vec_int_binop(insn, vec_fn)
        return _scalar_binop(insn, scalar_fn)
    return bind


def _shift(scalar_fn, vec_fn, src_reader):
    def bind(insn, vl, program):
        if not isinstance(insn.operands[0], ZOp):
            return _scalar_binop(insn, scalar_fn)
        dst, a, sh = insn.operands
        (adt, ai), (dt, d), amount = src_reader(a), _zu(dst), int(sh.value)
        return lambda m: m.z.put(d, dt, vec_fn(m.z.views[adt][ai], amount))
    return bind


def _cmp(insn, vl, program):
    a, b = insn.operands
    ai = _x(a)
    if isinstance(b, Imm):
        bv = int(b.value)
        return lambda m: m.flags.set_from_sub(m.x.regs[ai], bv)
    bi = _x(b)
    return lambda m: m.flags.set_from_sub(m.x.regs[ai], m.x.regs[bi])


def _branch(insn, vl, program):
    go = _jump(program, insn.operands[0])
    if insn.cond is None:
        return lambda m: go()
    cond = insn.cond.lower()
    # An unknown code raises Flags.condition's error when executed.
    test = CONDITIONS.get(cond) or (lambda f: f.condition(cond))
    return lambda m: go() if test(m.flags) else None


def _cbz(taken_if_zero: bool):
    def bind(insn, vl, program):
        reg, label = insn.operands
        r, go = _x(reg), _jump(program, label)
        return lambda m: go() if (m.x.regs[r] == 0) == taken_if_zero \
            else None
    return bind


def _rdvl(insn, vl, program):
    dst, imm = insn.operands
    d, value = _x(dst), vl.bytes * int(imm.value)
    return lambda m: m.x.write(d, value)


def _ldr(insn, vl, program):
    dst, mem = insn.operands
    if isinstance(dst, XOp):
        addr, d = _address(mem, vl), _x(dst)
        return lambda m: m.x.write(
            d, int(m.mem.read_array(addr(m), np.uint64, 1)[0]))
    if isinstance(dst, (ZOp, POp)):
        raise SimulationError("ldr z/p: use ld1 in this simulator")
    raise SimulationError(f"bad ldr: {insn.text!r}")


def _str(insn, vl, program):
    src, mem = insn.operands
    if not isinstance(src, XOp):
        raise SimulationError(f"bad str: {insn.text!r}")
    addr, s = _address(mem, vl), _x(src)
    return lambda m: m.mem.write_array(
        addr(m), np.array([m.x.regs[s]], dtype=np.uint64))


# ---- Predicate binders ---------------------------------------------

def _ptrue(insn, vl, program):
    dst = insn.operands[0]
    pattern = "all"
    if len(insn.operands) > 1 and isinstance(insn.operands[1], Pattern):
        pattern = insn.operands[1].name
    esize = _esize(dst)
    lanes, d = vl.lanes(esize), _p(dst)
    predops.ptrue(lanes, pattern)  # an unknown pattern fails here
    return lambda m: m.p.put_elements(
        d, esize, _filter(m, "ptrue", predops.ptrue(lanes, pattern)))


def _pfalse(insn, vl, program):
    dst = insn.operands[0]
    esize = _esize(dst) if dst.suffix else 1
    lanes, d = vl.lanes(esize), _p(dst)
    return lambda m: m.p.put_elements(d, esize, predops.pfalse(lanes))


def _write_pred(m, d, esize, active, set_flags=True):
    """Write a generated predicate to p<d>, and NZCV from it."""
    m.p.put_elements(d, esize, active)
    if set_flags:
        m.flags.set_from_predicate(active)


def _while(fn):
    def bind(insn, vl, program):
        dst, a, b = insn.operands
        esize = _esize(dst)
        lanes, d, ai, bi = vl.lanes(esize), _p(dst), _x(a), _x(b)
        mnemonic = insn.mnemonic
        return lambda m: _write_pred(m, d, esize, _filter(
            m, mnemonic, fn(lanes, m.x.regs[ai], m.x.regs[bi])))
    return bind


def _brkn(insn, vl, program):
    # brkn operates at byte granularity
    dst, pg, pn, pdm = insn.operands
    d, g, n, dm = _p(dst), _p(pg), _p(pn), _p(pdm)
    mnemonic, set_flags = insn.mnemonic, insn.mnemonic.endswith("s")
    return lambda m: _write_pred(m, d, 1, _filter(m, mnemonic, predops.brkn(
        m.p.bits[g], m.p.bits[n], m.p.bits[dm])), set_flags)


def _brk_ab(fn):
    def bind(insn, vl, program):
        dst, pg, pn = insn.operands
        d, g, n = _p(dst), _p(pg), _p(pn)
        merging = pg.qualifier == "m"
        mnemonic, set_flags = insn.mnemonic, insn.mnemonic.endswith("s")
        return lambda m: _write_pred(m, d, 1, _filter(m, mnemonic, fn(
            m.p.bits[g], m.p.bits[n], merging=merging, pd_old=m.p.bits[d])),
            set_flags)
    return bind


def _pnext(insn, vl, program):
    dst, pg, _pdn = insn.operands
    esize = _esize(dst)
    d, g = _p(dst), _p(pg)
    return lambda m: _write_pred(m, d, esize, predops.pnext(
        m.p.bits[g, ::esize], m.p.bits[d, ::esize]))


def _pfirst(insn, vl, program):
    dst, pg, _pdn = insn.operands
    d, g = _p(dst), _p(pg)
    return lambda m: _write_pred(
        m, d, 1, predops.pfirst(m.p.bits[g], m.p.bits[d]))


def _ptest(insn, vl, program):
    pg, pn = insn.operands
    g, n = _p(pg), _p(pn)
    return lambda m: m.flags.set_from_predicate(m.p.bits[g] & m.p.bits[n])


def _cntp(insn, vl, program):
    dst, pg, pn = insn.operands
    esize = _esize(pn)
    d, g, n = _x(dst), _p(pg), _p(pn)
    return lambda m: m.x.write(
        d, predops.cntp(m.p.bits[g, ::esize], m.p.bits[n, ::esize]))


def _logic(fn):
    """``and``/``orr``/``eor``/``bic`` (and the flag-setting ``-s``
    forms) on predicates, X registers or Z registers."""
    def bind(insn, vl, program):
        dst = insn.operands[0]
        if isinstance(dst, XOp):
            return _scalar_binop(
                insn, lambda a, b: int(fn(np.uint64(a), np.uint64(b))))
        if not isinstance(dst, POp):
            return _vec_int_binop(insn, lambda a, b, **kw: fn(a, b))
        _, pg, pn, pm = insn.operands
        d, g, n, mm = _p(dst), _p(pg), _p(pn), _p(pm)
        set_flags = insn.mnemonic.endswith("s")

        def step(m):
            bits = m.p.bits
            # zeroing predication for predicate logic
            bits[d] = res = fn(bits[n], bits[mm]) & bits[g]
            if set_flags:
                m.flags.set_from_predicate(res)
        return step
    return bind


# ---- Element counters ----------------------------------------------

def _cnt_amount(insn, vl: VL) -> int:
    lanes = vl.lanes(_MNEMONIC_ESIZE[insn.mnemonic[-1]])
    pattern = "all"
    mul = 1
    for op in insn.operands[1:]:
        if isinstance(op, Pattern):
            pattern = op.name
        elif isinstance(op, ShiftSpec) and op.kind == "mul":
            mul = op.amount
        elif isinstance(op, Imm):
            mul = int(op.value)
    return int(predops.ptrue(lanes, pattern).sum()) * mul


def _cnt(insn, vl, program):
    d, amount = _x(insn.operands[0]), _cnt_amount(insn, vl)
    return lambda m: m.x.write(d, amount)


def _inc(sign: int):
    """``inc*`` (``sign`` 1) and ``dec*`` (-1), scalar or vector."""
    def bind(insn, vl, program):
        dst = insn.operands[0]
        amount = _cnt_amount(insn, vl)
        if isinstance(dst, XOp):
            d, delta = _x(dst), sign * amount
            return lambda m: m.x.write(d, m.x.regs[d] + delta)
        # vector form: add the element count to every element
        (dt, d), fn = _zi(dst), arith.add if sign > 0 else arith.sub
        return lambda m: m.z.put(d, dt, fn(m.z.views[dt][d], amount))
    return bind


# ---- Vector moves / immediates (``mov z, #imm|x`` is ``dup``) ------

def _dup(insn, vl, program):
    dst, src = insn.operands
    return _broadcast(insn, dst, src, vl)


def _broadcast(insn, dst, src, vl: VL):
    lanes = vl.lanes(_esize(dst))
    if isinstance(src, Imm):
        table = FLOAT_BY_SUFFIX if isinstance(src.value, float) \
            else INT_BY_SUFFIX
        dt, d = table[dst.suffix].dtype, _z(dst)
        vec = arith.dup(lanes, dt, src.value)
        return lambda m: m.z.put(d, dt, vec)
    if isinstance(src, XOp):
        mask = (1 << (_esize(dst) * 8)) - 1
        (dt, d), s = _zu(dst), _x(src)
        return lambda m: m.z.put(
            d, dt, arith.dup(lanes, dt, m.x.regs[s] & mask))
    raise SimulationError(f"bad dup: {insn.text!r}")


def _fdup(insn, vl, program):
    dst, src = insn.operands
    lanes = vl.lanes(_esize(dst))
    dt, d = _zf(dst)
    vec = arith.dup(lanes, dt, float(src.value))
    return lambda m: m.z.put(d, dt, vec)


def _index(insn, vl, program):
    dst, base, step = insn.operands
    lanes = vl.lanes(_esize(dst))

    def operand(op):
        if isinstance(op, Imm):
            value = int(op.value)
            return lambda m: value
        r = _x(op)
        return lambda m: m.x.read_signed(r)
    bv, sv, (dt, d) = operand(base), operand(step), _zi(dst)
    return lambda m: m.z.put(d, dt, arith.index(lanes, dt, bv(m), sv(m)))


# ---- FP arithmetic -------------------------------------------------

def _fbin(fn):
    def bind(insn, vl, program):
        ops = insn.operands
        predicated = not (len(ops) == 3 and not isinstance(ops[1], POp))
        if predicated:  # destructive: fop zd.T, pg/m, zd.T, zm.T|#imm
            dst, pg, a, b = ops
            esize, p = _esize(dst), _p(pg)
        else:
            dst, a, b = ops
        bdt = bi = None
        if isinstance(b, Imm):
            bvec = arith.dup(vl.lanes(_esize(dst)),
                             FLOAT_BY_SUFFIX[dst.suffix].dtype, float(b.value))
        else:
            bdt, bi = _zf(b)
        (adt, ai), (dt, d) = _zf(a), _zf(dst)

        def step(m):
            rows = m.z.views
            bv = bvec if bdt is None else rows[bdt][bi]
            if predicated:
                r = fn(rows[adt][ai], bv, pred=m.p.bits[p, ::esize],
                       old=rows[dt][d])
            else:
                r = fn(rows[adt][ai], bv)
            m.z.put(d, dt, r)
        return step
    return bind


def _funary(fn):
    def bind(insn, vl, program):
        if len(insn.operands) == 2:
            dst, a = insn.operands
            (adt, ai), (dt, d) = _zf(a), _zf(dst)
            return lambda m: m.z.put(d, dt, fn(m.z.views[adt][ai]))
        dst, pg, a = insn.operands
        esize, p = _esize(dst), _p(pg)
        (adt, ai), (dt, d) = _zf(a), _zf(dst)
        return lambda m: m.z.put(d, dt, fn(
            m.z.views[adt][ai], pred=m.p.bits[p, ::esize],
            old=m.z.views[dt][d]))
    return bind


def _fma(fn):
    def bind(insn, vl, program):
        dst, pg, a, b = insn.operands
        esize, p = _esize(dst), _p(pg)
        (dt, d), (adt, ai), (bdt, bi) = _zf(dst), _zf(a), _zf(b)
        return lambda m: m.z.put(d, dt, fn(
            m.z.views[dt][d], m.z.views[adt][ai], m.z.views[bdt][bi],
            pred=m.p.bits[p, ::esize]))
    return bind


def _vcompare(fn, reader, conv):
    """Vector compare: ``cmp<cc> pd.T, pg/z, zn.T, zm.T|#imm``."""
    def bind(insn, vl, program):
        dst, pg, a, b = insn.operands
        esize = _esize(dst)
        d, p, (adt, ai) = _p(dst), _p(pg), reader(a)
        bimm, (bdt, bi) = (conv(b.value), (None, None)) if isinstance(b, Imm) \
            else (None, reader(b))
        mnemonic = insn.mnemonic

        def step(m):
            av = m.z.views[adt][ai]
            bv = np.full_like(av, bimm) if bdt is None else m.z.views[bdt][bi]
            active = m.p.bits[p, ::esize] & np.asarray(fn(av, bv), dtype=bool)
            _write_pred(m, d, esize, _filter(m, mnemonic, active))
        return step
    return bind


# ---- Complex arithmetic --------------------------------------------

def _fcmla(insn, vl, program):
    dst, pg, a, b, rot = insn.operands
    esize, p = _esize(dst), _p(pg)
    (dt, d), (adt, ai), (bdt, bi) = _zf(dst), _zf(a), _zf(b)
    rot = int(rot.value)
    return lambda m: m.z.put(d, dt, cplx.fcmla(
        m.z.views[dt][d], m.z.views[adt][ai], m.z.views[bdt][bi], rot,
        pred=m.p.bits[p, ::esize]))


def _fcadd(insn, vl, program):
    dst, pg, a, b, rot = insn.operands
    esize, p = _esize(dst), _p(pg)
    (adt, ai), (bdt, bi), (dt, d) = _zf(a), _zf(b), _zf(dst)
    rot = int(rot.value)
    return lambda m: m.z.put(d, dt, cplx.fcadd(
        m.z.views[adt][ai], m.z.views[bdt][bi], rot,
        pred=m.p.bits[p, ::esize]))


# ---- Conversions ---------------------------------------------------

def _fcvt(insn, vl, program):
    dst, pg, src = insn.operands
    dst_et, src_et = FLOAT_BY_SUFFIX[dst.suffix], FLOAT_BY_SUFFIX[src.suffix]
    s, d, dt, sdt = _z(src), _z(dst), dst_et.dtype, src_et.dtype
    if dst_et.size < src_et.size:
        fn = convert.fcvt_narrow_pack
    elif dst_et.size > src_et.size:
        fn = convert.fcvt_widen_unpack
    else:
        return lambda m: m.z.put(d, dt, m.z.views[sdt][s])
    return lambda m: m.z.put(d, dt, fn(m.z.views[sdt][s], dt))


def _scvt(fn, src_reader, dst_reader):
    """``scvtf``/``fcvtzs``: predicated int <-> float conversions."""
    def bind(insn, vl, program):
        dst, pg, src = insn.operands
        esize, p = _esize(dst), _p(pg)
        (dt, d), (sdt, s) = dst_reader(dst), src_reader(src)
        return lambda m: m.z.put(d, dt, fn(
            m.z.views[sdt][s], dt, pred=m.p.bits[p, ::esize],
            old=m.z.views[dt][d]))
    return bind


# ---- Loads and stores ----------------------------------------------

def _ldst(insn, vl, program):
    """Contiguous, structure (n = 2..4) and gather/scatter ld/st."""
    reglist, pg, mem = insn.operands
    # "stnt1d" (non-temporal/streaming store) parses like "st1d";
    # the memory-ordering hint has no functional effect here.
    mnem = insn.mnemonic.replace("nt", "", 1)
    load, n, esize = mnem[:2] == "ld", int(mnem[2]), _MNEMONIC_ESIZE[mnem[3]]
    regs = reglist.regs
    if len(regs) != n:
        raise SimulationError(
            f"{insn.mnemonic} needs {n} registers: {insn.text!r}")
    p = _p(pg)
    etype = UINT_BY_SUFFIX[regs[0].suffix or "d"]
    if etype.size != esize:
        # e.g. ld1w into .d lanes would widen; the paper's kernels
        # never need extending loads or truncating stores.
        raise SimulationError(
            f"{'extending loads' if load else 'truncating stores'} "
            f"unsupported: {insn.text!r}")
    dt, zs = etype.dtype, [_z(r) for r in regs]
    if mem.zindex is not None:
        if n != 1:
            raise SimulationError(
                f"{'gather' if load else 'scatter'} addressing needs a "
                f"single register: {insn.text!r}")
        base = None if mem.base.is_sp else _x(mem.base)
        odt = INT_BY_SUFFIX[mem.zindex.suffix or regs[0].suffix or "d"].dtype
        zi, scale, z0 = _z(mem.zindex), 1 << mem.shift, zs[0]

        def gather_scatter(m):
            b = m.x.sp if base is None else m.x.regs[base]
            offsets, active = m.z.views[odt][zi], m.p.bits[p, ::esize]
            if load:
                m.z.put(z0, dt, loadstore.ld1_gather(
                    m.mem, b, offsets, active, dt, scale=scale))
            else:
                loadstore.st1_scatter(m.mem, b, offsets, active,
                                      m.z.views[dt][z0], scale=scale)
        return gather_scatter
    addr, z0 = _address(mem, vl), zs[0]
    if load and n == 1:
        return lambda m: m.z.put(z0, dt, loadstore.ld1(
            m.mem, addr(m), m.p.bits[p, ::esize], dt))
    if load:
        def ldn(m):
            vecs = loadstore.ldn(m.mem, addr(m), m.p.bits[p, ::esize], dt, n)
            for z, v in zip(zs, vecs):
                m.z.put(z, dt, v)
        return ldn
    if n == 1:
        return lambda m: loadstore.st1(
            m.mem, addr(m), m.p.bits[p, ::esize], m.z.views[dt][z0])
    return lambda m: loadstore.stn(m.mem, addr(m), m.p.bits[p, ::esize],
                                   [m.z.views[dt][z] for z in zs])


# ---- Permutes (on raw, unsigned elements) --------------------------

def _perm2(fn):
    """``op zd, zn, zm`` (zip/uzp/trn, and ``tbl`` with zm as indices)."""
    def bind(insn, vl, program):
        dst, a, b = insn.operands
        (adt, ai), (bdt, bi), (dt, d) = _zu(a), _zu(b), _zu(dst)
        return lambda m: m.z.put(
            d, dt, fn(m.z.views[adt][ai], m.z.views[bdt][bi]))
    return bind


def _pred_perm2(fn):
    """``op zd, pg, zn, zm`` (sel, splice): fn(pred, zn, zm)."""
    def bind(insn, vl, program):
        dst, pg, a, b = insn.operands
        esize, p = _esize(dst), _p(pg)
        (adt, ai), (bdt, bi), (dt, d) = _zu(a), _zu(b), _zu(dst)
        return lambda m: m.z.put(d, dt, fn(
            m.p.bits[p, ::esize], m.z.views[adt][ai], m.z.views[bdt][bi]))
    return bind


def _rev(insn, vl, program):
    dst, a = insn.operands
    (adt, ai), (dt, d) = _zu(a), _zu(dst)
    return lambda m: m.z.put(d, dt, permute.rev(m.z.views[adt][ai]))


def _ext(insn, vl, program):
    dst, a, b, imm = insn.operands
    esize = _esize(dst) if dst.suffix else 1
    (sdt, ai), (_, bi) = _zu(ZOp(a.idx, dst.suffix or "b")), \
        _zu(ZOp(b.idx, dst.suffix or "b"))
    dt, d, nbytes = UINT_BY_SUFFIX[dst.suffix].dtype, _z(dst), int(imm.value)
    return lambda m: m.z.put(d, dt, permute.ext(
        m.z.views[sdt][ai], m.z.views[sdt][bi], nbytes, esize))


def _compact(insn, vl, program):
    dst, pg, a = insn.operands
    esize, p = _esize(dst), _p(pg)
    (adt, ai), (dt, d) = _zu(a), _zu(dst)
    return lambda m: m.z.put(d, dt, permute.compact(
        m.p.bits[p, ::esize], m.z.views[adt][ai]))


def _insr(insn, vl, program):
    dst, src = insn.operands
    if not isinstance(src, XOp):
        raise SimulationError(f"bad insr: {insn.text!r}")
    mask = (1 << (_esize(dst) * 8)) - 1
    s, (dt, d) = _x(src), _zu(dst)
    return lambda m: m.z.put(d, dt, permute.insr(
        m.z.views[dt][d], m.x.regs[s] & mask))


def _last(fn):
    """``lasta``/``lastb`` into an X register or an FP scalar."""
    def bind(insn, vl, program):
        dst, pg, a = insn.operands
        esize, p, (adt, ai) = _esize(a), _p(pg), _zu(a)
        if isinstance(dst, XOp):
            d = _x(dst)
            return lambda m: m.x.write(d, int(fn(
                m.p.bits[p, ::esize], m.z.views[adt][ai])))
        # FP scalar destination: low element of the z register
        fdt, ddt, d = FLOAT_BY_SUFFIX[a.suffix].dtype, \
            FLOAT_BY_SUFFIX[dst.suffix].dtype, _z(dst)

        def step(m):
            fn(m.p.bits[p, ::esize], m.z.views[adt][ai])
            _put_fp_scalar(m, d, ddt, float(m.z.views[fdt][ai][0]))
        return step
    return bind


# ---- Reductions (FP scalar result: low element of z, rest zeroed) -

def _freduce(fn):
    def bind(insn, vl, program):
        dst, pg, src = insn.operands
        esize, p = _esize(src), _p(pg)
        (sdt, s), ddt, d = _zf(src), FLOAT_BY_SUFFIX[dst.suffix].dtype, \
            _z(dst)
        return lambda m: _put_fp_scalar(m, d, ddt, float(fn(
            m.p.bits[p, ::esize], m.z.views[sdt][s])))
    return bind


def _fadda(insn, vl, program):
    dst, pg, init, src = insn.operands
    esize, p = _esize(src), _p(pg)
    (sdt, s), ddt, d = _zf(src), FLOAT_BY_SUFFIX[dst.suffix].dtype, _z(dst)
    idt, ii = FLOAT_BY_SUFFIX[init.suffix].dtype, _z(init)
    return lambda m: _put_fp_scalar(m, d, ddt, float(reduce.fadda(
        m.p.bits[p, ::esize], float(m.z.views[idt][ii][0]),
        m.z.views[sdt][s])))


def _saddv(insn, vl, program):
    dst, pg, src = insn.operands
    esize, p, (sdt, s) = _esize(src), _p(pg), _zi(src)

    def total(m):
        return reduce.saddv(m.p.bits[p, ::esize], m.z.views[sdt][s])
    if isinstance(dst, VOp):
        d = _z(dst)
        return lambda m: _put_fp_scalar(m, d, _U64, total(m))
    d = _x(dst)
    return lambda m: m.x.write(d, total(m))


# ---- The mnemonic -> binder table ----------------------------------

_BINDERS: dict = {
    # Scalar control / ALU.
    "ret": _ret, "nop": _nop, "mov": _mov, "movprfx": _movprfx,
    "add": _int_alu(lambda a, b: a + b, arith.add),
    "sub": _int_alu(lambda a, b: a - b, arith.sub),
    "mul": _int_alu(lambda a, b: a * b, arith.mul),
    "lsl": _shift(lambda a, b: (a << b) & _MASK64, arith.lsl, _zu),
    "lsr": _shift(lambda a, b: a >> b, arith.lsr, _zi),
    "cmp": _cmp, "b": _branch, "cbz": _cbz(True), "cbnz": _cbz(False),
    "rdvl": _rdvl, "ldr": _ldr, "str": _str,
    # Predicate generation / logic.
    "ptrue": _ptrue, "pfalse": _pfalse,
    "whilelo": _while(predops.whilelo), "whilelt": _while(predops.whilelt),
    "brkn": _brkn, "brkns": _brkn,
    "brka": _brk_ab(predops.brka), "brkas": _brk_ab(predops.brka),
    "brkb": _brk_ab(predops.brkb), "brkbs": _brk_ab(predops.brkb),
    "pnext": _pnext, "pfirst": _pfirst, "ptest": _ptest, "cntp": _cntp,
    # Vector moves / immediates.
    "dup": _dup, "fdup": _fdup, "fmov": _fdup, "index": _index,
    "sel": _pred_perm2(permute.sel),
    # FP arithmetic.
    "fadd": _fbin(arith.fadd), "fsub": _fbin(arith.fsub),
    "fmul": _fbin(arith.fmul), "fdiv": _fbin(arith.fdiv),
    "fmax": _fbin(arith.fmax), "fmin": _fbin(arith.fmin),
    "fneg": _funary(arith.fneg), "fabs": _funary(arith.fabs_),
    "fsqrt": _funary(arith.fsqrt),
    "fmla": _fma(arith.fmla), "fmls": _fma(arith.fmls),
    "fnmla": _fma(arith.fnmla), "fnmls": _fma(arith.fnmls),
    "fmad": _fma(arith.fmad), "fmsb": _fma(arith.fmsb),
    # Complex arithmetic.
    "fcmla": _fcmla, "fcadd": _fcadd,
    # Conversions.
    "fcvt": _fcvt,
    "scvtf": _scvt(convert.scvtf, _zi, _zf),
    "fcvtzs": _scvt(convert.fcvtzs, _zf, _zi),
    # Permutes.
    "zip1": _perm2(permute.zip1), "zip2": _perm2(permute.zip2),
    "uzp1": _perm2(permute.uzp1), "uzp2": _perm2(permute.uzp2),
    "trn1": _perm2(permute.trn1), "trn2": _perm2(permute.trn2),
    "tbl": _perm2(permute.tbl), "splice": _pred_perm2(permute.splice),
    "rev": _rev, "ext": _ext, "compact": _compact, "insr": _insr,
    "lasta": _last(permute.lasta), "lastb": _last(permute.lastb),
    # Reductions.
    "faddv": _freduce(reduce.faddv), "fadda": _fadda,
    "fmaxv": _freduce(reduce.fmaxv), "fminv": _freduce(reduce.fminv),
    "saddv": _saddv, "uaddv": _saddv,
}
for _op, _fn in (("and", operator.and_), ("orr", operator.or_),
                 ("eor", operator.xor), ("bic", lambda a, b: a & ~b)):
    _BINDERS[_op] = _BINDERS[_op + "s"] = _logic(_fn)
# Vector compares -> predicates (all set NZCV).
for _cc, _fn in (("eq", operator.eq), ("ne", operator.ne),
                 ("gt", operator.gt), ("ge", operator.ge),
                 ("lt", operator.lt), ("le", operator.le)):
    _BINDERS["fcm" + _cc] = _vcompare(_fn, _zf, float)
    _BINDERS["cmp" + _cc] = _vcompare(_fn, _zi, int)
for _cc, _fn in (("lo", np.less), ("ls", np.less_equal),
                 ("hi", np.greater), ("hs", np.greater_equal)):
    _BINDERS["cmp" + _cc] = _vcompare(_fn, _zu, int)
for _suf in "bhwd":
    _BINDERS.update({f"cnt{_suf}": _cnt, f"inc{_suf}": _inc(1),
                     f"dec{_suf}": _inc(-1), f"prf{_suf}": _nop,
                     f"ldnt1{_suf}": _ldst, f"stnt1{_suf}": _ldst})
    # Contiguous + structure loads/stores; prefetches are no-ops.
    for _n in "1234":
        _BINDERS[f"ld{_n}{_suf}"] = _BINDERS[f"st{_n}{_suf}"] = _ldst
