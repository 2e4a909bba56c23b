"""Architectural register files for the SVE simulator.

State modelled:

* ``z0``..``z31`` — scalable vector registers, each :class:`~repro.sve.vl.VL`
  bits wide, stored as raw little-endian bytes so that re-interpreting a
  register at a different element size (``z0.d`` vs ``z0.s``) behaves
  exactly like hardware.
* ``p0``..``p15`` — predicate registers with one bit per *byte* of the
  vector registers.  For an element size of *n* bytes, the element is
  governed by the bit of its lowest-addressed byte (the remaining
  ``n - 1`` bits are zero in canonical predicates, as produced by
  ``PTRUE``/``WHILELO``).
* ``x0``..``x30`` plus ``xzr``/``sp`` — 64-bit general-purpose registers.
* ``v0``..``v31`` scalar FP views — architecturally, ``d0`` is the low
  64 bits of ``z0``; reductions such as ``FADDV`` write the low element
  and zero the rest, which is how we model them.
* The NZCV condition flags, set by scalar compares and by the
  flag-setting predicate instructions (``WHILELO``, ``BRKNS``,
  ``PTEST`` ...).
"""

from __future__ import annotations

import numpy as np

from repro.sve.types import SUFFIX_BY_SIZE, EType
from repro.sve.vl import VL

_MASK64 = (1 << 64) - 1


class ZRegisterFile:
    """The 32 scalable vector registers, stored as raw bytes."""

    NREGS = 32

    def __init__(self, vl: VL) -> None:
        self.vl = vl
        self._data = np.zeros((self.NREGS, vl.bytes), dtype=np.uint8)
        #: The whole file viewed as each element dtype, one row per
        #: register: the machine's bound steps index rows directly.
        self.views = {et.dtype: self._data.view(et.dtype) for et in EType}

    def read(self, idx: int, etype: EType) -> np.ndarray:
        """Return a *copy* of register ``idx`` viewed as ``etype`` elements."""
        self._check(idx)
        return self.views[etype.dtype][idx].copy()

    def write(self, idx: int, etype: EType, values: np.ndarray) -> None:
        """Overwrite register ``idx`` with ``values`` of type ``etype``."""
        self._check(idx)
        self.put(idx, etype.dtype, values)

    def put(self, idx: int, dtype: np.dtype, values: np.ndarray) -> None:
        """:meth:`write` for an index already checked (at bind time)."""
        arr = np.asarray(values, dtype=dtype)
        rows = self.views[dtype]
        if arr.shape != rows.shape[1:]:
            raise ValueError(
                f"z{idx}.{SUFFIX_BY_SIZE[dtype.itemsize]} expects "
                f"{rows.shape[1]} lanes, got {arr.shape}"
            )
        rows[idx] = arr

    def read_bytes(self, idx: int) -> np.ndarray:
        """Raw little-endian bytes of register ``idx`` (a copy)."""
        self._check(idx)
        return self._data[idx].copy()

    def write_bytes(self, idx: int, raw: np.ndarray) -> None:
        self._check(idx)
        raw = np.asarray(raw, dtype=np.uint8)
        if raw.shape != (self.vl.bytes,):
            raise ValueError(f"z{idx} expects {self.vl.bytes} bytes")
        self._data[idx] = raw

    def zero(self, idx: int) -> None:
        self._check(idx)
        self._data[idx] = 0

    def _check(self, idx: int) -> None:
        if not 0 <= idx < self.NREGS:
            raise IndexError(f"no such vector register z{idx}")


class PRegisterFile:
    """The 16 predicate registers: one boolean per vector-register byte."""

    NREGS = 16

    def __init__(self, vl: VL) -> None:
        self.vl = vl
        #: One row per register; the machine's bound steps index it.
        self.bits = np.zeros((self.NREGS, vl.bytes), dtype=bool)

    def read_bits(self, idx: int) -> np.ndarray:
        """Per-byte predicate bits (a copy)."""
        self._check(idx)
        return self.bits[idx].copy()

    def write_bits(self, idx: int, bits: np.ndarray) -> None:
        self._check(idx)
        bits = np.asarray(bits, dtype=bool)
        if bits.shape != (self.vl.bytes,):
            raise ValueError(f"p{idx} expects {self.vl.bytes} predicate bits")
        self.bits[idx] = bits

    def read_elements(self, idx: int, esize: int) -> np.ndarray:
        """Element-granular view: bit of each element's lowest byte."""
        self._check(idx)
        return self.bits[idx, ::esize].copy()

    def write_elements(self, idx: int, esize: int, active: np.ndarray) -> None:
        """Write a canonical element-granular predicate.

        Sets the lowest-byte bit of each active element and clears all
        other bits — the encoding ``PTRUE``/``WHILELO`` produce.
        """
        self._check(idx)
        self.put_elements(idx, esize, active)

    def put_elements(self, idx: int, esize: int, active: np.ndarray) -> None:
        """:meth:`write_elements` for an index already checked (at bind
        time).  ``active`` must not be a view of row ``idx``."""
        active = np.asarray(active, dtype=bool)
        lanes = self.vl.lanes(esize)
        if active.shape != (lanes,):
            raise ValueError(f"p{idx}.{esize}B expects {lanes} elements")
        row = self.bits[idx]
        if esize != 1:
            row[:] = False
        row[::esize] = active

    def _check(self, idx: int) -> None:
        if not 0 <= idx < self.NREGS:
            raise IndexError(f"no such predicate register p{idx}")


class XRegisterFile:
    """The 64-bit general-purpose registers.

    Index 31 is context-dependent in AArch64 (``xzr`` or ``sp``); the
    simulator keeps a separate ``sp`` and treats index 31 as the
    always-zero register, which is what the paper's listings use.
    """

    NREGS = 31
    XZR = 31

    def __init__(self) -> None:
        #: x0..x30, then xzr (always 0): bound steps read it by index.
        self.regs = [0] * (self.NREGS + 1)
        self.sp = 0

    def read(self, idx: int) -> int:
        self._check(idx)
        return self.regs[idx]

    def read_signed(self, idx: int) -> int:
        v = self.read(idx)
        return v - (1 << 64) if v >= (1 << 63) else v

    def write(self, idx: int, value: int) -> None:
        if idx == self.XZR:
            return  # writes to xzr are discarded
        self._check(idx)
        self.regs[idx] = int(value) & _MASK64

    def _check(self, idx: int) -> None:
        if not 0 <= idx <= self.XZR:
            raise IndexError(f"no such general-purpose register x{idx}")


#: The AArch64 condition codes as predicates over :class:`Flags`.
CONDITIONS = {
    "eq": lambda f: f.z,
    "ne": lambda f: not f.z,
    "cs": lambda f: f.c,
    "hs": lambda f: f.c,
    "cc": lambda f: not f.c,
    "lo": lambda f: not f.c,
    "mi": lambda f: f.n,
    "pl": lambda f: not f.n,
    "vs": lambda f: f.v,
    "vc": lambda f: not f.v,
    "hi": lambda f: f.c and not f.z,
    "ls": lambda f: not (f.c and not f.z),
    "ge": lambda f: f.n == f.v,
    "lt": lambda f: f.n != f.v,
    "gt": lambda f: (not f.z) and f.n == f.v,
    "le": lambda f: f.z or f.n != f.v,
    "al": lambda f: True,
}


class Flags:
    """The NZCV condition flags.

    Scalar ``CMP`` sets them the AArch64 way; the flag-setting SVE
    predicate instructions set them from the resulting predicate:
    ``N`` = first element active, ``Z`` = no element active,
    ``C`` = *not* (last element active), ``V`` = 0.
    """

    def __init__(self) -> None:
        self.n = False
        self.z = True
        self.c = True
        self.v = False

    def set_from_predicate(self, active: np.ndarray) -> None:
        active = np.asarray(active, dtype=bool)
        self.n = bool(active[0]) if active.size else False
        self.z = not np.count_nonzero(active)
        self.c = not (bool(active[-1]) if active.size else False)
        self.v = False

    def set_from_sub(self, a: int, b: int) -> None:
        """Flags for ``CMP a, b`` (i.e. ``SUBS xzr, a, b``), 64-bit."""
        a &= _MASK64
        b &= _MASK64
        result = (a - b) & _MASK64
        sa = a - (1 << 64) if a >= (1 << 63) else a
        sb = b - (1 << 64) if b >= (1 << 63) else b
        sr = sa - sb
        self.n = bool(result >> 63)
        self.z = result == 0
        self.c = a >= b  # no borrow
        self.v = not (-(1 << 63) <= sr < (1 << 63))

    def condition(self, cond: str) -> bool:
        """Evaluate an AArch64 condition code mnemonic."""
        cond = cond.lower()
        try:
            test = CONDITIONS[cond]
        except KeyError:
            raise ValueError(f"unknown condition code {cond!r}") from None
        return test(self)
