"""Load/store semantics: contiguous, structure, and gather/scatter.

The paper leans on two families:

* ``LD1``/``ST1`` — predicated contiguous load/store of one vector
  (used by both the real-arithmetic loop of Section IV-A and the ACLE
  FCMLA kernels of Sections IV-C/D, which keep complex numbers
  interleaved in the register);
* ``LD2``/``ST2`` — structure load/store that de-interleaves an array
  of 2-element structures into two vectors (what the auto-vectorizer
  emitted for ``std::complex`` arrays in Section IV-B, splitting real
  and imaginary parts).

``LD3``/``LD4`` are included because Grid's colour vectors (3 complex)
and spinors use *n*-element structures; SVE supports n ≤ 4.
"""

from __future__ import annotations

import numpy as np

from repro.sve.memory import Memory


def ld1(mem: Memory, addr: int, pred: np.ndarray, dtype) -> np.ndarray:
    """Predicated contiguous load; inactive lanes are zeroed (``pg/z``)."""
    pred = np.asarray(pred, dtype=bool)
    dtype = np.dtype(dtype)
    if np.count_nonzero(pred) == pred.size:
        return mem.read_array(addr, dtype, pred.size)
    out = np.zeros(pred.size, dtype=dtype)
    # Partial vector: only active lanes may touch memory (no faults on
    # inactive out-of-bounds lanes — the basis of tail-free VLA loops).
    active = np.nonzero(pred)[0]
    if active.size:
        last = int(active[-1])
        span = mem.read_array(addr, dtype, last + 1)
        out[active] = span[active]
    return out


def st1(mem: Memory, addr: int, pred: np.ndarray, values: np.ndarray) -> None:
    """Predicated contiguous store; inactive lanes leave memory untouched."""
    pred = np.asarray(pred, dtype=bool)
    values = np.ascontiguousarray(values)
    if np.count_nonzero(pred) == pred.size:
        mem.write_array(addr, values)
        return
    itemsize = values.dtype.itemsize
    addrs = addr + np.arange(pred.size, dtype=np.int64) * itemsize
    mem.scatter_elements(addrs, pred, values)


def ldn(mem: Memory, addr: int, pred: np.ndarray, dtype, n: int) -> list[np.ndarray]:
    """``LDn {zt..}, pg/z, [addr]``: de-interleaving structure load.

    Loads ``lanes`` consecutive *n*-element structures and distributes
    structure member *k* to output vector *k*.  The predicate is per
    structure (all members of a structure share its activity).
    """
    if n not in (2, 3, 4):
        raise ValueError(f"LDn supports n in 2..4, got {n}")
    pred = np.asarray(pred, dtype=bool)
    dtype = np.dtype(dtype)
    lanes = pred.size
    active = np.nonzero(pred)[0]
    if active.size == lanes:  # all structures: de-interleave one read
        flat = mem.read_array(addr, dtype, lanes * n)
        return [flat[k::n].copy() for k in range(n)]
    outs = [np.zeros(lanes, dtype=dtype) for _ in range(n)]
    if active.size:
        last = int(active[-1])
        flat = mem.read_array(addr, dtype, (last + 1) * n)
        for k in range(n):
            member = flat[k::n]
            outs[k][active] = member[active]
    return outs


def stn(mem: Memory, addr: int, pred: np.ndarray, vectors: list[np.ndarray]) -> None:
    """``STn``: interleaving structure store (inverse of :func:`ldn`).

    "Reassembles two-element structures from two vector registers and
    writes them into contiguous memory" (paper, Section IV-B) —
    generalised to n ≤ 4.
    """
    n = len(vectors)
    if n not in (2, 3, 4):
        raise ValueError(f"STn supports n in 2..4, got {n}")
    pred = np.asarray(pred, dtype=bool)
    vecs = [np.ascontiguousarray(v) for v in vectors]
    itemsize = vecs[0].dtype.itemsize
    lanes = pred.size
    if (np.count_nonzero(pred) == lanes and addr >= 0
            and addr + lanes * n * itemsize <= mem.size
            and all(v.dtype == vecs[0].dtype for v in vecs)):
        # All structures, all in bounds: interleave and write once
        # (out of bounds, the element-wise path below faults where it
        # does, after the in-bounds elements are written).
        flat = np.empty((lanes, n), dtype=vecs[0].dtype)
        for k in range(n):
            flat[:, k] = vecs[k]
        mem.write_array(addr, flat)
        return
    base = addr + np.arange(lanes, dtype=np.int64) * n * itemsize
    for k in range(n):
        mem.scatter_elements(base + k * itemsize, pred, vecs[k])


def ld1_gather(mem: Memory, base: int, offsets: np.ndarray,
               pred: np.ndarray, dtype, scale: int = 1) -> np.ndarray:
    """``LD1 (gather)``: per-lane addresses ``base + offsets*scale``."""
    dtype = np.dtype(dtype)
    addrs = base + np.asarray(offsets, dtype=np.int64) * scale
    return mem.gather_elements(addrs, pred, dtype)


def st1_scatter(mem: Memory, base: int, offsets: np.ndarray,
                pred: np.ndarray, values: np.ndarray, scale: int = 1) -> None:
    """``ST1 (scatter)``: per-lane addresses ``base + offsets*scale``."""
    addrs = base + np.asarray(offsets, dtype=np.int64) * scale
    mem.scatter_elements(addrs, pred, np.ascontiguousarray(values))
