"""Real (element-wise) arithmetic semantics.

These back the instruction mix the armclang auto-vectorizer produced
for both real and complex loops in the paper (Sections IV-A and IV-B):
``fmul``, ``fmla``, ``fmls``, ``fnmls`` and friends, plus the integer
ops the loop scaffolding needs.
"""

from __future__ import annotations

import numpy as np


def _merge(pred: np.ndarray, new: np.ndarray, old: np.ndarray | None) -> np.ndarray:
    """Apply merging/zeroing predication to an element-wise result.

    ``new`` must be a fresh array: with every lane active and nothing
    to promote it is the result itself.
    """
    pred = np.asarray(pred, dtype=bool)
    if (isinstance(new, np.ndarray) and pred.shape == new.shape
            and (old is None or (isinstance(old, np.ndarray)
                                 and old.shape == new.shape
                                 and old.dtype == new.dtype))
            and np.count_nonzero(pred) == pred.size):
        return new
    if old is None:
        old = np.zeros_like(new)
    return np.where(pred, new, old)


# ----------------------------------------------------------------------
# Unpredicated / predicated binary FP ops
# ----------------------------------------------------------------------

def fadd(a, b, pred=None, old=None):
    """``FADD``: ``a + b`` per lane."""
    r = np.asarray(a) + np.asarray(b)
    return r if pred is None else _merge(pred, r, old)


def fsub(a, b, pred=None, old=None):
    """``FSUB``: ``a - b`` per lane."""
    r = np.asarray(a) - np.asarray(b)
    return r if pred is None else _merge(pred, r, old)


def fmul(a, b, pred=None, old=None):
    """``FMUL``: ``a * b`` per lane."""
    r = np.asarray(a) * np.asarray(b)
    return r if pred is None else _merge(pred, r, old)


def fdiv(a, b, pred=None, old=None):
    """``FDIV``: ``a / b`` per lane (inactive lanes never fault)."""
    a = np.asarray(a)
    b = np.asarray(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = a / b
    return r if pred is None else _merge(pred, r, old)


def fmax(a, b, pred=None, old=None):
    """``FMAX``."""
    r = np.maximum(np.asarray(a), np.asarray(b))
    return r if pred is None else _merge(pred, r, old)


def fmin(a, b, pred=None, old=None):
    """``FMIN``."""
    r = np.minimum(np.asarray(a), np.asarray(b))
    return r if pred is None else _merge(pred, r, old)


# ----------------------------------------------------------------------
# Unary FP ops
# ----------------------------------------------------------------------

def fneg(a, pred=None, old=None):
    """``FNEG``."""
    r = -np.asarray(a)
    return r if pred is None else _merge(pred, r, old)


def fabs_(a, pred=None, old=None):
    """``FABS``."""
    r = np.abs(np.asarray(a))
    return r if pred is None else _merge(pred, r, old)


def fsqrt(a, pred=None, old=None):
    """``FSQRT`` (inactive lanes never fault)."""
    with np.errstate(invalid="ignore"):
        r = np.sqrt(np.asarray(a))
    return r if pred is None else _merge(pred, r, old)


# ----------------------------------------------------------------------
# Fused multiply-accumulate family (destructive: acc is the destination)
# ----------------------------------------------------------------------

def fmla(acc, a, b, pred=None):
    """``FMLA``: ``acc + a*b`` per lane (merging into ``acc``)."""
    r = np.asarray(acc) + np.asarray(a) * np.asarray(b)
    return r if pred is None else _merge(pred, r, np.asarray(acc))


def fmls(acc, a, b, pred=None):
    """``FMLS``: ``acc - a*b`` per lane."""
    r = np.asarray(acc) - np.asarray(a) * np.asarray(b)
    return r if pred is None else _merge(pred, r, np.asarray(acc))


def fnmla(acc, a, b, pred=None):
    """``FNMLA``: ``-acc - a*b`` per lane."""
    r = -np.asarray(acc) - np.asarray(a) * np.asarray(b)
    return r if pred is None else _merge(pred, r, np.asarray(acc))


def fnmls(acc, a, b, pred=None):
    """``FNMLS``: ``-acc + a*b`` per lane.

    This is the instruction the auto-vectorizer used for the real part
    of a complex product: ``re(z) = -im(x)*im(y) + re(x)*re(y)`` with
    the accumulator pre-loaded with ``im(x)*im(y)`` (paper listing,
    Section IV-B line 15).
    """
    r = -np.asarray(acc) + np.asarray(a) * np.asarray(b)
    return r if pred is None else _merge(pred, r, np.asarray(acc))


def fmad(a, b, addend, pred=None):
    """``FMAD``: ``a*b + addend`` where ``a`` is the destination."""
    r = np.asarray(a) * np.asarray(b) + np.asarray(addend)
    return r if pred is None else _merge(pred, r, np.asarray(a))


def fmsb(a, b, addend, pred=None):
    """``FMSB``: ``-(a*b) + addend`` where ``a`` is the destination."""
    r = np.asarray(addend) - np.asarray(a) * np.asarray(b)
    return r if pred is None else _merge(pred, r, np.asarray(a))


# ----------------------------------------------------------------------
# Integer ops (loop scaffolding, index arithmetic, bitwise logic)
# ----------------------------------------------------------------------

def add(a, b, pred=None, old=None):
    """``ADD`` (integer, modular per dtype)."""
    with np.errstate(over="ignore"):
        r = np.asarray(a) + np.asarray(b)
    return r if pred is None else _merge(pred, r, old)


def sub(a, b, pred=None, old=None):
    """``SUB`` (integer, modular per dtype)."""
    with np.errstate(over="ignore"):
        r = np.asarray(a) - np.asarray(b)
    return r if pred is None else _merge(pred, r, old)


def mul(a, b, pred=None, old=None):
    """``MUL`` (integer, modular per dtype)."""
    with np.errstate(over="ignore"):
        r = np.asarray(a) * np.asarray(b)
    return r if pred is None else _merge(pred, r, old)


def and_(a, b, pred=None, old=None):
    """``AND`` (bitwise)."""
    r = np.asarray(a) & np.asarray(b)
    return r if pred is None else _merge(pred, r, old)


def orr(a, b, pred=None, old=None):
    """``ORR`` (bitwise)."""
    r = np.asarray(a) | np.asarray(b)
    return r if pred is None else _merge(pred, r, old)


def eor(a, b, pred=None, old=None):
    """``EOR`` (bitwise xor)."""
    r = np.asarray(a) ^ np.asarray(b)
    return r if pred is None else _merge(pred, r, old)


def bic(a, b, pred=None, old=None):
    """``BIC``: ``a & ~b``."""
    r = np.asarray(a) & ~np.asarray(b)
    return r if pred is None else _merge(pred, r, old)


def lsl(a, shift, pred=None, old=None):
    """``LSL`` by an immediate."""
    with np.errstate(over="ignore"):
        r = np.asarray(a) << shift
    return r if pred is None else _merge(pred, r, old)


def lsr(a, shift, pred=None, old=None):
    """``LSR`` by an immediate (logical shift right)."""
    a = np.asarray(a)
    unsigned = a.view(a.dtype.str.replace("i", "u"))
    r = (unsigned >> shift).view(a.dtype)
    return r if pred is None else _merge(pred, r, old)


def index(lanes: int, dtype, base: int, step: int) -> np.ndarray:
    """``INDEX``: ``base + i*step`` per lane."""
    dtype = np.dtype(dtype)
    with np.errstate(over="ignore"):
        return (base + np.arange(lanes) * step).astype(dtype)


def dup(lanes: int, dtype, value) -> np.ndarray:
    """``DUP``/``MOV`` immediate or scalar broadcast."""
    return np.full(lanes, value, dtype=np.dtype(dtype))
