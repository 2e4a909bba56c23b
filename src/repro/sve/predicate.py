"""Predicate-construction and predicate-logic semantics.

SVE achieves vector-length-agnostic loops through predication: the
``WHILELO`` instruction builds a mask of the lanes still inside the
iteration space, and predicated operations simply skip inactive lanes,
"eliminating the need for tail recursion" (Section IV-A).

All functions here operate on element-granular boolean arrays; the
byte-granular architectural encoding lives in
:class:`repro.sve.regfile.PRegisterFile`.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Named PTRUE patterns.  ``all`` is the default; the power-of-two and
# fixed-count patterns are part of the ISA and used by some Grid code.
_FIXED_PATTERNS = {
    "vl1": 1, "vl2": 2, "vl3": 3, "vl4": 4, "vl5": 5, "vl6": 6, "vl7": 7,
    "vl8": 8, "vl16": 16, "vl32": 32, "vl64": 64, "vl128": 128, "vl256": 256,
}


def ptrue(lanes: int, pattern: str = "all") -> np.ndarray:
    """``PTRUE``: an all-true (or patterned) element predicate."""
    pattern = pattern.lower()
    if pattern == "all":
        return np.ones(lanes, dtype=bool)
    out = np.zeros(lanes, dtype=bool)
    if pattern == "pow2":
        n = 1
        while n * 2 <= lanes:
            n *= 2
        out[:n] = True
        return out
    if pattern in _FIXED_PATTERNS:
        n = _FIXED_PATTERNS[pattern]
        if n <= lanes:  # else: no elements (architected behaviour)
            out[:n] = True
        return out
    raise ValueError(f"unknown ptrue pattern {pattern!r}")


def pfalse(lanes: int) -> np.ndarray:
    """``PFALSE``: an all-false element predicate."""
    return np.zeros(lanes, dtype=bool)


def _first(lanes: int, count: int) -> np.ndarray:
    """The predicate with lanes ``0 .. count-1`` active."""
    out = np.zeros(lanes, dtype=bool)
    out[:count] = True
    return out


def whilelo(lanes: int, base: int, limit: int) -> np.ndarray:
    """``WHILELO``: lane *i* is active iff ``base + i < limit`` (unsigned).

    This is the loop-control predicate of the VLA model: starting a loop
    with ``whilelo p, x_counter, x_n`` activates exactly the lanes whose
    indices are still below the trip count.  The sum does not wrap, so
    the active lanes are the first ``clamp(limit - base, 0, lanes)``.
    """
    base &= _MASK64
    limit &= _MASK64
    return _first(lanes, min(max(limit - base, 0), lanes))


def whilelt(lanes: int, base: int, limit: int) -> np.ndarray:
    """``WHILELT``: signed variant of :func:`whilelo`."""
    return _first(lanes, min(max(_s64(limit) - _s64(base), 0), lanes))


def _s64(v: int) -> int:
    v &= _MASK64
    return v - (1 << 64) if v >= (1 << 63) else v


def brkn(
    governing: np.ndarray, pn: np.ndarray, pdm: np.ndarray
) -> np.ndarray:
    """``BRKN(S)``: propagate break condition to the next partition.

    If the element of ``pn`` corresponding to the *last active* element
    of the governing predicate is true, ``pdm`` passes through
    unchanged; otherwise the result is all-false.

    In the paper's listing (Section IV-A) this glues consecutive
    ``WHILELO`` predicates together: while the current iteration's
    predicate is still a full vector, the next iteration's predicate
    survives; once a partial vector has been processed, the loop
    predicate collapses to false and ``b.mi`` falls through.
    """
    governing = np.asarray(governing, dtype=bool)
    pn = np.asarray(pn, dtype=bool)
    pdm = np.asarray(pdm, dtype=bool)
    act = np.nonzero(governing)[0]
    last_active_true = bool(pn[act[-1]]) if act.size else False
    if last_active_true:
        return pdm.copy()
    return np.zeros_like(pdm)


def brka(governing: np.ndarray, pn: np.ndarray, merging: bool = False,
         pd_old: np.ndarray | None = None) -> np.ndarray:
    """``BRKA``: break *after* the first true element of ``pn``.

    Active elements up to and including the first active ``pn`` element
    become true; later elements false.  With zeroing predication,
    inactive elements are false; with merging they keep ``pd_old``.
    """
    governing = np.asarray(governing, dtype=bool)
    pn = np.asarray(pn, dtype=bool)
    out = np.zeros_like(governing)
    broken = False
    for i in range(governing.size):
        if governing[i]:
            if not broken:
                out[i] = True
                if pn[i]:
                    broken = True
        elif merging and pd_old is not None:
            out[i] = pd_old[i]
    return out


def brkb(governing: np.ndarray, pn: np.ndarray, merging: bool = False,
         pd_old: np.ndarray | None = None) -> np.ndarray:
    """``BRKB``: break *before* the first true element of ``pn``."""
    governing = np.asarray(governing, dtype=bool)
    pn = np.asarray(pn, dtype=bool)
    out = np.zeros_like(governing)
    broken = False
    for i in range(governing.size):
        if governing[i]:
            if pn[i]:
                broken = True
            if not broken:
                out[i] = True
        elif merging and pd_old is not None:
            out[i] = pd_old[i]
    return out


def pnext(governing: np.ndarray, pdn: np.ndarray) -> np.ndarray:
    """``PNEXT``: advance to the next active element after ``pdn``'s last."""
    governing = np.asarray(governing, dtype=bool)
    pdn = np.asarray(pdn, dtype=bool)
    act = np.nonzero(pdn)[0]
    start = int(act[-1]) + 1 if act.size else 0
    out = np.zeros_like(governing)
    for i in range(start, governing.size):
        if governing[i]:
            out[i] = True
            break
    return out


def pfirst(governing: np.ndarray, pdn: np.ndarray) -> np.ndarray:
    """``PFIRST``: set the first active governed element."""
    governing = np.asarray(governing, dtype=bool)
    out = np.asarray(pdn, dtype=bool).copy()
    act = np.nonzero(governing)[0]
    if act.size:
        out[act[0]] = True
    return out


def cntp(governing: np.ndarray, pn: np.ndarray) -> int:
    """``CNTP``: count active elements of ``pn`` governed by ``governing``."""
    g = np.asarray(governing, dtype=bool)
    p = np.asarray(pn, dtype=bool)
    return int(np.count_nonzero(g & p))
