"""Kernel program caching: vectorize/assemble/decode exactly once.

Every pre-engine call site did ``run_kernel(vectorize(kernel), ...)``:
lowering the IR, printing assembly text, re-parsing and re-decoding it
— per invocation.  This module memoizes that pipeline per kernel
*signature* (structure + codegen options): the lowered-and-decoded
:class:`Program`.  The IR is first canonicalised by
:mod:`repro.vectorizer.passes`, so mul+add chains reach the FMA-fusing
lowering in fusable shape.  The per-VL half of the work needs no table
here: :mod:`repro.sve.machine` binds a program's executor steps once
per VL and keeps them on ``Program._bound``, so a cached program run
again at any VL it has seen replays its bound steps.

Caching is gated on the engine policy's ``caches_active`` (``enabled
and caches``): under ``perf.disabled()`` — or ``engine.scope(
caches=False)`` — every entry point falls through to the uncached
pre-engine pipeline, neither consulting nor populating the cache, the
same uniform semantics every other plan cache in the stack follows.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Union

import numpy as np

from repro.armie.emulator import EmulationResult, run_kernel
from repro.engine.policy import current_policy
from repro.perf.counters import counters
from repro.sve.program import Program
from repro.sve.vl import VL
from repro.vectorizer.autovec import vectorize, vectorize_fixed
from repro.vectorizer.ir import Kernel
from repro.vectorizer.passes import simplify


def kernel_signature(kernel: Kernel, complex_isa: bool = False,
                     use_movprfx: bool = True, fixed: bool = False,
                     optimize: bool = True) -> tuple:
    """A structural cache key for (kernel, codegen options).

    IR nodes are frozen dataclasses, so ``repr(expr)`` is a faithful
    structural fingerprint; two kernels with the same expression tree,
    scalar type and arity share a program regardless of identity.
    """
    return (
        kernel.name,
        kernel.scalar_type,
        len(kernel.inputs),
        repr(kernel.expr),
        bool(complex_isa),
        bool(use_movprfx),
        bool(fixed),
        bool(optimize),
    )


class TraceCache:
    """Program store (one process-global instance)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._programs: dict = {}

    # -- programs ------------------------------------------------------
    def program(self, kernel: Kernel, complex_isa: bool = False,
                use_movprfx: bool = True, fixed: bool = False,
                optimize: bool = True) -> Program:
        """The lowered+decoded program for ``kernel`` (memoized)."""
        if not current_policy().caches_active:
            return _compile(kernel, complex_isa, use_movprfx, fixed,
                            optimize)
        sig = kernel_signature(kernel, complex_isa, use_movprfx, fixed,
                               optimize)
        with self._lock:
            prog = self._programs.get(sig)
        if prog is not None:
            counters().bump("program_hits")
            return prog
        counters().bump("program_misses")
        prog = _compile(kernel, complex_isa, use_movprfx, fixed, optimize)
        with self._lock:
            self._programs.setdefault(sig, prog)
        return prog

    # -- maintenance ---------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self._programs.clear()

    def sizes(self) -> dict:
        with self._lock:
            return {"programs": len(self._programs)}


def _compile(kernel: Kernel, complex_isa: bool, use_movprfx: bool,
             fixed: bool, optimize: bool) -> Program:
    if optimize:
        kernel = simplify(kernel).kernel
    if fixed:
        return vectorize_fixed(kernel, complex_isa=complex_isa)
    return vectorize(kernel, complex_isa=complex_isa,
                     use_movprfx=use_movprfx)


_CACHE = TraceCache()


def trace_cache() -> TraceCache:
    """The process-global trace cache."""
    return _CACHE


def clear_cache() -> None:
    _CACHE.clear()


def cached_vectorize(kernel: Kernel, complex_isa: bool = False,
                     use_movprfx: bool = True, fixed: bool = False,
                     optimize: bool = True) -> Program:
    """Drop-in for :func:`repro.vectorizer.autovec.vectorize` that
    memoizes the lowered program (plus the simplifier pass)."""
    return _CACHE.program(kernel, complex_isa=complex_isa,
                          use_movprfx=use_movprfx, fixed=fixed,
                          optimize=optimize)


def cached_run_kernel(
    kernel: Kernel,
    arrays: Sequence[np.ndarray],
    vl: Union[VL, int],
    n: Optional[int] = None,
    complex_isa: bool = False,
    use_movprfx: bool = True,
    fixed: bool = False,
    optimize: bool = True,
    **run_kwargs,
) -> EmulationResult:
    """``run_kernel(vectorize(kernel), ...)`` through the program cache.

    Identical results to the uncached pipeline (the simplifier is
    IEEE-exact and the executor is deterministic); a repeated call with
    the same kernel skips lowering, assembly and decode, and one at a
    VL the program already ran at also skips step binding.
    """
    program = _CACHE.program(kernel, complex_isa=complex_isa,
                             use_movprfx=use_movprfx, fixed=fixed,
                             optimize=optimize)
    return run_kernel(program, kernel, arrays, vl, n=n, **run_kwargs)
