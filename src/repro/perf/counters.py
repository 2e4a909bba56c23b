"""Process-global performance counters — a view over the telemetry
registry.

Every engine layer increments these instead of keeping private
tallies, so a test can assert a whole sweep's cache hits and misses
with one read.  Since the
telemetry layer landed, the backing store is the process-global
:class:`~repro.telemetry.metrics.MetricsRegistry` (one
:class:`~repro.telemetry.metrics.Counter` per name, prefixed
``perf.``): the same values appear in ``telemetry.snapshot()`` and in
the Prometheus export, and ``telemetry.reset()`` provably zeroes them
along with everything else.  This module keeps the historical call
surface — ``counters().bump(...)`` and attribute reads — as a thin
facade over those instruments.
"""

from __future__ import annotations

import threading

from repro.telemetry.metrics import registry

#: Every engine counter, in declaration order.
#:
#: * ``program_hits`` / ``program_misses`` — memoized vectorize +
#:   assemble lookups (per kernel signature and codegen options).
#: * ``cshift_plan_hits`` / ``cshift_plan_misses`` — cached gather
#:   plans for lattice neighbour shifts.
#: * ``nbr_table_hits`` / ``nbr_table_misses`` — cached flat neighbour
#:   index tables (:func:`repro.grid.stencil.neighbour_table`) the
#:   checkerboard hop's tables and links and the plaquette are built
#:   from.
#: * ``fused_dhop_calls`` — Wilson-Dslash sweeps taken by the fused
#:   engine path; ``tiles_dispatched`` — block-sweep tiles executed
#:   (one per sweep when running serial).
#: * ``native_sweeps`` — fused Wilson sweeps (full, checkerboard and
#:   distributed hops, the shared-memory rank workers' included) run
#:   by the compiled kernel (:mod:`repro.perf.native`);
#:   ``native_fallbacks`` — Krylov algebra picks
#:   (:func:`repro.grid.krylov.algebra`) that ran the Lattice
#:   expressions because the library is unavailable.  A hop without
#:   the kernel counts none: it shows as its plan's ``layered_sweeps``
#:   stage.
#: * ``halo_posts`` / ``halo_waits`` — halo messages posted to and
#:   completed from the in-flight queue.
#: * ``plan_hits`` / ``plan_misses`` — resolved
#:   :class:`repro.engine.plan.KernelPlan` lookups per (grid, kind,
#:   policy); a miss is one policy resolution, a hit is a cached
#:   dispatch decision reused.
COUNTER_NAMES = (
    "program_hits",
    "program_misses",
    "cshift_plan_hits",
    "cshift_plan_misses",
    "nbr_table_hits",
    "nbr_table_misses",
    "fused_dhop_calls",
    "tiles_dispatched",
    "native_sweeps",
    "native_fallbacks",
    "halo_posts",
    "halo_waits",
    "plan_hits",
    "plan_misses",
)

#: Registry key prefix for the engine counters.
PREFIX = "perf."

#: The one lock of every engine counter and of every kernel plan's
#: stage tallies (:class:`repro.engine.plan.StageCounters`), so a
#: sweep's tallies are one acquisition (:meth:`PerfCounters.
#: bump_sweep`).
LOCK = threading.Lock()

#: The backing instruments, created eagerly so a snapshot taken before
#: any engine activity already shows every counter at zero, and so
#: ``bump`` is one dict lookup + one atomic increment (no registry
#: lock on the hot path).
_PERF = {
    name: registry().counter(PREFIX + name, help="engine perf counter",
                             lock=LOCK)
    for name in COUNTER_NAMES
}


class PerfCounters:
    """The historical counter facade (now registry-backed).

    Attribute reads (``counters().plan_hits``) and ``bump`` keep their
    exact pre-telemetry semantics; the integers live in the telemetry
    registry under ``perf.<name>``.
    """

    __slots__ = ()

    def bump(self, name: str, n: int = 1) -> None:
        inst = _PERF.get(name)
        if inst is None:
            raise AttributeError(f"unknown perf counter {name!r}")
        inst.inc(n)

    def bump_sweep(self, ntiles: int, stages=None, nhops: int = 0) -> None:
        """One compiled sweep's tallies under :data:`LOCK`: ``ntiles``
        ``tiles_dispatched`` and one ``native_sweeps``, and, where
        ``stages`` (a plan's stage tallies) is given, its ``gather``
        (``nhops``) and ``compute`` (``ntiles``) stages."""
        with LOCK:
            _PERF["tiles_dispatched"].add(ntiles)
            _PERF["native_sweeps"].add(1)
            if stages is not None:
                stages.add("gather", nhops)
                stages.add("compute", ntiles)
        if stages is not None:
            stages.mirror(("gather", nhops), ("compute", ntiles))

    def __getattr__(self, name: str) -> int:
        inst = _PERF.get(name)
        if inst is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute "
                f"{name!r}"
            )
        return inst.value


_COUNTERS = PerfCounters()


def counters() -> PerfCounters:
    """The live counter block."""
    return _COUNTERS


def reset_counters() -> None:
    """Zero every engine counter (does not touch the caches
    themselves, nor any non-``perf.`` metric in the registry)."""
    for inst in _PERF.values():
        inst.reset()
