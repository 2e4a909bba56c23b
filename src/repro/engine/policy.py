"""The scoped :class:`ExecutionPolicy` — one immutable record of every
execution decision.

Before the engine existed, execution toggles were smeared across
module globals: ``perf._CONFIG`` (enabled/workers/tile_min_sites),
``simd.registry._FALLBACK_ENABLED``, and per-call fault-injector
arguments.  A production system serving many
concurrent workloads cannot be driven by mutable module globals — two
threads flipping one global race each other, and a library call
that wants the reference path has to save/mutate/restore process
state.

This module replaces all of that with a single frozen dataclass and a
``contextvars``-based scope stack:

* :func:`base_policy` — the process-wide default, mutated only through
  :func:`set_base_policy` / :func:`update_base_policy`.
* :func:`scope` — a context manager pushing a scoped override;
  **nestable** (inner scopes start from the currently resolved policy)
  and **thread-isolated** (a ``ContextVar`` means a scope entered in
  one thread is invisible to every other thread, which sees the base
  policy).
* :func:`current_policy` — the resolution point every engine decision
  reads.  Resolution order: innermost active :func:`scope` override,
  else the base policy.  Explicit function arguments (e.g. a
  ``workers=`` override passed straight to a tiling helper) beat both.

Because the policy is frozen and hashable it doubles as a cache key:
:mod:`repro.engine.plan` resolves one :class:`~repro.engine.plan.
KernelPlan` per (grid, kind, policy) and replays it until the policy
changes.

This module imports nothing from the rest of :mod:`repro` — it is the
bottom of the engine's dependency stack.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields, replace
from typing import Optional


#: The default tile-pool width, read once at import: the CPUs this
#: process may run on (its affinity mask where the OS has one, else the
#: machine's CPU count).
try:
    HOST_CPUS = len(os.sched_getaffinity(0))
except (AttributeError, OSError):
    HOST_CPUS = os.cpu_count() or 1


@dataclass(frozen=True)
class ExecutionPolicy:
    """Every execution toggle, in one immutable value.

    Parameters
    ----------
    enabled:
        The engine master switch.  On, every Wilson hop on a
        fused-safe backend runs the fused block sweep
        (:mod:`repro.perf.fused`); off restores the exact pre-engine
        code paths everywhere at once — layered arithmetic, serial
        sweeps, no caches — which is the reference every engine route
        is checked against.
    workers:
        Tile-pool width for lattice sweeps (1 = serial).  Defaults to
        :data:`HOST_CPUS`, the CPUs in the process's affinity mask.
    tile_min_sites:
        The fewest flat lattice sites (outer sites times SIMD lanes,
        so the same on every backend) a tile may get: a sweep splits
        into at most ``workers`` tiles of at least this many sites,
        and a smaller one runs serially.  The default, one sweep block
        (4096), was set by measuring ``workers`` 1 against 2 on each
        tiled sweep (the full hop, the Schur checkerboard hop, the
        distributed block sweep) from 4^3x8 to 16^4 in both
        precisions: it is the smallest tile at which every split it
        allows was faster, so no 8^4 sweep splits (EXPERIMENTS
        X-DSLASH).
    caches:
        Consult *and populate* the engine's derived-data caches: the
        kernel trace cache, cshift gather plans, distributed
        shift-parameter and halo-size memos, rank halo tables, and
        resolved kernel plans.  Only effective while ``enabled``.
        One knob governs every cache uniformly — see DESIGN §10.3;
        all of them hold pure geometry/program derivations, so this
        never affects results, only whether they are recomputed.
    fallback:
        Wrap non-generic SIMD backends for graceful degradation
        (:class:`repro.simd.resilient.ResilientBackend`).
    backend:
        Default backend registry key for call sites that do not name
        one explicitly (:func:`repro.simd.registry.get_backend` with
        ``key=None``).
    comms_faults:
        Default comms fault injector inherited by newly constructed
        distributed lattices that do not pass their own (``None``
        means a perfect network).
    telemetry:
        Observability level (:mod:`repro.telemetry`).  ``"off"`` (the
        default) keeps the hot path telemetry-free — instrumented
        seams pay one flag check and allocate nothing; ``"metrics"``
        feeds the typed metrics registry (counters, gauges,
        histograms); ``"trace"`` additionally records nestable spans
        into the in-memory trace ring buffer.  Telemetry observes and
        never perturbs: results are bit-identical at every level.
        Deliberately *not* gated on ``enabled`` — the reference
        (engine-off) paths are exactly what one wants to profile
        against.
    transport:
        Distributed halo/sweep backend (:mod:`repro.grid.comms`).
        ``"in-process"`` (the default) is the bit-identical reference:
        simulated ranks exchanged inside one process.  ``"shmem"``
        runs the multiprocessing rank runtime — one OS process per
        rank over ``multiprocessing.shared_memory`` segments — for
        real parallel wall-clock.  Only effective while ``enabled``
        and only on the distributed hopping sweep; results are
        bit-identical across backends.
    """

    enabled: bool = True
    workers: int = HOST_CPUS
    tile_min_sites: int = 4096
    caches: bool = True
    fallback: bool = False
    backend: str = "generic256"
    comms_faults: Optional[object] = None
    telemetry: str = "off"
    transport: str = "in-process"

    #: Legal ``telemetry`` levels, in increasing order of detail.
    TELEMETRY_LEVELS = ("off", "metrics", "trace")

    #: Legal ``transport`` backends (mirrors
    #: :data:`repro.grid.comms.transport.TRANSPORTS`).
    TRANSPORTS = ("in-process", "shmem")

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.tile_min_sites < 0:
            raise ValueError(
                f"tile_min_sites must be >= 0, got {self.tile_min_sites}"
            )
        if self.telemetry not in self.TELEMETRY_LEVELS:
            raise ValueError(
                f"telemetry must be one of {self.TELEMETRY_LEVELS}, "
                f"got {self.telemetry!r}"
            )
        if self.transport not in self.TRANSPORTS:
            raise ValueError(
                f"transport must be one of {self.TRANSPORTS}, "
                f"got {self.transport!r}"
            )

    # -- resolved (effective) views ------------------------------------
    @property
    def caches_active(self) -> bool:
        """Caches are consulted/populated only with the engine on."""
        return self.enabled and self.caches

    @property
    def transport_active(self) -> bool:
        """A non-reference transport is taken only with the engine
        on."""
        return self.enabled and self.transport != "in-process"

    @property
    def metrics_active(self) -> bool:
        """The metrics registry is fed (``"metrics"`` or ``"trace"``)."""
        return self.telemetry != "off"

    @property
    def trace_active(self) -> bool:
        """Spans are recorded into the trace buffer (``"trace"``)."""
        return self.telemetry == "trace"

    def replace(self, **overrides) -> "ExecutionPolicy":
        """A copy with ``overrides`` applied (the policy is frozen)."""
        return replace(self, **overrides)


#: Names accepted by :func:`scope` / :func:`update_base_policy`.
POLICY_FIELDS = tuple(f.name for f in fields(ExecutionPolicy))

_BASE_LOCK = threading.Lock()
_BASE_POLICY = ExecutionPolicy()

#: The scope stack.  A ``ContextVar`` (not ``threading.local``) so that
#: freshly spawned threads see the *default* (``None`` -> base policy)
#: rather than inheriting a stale override, and ``asyncio`` tasks, if
#: ever used, each get their own stack.
_SCOPED: ContextVar[Optional[ExecutionPolicy]] = ContextVar(
    "repro_engine_policy", default=None
)


def base_policy() -> ExecutionPolicy:
    """The process-wide default policy (what :func:`current_policy`
    resolves to outside any :func:`scope`)."""
    return _BASE_POLICY


def set_base_policy(policy: ExecutionPolicy) -> ExecutionPolicy:
    """Replace the process-wide default policy; returns the previous
    one.  Prefer :func:`scope` — a global mutation is visible to every
    thread and survives until explicitly undone."""
    global _BASE_POLICY
    if not isinstance(policy, ExecutionPolicy):
        raise TypeError(f"expected ExecutionPolicy, got {type(policy)!r}")
    with _BASE_LOCK:
        previous = _BASE_POLICY
        _BASE_POLICY = policy
    return previous


def update_base_policy(**overrides) -> ExecutionPolicy:
    """Apply field overrides to the base policy (returns the previous
    base).  This is the engine-sanctioned mutation point the legacy
    setter shims delegate to."""
    global _BASE_POLICY
    with _BASE_LOCK:
        previous = _BASE_POLICY
        _BASE_POLICY = previous.replace(**overrides)
    return previous


def current_policy() -> ExecutionPolicy:
    """The policy in effect here and now: the innermost active
    :func:`scope` override, else the base policy."""
    scoped = _SCOPED.get()
    return scoped if scoped is not None else _BASE_POLICY


@contextmanager
def scope(policy: Optional[ExecutionPolicy] = None, **overrides):
    """Push a scoped policy override (restored on exit, exception-safe).

    Two forms:

    * ``scope(enabled=False, workers=1)`` — field overrides applied to
      the *currently resolved* policy, so nested scopes compose: an
      inner ``scope(workers=4)`` keeps the outer scope's other fields.
    * ``scope(policy)`` — an explicit :class:`ExecutionPolicy` replaces
      the resolved policy wholesale (further ``**overrides`` apply on
      top of it).

    Scopes are thread-isolated: a scope entered on one thread is
    invisible to every other thread (including tile-pool workers),
    which resolve the base policy.
    """
    if policy is None:
        policy = current_policy().replace(**overrides)
    else:
        if not isinstance(policy, ExecutionPolicy):
            raise TypeError(
                f"expected ExecutionPolicy, got {type(policy)!r}"
            )
        if overrides:
            policy = policy.replace(**overrides)
    token = _SCOPED.set(policy)
    try:
        yield policy
    finally:
        _SCOPED.reset(token)
