"""The kernel-plan pipeline: resolve every dispatch decision once.

Pre-engine, every ``dhop`` call re-derived its execution shape inline:
``wilson.py`` asked ``engine_active(backend)``, ``dist_wilson.py``
asked it per rank, ``fused.py`` re-read the
worker count, and the branching was duplicated in four files.  The
paper's dispatch lesson (one kernel, many substrates, selected in one
place) says to resolve that *once*: operators now ask
:func:`kernel_plan` for a :class:`KernelPlan` — the fully resolved
(fused? which transport? how many workers?) execution shape for
one (grid, kind, policy) triple — and just follow it.

Plans are memoized per grid instance keyed by ``(kind, policy)``; the
policy is frozen and hashable, so a scoped override resolves a fresh
plan exactly once and every call under the same scope replays it (the
``plan_hits``/``plan_misses`` counters measure the amortisation the
bench gate relies on).  Each plan also carries a mutable
:class:`StageCounters` block — the per-stage instrumentation seam:
with telemetry metrics on, every stage bump also feeds the
process-global registry as ``plan.stage.<name>``, so one snapshot
covers every plan's stages.

Import discipline: this module may import :mod:`repro.engine.policy`,
:mod:`repro.perf.counters`, :mod:`repro.telemetry.metrics` (a leaf —
it imports nothing from :mod:`repro`) and the *leaf* backend modules
(:mod:`repro.simd.generic` / :mod:`repro.simd.fixed`) — never
:mod:`repro.grid` or the :mod:`repro.simd` package root, which import
the engine back.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from repro.engine.policy import ExecutionPolicy, current_policy
from repro.perf.counters import LOCK as _COUNTERS_LOCK, counters
from repro.telemetry.metrics import registry as telemetry_registry
from repro.simd.fixed import FixedWidthBackend
from repro.simd.generic import GenericBackend

#: Backends whose arithmetic ops are literally the numpy expressions
#: the fused path inlines.  Exact types only: subclasses may override
#: an op (fault-injecting backends do) and must keep the layered path.
_FUSED_SAFE = (GenericBackend, FixedWidthBackend)

#: Grid instances carrying engine-owned caches (kernel plans, cshift
#: plans, flat neighbour tables, red-black half grids and their parity
#: tables, single-precision twin grids, rank halo tables), weakly held so
#: :func:`clear_plan_caches` can invalidate without keeping grids
#: alive.  Keyed by ``id`` because grids define value equality without
#: hashability (a ``WeakSet`` needs hashable members); dead entries
#: self-evict via the weakref callback.
_PLAN_HOSTS: dict = {}

#: Attributes :func:`clear_plan_caches` evicts from registered hosts.
_HOSTED_CACHES = ("_kernel_plans", "_cshift_plans", "_nbr_tables",
                  "_rb_grids", "_cb_tables", "_single_grid",
                  "_rank_halo")


def fused_safe_backend(backend) -> bool:
    """True when ``backend``'s ops are the plain numpy semantics the
    fused Wilson-Dslash body inlines (see :mod:`repro.perf.fused`)."""
    return type(backend) in _FUSED_SAFE


def takes_fused_path(backend, policy: ExecutionPolicy = None) -> bool:
    """The rule :attr:`KernelPlan.fused` records: the engine is on and
    ``backend`` fused-safe.  Kernels without a plan of their own (the
    gauge field's plaquette) read it here."""
    if policy is None:
        policy = current_policy()
    return policy.enabled and fused_safe_backend(backend)


#: Memoized ``plan.stage.<name>`` counter instruments: stage names
#: form a tiny fixed set, and ``registry().reset()`` zeroes
#: instruments in place (registrations survive), so cached handles
#: stay valid and the per-bump cost drops to one dict lookup + one
#: atomic increment.
_STAGE_INSTRUMENTS: dict = {}


class StageCounters:
    """Per-plan, per-stage call tallies (thread-safe).

    Every plan owns one; kernel bodies bump named stages ("gather",
    "compute", "exchange", ...) as they execute.  This is the
    instrumentation seam: an observability layer can read one object
    per (grid, kind, policy) instead of hooking every kernel — and
    with telemetry metrics on, each bump is mirrored into the global
    registry as ``plan.stage.<name>`` so stage activity survives plan
    eviction and lands in the Prometheus export.  Every plan's tallies
    share the engine counters' one lock, so a compiled sweep books its
    counters and stages in one acquisition
    (:meth:`repro.perf.counters.PerfCounters.bump_sweep`).
    """

    __slots__ = ("_lock", "_stages")

    def __init__(self) -> None:
        self._lock = _COUNTERS_LOCK
        self._stages: dict = {}

    def bump(self, stage: str, n: int = 1) -> None:
        with self._lock:
            self.add(stage, n)
        self.mirror((stage, n))

    def add(self, stage: str, n: int) -> None:
        """``bump`` for a caller that holds the lock, without the
        registry mirror (:meth:`mirror`)."""
        self._stages[stage] = self._stages.get(stage, 0) + n

    @staticmethod
    def mirror(*counts) -> None:
        """Feed ``(stage, n)`` pairs to the registry's
        ``plan.stage.<name>`` counters where telemetry metrics are on."""
        if current_policy().metrics_active:
            for stage, n in counts:
                inst = _STAGE_INSTRUMENTS.get(stage)
                if inst is None:
                    inst = telemetry_registry().counter(
                        f"plan.stage.{stage}")
                    _STAGE_INSTRUMENTS[stage] = inst
                inst.inc(n)

    def as_dict(self) -> dict:
        with self._lock:
            return dict(self._stages)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StageCounters({self.as_dict()!r})"


@dataclass(frozen=True)
class KernelPlan:
    """The resolved execution shape of one kernel on one geometry.

    * ``kind`` — ``"dhop"`` (single-rank Wilson sweep) or
      ``"dist-dhop"`` (rank-decomposed sweep).
    * ``fused`` — take the fused block sweep instead of the layered
      per-op reference: the engine is on and the backend fused-safe.
    * ``workers`` / ``tile_min_sites`` — tile-pool shape for the sweep.
    * ``caches`` — consult/populate derived-data caches.
    * ``transport`` — (dist only) the halo/sweep backend:
      ``"in-process"`` (the bit-identical reference) or ``"shmem"``
      (the multiprocessing rank runtime).  The policy knob takes
      effect only where it applies (the rank-decomposed sweep, engine
      on).
    * ``policy`` — the policy this plan was resolved under (the cache
      key half that isn't the grid).
    * ``stages`` — mutable per-stage counters (see
      :class:`StageCounters`); excluded from equality.
    """

    kind: str
    fused: bool
    workers: int
    tile_min_sites: int
    caches: bool
    policy: ExecutionPolicy
    transport: str = "in-process"
    stages: StageCounters = field(
        default_factory=StageCounters, compare=False, repr=False
    )


def _resolve(kind: str, backend, policy: ExecutionPolicy) -> KernelPlan:
    """Derive the plan for (kind, backend, policy) — the one place the
    scattered dispatch conditions used to live."""
    transport = (policy.transport
                 if (kind == "dist-dhop" and policy.transport_active)
                 else "in-process")
    return KernelPlan(
        kind=kind,
        fused=takes_fused_path(backend, policy),
        workers=policy.workers if policy.enabled else 1,
        tile_min_sites=policy.tile_min_sites,
        caches=policy.caches_active,
        policy=policy,
        transport=transport,
    )


def register_plan_host(grid) -> None:
    """Record ``grid`` as carrying engine-owned caches so
    :func:`clear_plan_caches` can find and evict them."""
    key = id(grid)
    if key not in _PLAN_HOSTS:
        _PLAN_HOSTS[key] = weakref.ref(
            grid, lambda _ref, key=key: _PLAN_HOSTS.pop(key, None)
        )


def kernel_plan(grid, kind: str = "dhop",
                policy: ExecutionPolicy = None) -> KernelPlan:
    """The (memoized) :class:`KernelPlan` for ``grid`` under the
    current policy.

    ``policy`` overrides the ambient :func:`~repro.engine.policy.
    current_policy` resolution (explicit argument beats scope beats
    base — the documented resolution order).  With caching active the
    plan is stored on the grid instance keyed by ``(kind, policy)``;
    with caches off a fresh plan is derived per call and nothing is
    stored.
    """
    if policy is None:
        policy = current_policy()
    backend = grid.backend
    if not policy.caches_active:
        counters().bump("plan_misses")
        return _resolve(kind, backend, policy)
    store = grid.__dict__.get("_kernel_plans")
    if store is None:
        store = grid.__dict__.setdefault("_kernel_plans", {})
        register_plan_host(grid)
    # The last plan of ``kind`` and the policy object it was asked under:
    # a sweep that asks again under the same object skips hashing it.
    last = store.get(kind)
    if last is not None and last[0] is policy:
        counters().bump("plan_hits")
        return last[1]
    key = (kind, policy)
    plan = store.get(key)
    if plan is not None:
        counters().bump("plan_hits")
        store[kind] = (policy, plan)
        return plan
    counters().bump("plan_misses")
    plan = _resolve(kind, backend, policy)
    store[key] = plan
    store[kind] = (policy, plan)
    return plan


def clear_plan_caches() -> int:
    """Evict every engine-owned cache from every registered host grid
    (kernel plans, cshift gather plans, flat neighbour tables, red-black
    half grids and their parity tables, single-precision twin grids,
    rank halo tables).  Returns
    how many hosts were touched.  Part of
    :func:`repro.engine.reset_all`; results are unaffected — these
    caches hold pure geometry derivations that rebuild on next use."""
    n = 0
    for ref in list(_PLAN_HOSTS.values()):
        grid = ref()
        if grid is None:
            continue
        touched = False
        for attr in _HOSTED_CACHES:
            if grid.__dict__.pop(attr, None) is not None:
                touched = True
        n += bool(touched)
    return n
