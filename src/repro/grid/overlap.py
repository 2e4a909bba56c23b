"""Communication/computation overlap for the distributed Wilson-Dslash.

The ordered path in :class:`repro.grid.dist_wilson.DistributedWilson`
completes every halo exchange before touching a single site, so each
message's latency lands on the critical path.  Grid instead posts all
halos up front and computes the *interior* — the sites whose stencil
never crosses a rank boundary — while the messages are in flight,
finishing the boundary *shells* as halos arrive.  This module is that
schedule over the simulated comms layer of :mod:`repro.grid.comms`:

1. **Post** every one of the 2·ndim·nranks halo messages through the
   :class:`~repro.grid.comms.AsyncCommsQueue`, in exactly the message
   order of the ordered path (mu ascending, forward then backward,
   rank ascending) — so traffic accounting, CRC/retry behaviour and
   seeded fault schedules are identical to the ordered exchange.
2. **Interior** — fill the halo-independent part of each neighbour
   buffer (the ``k == 0`` virtual-node groups of the cached cshift
   plan) and sweep the interior sites through the fused accumulation
   body, tiled over the PR 2 thread pool.
3. **Shells** — for each dimension in ascending order, wait for its
   halos, blend the boundary lanes into the ``k >= 1`` buffer groups,
   and sweep the sites whose highest halo-dependent dimension it is.

**Bit-identity.**  Each neighbour buffer is filled with values bitwise
equal to the ordered path's shifted field (same gather plan, same lane
rotations, same ``np.where`` blend); the wire content of each message
is computed deterministically at post time (the latency model delays
only availability); and interior + shells partition the outer-site
axis, so every output site is written once, by the same
:func:`~repro.perf.fused.accumulate_hop` sequence (mu
ascending, +1 then -1) the fused ordered path runs.  Overlapped and
ordered dhop therefore agree to the last bit at any latency, which the
test suite asserts across VLs, rank layouts, compressed/checksummed
halos and injected comms faults.
"""

from __future__ import annotations

import numpy as np

from repro.engine.plan import fused_safe_backend, register_plan_host
from repro.engine.policy import current_policy
from repro.grid.cshift import _apply_lane_rotation
from repro.grid.cshift import _shift_plan as _local_shift_plan
from repro.grid.stencil import halo_dependency
from repro.perf.counters import counters
from repro.perf.fused import accumulate_hop
from repro.perf.parallel import run_tiles, tiles_for
from repro.telemetry import trace as _telemetry

#: Spinor tensor shape (kept local for import-cycle freedom).
SPINOR = (4, 3)


def overlap_active(dist) -> bool:
    """True when the overlap engine should take this distributed sweep:
    overlap resolved on in the current policy and a fused-safe backend
    (the shell sweep reuses the fused accumulation body).  Historical
    gate; the distributed operator now reads ``plan.overlap`` off its
    :class:`~repro.engine.plan.KernelPlan`, which resolves to exactly
    this condition."""
    return (current_policy().overlap_active
            and fused_safe_backend(dist.grids[0].backend))


class DistHaloPlan:
    """Geometry-only recipe for one overlapped sweep.

    Holds, per (direction, sign): the rank-step/local-shift
    decomposition and the cached cshift group plan; plus the
    interior/shell partition of the outer-site axis.  Depends only on
    the grid geometry and rank layout — never on field data — so it is
    memoized per grid instance alongside the cshift plans.
    """

    def __init__(self, dist) -> None:
        grid = dist.grids[0]
        self.ndim = grid.ndim
        self.shift_params = {}
        self.groups = {}
        for mu in range(self.ndim):
            for sign in (+1, -1):
                rank_steps, s = dist._dist_shift_params(mu, sign)
                self.shift_params[(mu, sign)] = (rank_steps, s)
                if s != 0:
                    self.groups[(mu, sign)] = _local_shift_plan(grid, mu, s)
        self.interior, self.shells = halo_dependency(grid)


def halo_plan_for(dist) -> DistHaloPlan:
    """The overlap plan for ``dist``'s geometry, memoized per grid
    instance under the engine's uniform cache knob (with
    ``caches_active`` off the plan is re-derived per sweep and nothing
    is stored)."""
    grid = dist.grids[0]
    if not current_policy().caches_active:
        return DistHaloPlan(dist)
    plan = grid.__dict__.get("_dist_halo_plan")
    if plan is None:
        plan = DistHaloPlan(dist)
        grid.__dict__["_dist_halo_plan"] = plan
        register_plan_host(grid)
    return plan


def overlapped_dhop(op, psi, kplan=None):
    """Apply ``op``'s hopping term with halo exchange hidden behind
    interior compute.  ``op`` is a :class:`~repro.grid.dist_wilson.
    DistributedWilson`; ``psi`` a spinor or multi-RHS batch field.
    ``kplan`` (a resolved :class:`~repro.engine.plan.KernelPlan`) pins
    the tile split and feeds the per-stage counters."""
    counters().bump("overlap_dhop_calls")
    plan = halo_plan_for(psi)
    workers = None if kplan is None else kplan.workers
    min_sites = None if kplan is None else kplan.tile_min_sites

    def sweep(body, n_sites: int) -> None:
        run_tiles(body, tiles_for(n_sites, workers=workers,
                                  min_sites=min_sites),
                  workers=workers)
    ndim = op.ndim
    nranks = psi.ranks.nranks
    grid = psi.grids[0]
    ncols = psi.tensor_shape[0] if len(psi.tensor_shape) == 3 else 0
    if ncols:
        counters().bump("batched_dhop_calls")
    out = op._zero_like(psi)

    # -- Phase 1: post every halo, in the ordered path's message order.
    # One transport resolution covers the whole sweep: post and wait
    # go through the same backend even if the policy scope changes
    # mid-flight.
    transport = psi.transport
    srcs = {}
    handles = {}
    with _telemetry.span("overlap.post", nranks=nranks):
        for mu in range(ndim):
            for sign in (+1, -1):
                rank_steps, s = plan.shift_params[(mu, sign)]
                for r in range(nranks):
                    srcs[(mu, sign, r)] = psi.ranks.neighbour(
                        r, mu, rank_steps
                    )
                if s == 0:
                    continue
                for r in range(nranks):
                    handles[(mu, sign, r)] = transport.post_halo(
                        psi, srcs[(mu, sign, r)], mu
                    )
    if kplan is not None:
        kplan.stages.bump("post", len(handles))

    # -- Phase 2: halo-independent buffer groups + interior sweep.
    bufs: list = [dict() for _ in range(nranks)]
    for mu in range(ndim):
        for sign in (+1, -1):
            _steps, s = plan.shift_params[(mu, sign)]
            for r in range(nranks):
                src_data = psi.locals[srcs[(mu, sign, r)]].data
                if s == 0:
                    # Whole-rank renumbering: the "shifted" field is the
                    # source rank's field verbatim (read-only use).
                    bufs[r][(mu, sign)] = src_data
                    continue
                buf = np.empty_like(src_data)
                for k, sel, src_osites, _nbr in plan.groups[(mu, sign)]:
                    if k == 0:  # no rotation, no boundary lanes
                        buf[sel] = src_data[src_osites]
                bufs[r][(mu, sign)] = buf

    links = [op.links[mu].locals for mu in range(ndim)]
    links_back = [op.links_back[mu].locals for mu in range(ndim)]

    codegen_fns = None
    if kplan is not None and kplan.codegen != "off":
        # Generated per-direction kernels replace the interpreted
        # accumulation body; schedule and message order are untouched.
        from repro.codegen import kernel_for

        dt = out.locals[0].data.dtype
        codegen_fns = [
            kernel_for(f"dhop-dir{mu}", 4, dt, kplan.codegen,
                       caches=kplan.caches).fn
            for mu in range(ndim)
        ]

    def accumulate(r: int, idx: np.ndarray) -> None:
        """Full 8-direction accumulation for the sites ``idx`` of rank
        ``r`` — gather-to-scratch, accumulate in the reference order,
        scatter back (fancy indexing copies, so in-place on a gather
        view would be lost)."""
        if idx.size == 0:
            return
        acc = out.locals[r].data
        a = acc[idx]
        for mu in range(ndim):
            u_f = links[mu][r].data[idx]
            u_b = links_back[mu][r].data[idx]
            n_f = bufs[r][(mu, +1)][idx]
            n_b = bufs[r][(mu, -1)][idx]
            if codegen_fns is not None:
                if ncols:
                    for j in range(ncols):
                        codegen_fns[mu](a[:, j], u_f, n_f[:, j],
                                        u_b, n_b[:, j])
                else:
                    codegen_fns[mu](a, u_f, n_f, u_b, n_b)
            elif ncols:
                for j in range(ncols):
                    accumulate_hop(a[:, j], u_f, u_b, n_f[:, j],
                                   n_b[:, j], mu)
            else:
                accumulate_hop(a, u_f, u_b, n_f, n_b, mu)
        acc[idx] = a

    interior = plan.interior
    with _telemetry.span("overlap.interior", sites=int(interior.size),
                         nranks=nranks):
        for r in range(nranks):
            sweep(lambda sl, r=r: accumulate(r, interior[sl]),
                  interior.size)
    if kplan is not None:
        kplan.stages.bump("interior", nranks)

    # -- Phase 3: complete each dimension's halos, then its shell.
    with _telemetry.span("overlap.shells", nranks=nranks):
        for d in range(ndim):
            for sign in (+1, -1):
                _steps, s = plan.shift_params[(d, sign)]
                if s == 0:
                    continue
                for r in range(nranks):
                    halo = transport.wait(handles[(d, sign, r)])
                    buf = bufs[r][(d, sign)]
                    src_data = psi.locals[srcs[(d, sign, r)]].data
                    for k, sel, src_osites, nbr_lanes in \
                            plan.groups[(d, sign)]:
                        if k == 0:
                            continue
                        rotated = _apply_lane_rotation(
                            src_data[src_osites], grid, d, k
                        )
                        rotated_nbr = _apply_lane_rotation(
                            halo[src_osites], grid, d, k
                        )
                        buf[sel] = np.where(nbr_lanes, rotated_nbr,
                                            rotated)
            shell = plan.shells[d]
            for r in range(nranks):
                sweep(lambda sl, r=r: accumulate(r, shell[sl]),
                      shell.size)
            if kplan is not None:
                kplan.stages.bump("shell", nranks)
    return out
