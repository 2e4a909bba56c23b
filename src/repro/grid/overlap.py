"""The distributed Wilson hop on the block sweep, ordered or overlapped.

Each rank's sites are swept by the single-rank block sweep
(:func:`repro.perf.fused.sweep_blocks`, the same body) over the rank's
*extended* working array: its own shard in the tensor-major layout
``(12, N)``, followed by one received slab per (mu, ±1).  Every
neighbour read goes through the flat tables of
:func:`repro.grid.stencil.rank_halo`, which point either into the
shard or into a slab — Grid's stencil design, where the kernel reads
each neighbour through a table into the local field or the comms
buffer.  The ranks' extended arrays sit side by side in one allocation
and one sweep covers them all, but the tables are offset per rank: a
rank's sites read its own shard and its received slabs, nothing else.

**Wire.**  For the slab a rank receives in (mu, sign), the sending
rank gathers its face (``np.take`` through ``RankHalo.faces``) out of
its own working copy into a contiguous ``(rows, H)`` array and posts
it through :meth:`~repro.grid.comms.transport.Transport.post_halo`, so
the compressed, checksummed, fault-exposed wire image *is* the one
boundary slab the message is accounted as.  Messages go out in the
historical order (mu ascending, +1 then -1, receiving rank ascending),
so seeded fault schedules keyed on message ordinals hit the same halo.

**Schedules.**  Both are site ranges of the same sweep:

* ordered (``overlap_comms`` off) — post and wait each message in turn
  before any compute, so every latency lands on the critical path;
* overlapped (``KernelPlan.overlap``) — post every message, sweep the
  *interior* sites (all eight table entries local) while they are in
  flight, wait, then sweep the *shell*.

**Bit-identity.**  A gather is an exact copy and each received slab
holds exactly the values the ordered exchange delivers (the content is
fixed at post time; latency only delays it), and interior + shell
partition the sites, each accumulating its eight hops in sweep order
through the fused body.  The two schedules, serial or tiled, agree to
the last bit, and on a pristine or checksummed wire so do the
single-rank ``WilsonDirac.dhop`` and the layered reference.
"""

from __future__ import annotations

import numpy as np

from repro.grid.lattice import Lattice
from repro.grid.stencil import rank_halo
from repro.perf.counters import counters
from repro.perf.fused import from_working, sweep_blocks
from repro.telemetry import trace as _telemetry


def halo_dhop(op, psi, kplan):
    """Apply ``op``'s hopping term: one block sweep over every rank's
    shard and received slabs.

    ``op`` is a :class:`~repro.grid.dist_wilson.DistributedWilson`
    holding tensor-major links; ``psi`` a spinor field; ``kplan`` the
    resolved :class:`~repro.engine.plan.KernelPlan`, whose ``overlap``
    picks the schedule and whose tile split and stage counters the
    sweep uses.
    """
    halo = rank_halo(psi)
    nranks = psi.ranks.nranks
    n, width = halo.sites, halo.width
    dtype = psi.locals[0].data.dtype
    stacked = np.empty((12, nranks * width), dtype=dtype)
    ext = [stacked[:, r * width:(r + 1) * width] for r in range(nranks)]
    for e, lat in zip(ext, psi.locals):
        shard = e[:, :n].reshape(lat.data.shape[1:-1] + (-1, lat.grid.nlanes))
        shard[...] = np.moveaxis(lat.data, 0, -2)
    transport = psi.transport

    def post(key, r):
        """Send rank ``r`` its ``key`` slab from the neighbour rank's
        face; returns the handle, or ``None`` for a renumbering."""
        sender = halo.senders[key][r]
        # Gather from the contiguous stacked array (np.take would copy
        # a strided view whole first).
        slab = np.take(stacked, halo.faces[key] + sender * width, axis=1)
        if not halo.wired[key]:
            ext[r][:, halo.slots[key]] = slab
            return None
        return transport.post_halo(psi, r if key[1] > 0 else sender, key[0],
                                   slab)

    def land(key, r, handle) -> None:
        if handle is not None:
            ext[r][:, halo.slots[key]] = transport.wait(handle)

    # The result in the working layout, rank r at columns r * n onwards.
    result = np.empty((12, nranks * n), dtype=dtype)

    def sweep(part=None) -> None:
        """Every rank's sweep over all its sites, or over ``part``'s."""
        tables = halo.tables if part is None else part.tables
        hops = [(sign, tables[(mu, sign)], links[mu], mu)
                for mu in range(op.ndim)
                for sign, links in ((+1, op._links_t), (-1, op._links_adj_t))]
        if part is None:
            def store(acc, b0, b1) -> None:
                result[:, b0:b1] = acc.reshape(12, -1)
            count, sites = nranks * n, None
        else:
            flat = result.reshape(-1)

            def store(acc, b0, b1) -> None:
                flat[part.scatter[:, b0:b1]] = acc.reshape(12, -1)
            count, sites = part.sites.size, part.sites
        sweep_blocks(hops, stacked, count, store, kplan, link_sites=sites)

    keys = [(mu, sign) for mu in range(op.ndim) for sign in (+1, -1)]
    if kplan.overlap:
        counters().bump("overlap_dhop_calls")
        with _telemetry.span("overlap.post", nranks=nranks):
            handles = [(key, r, post(key, r)) for key in keys
                       for r in range(nranks)]
        kplan.stages.bump("post", sum(h is not None for *_k, h in handles))
        with _telemetry.span("overlap.interior", nranks=nranks,
                             sites=int(halo.interior.sites.size)):
            sweep(halo.interior)
        kplan.stages.bump("interior", nranks)
        with _telemetry.span("overlap.shells", nranks=nranks):
            for key, r, handle in handles:
                land(key, r, handle)
            sweep(halo.shell)
        kplan.stages.bump("shell", nranks)
    else:
        for key in keys:
            for r in range(nranks):
                land(key, r, post(key, r))
        kplan.stages.bump("exchange", len(keys))
        sweep()
    out = psi.clone_empty()
    for r, lat in enumerate(psi.locals):
        hop = Lattice(lat.grid, lat.tensor_shape, np.empty_like(lat.data))
        from_working(result[:, r * n:(r + 1) * n], hop.data)
        out.locals.append(hop)
    return out
