"""The Wilson operator over a rank-decomposed lattice.

Combines all three parallelization levels of Section II-A: rank-level
domain decomposition (simulated halo exchange, optionally fp16
compressed), the virtual-node SIMD layout within each rank, and the
vector backend below that.  Tests assert bit-identical agreement with
the single-rank :class:`repro.grid.wilson.WilsonDirac`.

Routes, resolved by the engine's :class:`~repro.engine.plan.KernelPlan`:

* **Block sweep** (the default on numpy-semantics backends) —
  :func:`halo_dhop`: every halo is exchanged in order, then one block
  sweep covers each rank's shard and the face slabs it received.  The
  operator holds its links and adjoint back-links as one contiguous
  ``(8, 3, 3, nranks * N)`` array in sweep order, in the tensor-major
  working layout, stacked by rank.
* **Lane-major reference** — ordered exchange through
  :meth:`DistributedLattice.cshift`, then the layered ops per rank.
* **Shared-memory ranks** — a transport that runs the sweep in rank
  processes (:mod:`repro.grid.comms.shmem`).

**The ordered halo sweep.**  Each rank's sites are swept by the
single-rank hop's body -- the compiled kernel
(:func:`repro.perf.fused.native_sweep`), or the numpy block body
(:func:`repro.perf.fused.sweep_blocks`) where it cannot load -- over
the rank's *extended* working array: its own shard in the tensor-major
layout ``(12, N)``, followed by one received slab per (mu, ±1); the
results land lane-major, in place.  Every neighbour read goes through
the flat tables of
:func:`repro.grid.stencil.rank_halo`, which point either into the
shard or into a slab — Grid's stencil design, where the kernel reads
each neighbour through a table into the local field or the comms
buffer.  The ranks' extended arrays sit side by side in one allocation
and one sweep covers them all, but the tables are offset per rank: a
rank's sites read its own shard and its received slabs, nothing else.

For the slab a rank receives in (mu, sign), the sending rank gathers
its face (``np.take`` through ``RankHalo.faces``) out of its own
working copy into a contiguous ``(rows, H)`` array and posts it through
:meth:`~repro.grid.comms.transport.Transport.post_halo`, so the
compressed, checksummed, fault-exposed wire image *is* the one boundary
slab the message is accounted as.  Messages go out in a fixed order
(mu ascending, +1 then -1, receiving rank ascending), each waited for
before the next is posted, so seeded fault schedules keyed on message
ordinals hit the same halo on every run.  A gather is an exact copy, so
on a pristine or checksummed wire the sweep is bit-identical to the
single-rank ``WilsonDirac.dhop`` and to the layered reference.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.engine.operators import OperatorGeometry
from repro.engine.plan import fused_safe_backend, kernel_plan
from repro.grid import gamma as g
from repro.grid.comms import DistributedLattice
from repro.grid.lattice import Lattice
from repro.grid.stencil import rank_halo
from repro.grid.tensor import su3_dagger_mul_vec, su3_mul_vec
from repro.grid.wilson import SPINOR
from repro.perf import native
from repro.perf.fused import (
    adjoint, from_working, native_sweep, stored_links, sweep_blocks,
    sweep_order, to_working,
)
from repro.telemetry import trace as _telemetry


def halo_dhop(op, psi, kplan, hop=None):
    """Apply ``op``'s hopping term: exchange every face slab in order,
    then one block sweep over every rank's shard and received slabs.

    ``op`` is a :class:`DistributedWilson` holding stacked working-layout
    links; ``psi`` a spinor field; ``kplan`` the resolved
    :class:`~repro.engine.plan.KernelPlan`, whose tile split and stage
    counters the sweep uses; ``hop`` the compiled kernel
    (:func:`repro.perf.native.kernel`), or ``None`` for the numpy block
    body.  Either writes every rank's hop straight into one lane-major
    array; each rank's result is its stretch of it.
    """
    halo = rank_halo(psi)
    nranks = psi.ranks.nranks
    n, width = halo.sites, halo.width
    grid = psi.grids[0]
    dtype = psi.locals[0].data.dtype
    stacked = np.empty((12, nranks * width), dtype=dtype)
    ext = [stacked[:, r * width:(r + 1) * width] for r in range(nranks)]
    for e, lat in zip(ext, psi.locals):
        shard = e[:, :n].reshape(lat.data.shape[1:-1] + (-1, lat.grid.nlanes))
        shard[...] = np.moveaxis(lat.data, 0, -2)
    transport = psi.transport
    for mu in range(op.ndim):
        for sign in (+1, -1):
            key = (mu, sign)
            for r, sender in enumerate(halo.senders[key]):
                # Rank r's slab from its neighbour's face, gathered out
                # of the contiguous stacked array (np.take would copy a
                # strided view whole first); a renumbering sends no
                # message.
                slab = np.take(stacked, halo.faces[key] + sender * width,
                               axis=1)
                if halo.wired[key]:
                    slab = transport.wait(transport.post_halo(
                        psi, r if sign > 0 else sender, mu, slab))
                ext[r][:, halo.slots[key]] = slab
    kplan.stages.bump("exchange", 2 * op.ndim)
    # Every rank's hop, lane-major, rank r at outer sites r * osites on.
    nl = grid.nlanes
    result = np.empty((nranks * grid.osites,) + psi.locals[0].data.shape[1:],
                      dtype=dtype)
    links = op._sweep_fields
    if hop is not None:
        native_sweep(hop, stacked, nranks * width, halo.tables, halo.top,
                     links, result, nl, nl, kplan)
    else:
        def store(acc, b0, b1) -> None:
            from_working(acc, result[b0 // nl:b1 // nl])

        hops = [(sign, halo.tables[k], mu)
                for k, (mu, sign) in enumerate(sweep_order(op.ndim))]
        sweep_blocks(hops, stacked, links, nranks * n, store, kplan, unit=nl)
    out = psi.clone_empty()
    for r, lat in enumerate(psi.locals):
        out.locals.append(Lattice(lat.grid, lat.tensor_shape,
                                  result[r * grid.osites:
                                         (r + 1) * grid.osites]))
    return out


class DistributedWilson:
    """Wilson fermion matrix over distributed gauge links.

    Parameters
    ----------
    links:
        Four :class:`DistributedLattice` gauge fields (one per
        direction), all on the same rank geometry.
    mass:
        Bare quark mass.
    """

    def __init__(self, links: Sequence[DistributedLattice],
                 mass: float = 0.1) -> None:
        self.links = list(links)
        self.mass = float(mass)
        self.ranks = links[0].ranks
        self.ndim = len(links[0].gdims)
        if len(self.links) != self.ndim:
            raise ValueError("need one gauge field per direction")
        # Backward links gathered once across ranks (they are static),
        # at full precision even where fermion halos go out as fp16.
        # Where the block sweep can run, the operator keeps one
        # contiguous (8, 3, 3, nranks * N) array in sweep order -- each
        # U_mu, then the adjoint back-link, in the tensor-major working
        # layout with the ranks side by side along the site axis (rank
        # r's flat site f at r * N + f), as the block sweep stacks them
        # -- and the lane-major back-links are rebuilt from it only if
        # the engine-off reference loop asks for them.
        back = [self.links[mu].uncompressed().cshift(mu, -1)
                for mu in range(self.ndim)]
        self._sweep_links = self._sweep_fields = None
        self._links_back_lm = back
        if fused_safe_backend(self.links[0].grids[0].backend):
            grid = self.links[0].grids[0]
            n = grid.osites * grid.nlanes
            links = np.empty((2 * self.ndim, 3, 3, self.ranks.nranks * n),
                             dtype=grid.dtype)
            for mu in range(self.ndim):
                for r, (u, b) in enumerate(zip(self.links[mu].locals,
                                               back[mu].locals)):
                    sl = slice(r * n, (r + 1) * n)
                    links[2 * mu, ..., sl] = to_working(u.data)
                    np.conj(to_working(b.data).swapaxes(0, 1),
                            out=links[2 * mu + 1, ..., sl])
            self._sweep_links = links
            self._sweep_fields = stored_links(links)  # the kernel's operand
            self._links_back_lm = None

    @property
    def links_back(self) -> list:
        """Lane-major back-links ``U_mu(x - mu)``, one
        :class:`DistributedLattice` per mu.

        Only the lane-major reference loop of :meth:`dhop` (engine off,
        or a backend that is not fused-safe) reads them; the block
        sweep, in process or in the shared-memory rank workers, reads
        the stacked working-layout adjoints instead."""
        if self._links_back_lm is None:
            back = []
            for mu, u in enumerate(self.links):
                lat = u.clone_empty()
                v = adjoint(self._sweep_links[2 * mu + 1])
                n = v.shape[-1] // len(u.grids)
                for r, grid in enumerate(u.grids):
                    shard = Lattice(grid, (3, 3))
                    from_working(v[..., r * n:(r + 1) * n], shard.data)
                    lat.locals.append(shard)
                back.append(lat)
            self._links_back_lm = back
        return self._links_back_lm

    def _zero_like(self, psi: DistributedLattice) -> DistributedLattice:
        out = psi.clone_empty()
        out.locals = [lat.new_like() for lat in psi.locals]
        return out

    def _check(self, psi: DistributedLattice) -> None:
        """Validate the field: a spinor."""
        if psi.tensor_shape != SPINOR:
            raise ValueError(
                "distributed Wilson operator acts on spinors "
                f"{SPINOR}, got {psi.tensor_shape}"
            )

    def dhop(self, psi: DistributedLattice) -> DistributedLattice:
        """Apply Eq. (1) with halo exchange at rank boundaries.

        Dispatch is resolved once by the execution engine (every rank
        shares one backend object, so one :class:`~repro.engine.plan.
        KernelPlan` covers the whole sweep): block sweep vs lane-major
        reference, and on the block sweep the compiled kernel where it
        loads (:func:`repro.perf.native.kernel`), the numpy body where
        it does not.  Every route is bit-identical on a pristine or
        checksummed wire; with fp16 halos the reference route rounds
        different sites (see DESIGN.md §9).

        With telemetry tracing on, the sweep is wrapped in a span
        carrying the flop/byte metadata the roofline report consumes,
        the ``kernel`` (``native``/``reference``) and the
        ``contraction`` key of numpy's complex multiply (the timer
        observes an unchanged body, so results stay bit-identical).
        """
        self._check(psi)
        grid = psi.grids[0]
        plan = kernel_plan(grid, "dist-dhop")
        hop = native.kernel(grid.dtype) if plan.fused else None
        if not _telemetry.tracing():
            return self._dhop_impl(psi, plan, hop)
        with _telemetry.span(
            "dhop",
            sites=grid.gsites,
            flops_per_site=self.flops_per_site(),
            bytes_per_site=self.bytes_per_site(),
            backend=grid.backend.name,
            nranks=self.ranks.nranks,
            kernel="reference" if hop is None else "native",
            contraction=native.contraction_key(grid.dtype),
        ):
            return self._dhop_impl(psi, plan, hop)

    def _dhop_impl(self, psi: DistributedLattice, plan,
                   hop) -> DistributedLattice:
        if plan.transport != "in-process":
            # A real transport backend owns the whole sweep: halo
            # traffic crosses an actual process boundary and the
            # rank-local arithmetic runs where the shards live (each
            # rank worker loads the kernel itself).  The backend may
            # decline (None) — e.g. a geometry it cannot host — and the
            # routes below take over.
            hopped = psi.transport.run_dhop(self, psi, plan)
            if hopped is not None:
                return hopped
        if plan.fused:
            # The block sweep over each rank's shard and received
            # slabs (halo_dhop).
            return halo_dhop(self, psi, plan, hop)
        out = self._zero_like(psi)
        for mu in range(self.ndim):
            # The lane-major reference: ordered exchange through the
            # distributed cshift, then the layered ops rank by rank.
            fwd = psi.cshift(mu, +1)
            bwd = psi.cshift(mu, -1)
            plan.stages.bump("exchange", 2)
            for r in range(self.ranks.nranks):
                be = psi.grids[r].backend
                acc = out.locals[r].data
                h = g.project(be, fwd.locals[r].data, mu, +1)
                uh = su3_mul_vec(be, self.links[mu].locals[r].data, h)
                acc2 = be.add(acc, g.reconstruct(be, uh, mu, +1))
                h = g.project(be, bwd.locals[r].data, mu, -1)
                uh = su3_dagger_mul_vec(
                    be, self.links_back[mu].locals[r].data, h
                )
                acc[...] = be.add(acc2, g.reconstruct(be, uh, mu, -1))
        return out

    def apply(self, psi: DistributedLattice) -> DistributedLattice:
        """``M psi = (4 + m) psi - 1/2 D_h psi``."""
        hop = self.dhop(psi)
        return psi * (4.0 + self.mass) - hop * 0.5

    M = apply

    def apply_dagger(self, psi: DistributedLattice) -> DistributedLattice:
        """``M^dagger`` via gamma5-hermiticity, rank by rank."""
        self._check(psi)
        tmp = self._zero_like(psi)
        for r, lat in enumerate(psi.locals):
            be = psi.grids[r].backend
            tmp.locals[r].data[...] = g.gamma5_apply(be, lat.data)
        tmp = self.apply(tmp)
        out = self._zero_like(psi)
        for r, lat in enumerate(tmp.locals):
            be = psi.grids[r].backend
            out.locals[r].data[...] = g.gamma5_apply(be, lat.data)
        return out

    def mdag_m(self, psi: DistributedLattice) -> DistributedLattice:
        return self.apply_dagger(self.apply(psi))

    # ------------------------------------------------------------------
    # FermionOperator protocol metadata
    # ------------------------------------------------------------------
    @property
    def geometry(self) -> OperatorGeometry:
        """Where and on what this operator acts (protocol metadata);
        ``gdims`` is the *global* lattice, ``nranks`` the simulated
        rank decomposition."""
        grid = self.links[0].grids[0]
        return OperatorGeometry(
            gdims=tuple(self.links[0].gdims),
            tensor_shape=SPINOR,
            dtype=str(grid.dtype),
            backend=grid.backend.name,
            nranks=self.ranks.nranks,
        )

    def flops_per_site(self) -> int:
        """Same 1320-flop Wilson-dslash count as the single-rank
        operator; the decomposition moves data, not arithmetic."""
        return 1320

    def bytes_per_site(self) -> int:
        """Same nominal traffic as the single-rank operator (8 spinor
        + 8 link reads, one spinor write), per local site."""
        grid = self.links[0].grids[0]
        return (8 * 12 + 8 * 9 + 12) * grid.dtype.itemsize


def distribute_gauge(links, gdims, backend, mpi_layout,
                     simd_layout=None, compress_halos: bool = False,
                     checksum_halos: bool = False, comms_faults=None,
                     max_retries: int = 3) -> list:
    """Scatter single-rank gauge links into distributed fields."""
    out = []
    for u in links:
        dl = DistributedLattice(gdims, backend, mpi_layout, (3, 3),
                                simd_layout=simd_layout,
                                compress_halos=compress_halos,
                                checksum_halos=checksum_halos,
                                comms_faults=comms_faults,
                                max_retries=max_retries)
        dl.scatter(u.to_canonical())
        out.append(dl)
    return out
