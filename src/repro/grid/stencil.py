"""Precomputed nearest-neighbour stencil.

Grid's high-performance operators don't call ``Cshift`` per
application; they precompute, once per (grid, direction, displacement),
the gather table — which outer site to read and whether a virtual-node
lane permutation is needed — and replay it each time.  This module is
that optimization: :class:`HaloStencil` precomputes per-direction
gather plans, and :meth:`HaloStencil.gather` applies one.

The plan makes the paper's Fig. 1 story concrete and inspectable: the
fraction of outer sites that need a permute along dimension ``d`` is
exactly ``1 / odims[d]`` (only the block-boundary layer), which the
Fig. 1 benchmark reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.plan import register_plan_host
from repro.engine.policy import current_policy
from repro.grid.cartesian import PARITIES, GridCartesian, GridRedBlack
from repro.grid.coordinates import coordinate_table, indices_of
from repro.grid.cshift import _lane_rotation_map, cshift
from repro.grid.lattice import Lattice
from repro.perf.counters import counters as _perf_counters


@dataclass(frozen=True)
class GatherPlan:
    """One direction's precomputed shift-by-±1 plan.

    ``src_osites``: source outer site per destination outer site.
    ``permute_sel``: destination outer sites whose lanes rotate.
    ``rotation``: virtual-node rotation amount (0 or ±1 mod S).
    ``lane_map``: the lane permutation for those sites.
    ``permute_level``: Grid permute level when ``S == 2``, else -1.
    """

    dim: int
    shift: int
    src_osites: np.ndarray
    permute_sel: np.ndarray
    rotation: int
    lane_map: np.ndarray
    permute_level: int

    @property
    def permute_fraction(self) -> float:
        """Fraction of outer sites requiring a lane permutation."""
        return self.permute_sel.size / self.src_osites.size


class HaloStencil:
    """Per-grid gather plans for all ±1 displacements."""

    def __init__(self, grid: GridCartesian) -> None:
        self.grid = grid
        self.plans: dict[tuple[int, int], GatherPlan] = {}
        for dim in range(grid.ndim):
            for shift in (+1, -1):
                self.plans[(dim, shift)] = self._build(dim, shift)

    def _build(self, dim: int, shift: int) -> GatherPlan:
        grid = self.grid
        L = grid.odims[dim]
        s = shift % grid.ldims[dim]
        ocoor = grid.ocoor_table()
        o_d = ocoor[:, dim]
        k = (o_d + s) // L
        src_ocoor = ocoor.copy()
        src_ocoor[:, dim] = (o_d + s) - k * L
        src_osites = indices_of(src_ocoor, grid.odims)
        S = grid.simd_layout[dim]
        rotation = int(np.unique(k[k > 0])[0] % S) if (k > 0).any() else 0
        permute_sel = np.nonzero((k % S) != 0)[0]
        lane_map = _lane_rotation_map(grid, dim, rotation)
        level = -1
        if S == 2 and rotation:
            level = grid.permute_level(dim)
        return GatherPlan(
            dim=dim, shift=shift, src_osites=src_osites,
            permute_sel=permute_sel, rotation=rotation,
            lane_map=lane_map, permute_level=level,
        )

    def gather(self, lat: Lattice, dim: int, shift: int) -> np.ndarray:
        """Neighbour field data: ``out(x) = in(x + shift e_dim)``.

        Equivalent to :func:`repro.grid.cshift.cshift` for ±1 shifts,
        but replaying the precomputed plan.
        """
        plan = self.plans[(dim, shift)]
        grid = self.grid
        out = lat.data[plan.src_osites]
        if plan.permute_sel.size:
            block = out[plan.permute_sel]
            if plan.permute_level >= 0:
                block = grid.backend.permute(block, plan.permute_level)
            else:
                block = np.take(block, plan.lane_map, axis=-1)
            out[plan.permute_sel] = block
        return out


#: Radix of the two-part index encoding in :func:`_neighbour_table`:
#: each part stays far below 2**24, exact even in a complex64 field.
_INDEX_RADIX = 4096


def _neighbour_table(grid: GridCartesian, dim: int,
                     shift: int) -> np.ndarray:
    """Flat gather table for a ±1 shift, derived through ``cshift``.

    Cshifts a scalar field whose value at flat site
    ``f = osite * nlanes + lane`` encodes ``f`` itself; the shifted
    field then holds, at each flat site, the flat site it sources from
    — lane permutations at virtual-node boundaries included — so the
    table is ``cshift``'s own plan replayed, not a second derivation.
    """
    n = grid.osites * grid.nlanes
    hi, lo = np.divmod(np.arange(n), _INDEX_RADIX)
    field = Lattice(grid, (), (hi + 1j * lo).reshape(grid.osites,
                                                     grid.nlanes))
    src = cshift(field, dim, shift).data.reshape(n)
    return (src.real.astype(np.intp) * _INDEX_RADIX
            + src.imag.astype(np.intp))


def neighbour_table(grid: GridCartesian, dim: int,
                    shift: int) -> np.ndarray:
    """Flat neighbour index for ``out(x) = in(x + shift e_dim)``.

    Over the flat site axis ``f = osite * nlanes + lane`` (the working
    layout of :mod:`repro.perf.fused`), ``out[..., f] =
    in[..., table[f]]`` is exactly :func:`repro.grid.cshift.cshift`.
    Memoized per grid instance next to the cshift plans (an
    engine-owned cache: :func:`repro.engine.plan.clear_plan_caches`
    evicts it); with caches off it is recomputed and not stored.
    """
    if not current_policy().caches_active:
        return _neighbour_table(grid, dim, shift)
    tables = _hosted(grid, "_nbr_tables")
    table = tables.get((dim, shift))
    if table is not None:
        _perf_counters().bump("nbr_table_hits")
        return table
    _perf_counters().bump("nbr_table_misses")
    table = tables[(dim, shift)] = _neighbour_table(grid, dim, shift)
    return table


def _hosted(grid: GridCartesian, attr: str) -> dict:
    """The engine-owned memo ``attr`` on ``grid``, created and the
    grid registered for eviction on first use."""
    memo = grid.__dict__.get(attr)
    if memo is None:
        memo = grid.__dict__.setdefault(attr, {})
        register_plan_host(grid)
    return memo


def red_black(grid: GridCartesian, parity: str) -> GridRedBlack:
    """The half-volume grid of one parity of ``grid``.

    Memoized per full grid (both parities, under the same cache rules
    as :func:`neighbour_table`), so half fields made by independent
    operators on one grid share their :class:`GridRedBlack`.
    """
    if not current_policy().caches_active:
        return GridRedBlack(grid, parity)
    memo = _hosted(grid, "_rb_grids")
    rb = memo.get(parity)
    if rb is None:
        rb = memo[parity] = GridRedBlack(grid, parity)
    return rb


def single_precision_grid(grid: GridCartesian) -> GridCartesian:
    """``grid``'s geometry with ``complex64`` lanes (``vComplexF``:
    twice the lanes of ``vComplexD``, so a different virtual-node
    decomposition).

    Memoized per grid like :func:`red_black`: the single-precision
    twins of every operator on ``grid`` share one grid,
    its tables and its half grids, which live exactly as long as
    ``grid`` does.
    """
    def make():
        return GridCartesian(grid.gdims, grid.backend,
                             mpi_layout=grid.mpi_layout,
                             dtype=np.complex64)

    if not current_policy().caches_active:
        return make()
    memo = _hosted(grid, "_single_grid")
    single = memo.get("complex64")
    if single is None:
        single = memo["complex64"] = make()
    return single


def _parity_neighbour_table(grid: GridCartesian, parity: str, dim: int,
                            shift: int) -> np.ndarray:
    target = red_black(grid, parity)
    source = red_black(grid, PARITIES[1 - PARITIES.index(parity)])
    compact = np.empty(grid.osites * grid.nlanes, dtype=np.intp)
    compact[source.sites] = np.arange(source.sites.size)
    return compact[neighbour_table(grid, dim, shift)[target.sites]]


def parity_neighbour_table(grid: GridCartesian, parity: str, dim: int,
                           shift: int) -> np.ndarray:
    """Half-volume gather table for a ±1 shift onto ``parity``.

    Entry ``i`` is the compact index, among the *other* parity's
    sites, of the neighbour ``x + shift e_dim`` of the ``i``-th site
    of ``parity`` — :func:`neighbour_table` restricted to the target
    parity and re-indexed, so it cannot disagree with ``cshift``.
    Every neighbour of a site has the other parity, which is what
    makes a hop from one half field onto the other a plain gather.
    Memoized like :func:`neighbour_table`.
    """
    if not current_policy().caches_active:
        return _parity_neighbour_table(grid, parity, dim, shift)
    tables = _hosted(grid, "_cb_tables")
    table = tables.get((parity, dim, shift))
    if table is None:
        table = tables[(parity, dim, shift)] = _parity_neighbour_table(
            grid, parity, dim, shift)
    return table


def stencil_cshift(stencil: HaloStencil, lat: Lattice, dim: int,
                   shift: int) -> Lattice:
    """A Lattice-returning wrapper over :meth:`HaloStencil.gather`."""
    out = lat.new_like()
    out.data = stencil.gather(lat, dim, shift)
    return out


@dataclass(frozen=True)
class RankHalo:
    """Flat gather tables of the rank-decomposed ±1 stencil.

    Every rank has the same local geometry.  A rank's *extended*
    working array holds its own shard's ``sites`` flat sites, then one
    received slab per (mu, ±1) — ``width`` columns in all; the ranks'
    arrays sit side by side, rank ``r``'s at columns ``r * width``
    onwards, so one sweep covers every rank.

    * ``tables`` — one contiguous int64 ``(2 ndim, nranks * sites)``
      array, a row per ``(mu, sign)`` in sweep order (mu ascending, +1
      before -1): for each stacked site, the stacked column of its
      ``x + sign e_mu`` neighbour — a site of the same rank's shard, or
      a slot of that rank's slab for this hop, never another rank's
      columns; ``top`` is its largest entry.

    Per ``(mu, sign)``:

    * ``faces`` — the flat sites, on the *sending* rank, whose values
      fill the slab in slot order (the sender's gather);
    * ``senders`` — the sending rank, per receiving rank;
    * ``slots`` — the slab's columns in a rank's extended array;
    * ``wired`` — whether the slab crosses the wire.  It does for every
      local extent above one, also in a dimension with no rank split
      (a self-message); with a single-site local extent the neighbour
      rank's whole shard is the slab and it is handed over as a rank
      renumbering, without a message, as in
      :meth:`DistributedLattice.cshift`.

    The face of ``(mu, sign)`` is defined by geometry: the sites whose
    neighbour wraps the local extent (local coordinate ``ld - 1`` for
    +mu, ``0`` for -mu), ``lsites / ld`` of them — the slab every halo
    message is accounted as.
    """

    sites: int
    width: int
    tables: np.ndarray
    top: int
    faces: dict
    senders: dict
    slots: dict
    wired: dict


def _rank_halo(dist) -> RankHalo:
    """Derive :class:`RankHalo` by shifting an index field with
    :meth:`DistributedLattice.cshift`, so it cannot disagree with it.

    The field holds each site's global index, encoded as in
    :func:`_neighbour_table`; after a shift every flat site of every
    rank holds its neighbour's global index, which the unshifted field
    maps back to (rank, flat site).
    """
    from repro.grid.comms.lattice import DistributedLattice

    grid = dist.grids[0]
    ranks = dist.ranks
    n = grid.osites * grid.nlanes
    field = DistributedLattice(dist.gdims, grid.backend, ranks.mpi_layout,
                               (), simd_layout=grid.simd_layout,
                               dtype=grid.dtype)
    # A pristine in-process wire hands the neighbour's field over
    # unchanged: take it directly, so no message, counter or queue
    # entry is charged to the derivation.
    field._fetch_for = lambda rank, dim: \
        field.locals[ranks.neighbour(rank, dim, +1)].data
    hi, lo = np.divmod(np.arange(grid.gsites), _INDEX_RADIX)
    field.scatter(hi + 1j * lo)

    def decode(f):
        return [(v.real.astype(np.intp) * _INDEX_RADIX
                 + v.imag.astype(np.intp)) for v in
                (lat.data.reshape(n) for lat in f.locals)]

    home = decode(field)  # global site at each rank's flat sites
    owner = np.empty((2, grid.gsites), dtype=np.intp)
    for r, g in enumerate(home):
        owner[0, g] = r
        owner[1, g] = np.arange(n)
    coor = coordinate_table(dist.gdims)
    tables, faces, senders, slots, wired = {}, {}, {}, {}, {}
    width = n
    for mu in range(grid.ndim):
        ld = grid.ldims[mu]
        for sign in (+1, -1):
            src = decode(field.cshift(mu, sign))
            face = coor[home[0], mu] % ld == (ld - 1 if sign > 0 else 0)
            src_flat = owner[1, src[0]]
            key = (mu, sign)
            senders[key] = tuple(ranks.neighbour(r, mu, sign)
                                 for r in range(ranks.nranks))
            for r, sender in enumerate(senders[key]):
                src_rank = owner[0, src[r]]
                if (np.any(owner[1, src[r]] != src_flat)
                        or np.any(src_rank[~face] != r)
                        or np.any(src_rank[face] != sender)):
                    raise RuntimeError("rank halo tables disagree with "
                                       "the distributed cshift")
            h = int(np.count_nonzero(face))
            table = src_flat.copy()
            table[face] = width + np.arange(h)
            tables[key] = table
            faces[key] = src_flat[face]
            slots[key] = slice(width, width + h)
            wired[key] = dist._dist_shift_params(mu, sign)[1] != 0
            width += h
    offsets = np.arange(ranks.nranks, dtype=np.int64)[:, None] * width
    stacked = np.stack([(tables[(mu, sign)] + offsets).reshape(-1)
                        for mu in range(grid.ndim) for sign in (+1, -1)])
    return RankHalo(sites=n, width=width, tables=stacked,
                    top=int(stacked.max()), faces=faces, senders=senders,
                    slots=slots, wired=wired)


def rank_halo(dist) -> RankHalo:
    """The :class:`RankHalo` of ``dist``'s geometry, memoized per grid
    instance like :func:`neighbour_table` (evicted by
    :func:`repro.engine.plan.clear_plan_caches`; with caches off it is
    recomputed and not stored)."""
    grid = dist.grids[0]
    if not current_policy().caches_active:
        return _rank_halo(dist)
    halo = grid.__dict__.get("_rank_halo")
    if halo is None:
        halo = grid.__dict__["_rank_halo"] = _rank_halo(dist)
        register_plan_host(grid)
    return halo
