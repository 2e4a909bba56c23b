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
from repro.grid.coordinates import indices_of
from repro.grid.cshift import _lane_rotation_map, _shift_plan, cshift
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


def halo_dependency(grid: GridCartesian):
    """Interior/boundary-shell split of the outer-site axis for the
    rank-decomposed ±1 stencil.

    A destination outer site *depends on the dim-``d`` halo* when the
    shift-by-±1 gather along ``d`` sources any of its lanes across the
    local (rank) boundary — i.e. the site lands in a ``k >= 1``
    virtual-node group of that shift.  Returns ``(interior, shells)``:

    * ``interior`` — outer sites touching no halo in any direction
      (computable while every halo is still in flight);
    * ``shells[d]`` — outer sites whose *highest* halo-dependent
      dimension is ``d`` (computable once the halos for dimensions
      ``<= d`` have landed).

    Together they partition ``range(osites)``, which is what lets the
    overlap engine (:mod:`repro.grid.overlap`) write every output site
    exactly once — bit-identity to the ordered sweep by disjointness.
    Dimensions whose local shift is zero (``ldims[d] == 1``: the whole
    extent lives on other ranks and the "shift" is a rank renumbering)
    contribute no halo dependence.
    """
    ndim = grid.ndim
    depends = np.zeros((ndim, grid.osites), dtype=bool)
    for dim in range(ndim):
        for sign in (+1, -1):
            s = (sign % grid.gdims[dim]) % grid.ldims[dim]
            if s == 0:
                continue
            for k, sel, _src, nbr_lanes in _shift_plan(grid, dim, s):
                if k != 0 and np.any(nbr_lanes):
                    depends[dim, sel] = True
    interior = np.nonzero(~depends.any(axis=0))[0]
    shells = []
    for d in range(ndim):
        higher = depends[d + 1:].any(axis=0)
        shells.append(np.nonzero(depends[d] & ~higher)[0])
    return interior, shells
