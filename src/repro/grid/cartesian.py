"""Cartesian grids with virtual-node SIMD decomposition (Fig. 1).

Grid's central layout idea (Section II-B of the paper): within a
thread, the sub-lattice is distributed over a set of *virtual nodes*,
one per SIMD lane.  Each virtual node owns a contiguous block of the
sub-lattice; lane *l* of every vector register holds the data of
virtual node *l* at the same block-local ("outer") site.  Because the
blocks are large, nearest-neighbour sites live in different *vectors*
(different outer sites), not different lanes of one vector — except at
block boundaries, where a lane permutation is required (implemented in
:mod:`repro.grid.cshift`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.grid.coordinates import coordinate_table, indices_of
from repro.simd.backend import SimdBackend


def default_simd_layout(local_dims: Sequence[int], nlanes: int) -> list[int]:
    """Distribute ``nlanes`` SIMD lanes over lattice dimensions.

    Greedy: repeatedly halve the dimension whose per-virtual-node block
    is currently largest (and still even), mirroring Grid's default of
    keeping the virtual-node sub-lattice as chunky as possible so that
    most neighbour accesses stay within a block.
    """
    if nlanes < 1 or nlanes & (nlanes - 1):
        raise ValueError(f"lane count must be a power of two, got {nlanes}")
    layout = [1] * len(local_dims)
    blocks = [int(d) for d in local_dims]
    remaining = nlanes
    while remaining > 1:
        candidates = [i for i, b in enumerate(blocks) if b % 2 == 0]
        if not candidates:
            raise ValueError(
                f"cannot spread {nlanes} lanes over local dims "
                f"{list(local_dims)}: blocks {blocks} all odd"
            )
        i = max(candidates, key=lambda j: (blocks[j], -j))
        blocks[i] //= 2
        layout[i] *= 2
        remaining //= 2
    return layout


@dataclass
class GridCartesian:
    """Geometry of one rank's sub-lattice, SIMD-decomposed.

    Parameters
    ----------
    gdims:
        Global lattice dimensions, dimension 0 fastest (e.g.
        ``[X, Y, Z, T]``).
    backend:
        The SIMD backend; its complex lane count is the number of
        virtual nodes.
    simd_layout:
        Lanes per dimension (product = lane count).  ``None`` chooses
        :func:`default_simd_layout`.
    mpi_layout:
        Ranks per dimension for distributed grids; this object then
        describes one rank's local volume.
    dtype:
        Lattice scalar precision (``complex128`` or ``complex64``).
    """

    gdims: list
    backend: SimdBackend
    simd_layout: Optional[list] = None
    mpi_layout: Optional[list] = None
    dtype: np.dtype = np.complex128

    ldims: list = field(init=False)
    odims: list = field(init=False)
    osites: int = field(init=False)
    nlanes: int = field(init=False)

    def __post_init__(self) -> None:
        self.gdims = [int(d) for d in self.gdims]
        self.dtype = np.dtype(self.dtype)
        if self.mpi_layout is None:
            self.mpi_layout = [1] * len(self.gdims)
        self.mpi_layout = [int(r) for r in self.mpi_layout]
        if len(self.mpi_layout) != len(self.gdims):
            raise ValueError("mpi_layout rank mismatch")
        for d, r in zip(self.gdims, self.mpi_layout):
            if d % r:
                raise ValueError(
                    f"global dims {self.gdims} not divisible by rank grid "
                    f"{self.mpi_layout}"
                )
        self.ldims = [d // r for d, r in zip(self.gdims, self.mpi_layout)]
        self.nlanes = self.backend.clanes(self.dtype)
        if self.simd_layout is None:
            self.simd_layout = default_simd_layout(self.ldims, self.nlanes)
        self.simd_layout = [int(s) for s in self.simd_layout]
        if int(np.prod(self.simd_layout)) != self.nlanes:
            raise ValueError(
                f"simd_layout {self.simd_layout} does not use the "
                f"{self.nlanes} lanes of backend {self.backend.name}"
            )
        for d, s in zip(self.ldims, self.simd_layout):
            if d % s:
                raise ValueError(
                    f"local dims {self.ldims} not divisible by simd layout "
                    f"{self.simd_layout}"
                )
        self.odims = [d // s for d, s in zip(self.ldims, self.simd_layout)]
        self.osites = int(np.prod(self.odims))
        # Precomputed coordinate tables.
        self._ocoor = coordinate_table(self.odims)          # (osites, ndim)
        self._vcoor = coordinate_table(self.simd_layout)    # (nlanes, ndim)

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.gdims)

    @property
    def lsites(self) -> int:
        """Local (per-rank) volume."""
        return int(np.prod(self.ldims))

    @property
    def gsites(self) -> int:
        """Global volume."""
        return int(np.prod(self.gdims))

    @property
    def nranks(self) -> int:
        return int(np.prod(self.mpi_layout))

    def ocoor_table(self) -> np.ndarray:
        """(osites, ndim) outer-site coordinates (copy)."""
        return self._ocoor.copy()

    def vcoor_table(self) -> np.ndarray:
        """(nlanes, ndim) virtual-node coordinates (copy)."""
        return self._vcoor.copy()

    # ------------------------------------------------------------------
    # Site mapping: (osite, lane) <-> local coordinate
    # ------------------------------------------------------------------
    def local_coor(self, osite: int, lane: int) -> tuple:
        """Local coordinate held by (outer site, lane).

        Virtual node *lane* owns the block starting at
        ``vcoor * odims``; within the block, the outer coordinate is
        the offset — Fig. 1's decomposition.
        """
        oc = self._ocoor[osite]
        vc = self._vcoor[lane]
        return tuple(int(o + od * v) for o, od, v in
                     zip(oc, self.odims, vc))

    def osite_lane_of(self, coor) -> tuple[int, int]:
        """Inverse of :func:`local_coor`."""
        oc = []
        vc = []
        for c, od, s in zip(coor, self.odims, self.simd_layout):
            if not 0 <= c < od * s:
                raise ValueError(f"coordinate {tuple(coor)} outside local dims")
            oc.append(int(c) % od)
            vc.append(int(c) // od)
        osite = indices_of(np.array([oc]), self.odims)[0]
        lane = indices_of(np.array([vc]), self.simd_layout)[0]
        return int(osite), int(lane)

    def local_coor_tables(self) -> np.ndarray:
        """(osites, nlanes, ndim) local coordinates of every slot."""
        oc = self._ocoor[:, None, :]
        vc = self._vcoor[None, :, :]
        od = np.array(self.odims)[None, None, :]
        return oc + od * vc

    def lane_stride(self, dim: int) -> int:
        """Lexicographic stride of dimension ``dim`` in lane index space."""
        return int(np.prod(self.simd_layout[:dim], dtype=np.int64))

    def permute_level(self, dim: int) -> int:
        """Grid permute level exchanging neighbours along ``dim``'s lanes.

        Valid when ``simd_layout[dim] == 2``: crossing the virtual-node
        boundary in that dimension toggles one bit of the lane index,
        i.e. swaps lane blocks of size :func:`lane_stride` — Grid's
        ``Permute<level>``.
        """
        if self.simd_layout[dim] != 2:
            raise ValueError(
                f"dimension {dim} has simd extent {self.simd_layout[dim]}; "
                "a single block permute needs extent 2"
            )
        block = self.lane_stride(dim)
        level = int(np.log2(self.nlanes // (2 * block)))
        return level

    # ------------------------------------------------------------------
    # Checkerboard
    # ------------------------------------------------------------------
    def parity_mask(self) -> np.ndarray:
        """(osites, nlanes) array of site parities (0 even, 1 odd)."""
        coors = self.local_coor_tables()
        return (coors.sum(axis=-1) % 2).astype(np.int8)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GridCartesian(gdims={self.gdims}, mpi={self.mpi_layout}, "
            f"simd={self.simd_layout}, odims={self.odims}, "
            f"backend={self.backend.name})"
        )


#: Checkerboard parities, in the order of :meth:`GridCartesian.parity_mask`.
PARITIES = ("even", "odd")


class GridRedBlack:
    """One checkerboard parity of a full grid, stored at half volume.

    Grid keeps a red-black grid beside the full one so that even-odd
    operators touch only the sites they act on
    (``GridRedBlackCartesian``).  Here the parity's flat sites
    ``f = osite * nlanes + lane`` of ``full`` are held in ascending
    order (:attr:`sites`) and grouped ``nlanes`` at a time: a half
    field is an ordinary :class:`~repro.grid.lattice.Lattice` of shape
    ``(N/2/nlanes, *tensor, nlanes)`` whose flat site ``k`` is full
    flat site ``sites[k]``, so lattice arithmetic, reductions and the
    solvers run on it unchanged.  Grouping by flat site rather than by
    outer site means the lanes of one outer site may have mixed parity
    (the virtual-node layout interleaves parities whenever a
    dimension's block extent is odd).

    Raises :class:`ValueError` when the checkerboard does not exist at
    half volume: an odd local extent (the periodic wrap would join two
    sites of one parity) or ``N/2`` not a multiple of ``nlanes``.
    """

    def __init__(self, full: GridCartesian, parity: str) -> None:
        if parity not in PARITIES:
            raise ValueError(f"parity must be one of {PARITIES}, "
                             f"got {parity!r}")
        n = full.osites * full.nlanes
        if any(d % 2 for d in full.ldims) or (n // 2) % full.nlanes:
            raise ValueError(
                f"no half-volume checkerboard for local dims "
                f"{full.ldims} with {full.nlanes} lanes: every extent "
                f"must be even and the half volume a multiple of the "
                f"lane count"
            )
        self.full = full
        self.parity = parity
        self.backend = full.backend
        self.dtype = full.dtype
        self.nlanes = full.nlanes
        self.osites = n // 2 // full.nlanes
        # Lattice compatibility keys: equal for same-sized half grids,
        # never equal to a full grid's.
        self.odims = [self.osites]
        self.simd_layout = [self.nlanes]
        flat = full.parity_mask().reshape(n)
        self.sites = np.flatnonzero(flat == PARITIES.index(parity))
        self._osite, self._lane = np.divmod(self.sites, full.nlanes)

    def pick(self, field):
        """This parity's sites of a full-grid field, as a half field."""
        from repro.grid.lattice import Lattice

        vals = field.data[self._osite, ..., self._lane]  # (N/2, *tensor)
        vals = vals.reshape((self.osites, self.nlanes) + vals.shape[1:])
        return Lattice(self, field.tensor_shape,
                       np.ascontiguousarray(np.moveaxis(vals, 1, -1)))

    def embed(self, half, out=None):
        """Write ``half`` onto this parity's sites of the full-grid
        field ``out`` (default: a new field, +0 on the other parity)."""
        from repro.grid.lattice import Lattice

        if out is None:
            out = Lattice(self.full, half.tensor_shape)
        vals = np.moveaxis(half.data, -1, 1)
        out.data[self._osite, ..., self._lane] = vals.reshape(
            (-1,) + half.tensor_shape)
        return out

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"GridRedBlack({self.parity} of {self.full})"
