"""Canonical <-> lane-major conversion is a transpose, byte for byte.

``Lattice.to_canonical``/``from_canonical`` and ``DistributedLattice.
scatter``/``gather`` convert through one transposed view (the outer
sites, the lanes and the canonical sites are all lexicographic).  Each
is checked here against an oracle built from the coordinate tables
(``GridCartesian.local_coor_tables`` + ``coordinates.indices_of``),
the gather the conversion used to run, on every registered backend,
both precisions, scalar/colour-matrix/spinor tensors and non-cubic
lattices.  The unitarity check that reads the working rows is pinned
here too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.cartesian import GridCartesian
from repro.grid.comms.lattice import DistributedLattice
from repro.grid.coordinates import coordinate_table, indices_of
from repro.grid.lattice import Lattice
from repro.grid.su3 import (
    max_unitarity_defect, random_su3_field, unitarity_defect,
)
from repro.simd import available_backends, get_backend

BACKENDS = available_backends() + ["generic512", "generic1024"]
DTYPES = (np.complex128, np.complex64)
TENSORS = ((), (3, 3), (4, 3))
DIMS = ([4, 4, 4, 4], [4, 4, 4, 8], [8, 4, 2, 4], [2, 6, 4, 8])


def site_index(grid: GridCartesian) -> np.ndarray:
    """Canonical site of every ``(osite, lane)`` slot, from the tables."""
    coors = grid.local_coor_tables().reshape(-1, grid.ndim)
    return indices_of(coors, grid.ldims)


def oracle_to_canonical(lat: Lattice) -> np.ndarray:
    g = lat.grid
    out = np.empty((g.lsites,) + lat.tensor_shape, dtype=g.dtype)
    out[site_index(g)] = np.moveaxis(lat.data, -1, 1).reshape(
        (g.osites * g.nlanes,) + lat.tensor_shape)
    return out


def oracle_data(grid: GridCartesian, tensor, canonical) -> np.ndarray:
    flat = canonical[site_index(grid)].reshape(
        (grid.osites, grid.nlanes) + tuple(tensor))
    return np.ascontiguousarray(np.moveaxis(flat, 1, -1), dtype=grid.dtype)


def rank_sites(dist: DistributedLattice, rank: int) -> np.ndarray:
    """Global canonical site of each of ``rank``'s local sites."""
    g0 = dist.grids[0]
    offs = np.array([c * ld for c, ld in
                     zip(dist.ranks.coor_of(rank), g0.ldims)])
    return indices_of(coordinate_table(g0.ldims) + offs[None, :],
                      dist.gdims)


def random_canonical(rng, sites: int, tensor, dtype) -> np.ndarray:
    shape = (sites,) + tuple(tensor)
    return (rng.normal(size=shape)
            + 1j * rng.normal(size=shape)).astype(dtype)


def assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dims", DIMS, ids=lambda d: "x".join(map(str, d)))
@pytest.mark.parametrize("backend", BACKENDS)
def test_single_rank_matches_table_oracle(backend, dims):
    rng = np.random.default_rng(7)
    for dtype in DTYPES:
        grid = GridCartesian(dims, get_backend(backend), dtype=dtype)
        for tensor in TENSORS:
            can = random_canonical(rng, grid.lsites, tensor, dtype)
            lat = Lattice(grid, tensor).from_canonical(can)
            assert_same_bytes(lat.data, oracle_data(grid, tensor, can))
            assert lat.data.flags.c_contiguous
            # an independent lane-major field exports like the oracle
            lat.data = rng.normal(size=lat.data.shape).astype(dtype)
            assert_same_bytes(lat.to_canonical(), oracle_to_canonical(lat))


@pytest.mark.parametrize("simd_layout", ([1, 1, 1, 8], [8, 1, 1, 1],
                                         [2, 1, 4, 1], [1, 4, 1, 2]),
                         ids=lambda s: "".join(map(str, s)))
def test_explicit_simd_layouts(simd_layout):
    """Lane extents above two, in any dimension (generic1024 has eight
    complex128 lanes)."""
    rng = np.random.default_rng(3)
    grid = GridCartesian([8, 4, 4, 8], get_backend("generic1024"),
                         simd_layout=simd_layout)
    for tensor in TENSORS:
        can = random_canonical(rng, grid.lsites, tensor, np.complex128)
        lat = Lattice(grid, tensor).from_canonical(can)
        assert_same_bytes(lat.data, oracle_data(grid, tensor, can))
        assert_same_bytes(lat.to_canonical(), can)


def test_to_canonical_is_a_copy():
    """Even where the transpose is the identity (one lane) the export
    does not alias the field."""
    grid = GridCartesian([2, 2, 2, 2], get_backend("sse4"))
    assert grid.nlanes == 1
    lat = Lattice(grid, (3,)).from_canonical(np.ones((16, 3)))
    can = lat.to_canonical()
    can[...] = 0
    assert np.all(lat.data == 1)


def test_from_canonical_casts_and_rejects_bad_shapes():
    grid = GridCartesian([4, 4, 4, 4], get_backend("avx"),
                         dtype=np.complex64)
    real = np.arange(grid.lsites * 3, dtype=np.float64).reshape(-1, 3)
    lat = Lattice(grid, (3,)).from_canonical(real)
    assert lat.data.dtype == np.complex64
    assert_same_bytes(lat.to_canonical(), real.astype(np.complex64))
    with pytest.raises(ValueError, match="canonical shape"):
        lat.from_canonical(real[:-1])


MPI = ([2, 1, 1, 1], [2, 2, 1, 1], [1, 1, 2, 2])


@pytest.mark.parametrize("mpi", MPI, ids=lambda m: "x".join(map(str, m)))
@pytest.mark.parametrize("backend", BACKENDS)
def test_scatter_gather_match_table_oracle(backend, mpi):
    rng = np.random.default_rng(11)
    gdims = [4, 4, 4, 8]
    for dtype in DTYPES:
        for tensor in TENSORS:
            dist = DistributedLattice(gdims, get_backend(backend), mpi,
                                      tensor, dtype=dtype)
            glob = random_canonical(rng, dist.grids[0].gsites, tensor,
                                    dtype)
            dist.scatter(glob)
            for rank, lat in enumerate(dist.locals):
                want = oracle_data(lat.grid, tensor,
                                   glob[rank_sites(dist, rank)])
                assert_same_bytes(lat.data, want)
            # independent shards gather like the oracle
            want = np.empty_like(glob)
            for rank, lat in enumerate(dist.locals):
                lat.data = rng.normal(size=lat.data.shape).astype(dtype)
                want[rank_sites(dist, rank)] = oracle_to_canonical(lat)
            assert_same_bytes(dist.gather(), want)


class TestUnitarityOnRows:
    @pytest.fixture
    def grid(self):
        return GridCartesian([4, 4, 4, 8], get_backend("generic512"))

    @pytest.mark.parametrize("backend", ("generic256", "avx512", "sse4"))
    def test_random_su3_is_unitary(self, backend):
        grid = GridCartesian([4, 4, 4, 8], get_backend(backend))
        rng = np.random.default_rng(5)
        for _ in range(4):
            assert max_unitarity_defect(random_su3_field(grid, rng)) < 1e-14

    @pytest.mark.parametrize("eps", (1e-7, 1e-5, 1e-3))
    def test_scaled_link_reports_twice_eps(self, grid, eps):
        lat = random_su3_field(grid, np.random.default_rng(9))
        coor = (1, 2, 3, 5)
        lat.poke_site(coor, lat.peek_site(coor) * (1 + eps))
        assert max_unitarity_defect(lat) == pytest.approx(
            2 * eps + eps * eps, rel=1e-6)

    def test_matches_per_matrix_reference(self, grid):
        """On general complex matrices (off-diagonal entries of U U^dag
        far from zero) the row products give the matrix product's
        largest defect."""
        rng = np.random.default_rng(13)
        can = random_canonical(rng, grid.lsites, (3, 3), np.complex128)
        lat = Lattice(grid, (3, 3)).from_canonical(can)
        want = max(unitarity_defect(m) for m in can)
        assert max_unitarity_defect(lat) == pytest.approx(want, rel=1e-13)

    def test_off_diagonal_defect_alone(self, grid):
        """Rows of unit norm that are not orthogonal: only the
        off-diagonal entries of U U^dag are wrong."""
        lat = random_su3_field(grid, np.random.default_rng(17))
        m = np.eye(3, dtype=np.complex128)
        m[1] = [np.sqrt(0.5), np.sqrt(0.5), 0.0]  # <row0, row1> = 0.707
        lat.poke_site((0, 1, 0, 3), m)
        assert max_unitarity_defect(lat) == pytest.approx(np.sqrt(0.5))
