"""Random-field determinism and checksum tests."""

import hashlib

import numpy as np
import pytest

from repro.grid.cartesian import GridCartesian
from repro.grid.checksum import field_checksum, scalar_checksum
from repro.grid.lattice import Lattice
from repro.grid.pauli import random_su3, random_su3_sites
from repro.grid.random import (
    _local_slice,
    global_gaussian_spinor,
    random_gauge,
    random_spinor,
)
from repro.grid.su3 import random_su3_field
from repro.simd import get_backend


class TestDeterminism:
    def test_same_seed_same_field(self):
        g = GridCartesian([4, 4, 4, 4], get_backend("avx"))
        a = random_spinor(g, seed=1)
        b = random_spinor(g, seed=1)
        assert np.array_equal(a.data, b.data)

    def test_different_seed_different_field(self):
        g = GridCartesian([4, 4, 4, 4], get_backend("avx"))
        a = random_spinor(g, seed=1)
        b = random_spinor(g, seed=2)
        assert not np.allclose(a.data, b.data)

    def test_layout_independence(self):
        """Same seed across SIMD layouts -> identical canonical field
        (the basis of every cross-backend verification)."""
        cans = []
        for key in ("sse4", "avx", "avx512", "generic1024"):
            g = GridCartesian([4, 4, 4, 4], get_backend(key))
            cans.append(random_spinor(g, seed=7).to_canonical())
        for c in cans[1:]:
            assert np.array_equal(c, cans[0])

    def test_rank_slices_tile_global_field(self):
        """Per-rank fields are disjoint tiles of the global field."""
        dims = [4, 4, 4, 4]
        glob = global_gaussian_spinor(dims, seed=7)
        be = get_backend("avx")
        g = GridCartesian(dims, be, mpi_layout=[2, 1, 1, 1])
        left = random_spinor(g, seed=7, rank_coor=[0, 0, 0, 0])
        right = random_spinor(g, seed=7, rank_coor=[1, 0, 0, 0])
        # x in [0,2) lives on rank 0; x in [2,4) on rank 1.
        lc = left.to_canonical()
        rc = right.to_canonical()
        assert np.array_equal(lc[0], glob[0])
        assert np.array_equal(rc[0], glob[2])  # global x=2 -> local x=0

    def test_gauge_field_count(self):
        g = GridCartesian([4, 4, 4, 4], get_backend("avx"))
        links = random_gauge(g, seed=1)
        assert len(links) == 4
        assert links[0].tensor_shape == (3, 3)


def _loop_su3(rng, n, spread):
    """The oracle: one :func:`random_su3` call per site."""
    return np.array([random_su3(rng, spread) for _ in range(n)])


def _sha256(lattices) -> str:
    h = hashlib.sha256()
    for lat in lattices:
        h.update(lat.data.tobytes())
    return h.hexdigest()


class TestVectorisedSu3Draw:
    """The field-at-once SU(3) draw is the per-link loop, byte for byte:
    the same matrices and the same generator state after."""

    @pytest.mark.parametrize("spread", [1.0, 0.3])
    @pytest.mark.parametrize("seed", [0, 11, 2024])
    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_sites_match_loop(self, n, seed, spread):
        loop_rng = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        want = _loop_su3(loop_rng, n, spread)
        got = random_su3_sites(rng, n, spread)
        assert got.shape == (n, 3, 3) and got.dtype == np.complex128
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == loop_rng.bit_generator.state

    @pytest.mark.parametrize("spread", [1.0, 0.3])
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("dims,backend,mpi,rank_coor", [
        ([2, 2, 2, 4], "avx", None, None),
        ([4, 4, 2, 2], "generic512", None, None),
        ([4, 2, 2, 4], "avx512", [2, 1, 1, 2], [1, 0, 0, 0]),
        ([4, 2, 2, 4], "avx512", [2, 1, 1, 2], [0, 0, 0, 1]),
    ])
    def test_random_gauge_matches_loop(self, dims, backend, mpi,
                                       rank_coor, seed, spread):
        grid = GridCartesian(dims, get_backend(backend), mpi_layout=mpi)
        got = random_gauge(grid, seed=seed, spread=spread,
                           rank_coor=rank_coor)
        rng = np.random.default_rng(seed)
        gsites = int(np.prod(grid.gdims))
        want = [Lattice(grid, (3, 3)).from_canonical(_local_slice(
                    grid, rank_coor or [0] * grid.ndim,
                    _loop_su3(rng, gsites, spread)))
                for _mu in range(grid.ndim)]
        assert _sha256(got) == _sha256(want)

    @pytest.mark.parametrize("spread", [1.0, 0.3])
    def test_su3_field_leaves_the_loops_state(self, spread):
        grid = GridCartesian([2, 2, 2, 4], get_backend("avx"))
        rng = np.random.default_rng(5)
        loop_rng = np.random.default_rng(5)
        got = random_su3_field(grid, rng, spread)
        want = Lattice(grid, (3, 3)).from_canonical(
            _loop_su3(loop_rng, grid.lsites, spread))
        assert got.data.tobytes() == want.data.tobytes()
        assert rng.bit_generator.state == loop_rng.bit_generator.state
        # Later draws from the same generator do not move either.
        assert rng.normal() == loop_rng.normal()


class TestChecksums:
    def test_stable(self):
        g = GridCartesian([4, 4, 4, 4], get_backend("avx"))
        lat = random_spinor(g, seed=3)
        assert field_checksum(lat) == field_checksum(lat.copy())

    def test_layout_invariant(self):
        sums = set()
        for key in ("sse4", "avx512"):
            g = GridCartesian([4, 4, 4, 4], get_backend(key))
            sums.add(field_checksum(random_spinor(g, seed=3)))
        assert len(sums) == 1

    def test_detects_change(self):
        g = GridCartesian([4, 4, 4, 4], get_backend("avx"))
        lat = random_spinor(g, seed=3)
        before = field_checksum(lat)
        lat.data[0, 0, 0, 0] += 1e-3
        assert field_checksum(lat) != before

    def test_robust_to_last_bit_noise(self):
        """Values away from the quantisation boundary hash identically
        under last-bit perturbations (the property that makes digests
        comparable across summation orders)."""
        g = GridCartesian([4, 4, 4, 4], get_backend("avx"))
        lat = Lattice(g, (4, 3))
        vals = (np.arange(g.lsites * 12).reshape(g.lsites, 4, 3)
                % 7 + 1) / 8.0  # exactly representable, off-boundary
        lat.from_canonical(vals + 1j * vals)
        noisy = lat.copy()
        noisy.data *= (1 + 1e-15)
        assert field_checksum(lat) == field_checksum(noisy)

    def test_scalar_checksum(self):
        assert scalar_checksum(1 + 2j) == scalar_checksum(1 + 2j)
        assert scalar_checksum(1 + 2j) != scalar_checksum(1 - 2j)
