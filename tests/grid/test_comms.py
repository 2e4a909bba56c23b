"""Distributed-lattice tests: scatter/gather, halo exchange,
compression, distributed Wilson operator."""

import numpy as np
import pytest

from repro.grid import compression
from repro.grid.cartesian import GridCartesian
from repro.grid.comms import DistributedLattice, RankGeometry
from repro.grid.cshift import cshift
from repro.grid.dist_wilson import DistributedWilson, distribute_gauge
from repro.grid.lattice import Lattice
from repro.grid.random import random_gauge, random_spinor
from repro.grid.wilson import WilsonDirac
from repro.simd import get_backend

DIMS = [4, 4, 4, 4]


class TestRankGeometry:
    def test_coor_roundtrip(self):
        rg = RankGeometry([2, 1, 2, 2])
        assert rg.nranks == 8
        for r in range(8):
            assert rg.rank_of(rg.coor_of(r)) == r

    def test_neighbour_wraps(self):
        rg = RankGeometry([2, 1, 1, 1])
        assert rg.neighbour(0, 0, +1) == 1
        assert rg.neighbour(1, 0, +1) == 0
        assert rg.neighbour(0, 0, -1) == 1

    def test_neighbour_in_unsplit_dim_is_self(self):
        rg = RankGeometry([2, 1, 1, 1])
        assert rg.neighbour(0, 1, +1) == 0


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(17)
    return (rng.normal(size=(256, 3))
            + 1j * rng.normal(size=(256, 3)))


class TestScatterGather:
    @pytest.mark.parametrize("mpi", [[2, 1, 1, 1], [1, 1, 1, 4],
                                     [2, 1, 1, 2], [2, 2, 2, 2]])
    def test_roundtrip(self, field, mpi):
        dl = DistributedLattice(DIMS, get_backend("avx"), mpi, (3,))
        dl.scatter(field)
        assert np.allclose(dl.gather(), field)

    def test_wrong_shape_rejected(self, field):
        dl = DistributedLattice(DIMS, get_backend("avx"), [2, 1, 1, 1], (3,))
        with pytest.raises(ValueError):
            dl.scatter(field[:, :2])

    def test_norm_matches_single_rank(self, field):
        dl = DistributedLattice(DIMS, get_backend("avx"), [2, 1, 1, 2], (3,))
        dl.scatter(field)
        g = GridCartesian(DIMS, get_backend("avx"))
        single = Lattice(g, (3,)).from_canonical(field)
        assert np.isclose(dl.norm2(), single.norm2())


class TestDistributedCshift:
    @pytest.mark.parametrize("mpi", [[2, 1, 1, 1], [1, 1, 2, 2],
                                     [2, 2, 2, 2]])
    def test_matches_single_rank(self, field, mpi):
        be = get_backend("avx")
        dl = DistributedLattice(DIMS, be, mpi, (3,)).scatter(field)
        g = GridCartesian(DIMS, be)
        single = Lattice(g, (3,)).from_canonical(field)
        for dim in range(4):
            for s in (+1, -1, 3, -5):
                got = dl.cshift(dim, s).gather()
                want = cshift(single, dim, s).to_canonical()
                assert np.allclose(got, want), (mpi, dim, s)

    def test_whole_rank_shift(self, field):
        """A shift by exactly one rank's extent moves whole sub-lattices."""
        be = get_backend("avx")
        dl = DistributedLattice(DIMS, be, [2, 1, 1, 1], (3,)).scatter(field)
        g = GridCartesian(DIMS, be)
        single = Lattice(g, (3,)).from_canonical(field)
        got = dl.cshift(0, 2).gather()  # ldims[0] == 2
        want = cshift(single, 0, 2).to_canonical()
        assert np.allclose(got, want)

    def test_traffic_accounted(self, field):
        dl = DistributedLattice(DIMS, get_backend("avx"), [2, 1, 1, 1],
                                (3,)).scatter(field)
        assert dl.stats.bytes_sent == 0
        dl.cshift(0, +1)
        assert dl.stats.messages == 2  # one per rank
        # halo = lsites/ldims[0] sites x 3 colours x 16 bytes
        halo_complex = (128 // 2) * 3
        assert dl.stats.bytes_sent == 2 * halo_complex * 16

    def test_no_traffic_for_intra_rank_dims(self, field):
        dl = DistributedLattice(DIMS, get_backend("avx"), [2, 1, 1, 1],
                                (3,)).scatter(field)
        dl.cshift(3, +1)  # dim 3 is not rank-decomposed BUT still halos
        # shifting an unsplit dim exchanges with self-neighbour (rank
        # itself), still accounted as messages in this simulation:
        assert dl.stats.messages == 2


class TestCompression:
    def test_roundtrip_error(self, rng):
        buf = rng.normal(size=64) + 1j * rng.normal(size=64)
        wire = compression.compress_complex(buf)
        assert wire.dtype == np.float16
        back = compression.decompress_complex(wire)
        bound = compression.compression_error_bound(buf)
        assert np.abs(back - buf).max() <= 2 * bound

    def test_wire_volume(self):
        assert compression.wire_bytes(100, compressed=True) == 400
        assert compression.wire_bytes(100, compressed=False) == 1600
        assert compression.compression_ratio() == 4.0

    def test_complex64_path(self, rng):
        buf = (rng.normal(size=8) + 1j * rng.normal(size=8)).astype(
            np.complex64)
        wire = compression.compress_complex(buf)
        back = compression.decompress_complex(wire, np.complex64)
        assert back.dtype == np.complex64
        assert np.allclose(back, buf, rtol=2e-3, atol=1e-4)

    def test_overflow_bound_infinite(self):
        buf = np.array([1e6 + 0j])
        assert compression.compression_error_bound(buf) == float("inf")

    def test_rejects_non_complex(self):
        with pytest.raises(TypeError):
            compression.compress_complex(np.zeros(4))

    def test_compressed_halo_volume_reduced(self, field):
        plain = DistributedLattice(DIMS, get_backend("avx"), [2, 1, 1, 1],
                                   (3,)).scatter(field)
        comp = DistributedLattice(DIMS, get_backend("avx"), [2, 1, 1, 1],
                                  (3,), compress_halos=True).scatter(field)
        plain.cshift(0, 1)
        comp.cshift(0, 1)
        assert comp.stats.bytes_sent * 4 == plain.stats.bytes_sent


@pytest.fixture(scope="module")
def wilson_pair():
    be = get_backend("avx")
    grid = GridCartesian(DIMS, be)
    links = random_gauge(grid, seed=11)
    psi = random_spinor(grid, seed=7)
    w = WilsonDirac(links, mass=0.1)
    return be, grid, links, psi, w


class TestDistributedWilson:
    @pytest.mark.parametrize("mpi", [[2, 1, 1, 1], [2, 1, 1, 2],
                                     [2, 2, 2, 2]])
    def test_dhop_bit_identical(self, wilson_pair, mpi):
        be, grid, links, psi, w = wilson_pair
        want = w.dhop(psi).to_canonical()
        dlinks = distribute_gauge(links, DIMS, be, mpi)
        dpsi = DistributedLattice(DIMS, be, mpi, (4, 3)).scatter(
            psi.to_canonical())
        got = DistributedWilson(dlinks, mass=0.1).dhop(dpsi).gather()
        assert np.array_equal(got, want), mpi

    def test_full_operator(self, wilson_pair):
        be, grid, links, psi, w = wilson_pair
        want = w.apply(psi).to_canonical()
        mpi = [2, 1, 1, 2]
        dlinks = distribute_gauge(links, DIMS, be, mpi)
        dpsi = DistributedLattice(DIMS, be, mpi, (4, 3)).scatter(
            psi.to_canonical())
        got = DistributedWilson(dlinks, mass=0.1).apply(dpsi).gather()
        assert np.allclose(got, want, atol=1e-13)

    def test_dagger_consistency(self, wilson_pair):
        be, grid, links, psi, w = wilson_pair
        mpi = [2, 1, 1, 1]
        dlinks = distribute_gauge(links, DIMS, be, mpi)
        dpsi = DistributedLattice(DIMS, be, mpi, (4, 3)).scatter(
            psi.to_canonical())
        got = DistributedWilson(dlinks, mass=0.1).apply_dagger(dpsi).gather()
        want = w.apply_dagger(psi).to_canonical()
        assert np.allclose(got, want, atol=1e-13)

    def test_fp16_halos_bounded_error(self, wilson_pair):
        be, grid, links, psi, w = wilson_pair
        want = w.dhop(psi).to_canonical()
        mpi = [2, 1, 1, 1]
        dlinks = distribute_gauge(links, DIMS, be, mpi, compress_halos=True)
        dpsi = DistributedLattice(DIMS, be, mpi, (4, 3),
                                  compress_halos=True).scatter(
            psi.to_canonical())
        got = DistributedWilson(dlinks, mass=0.1).dhop(dpsi).gather()
        err = np.abs(got - want).max()
        assert 0 < err < 5e-3 * np.abs(want).max()

    @pytest.mark.parametrize("checksum", [False, True])
    def test_fp16_halos_leave_the_links_full_precision(self, wilson_pair,
                                                       checksum):
        """Only fermion halos go out as fp16: with a source every fp16
        halo carries exactly, links distributed for a compressed wire
        give the hop of a pristine-wire distribution, bit for bit, and
        their one-time gather sends as many messages and bytes."""
        be, grid, links, psi, w = wilson_pair
        mpi = [2, 1, 1, 2]
        src = psi.to_canonical()
        exact = (src.real.astype(np.float16)
                 + 1j * src.imag.astype(np.float16)).astype(np.complex128)
        hops, traffic = [], []
        for compress in (False, True):
            dlinks = distribute_gauge(links, DIMS, be, mpi,
                                      compress_halos=compress,
                                      checksum_halos=checksum)
            dpsi = DistributedLattice(DIMS, be, mpi, (4, 3),
                                      compress_halos=compress).scatter(exact)
            hops.append(DistributedWilson(dlinks, mass=0.1).dhop(dpsi)
                        .gather())
            traffic.append([(u.stats.messages, u.stats.bytes_sent)
                            for u in dlinks])
        assert np.array_equal(hops[0], hops[1])
        assert traffic[0] == traffic[1]
