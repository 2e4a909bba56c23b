"""Fused + tiled lattice sweeps: bit-identity with the layered
reference path, deterministic tiling, and the fused-safe gate."""

import numpy as np
import pytest

import repro.perf as perf
from repro.bench.workloads import dslash_setup
from repro.engine.plan import fused_safe_backend
from repro.grid.cshift import cshift
from repro.grid.random import random_spinor
from repro.perf.parallel import run_tiles, tiles_for
from repro.simd.generic import GenericBackend


@pytest.fixture(scope="module")
def setup():
    return dslash_setup("generic256", dims=(4, 4, 4, 4))


class TestBitIdentity:
    def test_dhop_serial_and_tiled_match_reference(self, setup):
        with perf.disabled():
            ref = setup.run().data.copy()
        with perf.configured(enabled=True, workers=1):
            serial = setup.run().data.copy()
        with perf.configured(enabled=True, workers=4, tile_min_sites=32):
            tiled = setup.run().data.copy()
        assert np.array_equal(ref, serial)
        assert np.array_equal(ref, tiled)

    def test_mdag_m_matches_reference(self, setup):
        with perf.disabled():
            ref = setup.dirac.mdag_m(setup.psi).data.copy()
        with perf.configured(enabled=True, workers=4, tile_min_sites=32):
            got = setup.dirac.mdag_m(setup.psi).data.copy()
        assert np.array_equal(ref, got)

    def test_cshift_plans_match_reference(self, setup):
        lat = random_spinor(setup.grid, seed=3)
        for dim in range(4):
            for s in (-1, 0, 1, 2):
                with perf.configured(enabled=True):
                    got = cshift(lat, dim, s).data
                with perf.disabled():
                    ref = cshift(lat, dim, s).data
                assert np.array_equal(ref, got), (dim, s)


class TestFusedSafeGate:
    def test_exact_backend_types_only(self):
        class Shadow(GenericBackend):
            """Subclasses may override ops; the fused path must not
            silently bypass them."""

        assert fused_safe_backend(GenericBackend(256))
        assert not fused_safe_backend(Shadow(256))


class TestTiling:
    def test_tiles_partition_the_site_range(self):
        for n in (1, 7, 128, 257, 1000):
            tiles = tiles_for(n, workers=4, min_sites=16)
            covered = []
            for t in tiles:
                covered.extend(range(t.start, t.stop))
            assert covered == list(range(n)), n

    def test_serial_cases_yield_one_tile(self):
        assert tiles_for(50, workers=1) == [slice(0, 50)]
        assert tiles_for(10, workers=4, min_sites=128) == [slice(0, 10)]

    def test_split_is_deterministic(self):
        a = tiles_for(257, workers=4, min_sites=16)
        b = tiles_for(257, workers=4, min_sites=16)
        assert a == b
        assert len(a) > 1

    def test_run_tiles_executes_every_tile(self):
        tiles = tiles_for(256, workers=4, min_sites=16)
        hit = np.zeros(256, dtype=int)

        def body(t):
            hit[t] += 1

        run_tiles(body, tiles, workers=4)
        assert (hit == 1).all()

    def test_run_tiles_propagates_exceptions(self):
        def body(t):
            raise RuntimeError("tile blew up")

        with pytest.raises(RuntimeError, match="tile blew up"):
            run_tiles(body, [slice(0, 8), slice(8, 16)], workers=4)
