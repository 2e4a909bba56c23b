"""The tile pool's defaults: ``workers`` is the host's CPU count, and
``tile_min_sites`` keeps every sweep the measured crossover says loses
(the 8^4 hops the pion and distributed workloads run) one tile, while
the 16^4 hop splits.  Whatever the split, the tiled sweeps are byte for
byte the serial ones, and a failing tile is reported only once every
tile has stopped."""

import os
import threading
import time

import numpy as np
import pytest

import repro.engine as engine
import repro.perf as perf
from repro.engine.policy import ExecutionPolicy
from repro.grid.cartesian import GridCartesian
from repro.grid.comms import DistributedLattice
from repro.grid.dist_wilson import DistributedWilson
from repro.grid.evenodd import SchurWilson
from repro.grid.random import random_gauge, random_spinor
from repro.grid.wilson import WilsonDirac
from repro.perf.counters import counters, reset_counters
from repro.perf.parallel import run_tiles, tiles_for
from repro.simd import get_backend

DEFAULT_MIN_SITES = ExecutionPolicy().tile_min_sites
DTYPES = (np.complex64, np.complex128)


def _affinity_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _operator(dims, dtype):
    grid = GridCartesian(list(dims), get_backend("generic256"), dtype=dtype)
    return WilsonDirac(random_gauge(grid, seed=11), mass=0.3), \
        random_spinor(grid, seed=7)


def _distributed(dims, dtype, mpi=(2, 2, 1, 1)):
    dirac, psi = _operator(dims, dtype)
    be = dirac.grid.backend

    def scatter(lat):
        return DistributedLattice(list(dims), be, list(mpi), lat.tensor_shape,
                                  dtype=dtype).scatter(lat.to_canonical())

    return DistributedWilson([scatter(u) for u in dirac.links],
                             mass=0.3), scatter(psi)


def _assert_bytes_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _tiles_of(sweep, **policy) -> int:
    """The sweep tiles one call of ``sweep`` dispatches under
    ``policy``."""
    with engine.scope(**policy):
        reset_counters()
        sweep()
        return counters().tiles_dispatched


class TestDefaults:
    def test_workers_default_to_the_affinity_count(self):
        assert ExecutionPolicy().workers == _affinity_count()
        assert perf.PerfConfig().workers == _affinity_count()
        assert perf.PerfConfig().tile_min_sites == DEFAULT_MIN_SITES

    @pytest.mark.parametrize("workers", (2, 8))
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    def test_8x4_half_hop_is_one_tile(self, dtype, workers):
        dirac, psi = _operator((8, 8, 8, 8), dtype)
        schur = SchurWilson(dirac)
        odd = schur.project(psi, "odd")
        assert _tiles_of(lambda: dirac.dhop_cb(odd), workers=workers,
                         tile_min_sites=DEFAULT_MIN_SITES) == 1
        assert _tiles_of(lambda: schur.schur(odd), workers=workers,
                         tile_min_sites=DEFAULT_MIN_SITES) == 2

    @pytest.mark.parametrize("workers", (2, 8))
    def test_8x4_full_hop_is_one_tile(self, workers):
        dirac, psi = _operator((8, 8, 8, 8), np.complex128)
        assert _tiles_of(lambda: dirac.dhop(psi), workers=workers,
                         tile_min_sites=DEFAULT_MIN_SITES) == 1

    @pytest.mark.parametrize("workers", (2, 8))
    def test_8x4_distributed_sweep_is_one_tile(self, workers):
        op, dpsi = _distributed((8, 8, 8, 8), np.complex128)
        assert _tiles_of(lambda: op.dhop(dpsi), workers=workers,
                         tile_min_sites=DEFAULT_MIN_SITES) == 1

    @pytest.mark.parametrize("unit", (1, 2, 4, 8))
    def test_16x4_full_hop_splits_with_two_workers_or_more(self, unit):
        for workers in range(2, max(8, _affinity_count()) + 1):
            tiles = tiles_for(16 ** 4, workers, DEFAULT_MIN_SITES, unit)
            assert 1 < len(tiles) <= workers
            assert all(t.stop - t.start >= DEFAULT_MIN_SITES
                       for t in tiles)


class TestTilesFor:
    def test_every_tile_gets_the_minimum(self):
        assert tiles_for(20, 4, 10, unit=4) == [slice(0, 20)]
        assert tiles_for(24, 4, 10, unit=4) == [slice(0, 12),
                                                slice(12, 24)]
        assert tiles_for(4096, 2, 4096) == [slice(0, 4096)]
        assert tiles_for(8192, 2, 4096) == [slice(0, 4096),
                                            slice(4096, 8192)]

    @pytest.mark.parametrize("unit", (1, 2, 4))
    def test_tiles_are_whole_units(self, unit):
        tiles = tiles_for(unit * 257, 3, 16, unit)
        assert len(tiles) == 3
        assert tiles[0].start == 0 and tiles[-1].stop == unit * 257
        for a, b in zip(tiles, tiles[1:]):
            assert a.stop == b.start
        assert all(t.start % unit == 0 for t in tiles)


@pytest.mark.parametrize("workers", (2, 3))
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
class TestTiledIsSerial:
    """Lowered ``tile_min_sites``: every sweep splits ``workers`` ways
    and matches the one-tile sweep byte for byte."""

    def _both(self, sweep, workers):
        with engine.scope(workers=1):
            serial = sweep()
        reset_counters()
        with engine.scope(workers=workers, tile_min_sites=16):
            tiled = sweep()
        return serial, tiled

    def test_full_hop(self, dtype, workers):
        dirac, psi = _operator((4, 4, 4, 8), dtype)
        serial, tiled = self._both(lambda: dirac.dhop(psi).data, workers)
        # The entry transpose runs on the same tiles as the sweep.
        assert counters().tiles_dispatched == workers
        _assert_bytes_equal(tiled, serial)

    def test_schur_hops(self, dtype, workers):
        dirac, psi = _operator((4, 4, 4, 8), dtype)
        schur = SchurWilson(dirac)
        odd = schur.project(psi, "odd")
        serial, tiled = self._both(lambda: schur.schur(odd).data, workers)
        assert counters().tiles_dispatched == 2 * workers
        _assert_bytes_equal(tiled, serial)

    def test_distributed_sweep(self, dtype, workers):
        op, dpsi = _distributed((4, 4, 4, 8), dtype)
        serial, tiled = self._both(lambda: op.dhop(dpsi).gather(), workers)
        assert counters().tiles_dispatched == workers
        _assert_bytes_equal(tiled, serial)


class TestRunTiles:
    def test_failing_tile_waits_for_every_other_tile(self):
        finished = []

        def body(t):
            if t == 0:
                raise RuntimeError("tile 0")
            time.sleep(0.2)
            finished.append(t)

        with pytest.raises(RuntimeError, match="tile 0"):
            run_tiles(body, [0, 1, 2], workers=3)
        assert sorted(finished) == [1, 2]

    def test_pool_tile_failure_waits_for_the_caller_tile(self):
        finished = []

        def body(t):
            if t == 1:
                raise RuntimeError("tile 1")
            time.sleep(0.2)
            finished.append(t)

        with pytest.raises(RuntimeError, match="tile 1"):
            run_tiles(body, [0, 1, 2], workers=3)
        assert sorted(finished) == [0, 2]

    def test_first_failing_tile_in_order_propagates(self):
        def body(t):
            if t == 2:
                raise ValueError("tile 2")
            time.sleep(0.1)
            raise RuntimeError(f"tile {t}")

        with pytest.raises(RuntimeError, match="tile 0"):
            run_tiles(body, [0, 1, 2], workers=3)

    def test_caller_runs_one_tile(self):
        caller, seen = threading.current_thread(), []

        def body(t):
            seen.append(threading.current_thread() is caller)

        run_tiles(body, [0, 1], workers=2)
        assert sorted(seen) == [False, True]
