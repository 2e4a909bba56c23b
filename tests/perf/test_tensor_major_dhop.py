"""The tensor-major, cache-blocked single-rank dhop sweep.

Where the compiled kernel cannot load, ``WilsonDirac.dhop``'s fused
route (:func:`repro.perf.fused.fused_dhop`) runs the numpy block body:
it works on a ``(4, 3, osites * nlanes)`` copy of the field, gathers
neighbours through flat index tables and sweeps blocks of
``BLOCK_SITES`` flat sites.  Every test here runs that body (the kernel
is patched out; ``tests/perf/test_native_hop.py`` pins the kernel to
it).  None of that may change a bit: every
comparison here is on raw bytes (float views, so signed zeros and NaN
payloads count), against the engine-off layered path, the Dslash IR
(:mod:`repro.vectorizer.wilson_ir`) evaluated with numpy, and the
canonical-array oracle.
"""

import itertools
import warnings

import numpy as np
import pytest

import repro.engine as engine
import repro.perf as perf
from repro.grid.cartesian import GridCartesian
from repro.grid.cshift import cshift
from repro.grid.dhop_ref import dhop_reference
from repro.grid.lattice import Lattice
from repro.grid.propagator import point_source
from repro.grid.random import random_gauge, random_spinor
from repro.grid.stencil import neighbour_table
from repro.grid.wilson import WilsonDirac
from repro.perf import fused, native
from repro.perf.counters import counters, reset_counters
from repro.simd import get_backend
from repro.vectorizer import wilson_ir

BACKENDS = ("generic128", "generic256", "generic512")
DTYPES = (np.complex128, np.complex64)


@pytest.fixture(autouse=True)
def _clean_engine_state(monkeypatch):
    engine.reset_all()
    monkeypatch.setattr(native, "kernel", lambda dtype: None)
    yield
    engine.reset_all()


def _sourced(*axes):
    """Parameters over the product of ``axes`` and the source fields:
    Gaussian, and a point source (exact zeros, so every signed zero of
    the hop counts).  A Gaussian source's case keeps the id of the
    product alone."""
    params = []
    for values in itertools.product(*axes, ("random", "point")):
        *plain, source = values
        ids = [getattr(v, "__name__", str(v)) for v in plain]
        if source != "random":
            ids.append(source)
        params.append(pytest.param(*values, id="-".join(ids)))
    return params


def _operator(backend, dims, dtype=np.complex128, links_hook=None,
              source="random"):
    grid = GridCartesian(list(dims), get_backend(backend), dtype=dtype)
    links = random_gauge(grid, seed=11)
    if links_hook is not None:
        links_hook(links)
    psi = random_spinor(grid, seed=7) if source == "random" \
        else point_source(grid, (1, 0, 1, 1), 2, 1)
    return WilsonDirac(links, mass=0.1), psi


def _floats(a: np.ndarray) -> np.ndarray:
    return a.view(np.float64 if a.dtype == np.complex128 else np.float32)


def _assert_bytes_equal(got: np.ndarray, want: np.ndarray) -> None:
    g, w = _floats(got), _floats(want)
    assert np.array_equal(g, w, equal_nan=True)
    assert np.array_equal(np.signbit(g), np.signbit(w))
    assert got.tobytes() == want.tobytes()


def _layered(dirac, psi) -> np.ndarray:
    with perf.disabled():
        return dirac.dhop(psi).data


def _ir(dirac, psi) -> np.ndarray:
    """The Dslash IR, evaluated on the sweep's tensor-major copies so
    each component is one contiguous loop, as in the sweep: numpy's
    strided and contiguous complex loops can give the NaN of an
    invalid operation (inf - inf) different sign bits."""
    grid = dirac.grid
    st = "c64" if grid.dtype == np.complex64 else "c128"

    def site_major(lat):  # an (N, *tensor) view of the working copy
        return np.moveaxis(fused.to_working(lat.data), -1, 0)

    work = np.zeros((4, 3, grid.osites * grid.nlanes), dtype=grid.dtype)
    for mu in range(grid.ndim):
        u = dirac.links[mu]
        wilson_ir.evaluate(
            wilson_ir.hop_statements(mu, st), np.moveaxis(work, -1, 0),
            u_fwd=site_major(u), psi_fwd=site_major(cshift(psi, mu, +1)),
            u_bwd=site_major(cshift(u, mu, -1)),
            psi_bwd=site_major(cshift(psi, mu, -1)))
    out = np.empty_like(psi.data)
    fused.from_working(work, out)
    return out


def _default(dirac, psi) -> np.ndarray:
    reset_counters()
    out = dirac.dhop(psi).data
    assert counters().fused_dhop_calls == 1  # the sweep under test ran
    return out


def _assert_matches_oracle(dirac, psi, got: np.ndarray) -> None:
    grid = dirac.grid
    ref = dhop_reference([u.to_canonical() for u in dirac.links],
                         psi.to_canonical(), grid.gdims)
    out = Lattice(grid, psi.tensor_shape, got).to_canonical()
    tol = 1e-12 if grid.dtype == np.complex128 else 1e-5
    assert np.max(np.abs(out - ref)) <= tol * np.max(np.abs(ref))


class TestBitIdentity:
    @pytest.mark.parametrize("backend, dtype, source",
                             _sourced(BACKENDS, DTYPES))
    def test_matches_layered_ir_and_oracle(self, backend, dtype, source):
        dirac, psi = _operator(backend, (4, 4, 4, 8), dtype, source=source)
        got = _default(dirac, psi)
        _assert_bytes_equal(got, _layered(dirac, psi))
        _assert_bytes_equal(got, _ir(dirac, psi))
        _assert_matches_oracle(dirac, psi, got)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_cubic_lattice(self, backend):
        dirac, psi = _operator(backend, (2, 4, 6, 8))
        got = _default(dirac, psi)
        _assert_bytes_equal(got, _layered(dirac, psi))
        _assert_matches_oracle(dirac, psi, got)

    def test_ragged_last_block(self):
        # 6 * 6 * 8 * 16 = 4608 sites: one full block and a ragged one.
        dirac, psi = _operator("generic256", (6, 6, 8, 16))
        n = dirac.grid.osites * dirac.grid.nlanes
        assert n > fused.BLOCK_SITES and n % fused.BLOCK_SITES != 0
        got = _default(dirac, psi)
        _assert_bytes_equal(got, _layered(dirac, psi))
        _assert_matches_oracle(dirac, psi, got)

    @pytest.mark.parametrize("block", (1, 7, 100))
    def test_block_size_never_changes_a_bit(self, block, monkeypatch):
        dirac, psi = _operator("generic512", (4, 2, 6, 4))
        want = _default(dirac, psi)
        monkeypatch.setattr(fused, "BLOCK_SITES", block)
        _assert_bytes_equal(_default(dirac, psi), want)

    @pytest.mark.parametrize("workers", (2, 4))  # 4: more than cores
    @pytest.mark.parametrize("block", (None, 50))
    def test_tiled_matches_serial(self, block, workers, monkeypatch):
        if block is not None:
            monkeypatch.setattr(fused, "BLOCK_SITES", block)
        dirac, psi = _operator("generic256", (4, 4, 6, 4))
        with engine.scope(workers=1):
            serial = _default(dirac, psi)
        reset_counters()
        with engine.scope(workers=workers, tile_min_sites=16):
            tiled = dirac.dhop(psi).data
        assert counters().tiles_dispatched == workers
        _assert_bytes_equal(tiled, serial)
        _assert_bytes_equal(serial, _layered(dirac, psi))


class TestSpecialValues:
    """IEEE special values: signed zeros, infinities and NaNs."""

    @staticmethod
    def _plant(psi) -> None:
        d = psi.data
        d[0, 0, 0, 0] = complex(-0.0, -0.0)
        d[1, 1, 1, 0] = complex(np.inf, 0.0)
        d[3, 3, 0, 0] = complex(0.0, -np.inf)
        d[5, 2, 1, -1] = complex(-np.inf, -0.0)

    @staticmethod
    def _plant_links(links) -> None:
        links[0].data[5, 1, 1, 0] = complex(-0.0, np.inf)
        links[2].data[7, 0, 2, -1] = complex(-0.0, -0.0)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_signed_zero_and_inf_match_layered(self, backend, dtype):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            dirac, psi = _operator(backend, (4, 4, 4, 4), dtype,
                                   links_hook=self._plant_links)
            self._plant(psi)
            got = _default(dirac, psi)
            _assert_bytes_equal(got, _layered(dirac, psi))
            _assert_bytes_equal(got, _ir(dirac, psi))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nan_matches_ir_exactly_and_layered_in_value(self, backend,
                                                         dtype):
        # The fused body's out= contraction order has always given
        # propagated NaNs a different sign bit from the layered path;
        # the sweep keeps it, and the IR states that order exactly.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            dirac, psi = _operator(backend, (4, 4, 4, 4), dtype,
                                   links_hook=self._plant_links)
            self._plant(psi)
            psi.data[2, 2, 2, 0] = complex(np.nan, 1.0)
            psi.data[0, 3, 1, 0] = complex(-0.0, np.nan)
            got = _default(dirac, psi)
            ref = _layered(dirac, psi)
            _assert_bytes_equal(got, _ir(dirac, psi))
        g, r = _floats(got), _floats(ref)
        nans = np.isnan(r)
        assert nans.any()
        assert np.array_equal(nans, np.isnan(g))
        assert g[~nans].tobytes() == r[~nans].tobytes()


class TestNeighbourTable:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_table_replays_cshift(self, backend):
        grid = GridCartesian([4, 2, 6, 4], get_backend(backend))
        psi = random_spinor(grid, seed=3)
        work = fused.to_working(psi.data).reshape(12, -1)
        for mu in range(grid.ndim):
            for sign in (+1, -1):
                want = fused.to_working(cshift(psi, mu, sign).data)
                got = work[:, neighbour_table(grid, mu, sign)]
                assert got.tobytes() == want.reshape(12, -1).tobytes()

    def test_memoized_per_grid_and_counted(self):
        dirac, psi = _operator("generic256", (4, 4, 4, 4))
        dirac.dhop(psi)  # cold: builds the +mu tables
        reset_counters()
        dirac.dhop(psi)
        c = counters()
        assert c.nbr_table_misses == 0
        assert c.nbr_table_hits == 2 * dirac.grid.ndim

    def test_custom_shift_keeps_the_layered_path(self):
        grid = GridCartesian([4, 4, 4, 4], get_backend("generic256"))
        links = random_gauge(grid, seed=11)
        psi = random_spinor(grid, seed=7)
        want = WilsonDirac(links).dhop(psi).data
        custom = WilsonDirac(links, cshift_fn=lambda *a: cshift(*a))
        reset_counters()
        got = custom.dhop(psi).data
        assert counters().fused_dhop_calls == 0
        _assert_bytes_equal(got, want)
