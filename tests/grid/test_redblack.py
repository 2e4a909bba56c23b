"""Half-volume red-black grids and the checkerboard hop.

Even-odd fields live on :class:`~repro.grid.cartesian.GridRedBlack`
(one parity's flat sites, ``nlanes`` at a time) and the Schur operator
hops between them with ``WilsonDirac.dhop_cb``.  Its fast route is the
fused block sweep over half the sites; its reference is "embed into a
zero full field, run the full ``dhop``, pick the target parity".  The
two must agree byte for byte (float views, signed zeros included), and
the half-volume Schur operator must reproduce the full-lattice masked
expression on the odd sites.
"""

import numpy as np
import pytest

import repro.engine as engine
import repro.telemetry as telemetry
from repro.grid.cartesian import GridCartesian, GridRedBlack
from repro.grid.evenodd import SchurWilson
from repro.grid.random import random_gauge, random_spinor
from repro.grid.solver import solve_wilson_cgne
from repro.grid.stencil import red_black
from repro.grid.wilson import WilsonDirac
from repro.perf import fused
from repro.perf.counters import counters, reset_counters
from repro.simd import get_backend

BACKENDS = ("generic128", "generic256", "generic512")
DTYPES = (np.complex128, np.complex64)


@pytest.fixture(autouse=True)
def _clean_engine_state():
    engine.reset_all()
    yield
    engine.reset_all()


def _operator(backend, dims, dtype=np.complex128, mass=0.1):
    grid = GridCartesian(list(dims), get_backend(backend), dtype=dtype)
    return (WilsonDirac(random_gauge(grid, seed=11), mass=mass),
            random_spinor(grid, seed=7))


def _floats(a: np.ndarray) -> np.ndarray:
    return a.view(np.float64 if a.dtype == np.complex128 else np.float32)


def _assert_bytes_equal(got: np.ndarray, want: np.ndarray) -> None:
    g, w = _floats(got), _floats(want)
    assert np.array_equal(g, w)
    assert np.array_equal(np.signbit(g), np.signbit(w))


def _fast(dirac, half):
    reset_counters()
    out = dirac.dhop_cb(half)
    # The reference route would have run the full fused sweep.
    assert counters().fused_dhop_calls == 0
    return out


def _reference(dirac, half, target):
    return red_black(dirac.grid, target).pick(
        dirac.dhop(half.grid.embed(half)))


def _assert_hop_routes_agree(dirac, psi):
    for source, target in (("odd", "even"), ("even", "odd")):
        half = red_black(dirac.grid, source).pick(psi)
        got = _fast(dirac, half)
        assert got.grid is red_black(dirac.grid, target)
        _assert_bytes_equal(got.data, _reference(dirac, half, target).data)
        with engine.scope(enabled=False):
            _assert_bytes_equal(got.data, dirac.dhop_cb(half).data)


class TestCheckerboardHop:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fast_matches_reference(self, backend, dtype):
        _assert_hop_routes_agree(*_operator(backend, (4, 4, 4, 8), dtype))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_cubic_lattice(self, backend):
        _assert_hop_routes_agree(*_operator(backend, (2, 4, 6, 8)))

    def test_mixed_parity_lanes(self):
        dirac, psi = _operator("generic512", (2, 2, 2, 4))
        assert dirac.grid.odims == [1, 2, 2, 2]
        parity = dirac.grid.parity_mask()
        assert (parity.min(axis=1) != parity.max(axis=1)).all()
        _assert_hop_routes_agree(dirac, psi)

    @pytest.mark.parametrize("block", (1, 7, 100))
    def test_ragged_last_block(self, block, monkeypatch):
        dirac, psi = _operator("generic512", (4, 2, 6, 4))
        half = red_black(dirac.grid, "odd").pick(psi)
        want = _fast(dirac, half)
        monkeypatch.setattr(fused, "BLOCK_SITES", block)
        _assert_bytes_equal(_fast(dirac, half).data, want.data)
        _assert_hop_routes_agree(dirac, psi)

    def test_workers_match_serial(self):
        dirac, psi = _operator("generic256", (4, 4, 4, 8))
        half = red_black(dirac.grid, "odd").pick(psi)
        serial = _fast(dirac, half)
        with engine.scope(workers=2, tile_min_sites=16):
            tiled = _fast(dirac, half)
        assert counters().tiles_dispatched == 2
        _assert_bytes_equal(tiled.data, serial.data)

    def test_rejects_full_fields(self):
        dirac, psi = _operator("generic256", (4, 4, 4, 4))
        with pytest.raises(ValueError, match="half-volume"):
            dirac.dhop_cb(psi)

    def test_traced_as_half_volume_span(self):
        dirac, psi = _operator("generic256", (4, 4, 4, 4))
        half = red_black(dirac.grid, "odd").pick(psi)
        plain = dirac.dhop_cb(half)
        with engine.scope(telemetry="trace"):
            traced = dirac.dhop_cb(half)
        _assert_bytes_equal(traced.data, plain.data)
        (span,) = [s for s in telemetry.spans() if s.name == "dhop.cb"]
        assert span.attrs["sites"] == dirac.grid.gsites // 2
        assert span.attrs["parity"] == "even"

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_multi_block_half_field(self, backend, dtype):
        """8192 half sites: the per-parity link slices are read across
        block boundaries, serial and tiled."""
        dirac, psi = _operator(backend, (16, 8, 8, 16), dtype)
        assert dirac.grid.lsites // 2 >= 2 * fused.BLOCK_SITES
        for source, target in (("odd", "even"), ("even", "odd")):
            half = red_black(dirac.grid, source).pick(psi)
            want = _reference(dirac, half, target)
            _assert_bytes_equal(_fast(dirac, half).data, want.data)
            with engine.scope(workers=2, tile_min_sites=16):
                _assert_bytes_equal(_fast(dirac, half).data, want.data)
            assert counters().tiles_dispatched == 2

    def test_builds_one_slice_pair_per_parity(self):
        """The first hop onto a parity snapshots the full-order links
        at that parity's sites as contiguous slices, without building
        the full-order links; later hops build nothing."""
        dirac, psi = _operator("generic256", (4, 4, 4, 8))
        halves = [red_black(dirac.grid, p).pick(psi) for p in ("odd", "even")]
        for half in halves:
            dirac.dhop_cb(half)
        assert sorted(dirac._links_cb) == ["even", "odd"]
        assert dirac._links_t is None and dirac._links_adj_t is None
        before = dict(vars(dirac))
        pairs = {p: [a for part in pair for a in part]
                 for p, pair in dirac._links_cb.items()}
        for half in halves:
            dirac.dhop_cb(half)
        assert vars(dirac).keys() == before.keys()
        assert all(vars(dirac)[k] is v for k, v in before.items())
        for p, arrays in pairs.items():
            again = [a for part in dirac._links_cb[p] for a in part]
            assert all(a is b for a, b in zip(again, arrays))
        links, adj = dirac._full_links()
        for p, arrays in pairs.items():
            sites = red_black(dirac.grid, p).sites
            assert len(arrays) == 8
            for got, full in zip(arrays, links + adj):
                assert got.shape == (3, 3, sites.size)
                assert got.flags.c_contiguous
                _assert_bytes_equal(got, np.take(full, sites, axis=-1))


class TestHalfFields:
    def test_pick_embed_roundtrip(self):
        dirac, psi = _operator("generic512", (2, 2, 2, 4))
        for parity in ("even", "odd"):
            rb = red_black(dirac.grid, parity)
            half = rb.pick(psi)
            assert half.data.shape == (rb.osites, 4, 3, rb.nlanes)
            _assert_bytes_equal(rb.pick(rb.embed(half)).data, half.data)
            other = red_black(dirac.grid,
                              "odd" if parity == "even" else "even")
            zeros = _floats(other.pick(rb.embed(half)).data)
            assert not zeros.any() and not np.signbit(zeros).any()

    def test_memoized_per_grid(self):
        dirac, psi = _operator("generic256", (4, 4, 4, 4))
        a, b = SchurWilson(dirac), SchurWilson(dirac)
        ha, hb = a.project(psi, "odd"), b.project(psi, "odd")
        assert ha.grid is hb.grid is red_black(dirac.grid, "odd")
        # Fields made by one operator feed the other.
        _assert_bytes_equal(a.schur(hb).data, b.schur(ha).data)

    @pytest.mark.parametrize("dims, backend", [
        ((4, 4, 4, 5), "generic128"),   # odd extent: no checkerboard
        ((2, 2, 2, 2), "generic2048"),  # N/2 = 8 sites, 16 lanes
    ])
    def test_no_half_volume_checkerboard_raises(self, dims, backend):
        dirac, _ = _operator(backend, dims)
        with pytest.raises(ValueError, match="checkerboard"):
            GridRedBlack(dirac.grid, "odd")
        with pytest.raises(ValueError, match="checkerboard"):
            SchurWilson(dirac)


def _masked_schur(dirac, psi):
    """The Schur operator in full-lattice form: parity masks and the
    full ``dhop``, expression for expression as the half-volume one."""
    parity = dirac.grid.parity_mask()[:, None, None, :]
    diag = 4.0 + dirac.mass

    def project(x, keep):
        out = x.new_like()
        out.data = np.where(parity == keep, x.data, 0.0)
        return out

    psi_o = project(psi, 1)
    meo = project(dirac.dhop(psi_o) * (-0.5), 0)
    moe = project(dirac.dhop(meo) * (-0.5), 1)
    return psi_o * diag - moe * (1.0 / diag)


class TestSchurOnHalfFields:
    @pytest.mark.parametrize("backend, dims", [
        ("generic256", (4, 4, 4, 8)),
        ("generic512", (2, 2, 2, 4)),
        ("generic128", (2, 4, 6, 8)),
    ])
    def test_matches_masked_operator(self, backend, dims):
        dirac, psi = _operator(backend, dims)
        schur = SchurWilson(dirac)
        got = schur.embed(schur.schur(schur.project(psi, "odd")))
        _assert_bytes_equal(got.data, _masked_schur(dirac, psi).data)

    def test_gamma5_hermiticity(self):
        dirac, psi = _operator("generic256", (4, 4, 4, 8))
        schur = SchurWilson(dirac)
        a = schur.project(psi, "odd")
        c = schur.project(random_spinor(dirac.grid, seed=9), "odd")
        lhs = c.inner_product(schur.schur(a))
        rhs = schur.schur_dagger(c).inner_product(a)
        assert np.isclose(lhs, rhs, rtol=1e-12)

    def test_normal_operator_positive(self):
        dirac, psi = _operator("generic256", (4, 4, 4, 8))
        schur = SchurWilson(dirac)
        o = schur.project(psi, "odd")
        assert o.inner_product(schur.schur_norm(o)).real > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_solution_matches_full_cgne(self, backend):
        dirac, b = _operator(backend, (4, 4, 4, 8), mass=0.3)
        full = solve_wilson_cgne(dirac, b, tol=1e-9, max_iter=800)
        eo = SchurWilson(dirac).solve(b, tol=1e-9, max_iter=800)
        assert full.converged and eo.converged
        assert eo.iterations <= full.iterations
        diff = (full.x - eo.x).norm2() ** 0.5 / full.x.norm2() ** 0.5
        assert diff < 1e-6
