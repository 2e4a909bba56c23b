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

import itertools

import numpy as np
import pytest

import repro.engine as engine
import repro.telemetry as telemetry
from repro.grid.cartesian import GridCartesian, GridRedBlack
from repro.grid.cshift import cshift
from repro.grid.evenodd import SchurWilson
from repro.grid.lattice import Lattice
from repro.grid.propagator import point_source
from repro.grid.random import random_gauge, random_spinor
from repro.grid.solver import solve_wilson_cgne
from repro.grid.stencil import parity_neighbour_table, red_black
from repro.grid.wilson import WilsonDirac
from repro.perf import fused
from repro.perf.counters import counters, reset_counters
from repro.simd import get_backend

BACKENDS = ("generic128", "generic256", "generic512")
DTYPES = (np.complex128, np.complex64)
#: Source fields: Gaussian, and a point source, whose exact zeros make
#: every signed zero of the hop count.
SOURCES = ("random", "point")


def _sourced(*axes):
    """Parameters over the product of ``axes`` and :data:`SOURCES`.  A
    Gaussian source's case keeps the id of the product alone."""
    params = []
    for values in itertools.product(*axes, SOURCES):
        *plain, source = values
        ids = [getattr(v, "__name__", str(v)) for v in plain]
        if source != "random":
            ids.append(source)
        params.append(pytest.param(*values, id="-".join(ids)))
    return params


@pytest.fixture(autouse=True)
def _clean_engine_state():
    engine.reset_all()
    yield
    engine.reset_all()


def _operator(backend, dims, dtype=np.complex128, mass=0.1,
              source="random"):
    grid = GridCartesian(list(dims), get_backend(backend), dtype=dtype)
    psi = random_spinor(grid, seed=7) if source == "random" \
        else point_source(grid, (1, 0, 1, 1), 2, 1)
    return WilsonDirac(random_gauge(grid, seed=11), mass=mass), psi


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
    @pytest.mark.parametrize("backend, dtype, source",
                             _sourced(BACKENDS, DTYPES))
    def test_fast_matches_reference(self, backend, dtype, source):
        _assert_hop_routes_agree(*_operator(backend, (4, 4, 4, 8), dtype,
                                            source=source))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_cubic_lattice(self, backend):
        _assert_hop_routes_agree(*_operator(backend, (2, 4, 6, 8)))

    def test_mixed_parity_lanes(self):
        dirac, psi = _operator("generic512", (2, 2, 2, 4))
        assert dirac.grid.odims == [1, 2, 2, 2]
        parity = dirac.grid.parity_mask()
        assert (parity.min(axis=1) != parity.max(axis=1)).all()
        _assert_hop_routes_agree(dirac, psi)

    @pytest.mark.parametrize("block, source", _sourced((1, 7, 100)))
    def test_ragged_last_block(self, block, source, monkeypatch):
        dirac, psi = _operator("generic512", (4, 2, 6, 4), source=source)
        half = red_black(dirac.grid, "odd").pick(psi)
        want = _fast(dirac, half)
        monkeypatch.setattr(fused, "BLOCK_SITES", block)
        _assert_bytes_equal(_fast(dirac, half).data, want.data)
        _assert_hop_routes_agree(dirac, psi)

    def test_workers_match_serial(self):
        for source in SOURCES:
            dirac, psi = _operator("generic256", (4, 4, 4, 8),
                                   source=source)
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

    @pytest.mark.parametrize("backend, dtype, source",
                             _sourced(BACKENDS, DTYPES))
    def test_multi_block_half_field(self, backend, dtype, source):
        """8192 half sites: the per-parity link slices are read across
        block boundaries, serial and tiled."""
        dirac, psi = _operator(backend, (16, 8, 8, 16), dtype,
                               source=source)
        assert dirac.grid.lsites // 2 >= 2 * fused.BLOCK_SITES
        for source, target in (("odd", "even"), ("even", "odd")):
            half = red_black(dirac.grid, source).pick(psi)
            want = _reference(dirac, half, target)
            _assert_bytes_equal(_fast(dirac, half).data, want.data)
            with engine.scope(workers=2, tile_min_sites=16):
                _assert_bytes_equal(_fast(dirac, half).data, want.data)
            assert counters().tiles_dispatched == 2

    def test_builds_one_slice_pair_per_parity(self):
        """The first hop onto a parity builds its stacked hop arrays —
        the parity tables and the links at that parity's sites, in sweep
        order — and no other copy of the links; later hops build
        nothing."""
        dirac, psi = _operator("generic256", (4, 4, 4, 8))
        halves = [red_black(dirac.grid, p).pick(psi) for p in ("odd", "even")]
        for half in halves:
            dirac.dhop_cb(half)
        assert sorted(dirac._links_cb) == ["even", "odd"]
        assert [k for k, v in vars(dirac).items()
                if isinstance(v, np.ndarray)] == []
        assert dirac._sweep_tables is dirac._links_back_lm is None
        before = dict(vars(dirac))
        sweeps = dict(dirac._links_cb)
        arrays = {p: (s.tables, s.links) for p, s in sweeps.items()}
        for half in halves:
            dirac.dhop_cb(half)
        assert vars(dirac).keys() == before.keys()
        assert all(vars(dirac)[k] is v for k, v in before.items())
        for p, (tables, links) in arrays.items():
            sweep = dirac._links_cb[p]
            assert sweep is sweeps[p]
            assert sweep.tables is tables and sweep.links is links
        # U_mu, then the adjoint of the cshift-gathered back-link.
        full = []
        for mu, u in enumerate(dirac.links):
            full.append(fused.to_working(u.data))
            full.append(fused.adjoint(fused.to_working(
                cshift(u, mu, -1).data)))
        for p, sweep in dirac._links_cb.items():
            tables, top, links = sweep.tables, sweep.top, sweep.links
            sites = red_black(dirac.grid, p).sites
            stacked = links.fields[0].base
            assert tables.shape == (8, sites.size)
            assert tables.dtype == np.int64 and top == tables.max()
            assert stacked.shape == (8, 3, 3, sites.size)
            assert tables.flags.c_contiguous and stacked.flags.c_contiguous
            assert not links.back and links.llanes == sites.size
            order = [(mu, sign) for mu in range(4) for sign in (+1, -1)]
            for k, (mu, sign) in enumerate(order):
                assert np.array_equal(tables[k], parity_neighbour_table(
                    dirac.grid, p, mu, sign))
                _assert_bytes_equal(stacked[k],
                                    np.take(full[k], sites, axis=-1))


class TestHalfFields:
    def test_pick_embed_roundtrip(self):
        for source in SOURCES:
            dirac, psi = _operator("generic512", (2, 2, 2, 4),
                                   source=source)
            self._assert_roundtrip(dirac, psi)

    @staticmethod
    def _assert_roundtrip(dirac, psi):
        parity = dirac.grid.parity_mask()[:, None, None, :]
        for p, parity_name in enumerate(("even", "odd")):
            rb = red_black(dirac.grid, parity_name)
            half = rb.pick(psi)
            # Tensor-major: spin-colour rows of the parity's flat sites.
            assert half.data.shape == (4, 3, rb.osites, rb.nlanes)
            assert half.data.flags.c_contiguous
            rows = half.data.reshape(4, 3, -1)
            flat = np.moveaxis(psi.data, -1, 1).reshape(-1, 4, 3)
            _assert_bytes_equal(rows, np.ascontiguousarray(
                np.moveaxis(flat[rb.sites], 0, -1)))
            _assert_bytes_equal(rb.pick(rb.embed(half)).data, half.data)
            masked = np.where(parity == p, psi.data, 0)
            _assert_bytes_equal(rb.embed(half).data, masked)
            other = red_black(dirac.grid,
                              "odd" if parity_name == "even" else "even")
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

    @pytest.mark.parametrize("backend, dtype, source",
                             _sourced(BACKENDS, DTYPES))
    def test_folded_algebra_matches_lattice_algebra(self, backend, dtype,
                                                    source):
        """``schur`` and ``schur_dagger`` run the diagonal algebra in
        the hops' stores: byte for byte the Lattice expressions over the
        engine-off hop, in four half-hop sweeps and no full one."""
        dirac, psi = _operator(backend, (4, 4, 4, 8), dtype, source=source)
        schur = SchurWilson(dirac)
        o = schur.project(psi, "odd")
        be = dirac.grid.backend

        def hop(x):
            return dirac.dhop_cb(x) * (-0.5)

        def s_op(x):
            return x * schur.diag - hop(hop(x)) * (1.0 / schur.diag)

        def g5(x):
            d = x.data
            return Lattice(x.grid, x.tensor_shape, np.stack(
                [d[0], d[1], be.neg(d[2]), be.neg(d[3])]))

        with engine.scope(enabled=False):
            want, want_dag = s_op(o), g5(s_op(g5(o)))
        reset_counters()
        got, got_dag = schur.schur(o), schur.schur_dagger(o)
        assert counters().fused_dhop_calls == 0
        # four fused half hops, one tile each
        assert (counters().native_sweeps,
                counters().native_fallbacks) == (4, 0)
        assert counters().tiles_dispatched == 4
        _assert_bytes_equal(got.data, want.data)
        _assert_bytes_equal(got_dag.data, want_dag.data)

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
