"""Propagator and pion-correlator tests."""

import numpy as np
import pytest

import repro.engine as engine
import repro.telemetry as telemetry
from repro.engine.solve import solve_fermion
from repro.grid.cartesian import GridCartesian
from repro.grid.clover import WilsonClover
from repro.grid.evenodd import SchurWilson
from repro.grid.propagator import (
    effective_mass,
    pion_correlator,
    point_source,
    propagator,
    timeslice_sums,
)
from repro.grid.random import random_gauge
from repro.grid.solver import SolverResult, solve_wilson_cgne
from repro.grid.su3 import unit_gauge
from repro.grid.wilson import WilsonDirac
from repro.simd import get_backend

DIMS = [2, 2, 2, 4]


@pytest.fixture(scope="module")
def grid():
    return GridCartesian(DIMS, get_backend("avx"))


@pytest.fixture(scope="module")
def dirac(grid):
    return WilsonDirac(random_gauge(grid, seed=11, spread=0.3), mass=0.8)


class TestPointSource:
    def test_single_component(self, grid):
        src = point_source(grid, (1, 0, 1, 2), spin=2, colour=1)
        can = src.to_canonical()
        assert np.isclose(src.norm2(), 1.0)
        nonzero = np.nonzero(np.abs(can) > 0)
        assert len(nonzero[0]) == 1
        assert nonzero[1][0] == 2 and nonzero[2][0] == 1


class TestTimesliceSums:
    def test_partition_of_norm(self, grid):
        from repro.grid.random import random_spinor

        psi = random_spinor(grid, seed=3)
        sums = timeslice_sums(psi)
        assert sums.shape == (4,)
        assert np.isclose(sums.sum(), psi.norm2())

    def test_localised_field(self, grid):
        src = point_source(grid, (0, 0, 0, 2), 0, 0)
        sums = timeslice_sums(src)
        assert sums[2] == 1.0 and sums.sum() == 1.0


class TestPropagator:
    def test_columns_solve_the_dirac_equation(self, dirac, grid):
        columns, results = propagator(dirac, (0, 0, 0, 0), tol=1e-8)
        assert len(results) == 12
        # Records carry convergence only; the solutions are the columns.
        assert all(r.converged and r.x is None for r in results)
        src = point_source(grid, (0, 0, 0, 0), 1, 2)
        back = dirac.apply(columns[1][2])
        rel = (back - src).norm2() ** 0.5
        assert rel < 1e-6

    def test_wilson_default_is_schur(self, dirac):
        """A plain Wilson operator is solved through the even-odd Schur
        complement: half the CGNE iterations, the same columns."""
        columns, results = propagator(dirac, (0, 0, 0, 0), tol=1e-9)
        full, full_results = propagator(dirac, (0, 0, 0, 0), tol=1e-9,
                                        solver=solve_wilson_cgne)
        assert sum(r.iterations for r in results) \
            < sum(r.iterations for r in full_results)
        for spin in range(4):
            for colour in range(3):
                a, b = columns[spin][colour], full[spin][colour]
                assert (a - b).norm2() ** 0.5 < 1e-6 * b.norm2() ** 0.5

    def test_clover_still_solves_clover_matrix(self, grid):
        clover = WilsonClover(random_gauge(grid, seed=11, spread=0.3),
                              mass=0.8, c_sw=1.0)
        tol = 1e-8
        columns, _ = propagator(clover, (0, 0, 0, 0), tol=tol)
        for spin in range(4):
            for colour in range(3):
                b = point_source(grid, (0, 0, 0, 0), spin, colour)
                r = (b - clover.apply(columns[spin][colour])).norm2() \
                    ** 0.5 / b.norm2() ** 0.5
                assert r <= 10 * tol

    def test_nonconvergence_raises(self, grid):
        bad = WilsonDirac(random_gauge(grid, seed=11), mass=0.8)
        with pytest.raises(RuntimeError, match="converge"):
            propagator(bad, (0, 0, 0, 0), tol=1e-14, max_iter=2)


def _double_schur_solver(dirac, b, tol, max_iter):
    """The pure-double reference: CG on the Schur complement, then the
    even-site back-substitution."""
    schur = SchurWilson(dirac)
    b_e, b_o = schur.project(b, "even"), schur.project(b, "odd")
    rhs = b_o + dirac.dhop_cb(b_e) * (0.5 / schur.diag)
    res = solve_fermion(schur, rhs, method="cg", tol=tol,
                        max_iter=max_iter)
    psi_e = (b_e + dirac.dhop_cb(res.x) * 0.5) * (1.0 / schur.diag)
    psi = res.x.grid.embed(res.x, out=schur.embed(psi_e))
    return SolverResult(x=psi, converged=res.converged,
                        iterations=res.iterations, residual=res.residual)


class TestMixedPrecisionDefault:
    """The default Schur solve runs complex64 inner CG inside double
    defect correction."""

    TOL = 1e-8

    @pytest.fixture(scope="class")
    def traced(self, dirac):
        telemetry.reset()
        try:
            with engine.scope(telemetry="trace"):
                columns, results = propagator(dirac, (0, 0, 0, 0),
                                              tol=self.TOL)
            spans = telemetry.spans()
        finally:
            telemetry.reset()
        return columns, results, spans

    def test_engine_off_true_residual(self, traced, dirac, grid):
        columns, _, _ = traced
        with engine.scope(enabled=False):
            for spin in range(4):
                for colour in range(3):
                    b = point_source(grid, (0, 0, 0, 0), spin, colour)
                    r = (b - dirac.apply(columns[spin][colour])).norm2() \
                        ** 0.5 / b.norm2() ** 0.5
                    assert r <= 10 * self.TOL

    def test_columns_match_pure_double_schur(self, traced, dirac):
        columns, _, _ = traced
        ref, ref_results = propagator(dirac, (0, 0, 0, 0), tol=self.TOL,
                                      solver=_double_schur_solver)
        assert all(r.converged for r in ref_results)
        for spin in range(4):
            for colour in range(3):
                a, b = columns[spin][colour], ref[spin][colour]
                assert (a - b).norm2() ** 0.5 < 1e-6 * b.norm2() ** 0.5

    def test_record_iterations_are_inner_totals(self, traced):
        _, results, spans = traced
        mixed = [s for s in spans
                 if s.name == "solve" and s.attrs["solver"] == "mixed"]
        assert len(mixed) == len(results) == 12
        for rec, outer in zip(results, mixed):
            inner = [s.attrs["iterations"] for s in spans
                     if s.name == "solve" and s.parent_id == outer.span_id]
            assert len(inner) == len(rec.residual_history) - 1 >= 1
            assert rec.iterations == sum(inner) > 0

    def test_one_twin_matches_a_fresh_twin_per_column(self):
        """The propagator's twelve solves share one Schur twin; each
        column equals, byte for byte and in iterations, a solve on a
        fresh Wilson operator (and so a fresh twin and probe)."""
        grid = GridCartesian([4, 4, 4, 8], get_backend("generic256"))
        dirac = WilsonDirac(random_gauge(grid, seed=11), mass=0.3)

        def fresh_schur(d, b, tol, max_iter):
            fresh = WilsonDirac(d.links, mass=d.mass)
            return SchurWilson(fresh).solve(b, tol=tol, max_iter=max_iter)

        shared, shared_res = propagator(dirac, (0, 0, 0, 0), tol=self.TOL)
        fresh, fresh_res = propagator(dirac, (0, 0, 0, 0), tol=self.TOL,
                                      solver=fresh_schur)
        for spin in range(4):
            for colour in range(3):
                a, b = shared[spin][colour].data, fresh[spin][colour].data
                assert a.tobytes() == b.tobytes()
        for a, b in zip(shared_res, fresh_res):
            assert a.iterations == b.iterations
            assert a.residual_history == b.residual_history

    def test_propagators_over_one_operator_probe_once(self):
        """The twin and the probe's choice live on the Wilson operator:
        a second propagator builds and probes nothing, and both equal a
        fresh operator's columns byte for byte."""
        grid = GridCartesian([4, 4, 4, 8], get_backend("generic256"))
        links = random_gauge(grid, seed=11)
        dirac = WilsonDirac(links, mass=0.3)
        telemetry.reset()
        try:
            with engine.scope(telemetry="trace"):
                runs = [propagator(dirac, (0, 0, 0, 0), tol=self.TOL)
                        for _ in range(2)]
            probes = [s for s in telemetry.spans()
                      if s.name == "twin.probe"]
        finally:
            telemetry.reset()
        assert len(probes) == 1
        fresh, fresh_res = propagator(WilsonDirac(links, mass=0.3),
                                      (0, 0, 0, 0), tol=self.TOL)
        for columns, results in runs:
            for spin in range(4):
                for colour in range(3):
                    assert columns[spin][colour].data.tobytes() \
                        == fresh[spin][colour].data.tobytes()
            assert [r.iterations for r in results] \
                == [r.iterations for r in fresh_res]

    def test_starved_budget_raises(self, dirac):
        with pytest.raises(RuntimeError, match="converge"):
            propagator(dirac, (0, 0, 0, 0), tol=self.TOL, max_iter=2)


class TestPionCorrelator:
    @pytest.fixture(scope="class")
    def corr(self, dirac):
        return pion_correlator(dirac, (0, 0, 0, 0), tol=1e-9)

    def test_positive(self, corr):
        assert np.all(corr > 0)

    def test_source_dominates(self, corr):
        assert corr[0] == corr.max()

    def test_time_reflection_symmetry(self, corr, grid):
        """On a time-reflection-invariant background (free field) the
        periodic correlator is exactly symmetric, C(t) = C(T-t); on a
        single random configuration only approximately."""
        free = WilsonDirac(unit_gauge(grid), mass=0.8)
        c = pion_correlator(free, tol=1e-10)
        lt = c.size
        for t in range(1, lt // 2):
            assert np.isclose(c[t], c[lt - t], rtol=1e-7), t
        for t in range(1, corr.size // 2):
            assert np.isclose(corr[t], corr[corr.size - t], rtol=0.5), t

    def test_decays_to_midpoint(self, corr):
        lt = corr.size
        assert corr[0] > corr[1] > corr[lt // 2]

    def test_source_shift_rolls_correlator(self, dirac):
        a = pion_correlator(dirac, (0, 0, 0, 0), tol=1e-8)
        b = pion_correlator(dirac, (0, 0, 0, 1), tol=1e-8)
        # Translation invariance is only statistical on one random
        # configuration, but the source must sit at t=0 in both.
        assert a[0] == a.max() and b[0] == b.max()

    def test_effective_mass_positive_in_first_half(self, corr):
        meff = effective_mass(corr)
        assert np.all(meff[: corr.size // 2] > 0)

    def test_free_field_heavier_mass_decays_faster(self, grid):
        corrs = {}
        for m in (0.5, 2.0):
            dirac = WilsonDirac(unit_gauge(grid), mass=m)
            corrs[m] = pion_correlator(dirac, tol=1e-9)
        meff_light = effective_mass(corrs[0.5])[0]
        meff_heavy = effective_mass(corrs[2.0])[0]
        assert meff_heavy > meff_light
