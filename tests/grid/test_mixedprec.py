"""Mixed-precision solver tests (QUDA-style defect correction)."""

import numpy as np
import pytest

import repro.engine as engine
import repro.telemetry as telemetry
from repro.engine.solve import solve_fermion
from repro.grid.cartesian import GridCartesian
from repro.grid.dhop_ref import dhop_reference
from repro.grid.evenodd import SchurWilson
from repro.grid.lattice import Lattice
from repro.grid.mixedprec import has_single_twin, \
    make_single_precision_copy, mixed_precision_cgne, single_precision_twin
from repro.grid.random import random_gauge, random_spinor
from repro.grid.solver import solve_wilson_cgne
from repro.grid.stencil import red_black, single_precision_grid
from repro.grid.wilson import SPINOR, WilsonDirac
from repro.simd import get_backend


@pytest.fixture(scope="module")
def system():
    grid = GridCartesian([4, 4, 4, 4], get_backend("avx512"))
    dirac = WilsonDirac(random_gauge(grid, seed=11), mass=0.3)
    b = random_spinor(grid, seed=5)
    return grid, dirac, b


class TestSinglePrecisionOperator:
    def test_copy_geometry(self, system):
        grid, dirac, _ = system
        d32 = make_single_precision_copy(dirac)
        assert d32.grid.dtype == np.complex64
        # vComplexF: twice the lanes of vComplexD on the same register.
        assert d32.grid.nlanes == 2 * grid.nlanes
        assert d32.grid.gdims == grid.gdims

    def test_dhop_close_to_double(self, system):
        grid, dirac, b = system
        d32 = make_single_precision_copy(dirac)
        from repro.grid.mixedprec import _to_single

        got = d32.dhop(_to_single(d32.grid, b)).to_canonical()
        want = dirac.dhop(b).to_canonical()
        assert np.allclose(got, want, rtol=1e-4, atol=1e-4)
        assert got.dtype == np.complex64

    def test_dhop32_vs_reference(self, system):
        grid, dirac, b = system
        d32 = make_single_precision_copy(dirac)
        from repro.grid.mixedprec import _to_single

        psi32 = _to_single(d32.grid, b)
        got = d32.dhop(psi32).to_canonical()
        ref = dhop_reference([u.to_canonical() for u in d32.links],
                             psi32.to_canonical(), grid.gdims)
        assert np.allclose(got, ref, rtol=1e-4, atol=1e-4)


class TestMixedPrecisionSolve:
    def test_reaches_double_precision_tolerance(self, system):
        """The headline property: float32 inner iterations, final
        residual far below float32 epsilon."""
        _, dirac, b = system
        res = mixed_precision_cgne(dirac, b, tol=1e-10, inner_tol=1e-5)
        assert res.converged
        assert res.residual < 1e-10  # << 1.2e-7 (float32 epsilon)
        check = (b - dirac.apply(res.x)).norm2() ** 0.5 / b.norm2() ** 0.5
        assert check < 1e-9

    def test_matches_pure_double_solution(self, system):
        _, dirac, b = system
        mixed = mixed_precision_cgne(dirac, b, tol=1e-10)
        pure = solve_wilson_cgne(dirac, b, tol=1e-10, max_iter=800)
        diff = (mixed.x - pure.x).norm2() ** 0.5 / pure.x.norm2() ** 0.5
        assert diff < 1e-8

    def test_outer_loop_is_short(self, system):
        """Most iterations happen in single precision; the double-
        precision outer loop only corrects the defect."""
        _, dirac, b = system
        res = mixed_precision_cgne(dirac, b, tol=1e-10, inner_tol=1e-5)
        assert res.outer_iterations <= 5
        assert res.inner_iterations_total > res.outer_iterations

    def test_residual_history_monotone_enough(self, system):
        _, dirac, b = system
        res = mixed_precision_cgne(dirac, b, tol=1e-10)
        assert res.residual_history[-1] < res.residual_history[0] * 1e-8

    def test_zero_rhs(self, system):
        _, dirac, b = system
        res = mixed_precision_cgne(dirac, b.new_like())
        assert res.converged and res.residual == 0.0


class TestIterationReport:
    """A mixed solve's iterations are its single-precision inner total,
    wherever they are read."""

    def test_result_iterations_is_inner_total(self, system):
        _, dirac, b = system
        res = mixed_precision_cgne(dirac, b, tol=1e-10)
        assert res.outer_iterations >= 2
        assert res.iterations == res.inner_iterations_total

    def test_registry_and_span_read_inner_total(self, system):
        _, dirac, b = system
        telemetry.reset()
        try:
            with engine.scope(telemetry="trace"):
                res = solve_fermion(dirac, b, method="mixed", tol=1e-10)
            snap = telemetry.snapshot()
            spans = telemetry.spans()
        finally:
            telemetry.reset()
        assert res.outer_iterations >= 2
        assert snap["solve.iterations"] == res.inner_iterations_total
        mixed = [s for s in spans
                 if s.name == "solve" and s.attrs["solver"] == "mixed"]
        envelope = [s for s in spans if s.name == "solve_fermion"]
        assert len(mixed) == len(envelope) == 1
        assert mixed[0].attrs["iterations"] == res.inner_iterations_total
        assert envelope[0].attrs["iterations"] == \
            res.inner_iterations_total
        # ... and that total is what the inner CG solves ran.
        inner = [s.attrs["iterations"] for s in spans
                 if s.name == "solve" and s.parent_id == mixed[0].span_id]
        assert len(inner) == res.outer_iterations
        assert sum(inner) == res.inner_iterations_total


class TestIterationBudget:
    """``max_iter`` bounds the inner iterations summed over the outer
    steps."""

    @pytest.mark.parametrize("ft", [False, True])
    def test_starved_solve_reports_non_convergence(self, system, ft):
        _, dirac, b = system
        res = solve_fermion(dirac, b, method="mixed", ft=ft, tol=1e-10,
                            max_iter=2)
        assert not res.converged
        assert res.iterations <= 2

    def test_budget_spans_outer_steps(self, system):
        _, dirac, b = system
        free = solve_fermion(dirac, b, method="mixed", tol=1e-10)
        budget = free.inner_iterations_total - 1
        res = solve_fermion(dirac, b, method="mixed", tol=1e-10,
                            max_iter=budget)
        assert not res.converged
        assert res.iterations == budget
        assert res.outer_iterations >= 2

    def test_max_inner_still_caps_each_inner_solve(self, system):
        _, dirac, b = system
        res = solve_fermion(dirac, b, method="mixed", tol=1e-10,
                            max_iter=1000, max_outer=2, max_inner=3)
        assert res.iterations <= 6


HALF_CASES = [(be, dims) for be in ("generic128", "generic256",
                                    "generic512")
              for dims in ([4, 4, 4, 8], [2, 2, 2, 4])]


def _schur_system(backend, dims):
    grid = GridCartesian(dims, get_backend(backend))
    schur = SchurWilson(WilsonDirac(random_gauge(grid, seed=11),
                                    mass=0.3))
    # Values exactly representable in complex64.
    psi = Lattice(grid, SPINOR).from_canonical(
        random_spinor(grid, seed=5).to_canonical().astype(np.complex64))
    return schur, schur.project(psi, "odd")


class TestSchurTwin:
    """The single-precision Schur twin and its half-field converters."""

    @pytest.mark.parametrize("backend,dims", HALF_CASES)
    def test_half_field_round_trip(self, backend, dims):
        schur, half = _schur_system(backend, dims)
        twin, to_single, to_double = single_precision_twin(schur)
        assert twin.grid.dtype == np.complex64
        assert twin.grid.nlanes == 2 * schur.grid.nlanes
        half32 = to_single(half)
        assert half32.grid is red_black(twin.grid, "odd")
        assert half32.data.dtype == np.complex64
        # Site by site: the same value at the same coordinate.
        want = SchurWilson.embed(half).to_canonical()
        got = SchurWilson.embed(half32).to_canonical()
        assert np.array_equal(got, want.astype(np.complex64))
        back = to_double(half32)
        assert back.grid is half.grid
        assert back.data.dtype == np.complex128
        assert np.array_equal(back.data, half.data)

    @pytest.mark.parametrize("backend,dims", HALF_CASES)
    def test_twin_apply_matches_double_to_single_rounding(self, backend,
                                                          dims):
        schur, half = _schur_system(backend, dims)
        twin, to_single, to_double = single_precision_twin(schur)
        want = schur.apply(half)
        got = to_double(twin.apply(to_single(half)))
        diff = (got - want).norm2() ** 0.5 / want.norm2() ** 0.5
        assert diff < 1e-6

    @pytest.mark.parametrize("ft", [False, True])
    def test_schur_mixed_solve_converges(self, ft):
        schur, rhs = _schur_system("generic256", [4, 4, 4, 8])
        res = solve_fermion(schur, rhs, method="mixed", ft=ft, tol=1e-9)
        assert res.converged and res.residual <= 1e-9
        true = (rhs - schur.apply(res.x)).norm2() ** 0.5 \
            / rhs.norm2() ** 0.5
        assert true <= 1e-9
        pure = solve_fermion(schur, rhs, method="cg", tol=1e-10)
        diff = (res.x - pure.x).norm2() ** 0.5 / pure.x.norm2() ** 0.5
        assert diff < 1e-7

    def test_tight_tolerance_beyond_single_precision(self):
        """The inner tolerance is floored where complex64 stalls; the
        double outer loop still reaches a tolerance far below it."""
        schur, _ = _schur_system("generic256", [4, 4, 4, 8])
        b = random_spinor(schur.grid, seed=3)
        res = schur.solve(b, tol=1e-12)
        assert res.converged and res.residual < 1e-11
        assert len(res.residual_history) - 1 >= 2

    def test_twin_is_built_once_per_schur_operator(self):
        schur, _ = _schur_system("generic256", [2, 2, 2, 4])
        twin = single_precision_twin(schur)
        assert single_precision_twin(schur) is twin
        fresh = single_precision_twin(SchurWilson(schur.dirac))
        assert fresh[0] is not twin[0]
        assert fresh[0].dirac is not twin[0].dirac
        # The twins share the memoized single-precision geometry.
        assert fresh[0].grid is twin[0].grid \
            is single_precision_grid(schur.grid)
        res = schur.solve(random_spinor(schur.grid, seed=3), tol=1e-9)
        assert res.converged
        assert single_precision_twin(schur) is twin
        # The twin only hops between parities: it holds the two
        # parities' link slices and no full-order working links.
        dirac32 = twin[0].dirac
        assert dirac32._links_t is None and dirac32._links_adj_t is None
        assert sorted(dirac32._links_cb) == ["even", "odd"]

    def test_no_single_checkerboard_falls_back_to_double(self):
        """2^3x4 at 2048 bits: 16 complex128 lanes hold a half-volume
        checkerboard, 32 complex64 lanes do not."""
        schur, _ = _schur_system("generic2048", [2, 2, 2, 4])
        assert not has_single_twin(schur)
        b = random_spinor(schur.grid, seed=3)
        res = schur.solve(b, tol=1e-9)
        assert res.converged and res.residual < 1e-8
