"""The inner Krylov method of the mixed-precision Schur solve: BiCGSTAB
on the complex64 twin where one probe solve finds it pays, CGNE on the
twin's normal equations where it does not."""

import numpy as np
import pytest

import repro.engine as engine
import repro.telemetry as telemetry
from repro.engine.solve import solve_fermion
from repro.grid.cartesian import GridCartesian
from repro.grid.evenodd import SchurWilson
from repro.grid.mixedprec import (
    INNER_TOL_FLOOR,
    defect_correction,
    inner_method,
    single_precision_twin,
)
from repro.grid.montecarlo import Metropolis
from repro.grid.propagator import point_source, propagator
from repro.grid.random import random_gauge
from repro.grid.solver import SolverResult, conjugate_gradient
from repro.grid.su3 import unit_gauge
from repro.grid.wilson import WilsonDirac
from repro.simd import get_backend

TOL = 1e-8
INNER_TOL = max(TOL ** 0.5, INNER_TOL_FLOOR)


def _schur_rhs(schur, b):
    """The Schur system's right-hand side for the full source ``b``."""
    b_e, b_o = schur.project(b, "even"), schur.project(b, "odd")
    return b_o + schur.dirac.dhop_cb(b_e) * (0.5 / schur.diag)


def _fresh(dirac):
    """A Wilson operator over ``dirac``'s links with nothing memoised:
    no twin, no probe."""
    return WilsonDirac(dirac.links, mass=dirac.mass)


def _choice(schur):
    """The inner method memoised for ``schur`` at :data:`INNER_TOL`."""
    return schur.dirac._inner[("schur", INNER_TOL)]


def _columns(schur):
    return [_schur_rhs(schur, point_source(schur.grid, (0, 0, 0, 0), s, c))
            for s in range(4) for c in range(3)]


def _cgne_only(schur, rhs, tol=TOL, inner_tol=INNER_TOL, max_inner=500):
    """The oracle: defect correction with one complex64 CGNE solve per
    outer step, written out."""
    op32, to_single, to_double = single_precision_twin(schur)
    bnorm = rhs.norm2() ** 0.5
    x, r, iterations = rhs.new_like(), rhs.copy(), 0
    for _ in range(20):
        inner = conjugate_gradient(
            op32.mdag_m, op32.apply_dagger(to_single(r)), tol=inner_tol,
            max_iter=max_inner)
        iterations += inner.iterations
        x = x + to_double(inner.x)
        r = rhs - schur.apply(x)
        if r.norm2() ** 0.5 / bnorm <= tol:
            return x, iterations
    raise AssertionError("CGNE-only defect correction did not converge")


@pytest.fixture(scope="module")
def hot():
    """Hot random links on 4^4 (the regime where BiCGSTAB pays)."""
    grid = GridCartesian([4, 4, 4, 4], get_backend("generic256"))
    return WilsonDirac(random_gauge(grid, seed=11), mass=0.3)


@pytest.fixture(scope="module")
def thermalised():
    """examples/quenched_pipeline.py's configuration: 4^4, beta = 6,
    four Metropolis sweeps from a cold start."""
    grid = GridCartesian([4, 4, 4, 4], get_backend("avx512"))
    links = unit_gauge(grid)
    Metropolis(beta=6.0, spread=0.2, hits=4,
               rng=np.random.default_rng(2024)).thermalize(links, grid,
                                                           sweeps=4)
    return links


def _traced_propagator(dirac):
    telemetry.reset()
    try:
        with engine.scope(telemetry="trace"):
            _, results = propagator(dirac, (0, 0, 0, 0), tol=TOL)
        return results, telemetry.spans()
    finally:
        telemetry.reset()


class TestChoice:
    def test_hot_links_choose_bicgstab(self, hot):
        schur = SchurWilson(_fresh(hot))
        op32 = single_precision_twin(schur)[0]
        method, cap = inner_method(schur, op32, INNER_TOL)
        assert method == "bicgstab" and cap > 0
        # Memoised on the Wilson operator, per kind and inner tolerance.
        assert schur.dirac._inner == {("schur", INNER_TOL): (method, cap)}
        assert inner_method(schur, op32, INNER_TOL) == (method, cap)
        assert inner_method(SchurWilson(schur.dirac), op32, INNER_TOL) \
            == (method, cap)

    def test_choice_depends_on_the_operator_only(self, hot):
        a, b = SchurWilson(_fresh(hot)), SchurWilson(_fresh(hot))
        solve_fermion(a, _columns(a)[5], method="mixed", tol=TOL,
                      inner_tol=INNER_TOL)
        assert inner_method(b, single_precision_twin(b)[0], INNER_TOL) \
            == _choice(a)

    def test_past_critical_mass_thermalised_chooses_cgne(self,
                                                         thermalised):
        """BiCGSTAB loses badly here; the probe keeps CGNE, and the
        solve is then CGNE-only defect correction, byte for byte."""
        schur = SchurWilson(WilsonDirac(thermalised, mass=-0.8))
        rhs = _columns(schur)[0]
        res = solve_fermion(schur, rhs, method="mixed", tol=TOL,
                            inner_tol=INNER_TOL)
        assert _choice(schur)[0] == "cg"
        x, iterations = _cgne_only(SchurWilson(schur.dirac), rhs)
        assert res.converged
        assert res.iterations == iterations
        assert res.x.data.tobytes() == x.data.tobytes()


    def test_without_a_direct_solver_the_loop_is_cgne_only(self, hot):
        schur = SchurWilson(_fresh(hot))
        rhs = _columns(schur)[3]
        res = defect_correction(schur, rhs, TOL, INNER_TOL, max_outer=20,
                                max_inner=500,
                                inner_solve=(None, conjugate_gradient))
        assert schur.dirac._inner == {}  # no probe ran
        x, iterations = _cgne_only(SchurWilson(hot), rhs)
        assert res.converged and res.iterations == iterations
        assert res.x.data.tobytes() == x.data.tobytes()


class TestIterations:
    def test_propagator_needs_at_most_0_6_of_cgne(self, hot):
        """Hot 4^4 at m = 0.3: the propagator's inner total, probe
        included, against CGNE-only defect correction."""
        results, spans = _traced_propagator(_fresh(hot))
        probe = [s for s in spans if s.name == "twin.probe"]
        assert len(probe) == 1 and probe[0].attrs["method"] == "bicgstab"
        total = sum(r.iterations for r in results) \
            + probe[0].attrs["iterations"]
        schur = SchurWilson(hot)
        cgne = sum(_cgne_only(schur, rhs)[1] for rhs in _columns(schur))
        assert total <= 0.6 * cgne

    def test_probe_is_its_own_span(self, hot):
        """One probe per operator, outside every column's solve, with
        its iterations and choice recorded."""
        results, spans = _traced_propagator(_fresh(hot))
        probe = [s for s in spans if s.name == "twin.probe"]
        assert len(probe) == 1
        attrs = probe[0].attrs
        assert attrs["method"] == "bicgstab"
        assert attrs["iterations"] == \
            attrs["cg_iterations"] + attrs["bicgstab_iterations"]
        assert attrs["bicgstab_iterations"] < attrs["cg_iterations"]
        solves = [s for s in spans if s.name in ("solve", "solve_fermion")
                  and s.attrs.get("solver") == "mixed"]
        assert len(solves) == 2 * len(results)
        assert probe[0].parent_id not in {s.span_id for s in solves}
        # The probe's own two solves are its children.
        inner = [s.attrs["solver"] for s in spans
                 if s.name == "solve" and s.parent_id == probe[0].span_id]
        assert inner == ["cg", "bicgstab"]


class TestMissFallsBackToCgne:
    """A BiCGSTAB inner solve that misses re-solves the same defect by
    CGNE, on what is left of the step's budget."""

    @staticmethod
    def _solvers(calls, spent=3):
        """A BiCGSTAB stub that breaks down after ``spent`` iterations
        with a poisoned iterate, and CG; both log ``(kind, max_iter,
        iterations)``."""
        def breakdown(op, rhs, tol, max_iter):
            poison = rhs.new_like()
            poison.data[...] = np.nan
            its = min(spent, max_iter)
            calls.append(("bicgstab", max_iter, its))
            return SolverResult(x=poison, converged=False, iterations=its,
                                residual=1.0,
                                breakdown="bicgstab: rho breakdown (0j)")

        def cg(op, rhs, tol, max_iter):
            res = conjugate_gradient(op, rhs, tol=tol, max_iter=max_iter)
            calls.append(("cg", max_iter, res.iterations))
            return res

        return breakdown, cg

    def test_breakdown_resolves_by_cgne(self, hot):
        schur = SchurWilson(hot)
        rhs = _columns(schur)[0]
        calls = []
        res = defect_correction(schur, rhs, TOL, INNER_TOL, max_outer=20,
                                max_inner=500, max_iter=1000,
                                inner_solve=self._solvers(calls))
        assert res.converged and res.residual <= TOL
        cap = _choice(schur)[1]
        steps = res.outer_iterations
        assert [c[:2] for c in calls[0::2]] == [("bicgstab", cap)] * steps
        assert [c[0] for c in calls[1::2]] == ["cg"] * steps
        assert calls[1][1] == 500 - 3
        assert res.iterations == sum(c[2] for c in calls) <= 1000
        # The re-solves are the CGNE-only solve: the poisoned iterates
        # were discarded.
        x, iterations = _cgne_only(SchurWilson(hot), rhs)
        assert res.iterations == iterations + 3 * steps
        assert res.x.data.tobytes() == x.data.tobytes()

    @pytest.mark.parametrize("max_iter", [4, 10, 16])
    def test_budget_still_bounds_the_inner_total(self, hot, max_iter):
        schur = SchurWilson(hot)
        calls = []
        res = defect_correction(schur, _columns(schur)[0], TOL, INNER_TOL,
                                max_outer=20, max_inner=500,
                                max_iter=max_iter,
                                inner_solve=self._solvers(calls))
        assert not res.converged
        assert res.iterations == sum(c[2] for c in calls) <= max_iter
        # Each CGNE re-solve was handed exactly what the stub left of
        # the remaining budget.
        before = 0
        for (_, _, spent), (kind, left, its) in zip(calls[0::2],
                                                     calls[1::2]):
            assert kind == "cg" and spent + left == max_iter - before
            before += spent + its
