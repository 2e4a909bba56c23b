"""Even-odd preconditioning tests."""

import numpy as np
import pytest

from repro.grid.cartesian import GridCartesian
from repro.grid.evenodd import SchurWilson
from repro.grid.random import random_gauge, random_spinor
from repro.grid.solver import solve_wilson_cgne
from repro.grid.stencil import red_black
from repro.grid.wilson import WilsonDirac
from repro.simd import get_backend


@pytest.fixture(scope="module")
def setup():
    grid = GridCartesian([4, 4, 4, 4], get_backend("avx512"))
    links = random_gauge(grid, seed=11)
    dirac = WilsonDirac(links, mass=0.2)
    b = random_spinor(grid, seed=5)
    return grid, dirac, SchurWilson(dirac), b


class TestParityStructure:
    def test_projections_partition(self, setup):
        _, _, schur, b = setup
        e = schur.embed(schur.project(b, "even"))
        o = schur.embed(schur.project(b, "odd"))
        assert np.allclose((e + o).data, b.data)
        assert np.isclose(e.inner_product(o), 0.0)

    def test_projection_idempotent(self, setup):
        _, _, schur, b = setup
        e = schur.project(b, "even")
        assert np.allclose(schur.project(schur.embed(e), "even").data,
                           e.data)
        assert schur.project(schur.embed(e), "odd").norm2() == 0.0

    def test_hopping_flips_parity(self, setup):
        """The checkerboard property: D_h maps odd-support fields to
        even-support fields and vice versa."""
        _, dirac, schur, b = setup
        o = schur.embed(schur.project(b, "odd"))
        hop = dirac.dhop(o) * (-0.5)
        assert schur.project(hop, "odd").norm2() < 1e-24
        e = schur.embed(schur.project(b, "even"))
        hop = dirac.dhop(e) * (-0.5)
        assert schur.project(hop, "even").norm2() < 1e-24

    def test_parity_interleaves_across_lanes(self, setup):
        """The half grids partition the flat sites ``osite * nlanes +
        lane``, also where the virtual-node layout puts both parities
        into one outer site's lanes (odd block extents)."""
        grids = [setup[0],
                 GridCartesian([2, 2, 2, 4], get_backend("generic512"))]
        for grid in grids:
            even = red_black(grid, "even").sites
            odd = red_black(grid, "odd").sites
            n = grid.osites * grid.nlanes
            assert even.size == odd.size == n // 2
            assert np.array_equal(np.sort(np.concatenate([even, odd])),
                                  np.arange(n))
        mixed = grids[1].parity_mask()
        assert (mixed.min(axis=1) != mixed.max(axis=1)).any()


class TestSchurOperator:
    def test_preserves_odd_support(self, setup):
        _, _, schur, b = setup
        o = schur.project(b, "odd")
        s = schur.embed(schur.schur(o))
        assert schur.project(s, "even").norm2() < 1e-24

    def test_gamma5_hermiticity(self, setup):
        _, _, schur, b = setup
        a = schur.project(b, "odd")
        grid = b.grid
        c = schur.project(random_spinor(grid, seed=9), "odd")
        lhs = c.inner_product(schur.schur(a))
        rhs = schur.schur_dagger(c).inner_product(a)
        assert np.isclose(lhs, rhs, rtol=1e-10)

    def test_norm_operator_positive(self, setup):
        _, _, schur, b = setup
        o = schur.project(b, "odd")
        assert o.inner_product(schur.schur_norm(o)).real > 0


class TestSchurSolve:
    def test_matches_unpreconditioned_solution(self, setup):
        _, dirac, schur, b = setup
        full = solve_wilson_cgne(dirac, b, tol=1e-9, max_iter=800)
        eo = schur.solve(b, tol=1e-9, max_iter=800)
        assert full.converged and eo.converged
        diff = (full.x - eo.x).norm2() ** 0.5 / full.x.norm2() ** 0.5
        assert diff < 1e-6

    def test_true_residual_reported(self, setup):
        _, dirac, schur, b = setup
        res = schur.solve(b, tol=1e-8, max_iter=800)
        check = (b - dirac.apply(res.x)).norm2() ** 0.5 / b.norm2() ** 0.5
        assert np.isclose(res.residual, check)
        assert check < 1e-6

    def test_fewer_iterations_than_full_cgne(self, setup):
        """The point of preconditioning: the Schur system is better
        conditioned (and half the volume)."""
        _, dirac, schur, b = setup
        full = solve_wilson_cgne(dirac, b, tol=1e-8, max_iter=800)
        eo = schur.solve(b, tol=1e-8, max_iter=800)
        assert eo.iterations < full.iterations

    def test_layout_independent(self):
        sols = []
        for key in ("sse4", "avx512"):
            grid = GridCartesian([4, 4, 4, 4], get_backend(key))
            dirac = WilsonDirac(random_gauge(grid, seed=11), mass=0.2)
            b = random_spinor(grid, seed=5)
            res = SchurWilson(dirac).solve(b, tol=1e-9, max_iter=800)
            sols.append(res.x.to_canonical())
        assert np.allclose(sols[0], sols[1], atol=1e-7)
