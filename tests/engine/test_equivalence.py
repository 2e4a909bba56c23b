"""Bit-identity of every engine-dispatched path against the
engine-off reference, across vector lengths: fused/serial/tiled,
caches on/off, serial/tiled distributed sweeps,
and the unified solver entry against the legacy wrapper expressions.

This is the acceptance gate for the engine refactor: a plan may change
*how* a sweep runs, never *what* it computes.
"""

import numpy as np
import pytest

import repro.engine as engine
import repro.perf as perf
from repro.grid.cartesian import GridCartesian
from repro.grid.comms import DistributedLattice
from repro.grid.dist_wilson import DistributedWilson, distribute_gauge
from repro.grid.random import random_gauge, random_spinor
from repro.grid.solver import conjugate_gradient, solve_wilson_cgne
from repro.grid.wilson import SPINOR, WilsonDirac
from repro.resilience.guard import FaultGuard
from repro.simd import get_backend

DIMS = [4, 4, 4, 4]
VLS = ["generic128", "generic256", "generic512"]

#: Scoped policies that must all reproduce the reference bits on the
#: single-rank dhop: fused serial, fused tiled, cache-less, and fully
#: disabled (layered).
SINGLE_RANK_POLICIES = [
    {"enabled": True, "workers": 1},
    {"enabled": True, "workers": 4, "tile_min_sites": 16},
    {"enabled": True, "caches": False},
    {"enabled": False},
]


def _wilson(backend_name):
    grid = GridCartesian(DIMS, get_backend(backend_name))
    return (WilsonDirac(random_gauge(grid, seed=11), mass=0.1),
            random_spinor(grid, seed=7))


def _dist(backend_name, mpi):
    be = get_backend(backend_name)
    grid = GridCartesian(DIMS, be)
    links = random_gauge(grid, seed=11)
    psi = random_spinor(grid, seed=7)
    w = DistributedWilson(distribute_gauge(links, DIMS, be, mpi), mass=0.1)
    dpsi = DistributedLattice(DIMS, be, mpi, SPINOR).scatter(
        psi.to_canonical())
    return w, dpsi


class TestSingleRankDhop:
    @pytest.mark.parametrize("backend_name", VLS)
    def test_every_policy_matches_disabled_reference(self, backend_name):
        w, psi = _wilson(backend_name)
        with perf.disabled():
            ref = w.dhop(psi).data.copy()
        for overrides in SINGLE_RANK_POLICIES:
            with engine.scope(**overrides):
                got = w.dhop(psi).data
            assert np.array_equal(ref, got), overrides

class TestDistributedDhop:
    @pytest.mark.parametrize("backend_name", VLS)
    @pytest.mark.parametrize("mpi", [[2, 1, 1, 1], [2, 2, 1, 1]])
    def test_ordered_sweep_matches_disabled(self, backend_name, mpi):
        w, dpsi = _dist(backend_name, mpi)
        with perf.disabled():
            ref = w.dhop(dpsi).gather()
        with engine.scope(enabled=True):
            serial = w.dhop(dpsi).gather()
        with engine.scope(enabled=True, workers=4, tile_min_sites=16):
            tiled = w.dhop(dpsi).gather()
        assert np.array_equal(ref, serial)
        assert np.array_equal(ref, tiled)

class TestUnifiedSolver:
    def test_solve_fermion_reproduces_legacy_cgne(self):
        w, b = _wilson("generic256")
        via_engine = engine.solve_fermion(w, b, method="cg", tol=1e-6,
                                          max_iter=200)
        legacy = solve_wilson_cgne(w, b, tol=1e-6, max_iter=200)
        # And against the raw pre-refactor expressions themselves:
        inline = conjugate_gradient(w.mdag_m, w.apply_dagger(b), tol=1e-6,
                                    max_iter=200)
        assert np.array_equal(via_engine.x.data, legacy.x.data)
        assert np.array_equal(via_engine.x.data, inline.x.data)
        assert via_engine.residual == legacy.residual
        assert via_engine.iterations == legacy.iterations

    def test_ft_pristine_matches_plain(self):
        w, b = _wilson("generic256")
        plain = solve_wilson_cgne(w, b, tol=1e-6, max_iter=200)
        ft = conjugate_gradient(w.mdag_m, w.apply_dagger(b), tol=1e-6,
                                max_iter=200, guard=FaultGuard())
        via_engine = engine.solve_fermion(w, b, method="cg", ft=True,
                                          tol=1e-6, max_iter=200)
        assert np.array_equal(plain.x.data, ft.x.data)
        assert np.array_equal(plain.x.data, via_engine.x.data)

    def test_policy_argument_scopes_the_solve(self):
        w, b = _wilson("generic256")
        default = engine.solve_fermion(w, b, tol=1e-6, max_iter=200)
        off = engine.solve_fermion(
            w, b, tol=1e-6, max_iter=200,
            policy=engine.ExecutionPolicy(enabled=False))
        assert np.array_equal(default.x.data, off.x.data)

    def test_method_validation(self):
        w, b = _wilson("generic256")
        with pytest.raises(ValueError, match="unknown method"):
            engine.solve_fermion(w, b, method="gmres")

    def test_bicgstab_and_mr_dispatch(self):
        w, b = _wilson("generic256")
        for method in ("bicgstab", "mr"):
            res = engine.solve_fermion(w, b, method=method, tol=1e-5,
                                       max_iter=400)
            true = (b - w.apply(res.x)).norm2() ** 0.5 / b.norm2() ** 0.5
            assert true < 1e-4, method
        with pytest.raises(ValueError, match="fault-tolerant"):
            engine.solve_fermion(w, b, method="mr", ft=True)
