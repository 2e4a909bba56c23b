"""Fault-tolerant solvers: pristine bit-identity with the plain
recursions, and recovery from injected NaNs, drift, and breakdowns."""

import numpy as np
import pytest

from repro.grid.cartesian import GridCartesian
from repro.grid.evenodd import SchurWilson
from repro.grid.mixedprec import mixed_precision_cgne
from repro.grid.random import random_gauge, random_spinor
from repro.grid.solver import bicgstab, conjugate_gradient
from repro.grid.wilson import WilsonDirac
from repro.resilience.ft_solver import (
    ft_bicgstab,
    ft_conjugate_gradient,
    ft_mixed_precision_cgne,
    ft_solve_wilson_cgne,
)
from repro.resilience.inject import FaultCampaign, flip_field_bit
from repro.simd import get_backend

TOL = 1e-8


@pytest.fixture(scope="module")
def dirac():
    be = get_backend("generic256")
    g = GridCartesian([4, 4, 4, 4], be)
    return WilsonDirac(random_gauge(g, seed=11), mass=0.3)


@pytest.fixture(scope="module")
def b(dirac):
    return random_spinor(dirac.grid, seed=5)


class TestPristineParity:
    """On a fault-free run the FT solvers must be *bit-identical* to
    the plain recursions — the true-residual checks read but never
    feed back."""

    def test_ft_cg_bit_identical(self, dirac, b):
        rhs = dirac.apply_dagger(b)
        plain = conjugate_gradient(dirac.mdag_m, rhs, tol=TOL)
        ft = ft_conjugate_gradient(dirac.mdag_m, rhs, tol=TOL)
        assert plain.converged and ft.converged
        assert ft.iterations == plain.iterations
        assert np.array_equal(ft.x.data, plain.x.data)
        assert ft.restarts == 0
        assert ft.detected_events == []
        assert ft.true_residual_checks >= 1

    def test_ft_bicgstab_bit_identical(self, dirac, b):
        op = dirac.mdag_m
        rhs = dirac.apply_dagger(b)
        plain = bicgstab(op, rhs, tol=TOL)
        ft = ft_bicgstab(op, rhs, tol=TOL)
        assert plain.converged and ft.converged
        assert ft.iterations == plain.iterations
        assert np.array_equal(ft.x.data, plain.x.data)
        assert ft.restarts == 0

    def test_ft_mixedprec_matches_plain(self, dirac, b):
        # The full matrix, and its Schur complement (BiCGSTAB inner
        # solves on the twin: ft_bicgstab against bicgstab).
        schur = SchurWilson(dirac)
        for op, rhs in ((dirac, b), (schur, schur.project(b, "odd"))):
            plain = mixed_precision_cgne(op, rhs, tol=1e-10)
            ft = ft_mixed_precision_cgne(op, rhs, tol=1e-10)
            assert plain.converged and ft.converged
            assert ft.iterations == plain.iterations
            assert np.array_equal(ft.x.data, plain.x.data)

    def test_zero_rhs(self, dirac, b):
        zero = b.new_like()
        res = ft_conjugate_gradient(dirac.mdag_m, zero, tol=TOL)
        assert res.converged and res.iterations == 0


def faulty_op(dirac, fault, at_call):
    """Wrap mdag_m so ``fault(out)`` hits the output of one call."""
    calls = {"n": 0}

    def op(v):
        out = dirac.mdag_m(v)
        calls["n"] += 1
        if calls["n"] == at_call:
            fault(out)
        return out
    return op


def nan_poison(out):
    out.data.reshape(-1)[3] = np.nan


class TestFaultRecovery:
    def test_cg_survives_nan_poisoning(self, dirac, b):
        rhs = dirac.apply_dagger(b)
        campaign = FaultCampaign(seed=1)
        res = ft_conjugate_gradient(
            faulty_op(dirac, nan_poison, at_call=10), rhs, tol=TOL,
            campaign=campaign)
        assert res.converged
        assert res.restarts >= 1
        assert campaign.detected >= 1 and campaign.recovered >= 1
        true_rel = (rhs - dirac.mdag_m(res.x)).norm2() ** 0.5 \
            / rhs.norm2() ** 0.5
        assert true_rel <= 100 * TOL

    def test_cg_detects_silent_drift(self, dirac, b):
        rhs = dirac.apply_dagger(b)
        campaign = FaultCampaign(seed=1)

        def flip(out):
            flip_field_bit(out, campaign, bit=60)

        res = ft_conjugate_gradient(
            faulty_op(dirac, flip, at_call=15), rhs, tol=TOL,
            recompute_interval=10, campaign=campaign)
        assert res.converged
        true_rel = (rhs - dirac.mdag_m(res.x)).norm2() ** 0.5 \
            / rhs.norm2() ** 0.5
        assert true_rel <= 100 * TOL

    def test_bicgstab_survives_nan_poisoning(self, dirac, b):
        rhs = dirac.apply_dagger(b)
        res = ft_bicgstab(faulty_op(dirac, nan_poison, at_call=6),
                          rhs, tol=TOL)
        assert res.converged
        assert res.restarts >= 1

    def test_unrecoverable_gives_diagnostic(self, dirac, b):
        """An op that is *always* poisoned exhausts the restart budget
        and returns a diagnostic result instead of NaN garbage."""
        rhs = dirac.apply_dagger(b)

        def op(v):
            out = dirac.mdag_m(v)
            out.data.reshape(-1)[0] = np.nan
            return out

        res = ft_conjugate_gradient(op, rhs, tol=TOL, max_restarts=2)
        assert not res.converged
        assert res.breakdown
        assert res.restarts >= 1
        assert np.all(np.isfinite(res.x.data))

    def test_ft_solve_wilson_cgne(self, dirac, b):
        res = ft_solve_wilson_cgne(dirac, b, tol=TOL)
        assert res.converged
        rel = (b - dirac.apply(res.x)).norm2() ** 0.5 / b.norm2() ** 0.5
        assert rel <= 100 * TOL
