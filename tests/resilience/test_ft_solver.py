"""Guarded Krylov solves: pristine bit-identity with the unguarded
recursions, and recovery from injected NaNs, drift, and breakdowns."""

import numpy as np
import pytest

from repro.engine.solve import solve_fermion
from repro.grid.cartesian import GridCartesian
from repro.grid.evenodd import SchurWilson
from repro.grid.mixedprec import mixed_precision_cgne
from repro.grid.random import random_gauge, random_spinor
from repro.grid.solver import bicgstab, conjugate_gradient
from repro.grid.wilson import WilsonDirac
from repro.resilience.guard import FaultGuard
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
        ft = conjugate_gradient(dirac.mdag_m, rhs, tol=TOL,
                                guard=FaultGuard())
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
        ft = bicgstab(op, rhs, tol=TOL, guard=FaultGuard())
        assert plain.converged and ft.converged
        assert ft.iterations == plain.iterations
        assert np.array_equal(ft.x.data, plain.x.data)
        assert ft.restarts == 0

    def test_ft_mixedprec_matches_plain(self, dirac, b):
        # The full matrix, and its Schur complement (BiCGSTAB inner
        # solves on the twin, guarded against unguarded).
        schur = SchurWilson(dirac)
        for op, rhs in ((dirac, b), (schur, schur.project(b, "odd"))):
            plain = mixed_precision_cgne(op, rhs, tol=1e-10)
            ft = mixed_precision_cgne(op, rhs, tol=1e-10,
                                      guard=FaultGuard())
            assert plain.converged and ft.converged
            assert ft.iterations == plain.iterations
            assert np.array_equal(ft.x.data, plain.x.data)

    def test_mixed_inner_solves_skip_good_hook(self, dirac, b):
        """Inner iterates are corrections on the twin, not solutions: a
        guarded mixed solve hands none of them to ``good_hook``."""
        seen = []
        res = mixed_precision_cgne(dirac, b, tol=1e-10, guard=FaultGuard(
            good_hook=lambda *args: seen.append(args)))
        assert res.converged
        assert seen == []

    def test_zero_rhs(self, dirac, b):
        zero = b.new_like()
        res = conjugate_gradient(dirac.mdag_m, zero, tol=TOL,
                                 guard=FaultGuard())
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
        res = conjugate_gradient(
            faulty_op(dirac, nan_poison, at_call=10), rhs, tol=TOL,
            guard=FaultGuard(campaign=campaign))
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

        res = conjugate_gradient(
            faulty_op(dirac, flip, at_call=15), rhs, tol=TOL,
            guard=FaultGuard(recompute_interval=10, campaign=campaign))
        assert res.converged
        true_rel = (rhs - dirac.mdag_m(res.x)).norm2() ** 0.5 \
            / rhs.norm2() ** 0.5
        assert true_rel <= 100 * TOL

    def test_bicgstab_survives_nan_poisoning(self, dirac, b):
        rhs = dirac.apply_dagger(b)
        res = bicgstab(faulty_op(dirac, nan_poison, at_call=6),
                       rhs, tol=TOL, guard=FaultGuard())
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

        res = conjugate_gradient(op, rhs, tol=TOL,
                                 guard=FaultGuard(max_restarts=2))
        assert not res.converged
        assert res.breakdown
        assert res.restarts >= 1
        assert np.all(np.isfinite(res.x.data))

    def test_ft_solve_wilson_cgne(self, dirac, b):
        res = solve_fermion(dirac, b, method="cg", ft=True, tol=TOL)
        assert res.converged
        rel = (b - dirac.apply(res.x)).norm2() ** 0.5 / b.norm2() ** 0.5
        assert rel <= 100 * TOL


def flip_bit60(campaign):
    def fault(out):
        flip_field_bit(out, campaign, bit=60)
    return fault


def zero_out(out):
    out.data[...] = 0


#: The fault ledger of each FT recursion under each fault, on
#: ``mdag_m`` with ``tol=1e-8``: ``(solver, case, fault, at_call,
#: settings, converged, iterations, restarts, true_residual_checks,
#: breakdown, detected_events)``.  ``flip_bit60`` is built per run on
#: the run's campaign.
LEDGER = [
    ("cg", "nan", nan_poison, 10, {}, True, 44, 1, 2, "",
     ["cg: denominator hazard at iter 10 (nan)"]),
    ("cg", "drift", flip_bit60, 15, {"recompute_interval": 10}, True, 44,
     1, 6, "", ["cg: silent drift at iter 34 (true 2.228e-06 vs "
                "recursive 6.514e-09)"]),
    ("cg", "zero-denominator", zero_out, 5, {}, True, 39, 1, 2, "",
     ["cg: denominator hazard at iter 5 (0.0)"]),
    ("cg", "unrecoverable", nan_poison, 10, {"max_restarts": 0}, False,
     10, 1, 0, "cg: unrecoverable denominator (nan)",
     ["cg: denominator hazard at iter 10 (nan)"]),
    ("cg", "unrecoverable-drift", flip_bit60, 15,
     {"recompute_interval": 10, "max_restarts": 0}, False, 34, 1, 4,
     "cg: unrecoverable silent drift",
     ["cg: silent drift at iter 34 (true 2.228e-06 vs "
      "recursive 6.514e-09)"]),
    ("bicgstab", "nan", nan_poison, 6, {}, True, 28, 1, 2, "",
     ["bicgstab: (t,t) breakdown at iter 3"]),
    ("bicgstab", "drift", flip_bit60, 15, {"recompute_interval": 10},
     True, 33, 1, 4, "", ["bicgstab: silent drift at iter 20"]),
    ("bicgstab", "early-exit-drift", flip_bit60, 9,
     {"recompute_interval": 10}, True, 34, 1, 4, "",
     ["bicgstab: drift at early exit iter 20"]),
    ("bicgstab", "zero-denominator", zero_out, 5, {}, True, 28, 1, 2, "",
     ["bicgstab: (r0,v) breakdown at iter 3"]),
    ("bicgstab", "unrecoverable", nan_poison, 6, {"max_restarts": 0},
     False, 3, 1, 0, "bicgstab: unrecoverable (t,t) breakdown",
     ["bicgstab: (t,t) breakdown at iter 3"]),
    ("bicgstab", "unrecoverable-drift", flip_bit60, 15,
     {"recompute_interval": 10, "max_restarts": 0}, False, 20, 1, 2,
     "bicgstab: unrecoverable silent drift",
     ["bicgstab: silent drift at iter 20"]),
    ("bicgstab", "unrecoverable-early-exit-drift", flip_bit60, 9,
     {"recompute_interval": 10, "max_restarts": 0}, False, 20, 1, 2,
     "bicgstab: unrecoverable drift",
     ["bicgstab: drift at early exit iter 20"]),
]

SOLVERS = {"cg": conjugate_gradient, "bicgstab": bicgstab}


@pytest.mark.parametrize(
    "solver,fault,at_call,settings,converged,iterations,restarts,checks,"
    "breakdown,events",
    [pytest.param(row[0], *row[2:], id=f"{row[0]}-{row[1]}")
     for row in LEDGER])
def test_fault_ledger(dirac, b, solver, fault, at_call, settings,
                      converged, iterations, restarts, checks, breakdown,
                      events):
    """Each fault's outcome, pinned field by field: what the recursion
    reports, how often it restarted and checked the true residual, and
    what the campaign ledger saw."""
    rhs = dirac.apply_dagger(b)
    campaign = FaultCampaign(seed=1)
    if fault is flip_bit60:
        fault = flip_bit60(campaign)
    res = SOLVERS[solver](faulty_op(dirac, fault, at_call), rhs, tol=TOL,
                          guard=FaultGuard(campaign=campaign, **settings))
    assert (res.converged, res.iterations, res.restarts,
            res.true_residual_checks, res.breakdown,
            res.detected_events) == (converged, iterations, restarts,
                                     checks, breakdown, events)
    assert campaign.detected == len(events)
    assert campaign.recovered == (restarts if converged else 0)
    assert np.all(np.isfinite(res.x.data))
    if converged:
        # A guarded run reports the true residual of its answer.
        true_rel = (rhs - dirac.mdag_m(res.x)).norm2() ** 0.5 \
            / rhs.norm2() ** 0.5
        assert res.residual == true_rel
    elif solver == "cg" and "drift" in breakdown:
        # CG's drift bail reports the drifted iterate's true residual.
        assert res.residual > res.residual_history[-1]
    else:
        assert res.residual == res.residual_history[-1]
