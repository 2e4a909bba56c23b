"""The supervised solve runtime: pass-through identity, crash/resume,
watchdogs, ladder, backoff, breakers."""

import numpy as np
import pytest

from repro.engine.policy import current_policy
from repro.engine.solve import solve_fermion
from repro.grid.cartesian import GridCartesian
from repro.grid.random import random_gauge, random_spinor
from repro.grid.wilson import WilsonDirac
from repro.resilience.breaker import breaker, reset_breakers
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.inject import FaultCampaign, KillAtIteration
from repro.resilience.supervisor import (
    DEGRADATION_LADDER,
    AttemptTimeout,
    backoff_schedule,
    classify_attempt,
    supervised_solve,
)
from repro.simd import get_backend


@pytest.fixture(autouse=True)
def _clean_breakers():
    reset_breakers()
    yield
    reset_breakers()


def _problem(seed=7, tol=1e-8):
    be = get_backend("generic256")
    grid = GridCartesian([4, 4, 4, 4], be)
    w = WilsonDirac(random_gauge(grid, seed=seed), mass=0.1)
    b = random_spinor(grid, seed=seed + 1)
    return w, b, tol


class _FakeResult:
    def __init__(self, converged=False, residual=1.0, history=None,
                 iterations=0):
        self.converged = converged
        self.residual = residual
        self.residual_history = history or []
        self.iterations = iterations


class TestClassify:
    def test_converged(self):
        assert classify_attempt(_FakeResult(converged=True)) == "converged"

    def test_divergence_on_nan(self):
        assert classify_attempt(
            _FakeResult(residual=float("nan"))) == "divergence"

    def test_stall_on_plateau(self):
        history = [1.0] + [0.5] * 12
        assert classify_attempt(
            _FakeResult(residual=0.5, history=history)) == "stall"

    def test_budget_while_progressing(self):
        history = [2.0 ** -k for k in range(12)]
        assert classify_attempt(
            _FakeResult(residual=history[-1],
                        history=history)) == "iteration-budget"


class TestBackoff:
    def test_disabled_by_default(self):
        rng = np.random.default_rng(0)
        assert backoff_schedule(rng, 1, 0.0, 2.0, 0.25) == 0.0

    def test_exponential_and_seeded(self):
        a = [backoff_schedule(np.random.default_rng(3), k, 0.1, 2.0, 0.25)
             for k in (1, 2, 3)]
        b = [backoff_schedule(np.random.default_rng(3), k, 0.1, 2.0, 0.25)
             for k in (1, 2, 3)]
        assert a == b  # same seed, same schedule
        assert a[1] > a[0] and a[2] > a[1]
        for k, delay in enumerate(a, start=1):
            base = 0.1 * 2.0 ** (k - 1)
            assert base <= delay <= base * 1.25

    def test_jitter_rng_seeds_from_campaign(self):
        w, b, tol = _problem()
        slept = []
        campaign = FaultCampaign(seed=42)
        supervised_solve(w, b, tol=tol, max_iter=2, max_attempts=3,
                         campaign=campaign, backoff_base=0.01,
                         sleep=slept.append)
        slept2 = []
        supervised_solve(w, b, tol=tol, max_iter=2, max_attempts=3,
                         seed=42, backoff_base=0.01,
                         sleep=slept2.append)
        assert slept == slept2
        assert len(slept) == 2  # no sleep after the final attempt


class TestPassThrough:
    def test_bit_identical_to_solve_fermion(self):
        w, b, tol = _problem()
        ref = solve_fermion(w, b, method="cg", ft=True, tol=tol)
        sup = supervised_solve(w, b, method="cg", ft=True, tol=tol)
        assert sup.converged
        assert len(sup.attempts) == 1
        assert sup.attempts[0].rung == "as-configured"
        assert np.array_equal(sup.result.x.data, ref.x.data)
        assert sup.result.iterations == ref.iterations
        assert sup.result.residual == ref.residual

    def test_bit_identical_with_checkpointing(self, tmp_path):
        w, b, tol = _problem()
        ref = solve_fermion(w, b, method="cg", ft=True, tol=tol,
                            recompute_interval=5)
        store = CheckpointStore(tmp_path)
        sup = supervised_solve(w, b, tol=tol, store=store,
                               recompute_interval=5)
        assert sup.converged
        assert sup.checkpoints_saved >= 1
        assert sup.resumes == 0
        assert np.array_equal(sup.result.x.data, ref.x.data)
        # The durable trail exists and names this exact solve.
        assert store.list(sup.key)


class TestCrashResume:
    def test_kill_resumes_from_checkpoint(self, tmp_path):
        w, b, tol = _problem()
        cold = solve_fermion(w, b, method="cg", ft=True, tol=tol,
                             recompute_interval=3)
        assert cold.converged and cold.iterations >= 8

        campaign = FaultCampaign(seed=0)
        kill_at = max(6, int(cold.iterations * 0.6))
        kill = KillAtIteration(campaign, iteration=kill_at)
        store = CheckpointStore(tmp_path, campaign=campaign)
        sup = supervised_solve(
            w, b, tol=tol, store=store, campaign=campaign,
            recompute_interval=3, on_checkpoint=lambda it, x, r:
            kill.check(it))
        assert sup.converged
        assert kill.exhausted
        assert sup.attempts[0].outcome == "crash"
        assert sup.attempts[1].outcome == "converged"
        # Resumed from durable state, not iteration zero...
        assert sup.resumes == 1
        assert sup.attempts[1].resumed_from is not None
        assert sup.attempts[1].resumed_from >= 3
        # ...so the retry is cheaper than a cold restart.
        assert sup.attempts[1].iterations < cold.iterations
        assert sup.total_iterations < sup.attempts[0].iterations \
            + cold.iterations
        # Crash stays on the same rung: it says nothing about config.
        assert sup.rungs_used == ["as-configured", "as-configured"]
        # Same answer as the undisturbed solve.
        assert np.allclose(sup.result.x.data, cold.x.data)
        # Ledger: kill fired, supervisor detected, resume recovered.
        assert campaign.fired == 1
        assert campaign.detected >= 1
        assert campaign.recovered >= 1

    def test_repeated_kills_exhaust_then_recover(self, tmp_path):
        w, b, tol = _problem()
        cold = solve_fermion(w, b, method="cg", ft=True, tol=tol,
                             recompute_interval=3)
        campaign = FaultCampaign(seed=1)
        kill = KillAtIteration(campaign, iteration=6, times=2)
        store = CheckpointStore(tmp_path, campaign=campaign)
        sup = supervised_solve(
            w, b, tol=tol, store=store, campaign=campaign,
            recompute_interval=3,
            on_checkpoint=lambda it, x, r: kill.check(it))
        assert sup.converged
        assert [a.outcome for a in sup.attempts] == \
            ["crash", "crash", "converged"]
        assert np.allclose(sup.result.x.data, cold.x.data)

    def test_pass_through_then_kill_at_60_percent(self, tmp_path):
        """Gauge seed 11, source seed 5, m = 0.1: the envelope passes a
        fault-free solve through bit for bit in one attempt, and a
        kill at 60 % of the cold count resumes from a checkpoint and
        needs fewer iterations than the cold solve."""
        be = get_backend("generic256")
        grid = GridCartesian([4, 4, 4, 4], be)
        w = WilsonDirac(random_gauge(grid, seed=11), mass=0.1)
        b = random_spinor(grid, seed=5)
        kw = {"method": "cg", "ft": True, "tol": 1e-8, "max_iter": 200}
        ref = solve_fermion(w, b, **kw)
        sup = supervised_solve(w, b, **kw)
        assert np.array_equal(ref.x.data, sup.result.x.data)
        assert len(sup.attempts) == 1

        campaign = FaultCampaign(seed=0)
        kill = KillAtIteration(campaign, max(2, int(ref.iterations * 0.6)))
        resumed = supervised_solve(
            w, b, store=CheckpointStore(tmp_path), recompute_interval=3,
            campaign=campaign,
            on_checkpoint=lambda it, x, r: kill.check(it), **kw)
        assert resumed.converged
        assert resumed.attempts[-1].resumed_from is not None
        assert resumed.attempts[-1].iterations < ref.iterations


class _PolicyProbe:
    """Operator proxy recording the resolved policy at each apply."""

    def __init__(self, base):
        self.base = base
        self.seen = []

    def apply(self, v):
        return self.base.apply(v)

    def apply_dagger(self, v):
        return self.base.apply_dagger(v)

    def mdag_m(self, v):
        p = current_policy()
        self.seen.append(p.enabled)
        return self.base.mdag_m(v)


class TestLadder:
    def test_escalates_on_iteration_budget(self):
        w, b, tol = _problem()
        probe = _PolicyProbe(w)
        sup = supervised_solve(probe, b, tol=1e-14, max_iter=2,
                               max_attempts=3)
        assert not sup.converged
        assert [r.name for r in DEGRADATION_LADDER] == [
            "as-configured", "reference"]
        # The last rung is sticky: a third attempt stays on it.
        assert sup.rungs_used == ["as-configured", "reference",
                                  "reference"]
        assert set(probe.seen) == {True, False}

    def test_reference_rung_disables_engine(self):
        w, b, _ = _problem()
        probe = _PolicyProbe(w)
        sup = supervised_solve(probe, b, tol=1e-14, max_iter=2,
                               max_attempts=5)
        assert sup.rungs_used[-1] == "reference"
        assert probe.seen[-1] is False

    def test_ladder_rungs_bit_identical(self):
        w, b, tol = _problem()
        ref = solve_fermion(w, b, method="cg", ft=True, tol=tol)
        for rung in DEGRADATION_LADDER:
            sup = supervised_solve(w, b, tol=tol,
                                   ladder=(rung,), max_attempts=1)
            assert sup.converged, rung.name
            assert np.array_equal(sup.result.x.data, ref.x.data), \
                rung.name

    def test_mixed_method_degrades_to_double(self):
        w, b, _ = _problem()
        sup = supervised_solve(
            w, b, method="mixed", tol=1e-8, max_attempts=2,
            ladder=(DEGRADATION_LADDER[0], DEGRADATION_LADDER[-1]),
            max_outer=1, max_inner=2)
        # Attempt 1 (mixed, starved of inner iterations) fails;
        # attempt 2 runs plain double-precision CG on the reference
        # rung and converges.
        assert [a.rung for a in sup.attempts] == \
            ["as-configured", "reference"]
        assert sup.converged


class TestWatchdogs:
    def test_deadline_timeout_classified(self, tmp_path):
        w, b, tol = _problem()
        store = CheckpointStore(tmp_path)
        sup = supervised_solve(w, b, tol=tol, store=store,
                               recompute_interval=2, deadline=0.0,
                               max_attempts=2)
        assert sup.attempts[0].outcome == "timeout"
        # Graceful abandon: progress reached disk before the abort.
        assert sup.checkpoints_saved >= 1

    def test_iteration_budget_caps_attempts(self):
        w, b, tol = _problem()
        sup = supervised_solve(w, b, tol=tol, max_iter=1000,
                               iteration_budget=2, max_attempts=2)
        assert all(a.iterations <= 2 for a in sup.attempts)

    def test_timeout_raise_is_catchable(self):
        with pytest.raises(AttemptTimeout):
            raise AttemptTimeout("x")


class TestBreakers:
    def test_failures_feed_operator_breaker(self):
        w, b, _ = _problem()
        sup = supervised_solve(w, b, tol=1e-14, max_iter=2,
                               max_attempts=3)
        assert not sup.converged
        assert breaker("solve.WilsonDirac").state == "open"

    def test_open_breaker_starts_degraded(self):
        w, b, tol = _problem()
        br = breaker("solve.WilsonDirac", failure_threshold=1)
        br.record_failure("earlier solve kept failing")
        sup = supervised_solve(w, b, tol=tol)
        assert sup.converged
        assert sup.rungs_used == ["reference"]
        # Success during probation closes the breaker again.
        sup2 = supervised_solve(w, b, tol=tol)
        assert sup2.converged
        assert br.state == "closed"
