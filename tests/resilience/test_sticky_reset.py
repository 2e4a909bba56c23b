"""Sticky backend degradation must not leak across campaign reruns,
and the scenario runner must restore the process fallback policy."""

import numpy as np
import pytest

from repro.engine import update_base_policy
from repro.simd import (
    BackendDegradedWarning,
    ResilientBackend,
    fallback_enabled,
    reset_all_degraded,
)
from repro.scenarios import faults
from repro.scenarios.runner import run_cases
from repro.scenarios.spec import Axis, ScenarioSpec
from repro.simd.generic import GenericBackend


class Crashy(GenericBackend):
    """Raises in ``mul`` on one scheduled call, healthy otherwise."""

    def __init__(self, width_bits=256, fail_on_call=1):
        super().__init__(width_bits)
        self.name = f"crashy{width_bits}"
        self.fail_on_call = fail_on_call
        self.calls = 0

    def mul(self, x, y):
        self.calls += 1
        if self.calls == self.fail_on_call:
            raise RuntimeError("boom")
        return super().mul(x, y)


def _degrade(rb):
    x = np.ones((2, rb.clanes()), dtype=complex)
    with pytest.warns(BackendDegradedWarning):
        rb.mul(x, x)
    assert rb.degraded


def _noop(case, campaign, armed):
    pass


def _flip_policy(case, campaign, armed):
    update_base_policy(fallback=not fallback_enabled())


@pytest.fixture
def run(monkeypatch):
    """Run one fault cell whose body is ``fn`` through ``run_cases``."""
    def go(fn):
        monkeypatch.setitem(faults.BODIES, "probe", fn)
        spec = ScenarioSpec(name="probe", axes=(
            Axis("fault", ("probe",)), Axis("vl", (256,)),
            Axis("family", ("generic",)), Axis("caches", (True,)),
            Axis("workers", (1,)), Axis("telemetry", ("off",)),
        ))
        case = spec.case(fault="probe", vl=256, family="generic",
                         caches=True, workers=1, telemetry="off")
        return run_cases(spec, [case])
    return go


class TestReset:
    def test_reset_clears_degradation(self):
        rb = ResilientBackend(Crashy(fail_on_call=1))
        _degrade(rb)
        assert rb.reset() is rb
        assert not rb.degraded
        assert rb.events == []
        # Routes to the (now healthy) primary again.
        x = np.ones((2, rb.clanes()), dtype=complex)
        np.testing.assert_array_equal(rb.mul(x, x), x * x)
        assert not rb.degraded

    def test_reset_all_degraded_counts_and_heals(self):
        healthy = ResilientBackend(GenericBackend(256))
        broken = ResilientBackend(Crashy(fail_on_call=1))
        _degrade(broken)
        assert reset_all_degraded() >= 1
        assert not broken.degraded and not healthy.degraded
        assert reset_all_degraded() == 0


class TestCampaignSuiteCleanSlate:
    def test_rerun_starts_from_healthy_backends(self, run):
        rb = ResilientBackend(Crashy(fail_on_call=1))
        _degrade(rb)
        matrix = run(_noop)
        assert not rb.degraded
        assert [c.status for c in matrix.cells.values()] == ["pass"]

    def test_fallback_policy_restored_after_suite(self, run):
        before = fallback_enabled()
        try:
            matrix = run(_flip_policy)
            assert fallback_enabled() == before
            assert [c.status for c in matrix.cells.values()] == ["pass"]
        finally:
            update_base_policy(fallback=before)
