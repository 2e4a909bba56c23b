"""Sticky backend degradation must not leak across campaign reruns,
and the campaign suite must restore the process fallback policy."""

import numpy as np
import pytest

from repro.engine import update_base_policy
from repro.simd import (
    BackendDegradedWarning,
    ResilientBackend,
    fallback_enabled,
    reset_all_degraded,
)
from repro.simd.generic import GenericBackend
from repro.verification.suite import run_campaign_suite


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


class _FakeCampaign:
    def __init__(self, name):
        self.name = name
        self.fired = 0
        self.detected = 0
        self.recovered = 0


class _NoopCase:
    name = "noop"
    category = "kernel"

    @staticmethod
    def fn(vl_bits, campaign, resilient):
        pass


class _PolicyFlippingCase(_NoopCase):
    name = "policy-flip"

    @staticmethod
    def fn(vl_bits, campaign, resilient):
        update_base_policy(fallback=not fallback_enabled())


def _run(case):
    return run_campaign_suite([case], lambda name, vl: _FakeCampaign(name),
                              vls=(256,))


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
    def test_rerun_starts_from_healthy_backends(self):
        rb = ResilientBackend(Crashy(fail_on_call=1))
        _degrade(rb)
        report = _run(_NoopCase)
        assert not rb.degraded
        assert [c.outcome for c in report.cells] == ["pass"]

    def test_fallback_policy_restored_after_suite(self):
        before = fallback_enabled()
        try:
            report = _run(_PolicyFlippingCase)
            assert fallback_enabled() == before
            assert [c.outcome for c in report.cells] == ["pass"]
        finally:
            update_base_policy(fallback=before)
