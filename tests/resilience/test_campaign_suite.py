"""Campaign verification: cell classification and the acceptance
property of the default campaign — with resilience every fault is
detected or recovered; without it the same faults corrupt silently."""

import pytest

from repro.resilience.campaign import (
    CAMPAIGN_CASES,
    CampaignCase,
    default_campaign_factory,
    run_default_campaign,
)
from repro.resilience.inject import FaultCampaign
from repro.verification.suite import (
    CAMPAIGN_OUTCOMES,
    SilentCorruption,
    _classify,
    run_campaign_suite,
)


class TestClassification:
    def campaign(self, fired=0, detected=0, recovered=0):
        c = FaultCampaign(seed=0)
        for _ in range(fired):
            c.record_fired("x", "y")
        for _ in range(detected):
            c.record_detected("d")
        for _ in range(recovered):
            c.record_recovered("r")
        return c

    def test_clean_run_passes(self):
        assert _classify(self.campaign(), None) == "pass"

    def test_masked_fault_passes(self):
        assert _classify(self.campaign(fired=1), None) == "pass"

    def test_recovered(self):
        c = self.campaign(fired=1, detected=1, recovered=1)
        assert _classify(c, None) == "recovered"

    def test_silent_corruption_fails(self):
        c = self.campaign(fired=1)
        assert _classify(c, SilentCorruption("wrong")) == "fail"

    def test_detected_corruption_is_not_silent(self):
        c = self.campaign(fired=1, detected=1)
        assert _classify(c, SilentCorruption("wrong")) == "detected"

    def test_loud_crash_is_detected(self):
        c = self.campaign(fired=1)
        assert _classify(c, RuntimeError("crash")) == "detected"


class TestRunCampaignSuite:
    def test_matrix_shape_and_bookkeeping(self):
        log = []

        def fn(vl_bits, campaign, resilient):
            log.append((vl_bits, campaign.seed, resilient))
            campaign.record_fired("x", "y")

        cases = [CampaignCase(name="c1", category="t", fn=fn)]
        rep = run_campaign_suite(cases, default_campaign_factory(0),
                                 vls=(256, 512), resilient=True)
        assert len(rep.cells) == 2
        assert {c.vl_bits for c in rep.cells} == {256, 512}
        assert all(c.fired == 1 for c in rep.cells)
        # Fresh campaign per cell, seeds differ per VL.
        assert log[0][1] != log[1][1]

    def test_factory_is_deterministic(self):
        f = default_campaign_factory(7)
        assert f("a", 256).seed == f("a", 256).seed
        assert f("a", 256).seed != f("a", 512).seed
        assert f("a", 256).seed != f("b", 256).seed

    def test_report_rates(self):
        def good(vl_bits, campaign, resilient):
            campaign.record_fired("x", "y")
            campaign.record_detected("d")
            campaign.record_recovered("r")

        def bad(vl_bits, campaign, resilient):
            campaign.record_fired("x", "y")
            raise SilentCorruption("oops")

        cases = [CampaignCase("good", "t", good),
                 CampaignCase("bad", "t", bad)]
        rep = run_campaign_suite(cases, default_campaign_factory(0),
                                 vls=(256,), resilient=False)
        assert rep.counts() == {"pass": 0, "recovered": 1,
                                "detected": 0, "fail": 1}
        assert rep.detection_rate() == 0.5
        assert rep.recovery_rate() == 0.5
        assert rep.silent_corruptions == 1
        table = rep.format_table()
        assert "recovered" in table and "fail" in table


class TestDefaultCampaign:
    """The PR's acceptance criteria, asserted as a test."""

    def test_case_registry_covers_fault_classes(self):
        cats = {c.category for c in CAMPAIGN_CASES}
        assert {"comms", "sdc", "toolchain", "backend"} <= cats
        assert len(CAMPAIGN_CASES) >= 8

    def test_outcomes_are_legal(self):
        rep = run_default_campaign(seed=0, resilient=True, vls=(256,))
        assert all(c.outcome in CAMPAIGN_OUTCOMES for c in rep.cells)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_resilient_run_has_no_silent_corruption(self, seed):
        rep = run_default_campaign(seed=seed, resilient=True, vls=(256,))
        counts = rep.counts()
        assert rep.silent_corruptions == 0
        assert counts["recovered"] >= 1
        assert counts["detected"] >= 1
        assert rep.faults_fired >= 1

    def test_unprotected_run_corrupts_silently(self):
        rep = run_default_campaign(seed=0, resilient=False, vls=(256,))
        assert rep.silent_corruptions >= 1
        assert rep.counts()["recovered"] == 0

    def test_seed0_outcomes_are_pinned(self):
        """The seeded schedule is deterministic: the armed run's matrix
        is exact, and unarmed the same faults corrupt at least 8
        cells."""
        armed = run_default_campaign(seed=0, resilient=True, vls=(256,))
        counts = armed.counts()
        assert len(armed.cells) == 12
        assert (counts["recovered"], counts["detected"]) == (9, 1)
        assert armed.silent_corruptions == 0
        exposed = run_default_campaign(seed=0, resilient=False,
                                       vls=(256,))
        assert exposed.silent_corruptions >= 8
