"""The fault campaign on the scenario engine: cell classification, a
fresh seeded campaign per cell, and the acceptance property — armed,
every fault is detected or recovered; exposed, the same faults corrupt
silently."""

import pytest

from repro.resilience.inject import FaultCampaign
from repro.scenarios import faults
from repro.scenarios.defaults import (
    CAMPAIGN_FAULTS,
    CHAOS_FAULTS,
    campaign_spec,
    run_campaign,
)
from repro.scenarios.matrix import Cell, ResultMatrix
from repro.scenarios.runner import case_seed, run_cases
from repro.scenarios.spec import Axis, ScenarioSpec
from repro.verification.outcomes import (
    OUTCOMES,
    SilentCorruption,
    classify_cell,
)


def _classify(campaign, error):
    return classify_cell(campaign, error).value


def probe_spec(*values, vls=(256,)):
    """A campaign-shaped spec whose ``fault`` values are test bodies."""
    return ScenarioSpec(name="probe", axes=(
        Axis("fault", values), Axis("vl", vls),
        Axis("family", ("generic",)), Axis("caches", (True,)),
        Axis("workers", (1,)), Axis("telemetry", ("off",)),
    ))


def run_probe(monkeypatch, bodies: dict, vls=(256,), armed=True):
    """Run every (body, VL) cell of ``bodies`` through ``run_cases``."""
    from repro.scenarios.sampler import cartesian_cases

    for name, fn in bodies.items():
        monkeypatch.setitem(faults.BODIES, name, fn)
    spec = probe_spec(*bodies, vls=vls)
    return run_cases(spec, cartesian_cases(spec), armed=armed)


def _status(matrix, fault):
    (cell,) = [c for c in matrix.cells.values()
               if c.key.startswith(f"fault={fault}|")]
    return cell.status


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
    """``run_cases`` as the campaign's executor."""

    def test_matrix_shape_and_bookkeeping(self, monkeypatch):
        log = []

        def fn(case, campaign, armed):
            log.append((case["vl"], campaign.seed, armed))
            campaign.record_fired("x", "y")

        m = run_probe(monkeypatch, {"probe": fn}, vls=(256, 512))
        assert len(m.cells) == 2
        assert [vl for vl, _, _ in log] == [256, 512]
        assert all(c.fired == 1 for c in m.cells.values())
        assert all(armed for _, _, armed in log)
        # Fresh campaign per cell, seeds differ per VL.
        assert log[0][1] != log[1][1]
        run_probe(monkeypatch, {"probe": fn}, armed=False)
        assert log[-1][2] is False

    def test_factory_is_deterministic(self):
        spec = campaign_spec()

        def case(fault, vl):
            return spec.case(fault=fault, vl=vl, operator="wilson",
                             family="generic", caches=True, workers=1,
                             telemetry="off", transport="in-process")

        a = case("memory", 256)
        assert case_seed(a, 7) == case_seed(case("memory", 256), 7)
        assert case_seed(a, 7) != case_seed(case("memory", 512), 7)
        assert case_seed(a, 7) != case_seed(case("disk", 256), 7)

    def test_report_rates(self, monkeypatch):
        def good(case, campaign, armed):
            campaign.record_fired("x", "y")
            campaign.record_detected("d")
            campaign.record_recovered("r")

        def bad(case, campaign, armed):
            campaign.record_fired("x", "y")
            raise SilentCorruption("oops")

        m = run_probe(monkeypatch, {"good": good, "bad": bad},
                      armed=False)
        assert m.counts() == {"pass": 0, "recovered": 1, "detected": 0,
                              "fail": 1, "skip": 0}
        assert m.fault_rates() == (0.5, 0.5)
        assert [c.key for c in m.failures()] == [
            k for k in m.cells if k.startswith("fault=bad|")]
        table = m.format_table("fault", "vl")
        assert "recovered" in table and "fail" in table
        assert "faults fired: 2" in table

    def test_rates_without_fired_faults_are_one(self):
        m = ResultMatrix(spec="x", mode="custom", seed=0)
        m.add(Cell(key="fault=a|vl=256", status="pass"))
        assert m.fault_rates() == (1.0, 1.0)


class TestDefaultCampaign:
    """The campaign's acceptance criteria, asserted as tests."""

    def test_case_registry_covers_fault_classes(self):
        spec = campaign_spec()
        assert spec.axis("fault").values == CAMPAIGN_FAULTS
        assert len(CAMPAIGN_FAULTS) == 12
        assert set(CHAOS_FAULTS) <= set(CAMPAIGN_FAULTS)
        assert set(CAMPAIGN_FAULTS) <= set(faults.BODIES)
        # Every policy axis is pinned; comms cells are the distributed
        # operator's and nothing else is.
        for axis in spec.axes:
            if axis.name not in ("fault", "vl", "operator"):
                assert len(axis.values) == 1, axis.name
        from repro.scenarios.sampler import cartesian_cases

        cube = [c for c in cartesian_cases(spec) if c["vl"] == 256]
        assert len(cube) == 12
        for c in cube:
            assert (c["operator"] == "wilson-dist") == \
                c["fault"].startswith("comms-")

    def test_outcomes_are_legal(self):
        m = run_campaign(seed=0, armed=True, vls=(256,))
        legal = {o.value for o in OUTCOMES}
        assert all(c.status in legal for c in m.cells.values())

    @pytest.mark.parametrize("seed", [0, 1])
    def test_resilient_run_has_no_silent_corruption(self, seed):
        m = run_campaign(seed=seed, armed=True, vls=(256,))
        counts = m.counts()
        assert m.failures() == []
        assert counts["recovered"] >= 1
        assert counts["detected"] >= 1
        assert sum(c.fired for c in m.cells.values()) >= 1

    def test_unprotected_run_corrupts_silently(self):
        m = run_campaign(seed=0, armed=False, vls=(256,))
        assert m.counts()["fail"] >= 1
        assert m.counts()["recovered"] == 0

    def test_seed0_outcomes_are_pinned(self):
        """The seeded schedule is deterministic: every armed cell's
        outcome is pinned, and exposed the same faults corrupt the
        same eight cells."""
        armed = run_campaign(seed=0, armed=True, vls=(256,))
        assert len(armed.cells) == 12
        assert armed.failures() == []
        want = {f: "recovered" for f in (
            "comms-drop", "comms-corrupt", "comms-truncate",
            "kernel-memory", "backend", "disk", "archive", "crash")}
        want.update({"comms-drop-persistent": "detected",
                     "comms-duplicate": "pass", "toolchain": "pass"})
        for fault, status in want.items():
            assert _status(armed, fault) == status, fault
        assert _status(armed, "memory") in ("recovered", "pass")

        exposed = run_campaign(seed=0, armed=False, vls=(256,))
        failed = {f for f in CAMPAIGN_FAULTS
                  if _status(exposed, f) == "fail"}
        assert failed == {"comms-drop", "comms-drop-persistent",
                          "comms-corrupt", "comms-truncate",
                          "kernel-memory", "disk", "archive", "crash"}
        assert _status(exposed, "backend") == "detected"
        assert exposed.counts()["pass"] == 3

    def test_no_silent_corruption_over_base_seeds(self):
        """Armed, no base seed 0-9 ends a cell in ``fail``: the SDC
        cell's guard runs at ``drift_factor=10``, so a flip inside the
        guard's contract cannot read as corruption of the original
        system (at 100, seed 6 did)."""
        for seed in range(10):
            m = run_campaign(seed=seed, armed=True, vls=(256,))
            assert m.failures() == [], seed

    def test_campaign_is_reproducible(self):
        a = run_campaign(seed=0, vls=(256,), faults=CHAOS_FAULTS)
        b = run_campaign(seed=0, vls=(256,), faults=CHAOS_FAULTS)
        assert len(a.cells) == len(CHAOS_FAULTS)
        assert [(c.status, c.fired) for c in a.cells.values()] == \
            [(c.status, c.fired) for c in b.cells.values()]

    def test_unknown_fault_or_vl_is_rejected(self):
        with pytest.raises(ValueError, match="not in the campaign spec"):
            run_campaign(vls=(384,))
        with pytest.raises(ValueError, match="not in the campaign spec"):
            run_campaign(faults=("cosmic-ray",))
