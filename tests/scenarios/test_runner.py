"""The case runner: skip/xfail metadata honored, bit-identity hashing
against the engine-off reference, and outcome classification on a
small executed slice."""

from repro.scenarios.defaults import default_spec
from repro.scenarios.matrix import SKIP
from repro.scenarios.runner import (
    ReferenceBank,
    case_seed,
    comms_schedule_kind,
    policy_overrides,
    run_case,
    run_cases,
)
from repro.scenarios.spec import ScenarioSpec, xfail_rule
from repro.verification.outcomes import Outcome


def _case(**overrides):
    spec = default_spec()
    bindings = dict(operator="wilson", family="generic", vl=128,
                    caches=True, workers=1, telemetry="off",
                    transport="in-process", fault="none")
    bindings.update(overrides)
    return spec, spec.case(**bindings)


class TestMetadata:
    def test_skip_rule_short_circuits_execution(self):
        # sve-acle beyond the paper's validated VLs is a declared hole.
        spec, case = _case(family="sve-acle", vl=1024)
        cell = run_case(case, spec)
        assert cell.status == SKIP
        assert "VL-specific exclusion" in cell.reason
        assert cell.hash is None
        assert cell.seconds == 0.0  # never entered the engine

    def test_xfail_metadata_lands_on_the_cell(self):
        spec, case = _case()
        marked = ScenarioSpec(
            name=spec.name, axes=spec.axes, constraints=spec.constraints,
            rules=(xfail_rule("pinned for the test", lambda c: True,
                              expect=Outcome.DETECTED.value),),
        )
        cell = run_case(case, marked)
        assert cell.xfail and cell.expect == Outcome.DETECTED.value
        # The cell actually passed, so it is surprising (a new-pass
        # candidate), never a silent change.
        assert cell.status == Outcome.PASS.value
        assert cell.surprising

    def test_case_seed_is_key_stable(self):
        spec, case = _case(fault="disk")
        assert case_seed(case) == case_seed(case)
        assert case_seed(case, base_seed=5) == case_seed(case) + 5
        _, other = _case(fault="disk", vl=256)
        assert case_seed(case) != case_seed(other)

    def test_comms_schedule_is_deterministic(self):
        spec, case = _case(operator="wilson-dist", fault="comms")
        assert comms_schedule_kind(case) == comms_schedule_kind(case)

    def test_policy_overrides_mirror_the_axes(self):
        spec, case = _case(caches=False, workers=4, telemetry="metrics")
        over = policy_overrides(case)
        assert over["caches"] is False
        assert over["workers"] == 4
        assert over["telemetry"] == "metrics"
        assert over["backend"] == "generic128"
        assert over["tile_min_sites"] == 16  # small-lattice floor drop


class TestExecution:
    def test_fault_free_cell_is_bit_identical(self):
        spec, case = _case()
        refs = ReferenceBank()
        cell = run_case(case, spec, refs=refs)
        assert cell.status == Outcome.PASS.value
        assert cell.hash == refs.reference_hash(case)

    def test_disk_fault_cell_recovers(self):
        spec, case = _case(fault="disk")
        cell = run_case(case, spec)
        assert cell.status == Outcome.RECOVERED.value
        assert cell.hash is None  # fault cells are not hash cells

    def test_run_cases_builds_the_matrix_in_order(self):
        spec, a = _case()
        _, b = _case(fault="disk")
        seen = []
        matrix = run_cases(spec, [a, b], mode="custom", seed=3,
                           progress=lambda cell: seen.append(cell.key))
        assert list(matrix.cells) == [a.key, b.key] == seen
        assert matrix.mode == "custom" and matrix.seed == 3
        assert matrix.failures() == []
