"""The shared outcome vocabulary: one enum, one classifier, one
goodness order — the result matrix's counts and the scenario differ
cannot drift."""

import pytest

from repro.scenarios.matrix import ResultMatrix
from repro.verification.outcomes import (
    OUTCOMES,
    Outcome,
    SilentCorruption,
    classify_cell,
    is_regression,
    outcome_rank,
)


class FakeCampaign:
    def __init__(self, recovered=0, detected=0):
        self.recovered = recovered
        self.detected = detected


class TestVocabulary:
    def test_campaign_tables_speak_the_enum(self):
        counts = ResultMatrix(spec="x", mode="custom", seed=0).counts()
        assert tuple(counts)[:4] == tuple(o.value for o in OUTCOMES)
        assert tuple(o.value for o in OUTCOMES) == (
            "pass", "recovered", "detected", "fail")

    def test_str_enum_round_trips_json_keys(self):
        assert Outcome.PASS == "pass"
        assert str(Outcome.RECOVERED) == "recovered"
        assert Outcome("detected") is Outcome.DETECTED

    def test_rank_orders_best_to_worst(self):
        ranks = [outcome_rank(o) for o in OUTCOMES]
        assert ranks == sorted(ranks, reverse=True)
        assert outcome_rank("pass") > outcome_rank("fail")

    def test_is_regression_is_strict_ordering(self):
        values = [o.value for o in OUTCOMES]
        for i, old in enumerate(values):
            for j, new in enumerate(values):
                assert is_regression(old, new) == (j > i)

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError):
            outcome_rank("flaky")


class TestClassifier:
    def test_clean_run_passes(self):
        assert classify_cell(FakeCampaign(), None) is Outcome.PASS

    def test_repaired_run_recovered(self):
        assert classify_cell(FakeCampaign(recovered=2),
                             None) is Outcome.RECOVERED

    def test_unnoticed_corruption_fails(self):
        err = SilentCorruption("wrong answer")
        assert classify_cell(FakeCampaign(), err) is Outcome.FAIL

    def test_noticed_corruption_detected(self):
        err = SilentCorruption("wrong answer")
        assert classify_cell(FakeCampaign(detected=1),
                             err) is Outcome.DETECTED

    def test_loud_crash_detected(self):
        assert classify_cell(FakeCampaign(),
                             RuntimeError("boom")) is Outcome.DETECTED
