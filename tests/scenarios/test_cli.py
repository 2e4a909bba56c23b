"""tools/scenario.py: the list/diff/promote subcommands, and the
acceptance demonstration — flipping one baseline cell makes ``diff``
exit non-zero."""

import importlib.util
import json
import pathlib

import pytest

from repro.scenarios.matrix import Cell, ResultMatrix

ROOT = pathlib.Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "scenario_cli", ROOT / "tools" / "scenario.py")
cli = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli)

ENV = {"python": "3.12.0", "numpy": "2.0.0", "machine": "x86_64"}


def write_matrix(path, statuses, hashes=None):
    m = ResultMatrix(spec="fixture", mode="pairwise", seed=0,
                     env=dict(ENV))
    for key, status in statuses.items():
        m.add(Cell(key=key, status=status,
                   hash=(hashes or {}).get(key)))
    m.save(str(path))
    return m


class TestDiff:
    def test_identical_matrices_exit_zero(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        write_matrix(base, {"a": "pass", "b": "recovered"})
        write_matrix(cur, {"a": "pass", "b": "recovered"})
        assert cli.main(["diff", str(base), str(cur)]) == 0
        assert "unchanged   2" in capsys.readouterr().out

    def test_one_flipped_cell_exits_nonzero(self, tmp_path, capsys):
        """The acceptance demonstration: a single injected regression
        (pass -> detected) fails the gate."""
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        write_matrix(base, {"a": "pass", "b": "pass"})
        write_matrix(cur, {"a": "pass", "b": "detected"})
        assert cli.main(["diff", str(base), str(cur)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "GATE FAIL" in out

    def test_hash_drift_exits_nonzero(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        write_matrix(base, {"a": "pass"}, hashes={"a": "h1"})
        write_matrix(cur, {"a": "pass"}, hashes={"a": "h2"})
        assert cli.main(["diff", str(base), str(cur)]) == 1

    def test_report_file_written(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        report = tmp_path / "report.txt"
        write_matrix(base, {"a": "pass"})
        write_matrix(cur, {"a": "fail"})
        assert cli.main(["diff", str(base), str(cur),
                         "--report", str(report)]) == 1
        assert "REGRESSION" in report.read_text()


class TestPromote:
    def test_promote_overwrites_baseline(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        write_matrix(base, {"a": "detected"})
        write_matrix(cur, {"a": "pass"})
        assert cli.main(["promote", str(cur),
                         "--baseline", str(base)]) == 0
        assert json.load(open(base))["cells"]["a"]["status"] == "pass"
        assert "promoted" in capsys.readouterr().out

    def test_promote_refuses_silent_corruption(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        write_matrix(base, {"a": "pass"})
        write_matrix(cur, {"a": "fail"})
        assert cli.main(["promote", str(cur),
                         "--baseline", str(base)]) == 1
        assert json.load(open(base))["cells"]["a"]["status"] == "pass"
        assert cli.main(["promote", str(cur), "--baseline", str(base),
                         "--force"]) == 0
        assert json.load(open(base))["cells"]["a"]["status"] == "fail"

    def test_promote_noop_when_identical(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        write_matrix(base, {"a": "pass"})
        write_matrix(cur, {"a": "pass"})
        assert cli.main(["promote", str(cur),
                         "--baseline", str(base)]) == 0
        assert "nothing to promote" in capsys.readouterr().out


class TestList:
    def test_list_prints_keys_and_metadata(self, capsys):
        assert cli.main(["list", "--mode", "pairwise", "--seed", "0",
                         "--min-cases", "0"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln]
        assert all("operator=" in ln for ln in lines)
        # The sample is seeded: two invocations agree.
        assert cli.main(["list", "--mode", "pairwise", "--seed", "0",
                         "--min-cases", "0"]) == 0
        assert capsys.readouterr().out == out

    def test_list_filter_narrows(self, capsys):
        assert cli.main(["list", "--mode", "cartesian",
                         "--filter", "family=sve-acle,vl=1024"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln]
        assert lines and all("skip" in ln for ln in lines)


class TestCommittedBaseline:
    def test_baseline_matrix_is_committed_and_loads(self):
        path = ROOT / "scenarios" / "baseline_matrix.json"
        m = ResultMatrix.load(str(path))
        assert m.mode == "pairwise" and m.seed == 0
        assert len(m.cells) >= 60
        assert m.failures() == []
        # Every fault-free executed cell carries a bit-identity hash.
        for cell in m.cells.values():
            if "fault=none" in cell.key and cell.status != "skip":
                assert cell.hash, cell.key

    def test_baseline_matches_generated_case_set(self):
        """The committed baseline covers exactly the seed-0 pairwise
        sample the CI job regenerates."""
        from repro.scenarios.defaults import default_spec
        from repro.scenarios.sampler import pairwise_sample

        m = ResultMatrix.load(
            str(ROOT / "scenarios" / "baseline_matrix.json"))
        keys = {c.key for c in pairwise_sample(default_spec(), seed=0,
                                               min_cases=64)}
        assert set(m.cells) == keys

    def test_fault_free_and_disk_slice_outcomes(self):
        """The first 12 seed-0 pairwise cells without memory or comms
        faults: their committed outcomes (the CI job reruns them)."""
        from repro.scenarios.defaults import default_spec
        from repro.scenarios.sampler import filter_cases, pairwise_sample

        m = ResultMatrix.load(
            str(ROOT / "scenarios" / "baseline_matrix.json"))
        cases = filter_cases(pairwise_sample(default_spec(), seed=0),
                             "!fault=memory,!fault=comms")[:12]
        cells = [m.cells[c.key] for c in cases]
        statuses = [c.status for c in cells]
        assert len(cells) == 12
        assert sum(s != "skip" for s in statuses) == 10
        assert statuses.count("pass") == 6
        assert statuses.count("recovered") == 4
        assert statuses.count("fail") == 0
        assert sum(1 for c in cells if c.hash) == 6


@pytest.mark.parametrize("argv", [[], ["bogus"]])
def test_usage_errors_exit_nonzero(argv):
    with pytest.raises(SystemExit):
        cli.main(argv)
