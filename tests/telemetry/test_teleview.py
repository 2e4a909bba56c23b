"""``tools/teleview.py`` degradation and rank-report surfaces: an
artifact with zero spans (or none the specialised reports recognise)
is a finding, not a failure — clear message, exit 0; only unreadable
or malformed artifacts exit 2."""

import subprocess
import sys
from pathlib import Path

import repro.engine as engine
import repro.telemetry as telemetry
from repro.telemetry import merge
from repro.telemetry.trace import Span

TELEVIEW = Path(__file__).resolve().parents[2] / "tools" / "teleview.py"


def _run(*argv):
    return subprocess.run([sys.executable, str(TELEVIEW), *argv],
                          capture_output=True, text=True)


class TestGracefulDegradation:
    def test_zero_spans_is_a_clear_message_exit_zero(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        out = _run(str(path))
        assert out.returncode == 0, out.stderr
        assert "no spans recorded" in out.stdout
        # No empty section tables follow the message.
        assert "## roofline" not in out.stdout

    def test_only_unknown_names_prints_summary_plus_note(self,
                                                         tmp_path):
        path = str(tmp_path / "unknown.jsonl")
        telemetry.write_jsonl(
            [Span(name="mystery.thing", t0=0.0, t1=0.5, span_id=1,
                  parent_id=0, thread="main", attrs={})], path)
        out = _run(path)
        assert out.returncode == 0, out.stderr
        assert "mystery.thing" in out.stdout        # summary row
        assert "no roofline" in out.stdout          # the note
        assert "## roofline" not in out.stdout      # no empty tables
        assert "## convergence" not in out.stdout

    def test_explicit_flag_still_prints_placeholder(self, tmp_path):
        path = str(tmp_path / "unknown.jsonl")
        telemetry.write_jsonl(
            [Span(name="mystery.thing", t0=0.0, t1=0.5, span_id=1,
                  parent_id=0, thread="main", attrs={})], path)
        out = _run(path, "--ranks")
        assert out.returncode == 0, out.stderr
        assert "no merged rank spans" in out.stdout

    def test_missing_file_exits_two(self, tmp_path):
        out = _run(str(tmp_path / "nope.jsonl"))
        assert out.returncode == 2
        assert "cannot read" in out.stderr


class TestRanksReport:
    def test_ranks_flag_renders_the_imbalance_table(self, tmp_path):
        recs = [{"name": "rank.sweep", "t0": 0.1, "t1": 0.4,
                 "attrs": {"mu": 0}},
                {"name": "rank.mailbox_wait", "t0": 0.0, "t1": 0.1,
                 "attrs": {"mu": 0, "kind": "f"}}]
        merge.ingest_round(
            [{"rank": r, "round_t0": 0.0, "round_t1": 0.5,
              "spans": recs, "dropped": 0, "metrics": {}}
             for r in range(2)],
            send_times=[0.0, 0.0], round_index=0)
        path = str(tmp_path / "ranks.jsonl")
        telemetry.write_jsonl(telemetry.spans(), path)
        out = _run(path, "--ranks")
        assert out.returncode == 0, out.stderr
        assert "slowest rank:" in out.stdout
        # The default (no-flag) view includes the section too, since
        # the artifact holds merged rank spans.
        out = _run(path)
        assert "## rank imbalance" in out.stdout
