#!/usr/bin/env python
"""Render a telemetry JSONL span artifact as plain-text reports.

Offline companion to the in-process reports: a run under
``engine.scope(telemetry="trace")`` (``examples/telemetry_demo.py``,
say) writes its spans with ``telemetry.write_jsonl``; this tool reloads them and renders

* a per-span-name summary (count, total/mean duration),
* the roofline report (per-operator GFLOP/s, GB/s, arithmetic
  intensity) from the operator spans' flop/byte metadata,
* the solver-convergence report (iterations, residuals, FT events), and
* the cross-rank load-imbalance report (``--ranks``) when the artifact
  holds merged rank spans from a shared-memory transport run.

With ``--postmortem`` the artifact is instead a failure post-mortem
bundle (``SuperviseResult.postmortem_path`` /
``telemetry.write_postmortem`` output) and is rendered via
``telemetry.format_postmortem``.

Usage::

    python tools/teleview.py telemetry_demo.spans.jsonl
    python tools/teleview.py run.jsonl --roofline
    python tools/teleview.py run.jsonl --convergence --residuals
    python tools/teleview.py run.jsonl --ranks
    python tools/teleview.py postmortem-exhausted-crash.json --postmortem

An artifact with zero spans (or with none of the span names the
specialised reports key on) is not an error: the tool says so plainly
and exits 0 — only an unreadable/malformed artifact exits 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Runnable straight from a checkout: put src/ on the path if the
# package is not installed.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.telemetry import (  # noqa: E402  (path bootstrap above)
    convergence_from_spans,
    convergence_table,
    format_postmortem,
    imbalance_table,
    rank_spans,
    read_jsonl,
    roofline_from_spans,
    roofline_table,
)
from repro.telemetry.flightrec import BUNDLE_KIND  # noqa: E402
from repro.telemetry.reports import _table  # noqa: E402


def span_summary_table(spans) -> str:
    """Per-span-name counts and durations, busiest first."""
    acc: dict = {}
    for s in spans:
        row = acc.setdefault(s.name, {"calls": 0, "seconds": 0.0})
        row["calls"] += 1
        row["seconds"] += s.duration
    if not acc:
        return "(no spans)"
    body = [
        [name, row["calls"], row["seconds"],
         row["seconds"] / row["calls"]]
        for name, row in sorted(
            acc.items(), key=lambda kv: -kv[1]["seconds"]
        )
    ]
    return _table(["span", "calls", "seconds", "mean_s"], body)


def residual_series(spans) -> str:
    """The residual-vs-iteration series of every solve span."""
    rows = convergence_from_spans(spans)
    if not rows:
        return "(no solve spans)"
    lines = []
    for i, r in enumerate(rows):
        lines.append(f"solve[{i}] {r['solver']} on {r['operator']}: "
                     f"{r['iterations']} iters, "
                     f"converged={r['converged']}")
        for it, res in enumerate(r["residuals"]):
            lines.append(f"  iter {it:4d}  {res:.3e}")
    return "\n".join(lines)


def render_postmortem(path: str) -> int:
    """Load and render a post-mortem bundle (2 on a non-bundle)."""
    import json

    try:
        with open(path) as fh:
            bundle = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"teleview: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(bundle, dict) \
            or bundle.get("kind") != BUNDLE_KIND:
        print(f"teleview: {path} is not a post-mortem bundle "
              f"(expected kind={BUNDLE_KIND!r})", file=sys.stderr)
        return 2
    print(format_postmortem(bundle))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("artifact", help="JSONL span file "
                    "(telemetry.write_jsonl output), or a post-mortem "
                    "bundle with --postmortem")
    ap.add_argument("--spans", action="store_true",
                    help="only the per-span-name summary")
    ap.add_argument("--roofline", action="store_true",
                    help="only the roofline report")
    ap.add_argument("--convergence", action="store_true",
                    help="only the convergence report")
    ap.add_argument("--ranks", action="store_true",
                    help="only the cross-rank load-imbalance report")
    ap.add_argument("--postmortem", action="store_true",
                    help="render the artifact as a failure post-mortem "
                    "bundle instead of a span file")
    ap.add_argument("--residuals", action="store_true",
                    help="with the convergence report, print the full "
                    "residual-vs-iteration series")
    args = ap.parse_args(argv)

    if args.postmortem:
        return render_postmortem(args.artifact)

    try:
        spans = read_jsonl(args.artifact)
    except (OSError, ValueError) as exc:
        print(f"teleview: cannot read {args.artifact}: {exc}",
              file=sys.stderr)
        return 2

    if not spans:
        # An empty artifact is a finding, not a failure: say so
        # plainly instead of printing a stack of empty tables.
        print(f"# {args.artifact}: no spans recorded — the run "
              "traced nothing (telemetry below \"trace\", or nothing "
              "instrumented executed).")
        return 0

    chosen = (args.spans or args.roofline or args.convergence
              or args.ranks)
    # In default (no-flag) mode, specialised reports that would render
    # empty — an artifact of only unrecognised span names — collapse
    # into one note rather than a stack of placeholder tables.
    have = {
        "roofline": bool(roofline_from_spans(spans)),
        "convergence": bool(convergence_from_spans(spans)),
        "ranks": bool(rank_spans(spans)),
    }
    out = [f"# {args.artifact}: {len(spans)} spans"]
    if args.spans or not chosen:
        out += ["", "## spans", span_summary_table(spans)]
    if args.roofline or (not chosen and have["roofline"]):
        out += ["", "## roofline", roofline_table(spans)]
    if args.convergence or (not chosen and have["convergence"]):
        out += ["", "## convergence", convergence_table(spans)]
        if args.residuals:
            out += ["", residual_series(spans)]
    if args.ranks or (not chosen and have["ranks"]):
        out += ["", "## rank imbalance", imbalance_table(spans)]
    if not chosen and not any(have.values()):
        out += ["", "(no roofline / convergence / rank "
                "activity recognised — the span summary above is "
                "everything this artifact holds)"]
    print("\n".join(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `teleview ... | head`
        sys.exit(0)
