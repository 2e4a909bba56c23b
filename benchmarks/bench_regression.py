#!/usr/bin/env python
"""Benchmark-regression gate: run the pinned perf suite, emit the
``BENCH_<date>.json`` artifact, and (optionally) gate against a
committed baseline.

Usage::

    # CI gate: run the quick suite, compare to the committed baseline
    python benchmarks/bench_regression.py --check benchmarks/baseline.json

    # Nightly: full suite across VLs
    python benchmarks/bench_regression.py --full --vls 128,256,512

    # Re-baseline after an intentional performance change
    python benchmarks/bench_regression.py --write-baseline benchmarks/baseline.json

Gating compares only machine-independent metrics (speedup ratios,
instruction counts, cache-hit rates, campaign outcomes) with the
per-metric gate modes recorded in the baseline; wall-clock times are
recorded in the artifact but never gated.  See
:mod:`repro.perf.harness` for the metric/gate semantics.
"""

from __future__ import annotations

import argparse
import datetime
import sys

from repro.perf import harness


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--check",
        metavar="BASELINE",
        help="gate against a baseline JSON; exit 1 on regression",
    )
    ap.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="write this run as the new baseline",
    )
    ap.add_argument(
        "--out",
        metavar="PATH",
        help="artifact path (default: BENCH_<date>.json)",
    )
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="relative tolerance for min/max gates (default 0.25)",
    )
    ap.add_argument(
        "--full",
        action="store_true",
        help="nightly configuration: wider VL sweeps, more repetitions",
    )
    ap.add_argument(
        "--workers",
        type=int,
        default=4,
        help="tile pool width for engine-on runs (default 4)",
    )
    ap.add_argument(
        "--vls",
        metavar="LIST",
        help="comma-separated campaign VLs (e.g. 128,256,512)",
    )
    ap.add_argument(
        "--telemetry",
        action="store_true",
        help="run the suite under engine.scope(telemetry='trace') and "
        "write the JSONL-span, Chrome-trace and Prometheus artifacts "
        "next to the BENCH_<date>.json report",
    )
    args = ap.parse_args(argv)

    vls = None
    if args.vls:
        vls = tuple(int(v) for v in args.vls.split(","))

    span_sink = [] if args.telemetry else None
    if args.telemetry:
        from repro import engine

        with engine.scope(telemetry="trace"):
            report = harness.run_suite(
                full=args.full, workers=args.workers, vls=vls, span_sink=span_sink
            )
    else:
        report = harness.run_suite(full=args.full, workers=args.workers, vls=vls)
    report["created"] = datetime.date.today().isoformat()
    print(harness.format_report(report))

    out = args.out or f"BENCH_{report['created']}.json"
    harness.write_report(report, out)
    print(f"\nartifact: {out}")

    if args.telemetry:
        from repro import telemetry

        stem = out[:-5] if out.endswith(".json") else out
        jsonl = f"{stem}.spans.jsonl"
        chrome = f"{stem}.trace.json"
        prom = f"{stem}.prom"
        n = telemetry.write_jsonl(span_sink, jsonl)
        telemetry.write_chrome_trace(span_sink, chrome)
        telemetry.write_prometheus(telemetry.registry(), prom)
        print(f"telemetry: {n} spans -> {jsonl}, {chrome}; "
              f"metrics -> {prom}")
        print("\n# roofline\n" + telemetry.roofline_table(span_sink))
        print("\n# convergence\n"
              + telemetry.convergence_table(span_sink))

    if args.write_baseline:
        harness.write_report(report, args.write_baseline)
        print(f"baseline written: {args.write_baseline}")

    if args.check:
        baseline = harness.load_report(args.check)
        failures = harness.compare_reports(
            report, baseline, tolerance=args.tolerance
        )
        if failures:
            msg = f"REGRESSION vs {args.check} (tolerance {args.tolerance:.0%}):"
            print("\n" + msg, file=sys.stderr)
            for f in failures:
                print(f"  FAIL {f}", file=sys.stderr)
            return 1
        n = sum(
            1
            for b in baseline.get("benchmarks", {}).values()
            for m in b.get("metrics", {}).values()
            if m.get("gate") != "info"
        )
        print(f"gate OK: {n} metrics within tolerance of {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
