#!/usr/bin/env python
"""Scenario-matrix CLI: list, run, diff, promote.

The command-line front end of :mod:`repro.scenarios` (see DESIGN §13).
Four subcommands:

* ``list`` — print the generated case keys (``--mode pairwise`` or
  ``cartesian``, ``--filter`` to narrow) without running anything;
* ``run`` — execute the generated cases into a result-matrix JSON
  (``--out``); ``--diff BASELINE`` additionally gates the fresh matrix
  against a committed baseline and exits non-zero on any regression,
  hash drift, lost cell, or new failure (the CI job's one-liner);
* ``diff`` — compare two persisted matrices; exit status is the gate;
* ``promote`` — overwrite the committed baseline with a (clean)
  current matrix after printing what changes; refuses to promote a
  matrix containing silent corruptions unless ``--force``.

Quick start::

    python tools/scenario.py list --mode pairwise --seed 0 | head
    python tools/scenario.py run --mode pairwise --seed 0 \
        --min-cases 64 --out scenario-matrix.json \
        --diff scenarios/baseline_matrix.json
    python tools/scenario.py diff scenarios/baseline_matrix.json \
        scenario-matrix.json
    python tools/scenario.py promote scenario-matrix.json \
        --baseline scenarios/baseline_matrix.json

The filter language is the sampler's: comma-separated substrings of
the case key, all required; a leading ``!`` negates one
(``--filter 'operator=wilson,!fault=none'``).
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))

#: The committed baseline the CI gate diffs against.
DEFAULT_BASELINE = "scenarios/baseline_matrix.json"


def _generate(args):
    from repro.scenarios.defaults import default_spec
    from repro.scenarios.sampler import (
        cartesian_cases,
        filter_cases,
        pairwise_sample,
    )

    spec = default_spec()
    cube = cartesian_cases(spec)
    if args.mode == "cartesian":
        cases = cube
    else:
        cases = pairwise_sample(spec, seed=args.seed, cube=cube,
                                min_cases=args.min_cases)
    if args.filter:
        cases = filter_cases(cases, args.filter)
    return spec, cases


def cmd_list(args) -> int:
    spec, cases = _generate(args)
    for case in cases:
        marks = []
        if spec.skip_for(case) is not None:
            marks.append("skip")
        rule = spec.xfail_for(case)
        if rule is not None:
            marks.append(f"xfail->{rule.expect}")
        suffix = f"   [{', '.join(marks)}]" if marks else ""
        print(f"{case.key}{suffix}")
    print(f"# {len(cases)} case(s) ({args.mode}, seed={args.seed})",
          file=sys.stderr)
    return 0


def cmd_run(args) -> int:
    from repro.scenarios.matrix import ResultMatrix, diff_matrices, gate_diff
    from repro.scenarios.runner import run_cases

    spec, cases = _generate(args)
    if not cases:
        print("filter matched no cases", file=sys.stderr)
        return 2

    def progress(cell):
        if not args.quiet:
            print(f"  {cell.status:<9} {cell.key}", file=sys.stderr)

    matrix = run_cases(spec, cases, mode=args.mode, seed=args.seed,
                       base_seed=args.base_seed, progress=progress)
    print(matrix.format_summary())
    if args.out:
        matrix.save(args.out)
        print(f"wrote {args.out}")
    rc = 0
    for cell in matrix.failures():
        print(f"SILENT CORRUPTION  {cell.key}: {cell.detail}")
        rc = 1
    if args.diff:
        baseline = ResultMatrix.load(args.diff)
        diff = diff_matrices(baseline, matrix)
        report = diff.format_report()
        print(report)
        if args.report:
            with open(args.report, "w") as fh:
                fh.write(report + "\n")
        failures = gate_diff(diff)
        for line in failures:
            print(f"GATE FAIL: {line}")
        if failures:
            rc = 1
    return rc


def cmd_diff(args) -> int:
    from repro.scenarios.matrix import ResultMatrix, diff_matrices, gate_diff

    baseline = ResultMatrix.load(args.baseline)
    current = ResultMatrix.load(args.current)
    diff = diff_matrices(baseline, current)
    report = diff.format_report()
    print(report)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report + "\n")
    failures = gate_diff(diff)
    for line in failures:
        print(f"GATE FAIL: {line}")
    return 1 if failures else 0


def cmd_promote(args) -> int:
    from repro.scenarios.matrix import ResultMatrix, diff_matrices

    current = ResultMatrix.load(args.matrix)
    bad = current.failures()
    if bad and not args.force:
        for cell in bad:
            print(f"refusing to promote: silent corruption in "
                  f"{cell.key}", file=sys.stderr)
        return 1
    if os.path.exists(args.baseline):
        old = ResultMatrix.load(args.baseline)
        diff = diff_matrices(old, current)
        print(diff.format_report())
        if diff.clean and not diff.promotable:
            print("baseline already matches; nothing to promote")
            return 0
    shutil.copyfile(args.matrix, args.baseline)
    print(f"promoted {args.matrix} -> {args.baseline}")
    return 0


def _add_generation_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("pairwise", "cartesian"),
                   default="pairwise")
    p.add_argument("--seed", type=int, default=0,
                   help="sampler seed (default: %(default)s)")
    p.add_argument("--min-cases", type=int, default=64,
                   help="pad the pairwise sample up to this many cells "
                        "(default: %(default)s)")
    p.add_argument("--filter", default="",
                   help="comma-separated key substrings, ! negates")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenario.py", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="print generated case keys")
    _add_generation_args(p)
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("run", help="run cases into a result matrix")
    _add_generation_args(p)
    p.add_argument("--base-seed", type=int, default=0,
                   help="offset folded into every per-case fault seed")
    p.add_argument("--out", default="",
                   help="write the result matrix JSON here")
    p.add_argument("--diff", default="",
                   help="gate against this baseline matrix (exit 1 on "
                        "regression)")
    p.add_argument("--report", default="",
                   help="also write the diff report text here")
    p.add_argument("--quiet", action="store_true",
                   help="no per-cell progress on stderr")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("diff", help="compare two persisted matrices")
    p.add_argument("baseline")
    p.add_argument("current")
    p.add_argument("--report", default="",
                   help="also write the diff report text here")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("promote",
                       help="make a current matrix the committed baseline")
    p.add_argument("matrix")
    p.add_argument("--baseline", default=DEFAULT_BASELINE)
    p.add_argument("--force", action="store_true",
                   help="promote even with silent-corruption cells")
    p.set_defaults(fn=cmd_promote)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
