"""The persisted result matrix and the CI baseline differ.

One :class:`Cell` per generated case: the shared
:class:`~repro.verification.outcomes.Outcome` (or ``skip``), the
skip/xfail metadata that produced it, and — for fault-free cells —
the bit-identity hash of the case's output against the engine-off
reference.  A :class:`ResultMatrix` is the JSON artifact CI uploads
and the committed ``scenarios/baseline_matrix.json`` is one of.

:func:`diff_matrices` joins two matrices on case key and classifies
every cell:

* **regression** — the outcome got strictly worse (``pass`` →
  anything, ``recovered`` → ``detected``, ...), or a previously
  running cell is now skipped;
* **hash drift** — same outcome, but the bit-identity hash moved:
  the engine now computes different bits than the committed
  reference run (a regression even when everything still "passes");
* **new-pass** — a cell that used to sit below ``pass`` (often an
  ``xfail``) now passes: not a failure, a baseline-promotion prompt;
* **added** / **removed** — coverage appeared or (a regression)
  disappeared;
* **unchanged** — everything else.

Bit-identity hashes are exact by definition, but only within one
numeric environment: a different numpy/python can legally reorder
floating-point reductions, so two *correct* runs on different stacks
hash differently.  Each matrix therefore records its
:func:`environment_fingerprint`; the differ compares hashes only when
the fingerprints match (outcome regressions gate unconditionally),
and says so in the report when it had to stand down.

:func:`gate_diff` turns a diff into the CI verdict: regressions,
hash drifts, removed cells, and fresh silent corruptions fail the
build; new passes and added coverage ride along with a promote hint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.verification.outcomes import Outcome, is_regression

#: Matrix JSON schema version (bump on incompatible shape changes).
SCHEMA_VERSION = 1

#: The non-outcome cell status: present in the cube, never executed.
SKIP = "skip"


def environment_fingerprint() -> dict:
    """The numeric environment a matrix's hashes are valid in."""
    import platform

    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


@dataclass
class Cell:
    """One (case key → result) entry of the matrix."""

    key: str
    status: str                   # an Outcome value, or "skip"
    xfail: bool = False
    expect: Optional[str] = None  # xfail's expected outcome
    reason: str = ""              # skip/xfail reason, if any
    hash: Optional[str] = None    # bit-identity hash (fault-free cells)
    seconds: float = 0.0
    detail: str = ""              # error detail for non-pass cells
    fired: int = 0                # faults the cell's campaign fired

    def __post_init__(self) -> None:
        if self.status != SKIP:
            Outcome(self.status)  # raises on vocabulary drift

    @property
    def ok(self) -> bool:
        """Acceptable on its own terms: passed, ended the expected
        xfail way, or is a declared skip.  A fault cell that was
        recovered/detected is ok; silent corruption never is."""
        return self.status == SKIP or self.status != Outcome.FAIL.value

    @property
    def surprising(self) -> bool:
        """An xfail cell that did not end the expected way (better or
        worse) — the differ surfaces these even when ``ok``."""
        return (self.xfail and self.expect is not None
                and self.status not in (SKIP, self.expect))


@dataclass
class ResultMatrix:
    """All cells of one run, plus the metadata to reproduce it."""

    spec: str
    mode: str                      # "pairwise" | "cartesian" | "custom"
    seed: int
    cells: dict = field(default_factory=dict)   # key -> Cell
    env: dict = field(default_factory=environment_fingerprint)

    def add(self, cell: Cell) -> None:
        if cell.key in self.cells:
            raise ValueError(f"duplicate cell key {cell.key!r}")
        self.cells[cell.key] = cell

    def counts(self) -> dict:
        out = {o.value: 0 for o in Outcome}
        out[SKIP] = 0
        for c in self.cells.values():
            out[c.status] += 1
        return out

    def fault_rates(self) -> tuple:
        """``(detection, recovery)`` over the cells whose faults fired:
        the share noticed (``detected``/``recovered``) and the share
        that still ended correct (``pass``/``recovered``); 1.0 each
        when nothing fired."""
        hit = [c.status for c in self.cells.values() if c.fired]
        if not hit:
            return 1.0, 1.0
        noticed = sum(s in ("detected", "recovered") for s in hit)
        correct = sum(s in ("pass", "recovered") for s in hit)
        return noticed / len(hit), correct / len(hit)

    @property
    def executed(self) -> int:
        return sum(1 for c in self.cells.values() if c.status != SKIP)

    def failures(self) -> list:
        return [c for c in self.cells.values() if not c.ok]

    # ------------------------------------------------------------------
    # Persistence (sorted keys, no volatile fields in comparisons)
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "spec": self.spec,
            "mode": self.mode,
            "seed": self.seed,
            "env": self.env,
            "counts": self.counts(),
            "cells": {
                key: {
                    "status": c.status,
                    "xfail": c.xfail,
                    "expect": c.expect,
                    "reason": c.reason,
                    "hash": c.hash,
                    "seconds": round(c.seconds, 4),
                    "detail": c.detail,
                    "fired": c.fired,
                }
                for key, c in sorted(self.cells.items())
            },
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, doc: dict) -> "ResultMatrix":
        schema = doc.get("schema")
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"matrix schema {schema!r} != supported {SCHEMA_VERSION}")
        m = cls(spec=doc.get("spec", "?"), mode=doc.get("mode", "custom"),
                seed=int(doc.get("seed", 0)), env=dict(doc.get("env", {})))
        for key, c in doc.get("cells", {}).items():
            m.add(Cell(
                key=key, status=c["status"], xfail=bool(c.get("xfail")),
                expect=c.get("expect"), reason=c.get("reason", ""),
                hash=c.get("hash"), seconds=float(c.get("seconds", 0.0)),
                detail=c.get("detail", ""), fired=int(c.get("fired", 0)),
            ))
        return m

    @classmethod
    def load(cls, path: str) -> "ResultMatrix":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def format_table(self, rows: str, cols: str, title: str = "") -> str:
        """Status grid: one row per value of axis ``rows``, one column
        per value of axis ``cols`` (values in cell order), then the
        counts and the faults fired."""
        grid = {}
        for key, c in self.cells.items():
            axes = dict(part.split("=", 1) for part in key.split("|"))
            grid[axes[rows], axes[cols]] = c.status
        row_vals = list(dict.fromkeys(r for r, _ in grid))
        col_vals = list(dict.fromkeys(v for _, v in grid))
        width = max(len(rows), *map(len, row_vals)) + 2
        rule = "-" * (width + 11 * len(col_vals))
        lines = [f"# {title or self.spec}",
                 f"{rows:<{width}}" + "".join(
                     f"{f'{cols}={v}':>11}" for v in col_vals), rule]
        for r in row_vals:
            lines.append(f"{r:<{width}}" + "".join(
                f"{grid.get((r, v), '-'):>11}" for v in col_vals))
        fired = sum(c.fired for c in self.cells.values())
        lines += [rule, "  ".join(f"{k}={v}" for k, v in
                                  self.counts().items())
                  + f"  (faults fired: {fired})"]
        return "\n".join(lines)

    def format_summary(self) -> str:
        counts = self.counts()
        parts = "  ".join(f"{k}={v}" for k, v in counts.items() if v)
        return (f"# scenario matrix: {self.spec} ({self.mode}, "
                f"seed={self.seed})\n"
                f"{len(self.cells)} cells ({self.executed} executed): "
                f"{parts}")


# ======================================================================
# The differ
# ======================================================================

@dataclass
class MatrixDiff:
    """The classified join of (baseline, current) on case key."""

    regressions: list = field(default_factory=list)   # (key, old, new)
    hash_drifts: list = field(default_factory=list)   # (key, old, new)
    new_passes: list = field(default_factory=list)    # (key, old)
    improved: list = field(default_factory=list)      # (key, old, new)
    added: list = field(default_factory=list)         # keys
    removed: list = field(default_factory=list)       # keys
    new_failures: list = field(default_factory=list)  # keys (added+bad)
    unchanged: int = 0
    hashes_compared: bool = True   # False: env mismatch stood hashes down

    @property
    def clean(self) -> bool:
        """No gate-relevant change at all."""
        return not (self.regressions or self.hash_drifts or self.removed
                    or self.new_failures)

    @property
    def promotable(self) -> bool:
        """Something got better or wider: promote the baseline."""
        return bool(self.new_passes or self.improved or self.added)

    def format_report(self) -> str:
        lines = []
        for key, old, new in self.regressions:
            lines.append(f"REGRESSION  {key}: {old} -> {new}")
        for key, old, new in self.hash_drifts:
            lines.append(f"HASH DRIFT  {key}: {old[:12]}.. -> {new[:12]}..")
        for key in self.removed:
            lines.append(f"REMOVED     {key}")
        for key in self.new_failures:
            lines.append(f"NEW FAIL    {key}")
        for key, old, new in self.improved:
            lines.append(f"improved    {key}: {old} -> {new}")
        for key, old in self.new_passes:
            lines.append(f"new-pass    {key}: {old} -> pass")
        for key in self.added:
            lines.append(f"added       {key}")
        lines.append(f"unchanged   {self.unchanged} cell(s)")
        if not self.hashes_compared:
            lines.append(
                "note: bit-identity hashes not compared (numeric "
                "environments differ); outcome gates still applied")
        if self.promotable and self.clean:
            lines.append(
                "baseline promote available: "
                "tools/scenario.py promote <current> "
                "--baseline scenarios/baseline_matrix.json")
        return "\n".join(lines)


def diff_matrices(baseline: ResultMatrix,
                  current: ResultMatrix) -> MatrixDiff:
    """Classify every cell of ``current`` against ``baseline``."""
    diff = MatrixDiff()
    diff.hashes_compared = bool(baseline.env and current.env
                                and baseline.env == current.env)
    for key, new in sorted(current.cells.items()):
        old = baseline.cells.get(key)
        if old is None:
            diff.added.append(key)
            if not new.ok:
                diff.new_failures.append(key)
            continue
        if old.status == SKIP and new.status == SKIP:
            diff.unchanged += 1
        elif old.status == SKIP:
            # Coverage appeared where the baseline had a hole.
            diff.added.append(key)
            if not new.ok:
                diff.new_failures.append(key)
        elif new.status == SKIP:
            # Coverage vanished: treat like a removed cell.
            diff.removed.append(key)
        elif is_regression(old.status, new.status):
            diff.regressions.append((key, old.status, new.status))
        elif old.status != new.status:
            if new.status == Outcome.PASS.value:
                diff.new_passes.append((key, old.status))
            else:
                diff.improved.append((key, old.status, new.status))
        elif (diff.hashes_compared and old.hash and new.hash
              and old.hash != new.hash):
            diff.hash_drifts.append((key, old.hash, new.hash))
        else:
            diff.unchanged += 1
    for key in sorted(baseline.cells):
        if key not in current.cells:
            diff.removed.append(key)
    return diff


def gate_diff(diff: MatrixDiff) -> list:
    """The CI verdict: failure strings (empty = gate passed)."""
    failures = []
    for key, old, new in diff.regressions:
        failures.append(f"regressed cell {key}: {old} -> {new}")
    for key, old, new in diff.hash_drifts:
        failures.append(
            f"bit-identity drift in {key}: output no longer matches "
            f"the committed reference hash")
    for key in diff.removed:
        failures.append(f"cell disappeared from the matrix: {key}")
    for key in diff.new_failures:
        failures.append(f"new cell failed on arrival: {key}")
    return failures
