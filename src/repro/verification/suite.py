"""Run the verification matrix and format the Section V-D report.

The paper's toolchain sweep (:func:`run_suite`, {case x VL},
pass/fail).  Its generalization to system faults, classified {pass,
recovered, detected, fail}, is the scenario engine's fault campaign
(:func:`repro.scenarios.defaults.run_campaign`).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.verification.cases import ALL_CASES, Case


@dataclass
class CaseResult:
    """Outcome of one (case, vector length) cell."""

    name: str
    category: str
    vl_bits: int
    passed: bool
    seconds: float
    error: str = ""


@dataclass
class SuiteReport:
    """The full verification matrix."""

    toolchain: str
    results: list = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def failed(self) -> int:
        return self.total - self.passed

    def failures(self) -> list:
        return [r for r in self.results if not r.passed]

    def by_vl(self) -> dict:
        out: dict = {}
        for r in self.results:
            cell = out.setdefault(r.vl_bits, [0, 0])
            cell[0] += r.passed
            cell[1] += 1
        return out

    def format_table(self) -> str:
        """Pass/fail matrix: one row per case, one column per VL."""
        vls = sorted({r.vl_bits for r in self.results})
        names = []
        for r in self.results:
            if r.name not in names:
                names.append(r.name)
        cell = {(r.name, r.vl_bits): r for r in self.results}
        width = max(len(n) for n in names) + 2
        header = f"{'case':<{width}}" + "".join(f"{f'VL{v}':>8}" for v in vls)
        lines = [f"# toolchain: {self.toolchain}", header,
                 "-" * (width + 8 * len(vls))]
        for n in names:
            row = f"{n:<{width}}"
            for v in vls:
                r = cell.get((n, v))
                row += f"{'pass' if r and r.passed else 'FAIL':>8}"
            lines.append(row)
        lines.append("-" * (width + 8 * len(vls)))
        summary = f"{'TOTAL':<{width}}"
        for v in vls:
            p, t = self.by_vl()[v]
            summary += f"{f'{p}/{t}':>8}"
        lines.append(summary)
        return "\n".join(lines)


def run_suite(
    vls: Sequence[int] = (128, 256, 512),
    fault_model_factory: Optional[Callable] = None,
    cases: Sequence[Case] = ALL_CASES,
    categories: Optional[Sequence[str]] = None,
) -> SuiteReport:
    """Run {case x VL} — the paper's ArmIE sweep.

    ``fault_model_factory``: None for a pristine toolchain, or a
    zero-argument callable returning a fresh
    :class:`repro.sve.faults.FaultModel` per cell (e.g.
    :func:`repro.sve.faults.armclang_18_3`).
    """
    toolchain = "pristine" if fault_model_factory is None else \
        fault_model_factory().__class__.__name__
    if fault_model_factory is not None:
        toolchain = "armclang-18.3 (modelled defects)"
    report = SuiteReport(toolchain=toolchain)
    for case in cases:
        if categories is not None and case.category not in categories:
            continue
        for vl_bits in vls:
            fm = fault_model_factory() if fault_model_factory else None
            t0 = time.perf_counter()
            try:
                case.run(vl_bits, fm)
                report.results.append(CaseResult(
                    name=case.name, category=case.category, vl_bits=vl_bits,
                    passed=True, seconds=time.perf_counter() - t0,
                ))
            except Exception:
                report.results.append(CaseResult(
                    name=case.name, category=case.category, vl_bits=vl_bits,
                    passed=False, seconds=time.perf_counter() - t0,
                    error=traceback.format_exc(limit=2),
                ))
    return report
