"""The Section V-D verification harness.

"Grid implements about 100 ready-made tests and benchmarks.  We have
selected 40 representative tests and benchmarks for verification of the
SVE-enabled version of Grid for different SVE vector lengths using the
ARM clang 18.3 compiler and the ARM SVE instruction emulator ArmIE
18.1."

:mod:`repro.verification.cases` defines our 40 representative cases;
:mod:`repro.verification.suite` runs the {case x vector length} matrix
under a chosen toolchain fault model and formats the pass/fail report;
:mod:`repro.verification.outcomes` is the {pass, recovered, detected,
fail} vocabulary the scenario engine's fault cells are classified in.
"""

from repro.verification.cases import ALL_CASES, Case
from repro.verification.outcomes import (
    OUTCOMES,
    Outcome,
    SilentCorruption,
    classify_cell,
    is_regression,
    outcome_rank,
)
from repro.verification.suite import SuiteReport, run_suite

__all__ = [
    "ALL_CASES",
    "Case",
    "SuiteReport",
    "run_suite",
    "OUTCOMES",
    "Outcome",
    "SilentCorruption",
    "classify_cell",
    "is_regression",
    "outcome_rank",
]
