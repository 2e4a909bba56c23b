"""The scenario matrix engine: generated coverage of the
configuration cube, diffed in CI.

The paper's own validation (§V-D) is a hand-run matrix — ~40 ArmIE
emulation runs across vector lengths with known VL-specific failures
tracked by hand.  Every subsystem shipped since (engine policies,
transports, caches, telemetry, the fault campaigns) multiplies
that configuration cube far beyond what hand-enumerated tests cover.
This package scales the methodology up:

* :mod:`repro.scenarios.spec` — the declarative cube: named
  :class:`Axis` lists, :class:`Constraint` pruning (combinations that
  cannot exist), and :class:`Rule` metadata (visible ``skip`` /
  ``xfail`` cells with reasons) accumulated into a
  :class:`ScenarioSpec`;
* :mod:`repro.scenarios.sampler` — deterministic generation: the full
  cartesian cube, or a seeded greedy **pairwise** covering sample
  (every feasible axis-value pair appears in at least one case);
* :mod:`repro.scenarios.runner` — executes each case through
  ``engine.scope(...)`` + ``solve_fermion``/``dhop``, classifies the
  outcome with the shared :class:`~repro.verification.outcomes.
  Outcome` vocabulary, and bit-identity-hashes every fault-free cell
  against the engine-off reference;
* :mod:`repro.scenarios.matrix` — the persisted result matrix (JSON:
  case key → {outcome, xfail, skip, hash}), the baseline differ
  (regression / hash drift / new-pass / added / removed), and the CI
  gate;
* :mod:`repro.scenarios.faults` — every fault cell's body, keyed by
  fault value, each runnable armed or exposed;
* :mod:`repro.scenarios.defaults` — the default cube {VL 128..2048} ×
  {backend family} × {policy knobs} × {fault model} × {operator},
  with the known VL-specific exclusions and impossible combos encoded
  as metadata instead of tribal knowledge, and the fault campaign
  ({fault} × {VL}, :func:`run_campaign`).

A committed ``scenarios/baseline_matrix.json`` is diffed on every CI
run: any cell that regresses (outcome got worse, or its bit-identity
hash drifted) fails the build; new-pass cells prompt a baseline
promote (``tools/scenario.py promote``).
"""

from repro.scenarios.matrix import (
    Cell,
    MatrixDiff,
    ResultMatrix,
    diff_matrices,
    environment_fingerprint,
    gate_diff,
)
from repro.scenarios.sampler import (
    cartesian_cases,
    feasible_pairs,
    pairwise_sample,
)
from repro.scenarios.spec import (
    Axis,
    Case,
    Constraint,
    Rule,
    ScenarioSpec,
    skip_rule,
    xfail_rule,
)

__all__ = [
    "Axis",
    "CAMPAIGN_FAULTS",
    "CHAOS_FAULTS",
    "Case",
    "Cell",
    "Constraint",
    "MatrixDiff",
    "ResultMatrix",
    "Rule",
    "ScenarioSpec",
    "campaign_spec",
    "cartesian_cases",
    "default_spec",
    "diff_matrices",
    "environment_fingerprint",
    "feasible_pairs",
    "gate_diff",
    "pairwise_sample",
    "run_campaign",
    "run_cases",
    "skip_rule",
    "xfail_rule",
]


def __getattr__(name):
    # The runner (and the default spec, which references runner-side
    # schedule helpers) reach into the grid/resilience layers; loading
    # them lazily keeps ``import repro.scenarios`` cheap and cycle-free
    # for pure spec/matrix consumers (the differ CLI, the tests).
    if name in ("default_spec", "campaign_spec", "run_campaign",
                "CAMPAIGN_FAULTS", "CHAOS_FAULTS"):
        from repro.scenarios import defaults

        return getattr(defaults, name)
    if name == "run_cases":
        from repro.scenarios.runner import run_cases

        return run_cases
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
