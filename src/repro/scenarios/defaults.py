"""The default configuration cube: the §V-D matrix, scaled up.

The paper hand-ran ~40 ArmIE cells across vector lengths and tracked
known VL-specific failures by hand.  This spec declares the grown
system's whole cube — {VL 128..2048} × {backend family} × {policy
knobs} × {fault model} × {operator} — with the hand-tracked knowledge
as machine-checked metadata:

* **Constraints** prune combinations that cannot exist (a comms fault
  needs a rank-decomposed lattice; the emulated ACLE family runs the
  plain Wilson hot path only, where the engine takes the layered path:
  the fused body inlines plain-numpy semantics the emulated backends
  do not share).
* **Skip rules** keep known exclusions visible: emulated SVE cells
  beyond the paper's validated 128/256/512 appear in every matrix as
  reasoned ``skip`` holes, never as silent absences.
* **Xfail rules** encode known non-passes: the comms cells whose
  seeded schedule draws a *persistent* dead link are expected to end
  ``detected`` — bounded retry exhausts, the run knows its halo never
  arrived, and nothing can recover that.  If one ever passes, the
  differ flags a new-pass (promote prompt), not a silent change.
"""

from __future__ import annotations

from repro.scenarios.runner import comms_schedule_kind
from repro.scenarios.spec import (
    Axis,
    Constraint,
    ScenarioSpec,
    skip_rule,
    xfail_rule,
)
from repro.verification.outcomes import Outcome

#: Vector lengths: the paper's validated trio plus the wider legal
#: SVE lengths the reproduction supports.
VLS = (128, 256, 512, 1024, 2048)

#: The paper enables exactly these in Grid (§V-D); wider emulated VLs
#: are declared-and-skipped, not silently missing.
PAPER_VLS = (128, 256, 512)


def _sve_probe_shape(case) -> bool:
    """The canonical knob setting the emulated ACLE cells pin: plain
    Wilson, serial, defaults everywhere — the family axis probes *VL
    bit-identity*, not the knob cube (which the fast generic family
    sweeps exhaustively)."""
    return (case["operator"] == "wilson"
            and case["workers"] == 1 and case["caches"] is True
            and case["telemetry"] == "off"
            and case["transport"] == "in-process"
            and case["fault"] == "none")


def default_spec() -> ScenarioSpec:
    """The default scenario cube (see module docstring)."""
    return ScenarioSpec(
        name="repro-default",
        description=(
            "{VL} x {backend family} x {ExecutionPolicy knobs} x "
            "{fault model} x {operator} over a 4^4 lattice"
        ),
        axes=(
            Axis("operator", ("wilson", "clover", "wilson-eo",
                              "wilson-dist")),
            Axis("family", ("generic", "sve-acle")),
            Axis("vl", VLS),
            Axis("caches", (True, False)),
            Axis("workers", (1, 4)),
            Axis("telemetry", ("off", "metrics", "trace")),
            Axis("transport", ("in-process", "shmem")),
            Axis("fault", ("none", "memory", "comms", "disk")),
        ),
        constraints=(
            Constraint(
                reason=(
                    "emulated ACLE cells pin the canonical knob "
                    "setting: the family axis probes VL bit-identity "
                    "(the engine runs the layered path on emulated "
                    "backends: the fused body inlines plain-numpy "
                    "semantics)"
                ),
                forbids=lambda c: (c["family"] == "sve-acle"
                                   and not _sve_probe_shape(c)),
            ),
            Constraint(
                reason="comms faults need a rank-decomposed lattice",
                forbids=lambda c: (c["fault"] == "comms"
                                   and c["operator"] != "wilson-dist"),
            ),
            Constraint(
                reason=(
                    "mid-solve SDC campaigns run on the single-rank "
                    "operators (the distributed operator's fault story "
                    "is the comms axis)"
                ),
                forbids=lambda c: (c["fault"] == "memory"
                                   and c["operator"] == "wilson-dist"),
            ),
            Constraint(
                reason=(
                    "the shared-memory rank runtime hosts the "
                    "distributed operator only, and its wire faults "
                    "are exercised by the dedicated transport tests "
                    "(a seeded injector cannot cross a process "
                    "boundary deterministically)"
                ),
                forbids=lambda c: (c["transport"] == "shmem"
                                   and (c["operator"] != "wilson-dist"
                                        or c["fault"] != "none")),
            ),
        ),
        rules=(
            skip_rule(
                reason=(
                    f"VL-specific exclusion: the paper validates SVE "
                    f"at {PAPER_VLS} (§V-D); wider emulated VLs are "
                    f"declared but not run"
                ),
                when=lambda c: (c["family"] == "sve-acle"
                                and c["vl"] not in PAPER_VLS),
            ),
            xfail_rule(
                reason=(
                    "persistent link loss: bounded retry exhausts and "
                    "the halo exchange reports the dead link — "
                    "detected by construction, unrecoverable by "
                    "definition"
                ),
                when=lambda c: (c["fault"] == "comms"
                                and comms_schedule_kind(c)
                                == "drop-persistent"),
                expect=Outcome.DETECTED.value,
            ),
        ),
    )
