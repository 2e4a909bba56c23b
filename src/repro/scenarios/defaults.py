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

The fault campaign is the second spec, :func:`campaign_spec`: one
``fault`` value per experiment of :mod:`repro.scenarios.faults` × VL,
every policy knob pinned.  :func:`run_campaign` runs it armed or
exposed through the same :func:`~repro.scenarios.runner.run_cases`,
and the result matrix's ``failures()`` / ``counts()`` are its gate.
"""

from __future__ import annotations

from repro.scenarios.matrix import ResultMatrix
from repro.scenarios.runner import comms_kind, run_cases
from repro.scenarios.sampler import cartesian_cases
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


#: Persistent link loss: the one comms schedule nothing can recover.
_DEAD_LINK = xfail_rule(
    reason=(
        "persistent link loss: bounded retry exhausts and the halo "
        "exchange reports the dead link — detected by construction, "
        "unrecoverable by definition"
    ),
    when=lambda c: comms_kind(c) == "drop-persistent",
    expect=Outcome.DETECTED.value,
)


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
            _DEAD_LINK,
        ),
    )


#: The fault campaign's experiments, one ``fault`` value each (see
#: :mod:`repro.scenarios.faults`).
CAMPAIGN_FAULTS = (
    "comms-drop", "comms-drop-persistent", "comms-corrupt",
    "comms-truncate", "comms-duplicate", "memory", "kernel-memory",
    "toolchain", "backend", "disk", "archive", "crash",
)

#: The composed chaos subset: wire corruption, disk rot on checkpoints
#: and archives, and the kill+rot crash.
CHAOS_FAULTS = ("comms-corrupt", "disk", "archive", "crash")


def campaign_spec() -> ScenarioSpec:
    """The fault campaign: {fault} × {VL}, every policy knob pinned."""
    return ScenarioSpec(
        name="repro-campaign",
        description=(
            "{fault} x {VL}: every fault class end to end through the "
            "production stack over a 4^4 lattice"
        ),
        axes=(
            Axis("fault", CAMPAIGN_FAULTS),
            Axis("vl", VLS),
            Axis("operator", ("wilson", "wilson-dist")),
            Axis("family", ("generic",)),
            Axis("caches", (True,)),
            Axis("workers", (1,)),
            Axis("telemetry", ("off",)),
            Axis("transport", ("in-process",)),
        ),
        constraints=(
            Constraint(
                reason="comms faults need a rank-decomposed lattice",
                forbids=lambda c: (c["fault"].startswith("comms-")
                                   and c["operator"] != "wilson-dist"),
            ),
            Constraint(
                reason="every other fault runs once, on one rank",
                forbids=lambda c: (not c["fault"].startswith("comms-")
                                   and c["operator"] == "wilson-dist"),
            ),
        ),
        rules=(_DEAD_LINK,),
        # A later flip, a finer check and a tighter tol than the cube's
        # SDC cells: the flip lands in a nearly converged recursion.
        settings={"memory": dict(at_call=15, interval=10, tol=1e-7)},
    )


def run_campaign(seed: int = 0, armed: bool = True, vls=(256, 1024),
                 faults=None) -> ResultMatrix:
    """Run the fault campaign at ``vls`` into a result matrix.

    ``faults`` narrows it to a subset of :data:`CAMPAIGN_FAULTS`
    (:data:`CHAOS_FAULTS` is the chaos smoke); ``seed`` offsets every
    cell's key-derived fault seed.  ``armed=False`` runs the same cells
    with checksums, the solver guard, verifying reads, redundant
    execution and backend fallback off — the exposed run the armed
    one is compared against.
    """
    faults = CAMPAIGN_FAULTS if faults is None else tuple(faults)
    unknown = (set(vls) - set(VLS)) | (set(faults) - set(CAMPAIGN_FAULTS))
    if unknown:
        raise ValueError(f"not in the campaign spec: "
                         f"{sorted(map(str, unknown))}")
    spec = campaign_spec()
    cases = [c for c in cartesian_cases(spec)
             if c["vl"] in vls and c["fault"] in faults]
    return run_cases(spec, cases, seed=seed, base_seed=seed, armed=armed)
