"""Execute generated scenario cases through the production stack.

Every case runs through ``engine.scope(...)`` with the policy knobs
the case names, against the operator it names, under the fault it
names:

* ``fault=none`` — the case's hot-path product (a ``dhop`` /
  operator application) is SHA-256 hashed in canonical site order and
  compared against the **engine-off reference** for the same
  (operator, backend family, VL): bit-identity is the pass criterion,
  exactly the §V-D compare-against-reference methodology.  Outcome is
  ``pass`` or ``fail`` — a fault-free cell has nothing to "detect".
* any other value — the fault's body in :mod:`repro.scenarios.faults`
  runs under a fresh :class:`~repro.resilience.inject.FaultCampaign`
  seeded from the case key, and the shared
  :func:`~repro.verification.outcomes.classify_cell` folds its ledger
  and error into the cell's outcome.  ``armed=False`` runs the same
  cells with the detection and recovery machinery switched off.

:func:`run_cases` is the one loop that runs a fault cell: the default
cube and the fault campaign (:func:`repro.scenarios.defaults.
run_campaign`) are both case lists it runs into a
:class:`~repro.scenarios.matrix.ResultMatrix`.

All grid/resilience imports are function-level: this module is
imported by the CLI and CI glue, which must stay cheap.
"""

from __future__ import annotations

import hashlib
import time
import zlib
from typing import Callable, Optional, Sequence

import numpy as np

from repro.scenarios.matrix import SKIP, Cell, ResultMatrix
from repro.scenarios.spec import Case, ScenarioSpec
from repro.verification.outcomes import Outcome, classify_cell

#: The lattice every scenario cell runs on: small enough that a full
#: pairwise sample stays inside the CI budget, big enough that every
#: knob (tiling, halo exchange, checkerboarding) is exercised.
DIMS = (4, 4, 4, 4)

#: Rank decomposition for the distributed operator cells.
MPI = (2, 1, 1, 1)

#: Gauge/source seeds — fixed so hashes are stable across runs.
GAUGE_SEED = 11
SOURCE_SEED = 7

#: Per-family backend registry key patterns.
FAMILY_KEYS = {
    "generic": "generic{vl}",
    "sve-acle": "sve{vl}-acle",
}

#: Each comms fault kind's wire schedule: ``CommsFault(kind, message,
#: persistent)`` arguments, messages counted from 0 over one
#: distributed hop.  Transient faults fire on the first delivery only;
#: the persistent drop is a dead link.
COMMS_SCHEDULES = {
    "corrupt": (("corrupt", 1), ("corrupt", 6), ("corrupt", 11)),
    "drop": (("drop", 2),),
    "truncate": (("truncate", 3),),
    "duplicate": (("duplicate", 4),),
    "drop-persistent": (("drop", 5, True),),
}

#: The kinds a plain ``comms`` cell's schedule draws from.  The draw is
#: a pure function of the case key (CRC-32), so the defaults' xfail
#: rule can predict — statically — which cells draw the unrecoverable
#: persistent drop.
COMMS_KINDS = tuple(COMMS_SCHEDULES)


def case_seed(case: Case, base_seed: int = 0) -> int:
    """One stable seed per cell: CRC-32 of the case key, independent
    of execution order and identical across processes."""
    return base_seed + zlib.crc32(case.key.encode())


def comms_schedule_kind(case: Case) -> str:
    """Which wire fault this cell's schedule draws (deterministic)."""
    return COMMS_KINDS[zlib.crc32(f"comms:{case.key}".encode())
                       % len(COMMS_KINDS)]


def comms_kind(case: Case) -> Optional[str]:
    """The wire schedule a comms cell runs — named by a ``comms-<kind>``
    fault value, drawn from the case key for plain ``comms`` — or
    ``None`` for any other fault."""
    fault = case.get("fault", "none")
    if fault == "comms":
        return comms_schedule_kind(case)
    if fault.startswith("comms-"):
        return fault[len("comms-"):]
    return None


def backend_key(case: Case) -> str:
    return FAMILY_KEYS[case["family"]].format(vl=case["vl"])


def policy_overrides(case: Case) -> dict:
    """The ``engine.scope`` overrides a case's knob axes resolve to."""
    overrides = {
        "enabled": True,
        "caches": case["caches"],
        "workers": case["workers"],
        "telemetry": case["telemetry"],
        "transport": case.get("transport", "in-process"),
        "backend": backend_key(case),
    }
    if case["workers"] > 1:
        # DIMS has 256 sites; the default floor would keep the pool
        # idle and the workers axis would test nothing.
        overrides["tile_min_sites"] = 16
    return overrides


# ======================================================================
# Hot-path work products (what fault-free cells hash)
# ======================================================================

def _hash_array(arr: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def single_rank(case: Case):
    """(grid, links, source) of a single-rank cell."""
    from repro.grid.cartesian import GridCartesian
    from repro.grid.random import random_gauge, random_spinor
    from repro.simd import get_backend

    be = get_backend(backend_key(case))
    grid = GridCartesian(list(DIMS), be)
    links = random_gauge(grid, seed=GAUGE_SEED)
    psi = random_spinor(grid, seed=SOURCE_SEED)
    return grid, links, psi


def distributed_operator(case: Case, **lattice_kw):
    """(operator, scattered source) of a rank-decomposed cell;
    ``lattice_kw`` configures the source's wire (checksums, faults)."""
    from repro.grid.comms import DistributedLattice
    from repro.grid.dist_wilson import DistributedWilson, distribute_gauge
    from repro.grid.wilson import SPINOR

    grid, links, psi = single_rank(case)
    be = grid.backend
    w = DistributedWilson(
        distribute_gauge(links, list(DIMS), be, list(MPI)), mass=0.1)
    dpsi = DistributedLattice(list(DIMS), be, list(MPI), SPINOR,
                              **lattice_kw).scatter(psi.to_canonical())
    return w, dpsi


def work_product(case: Case) -> np.ndarray:
    """The canonical-order output array of this cell's hot path."""
    operator = case["operator"]
    if operator == "wilson-dist":
        w, dpsi = distributed_operator(case)
        return w.dhop(dpsi).gather()

    _, links, psi = single_rank(case)
    if operator == "wilson":
        from repro.grid.wilson import WilsonDirac

        return WilsonDirac(links, mass=0.1).dhop(psi).to_canonical()
    if operator == "clover":
        from repro.grid.clover import WilsonClover

        return WilsonClover(links, mass=0.1,
                            c_sw=1.0).apply(psi).to_canonical()
    if operator == "wilson-eo":
        from repro.grid.evenodd import SchurWilson
        from repro.grid.wilson import WilsonDirac

        schur = SchurWilson(WilsonDirac(links, mass=0.1))
        return schur.embed(
            schur.apply(schur.project(psi, "odd"))).to_canonical()
    raise ValueError(f"unknown operator axis value {operator!r}")


class ReferenceBank:
    """Engine-off reference hashes, one per (operator, family, VL).

    The reference is the same work product computed under
    ``scope(enabled=False)`` — the exact pre-engine code path — so a
    matching hash *is* the bit-identity statement the equivalence
    tests make, cell by generated cell.
    """

    def __init__(self) -> None:
        self._hashes: dict = {}

    def reference_hash(self, case: Case) -> str:
        import repro.engine as engine

        key = (case["operator"], case["family"], case["vl"])
        got = self._hashes.get(key)
        if got is None:
            with engine.scope(enabled=False):
                got = _hash_array(work_product(case))
            self._hashes[key] = got
        return got


# ======================================================================
# The per-case and per-matrix drivers
# ======================================================================

def run_case(case: Case, spec: ScenarioSpec,
             refs: Optional[ReferenceBank] = None,
             base_seed: int = 0, armed: bool = True) -> Cell:
    """Execute one case (honouring skip/xfail metadata) into a Cell.

    A fault cell runs its body with the spec's settings for that fault
    value (:attr:`ScenarioSpec.settings`); ``armed=False`` switches the
    body's detection and recovery machinery off."""
    import repro.engine as engine

    skip = spec.skip_for(case)
    if skip is not None:
        return Cell(key=case.key, status=SKIP, reason=skip.reason)
    xfail = spec.xfail_for(case)
    refs = refs if refs is not None else ReferenceBank()

    fault = case.get("fault", "none")
    t0 = time.perf_counter()
    cell_hash = None
    detail = ""
    fired = 0
    if fault == "none":
        # Bit-identity is the whole criterion: hash under the case's
        # policy, compare against the engine-off reference.
        try:
            with engine.scope(**policy_overrides(case)):
                cell_hash = _hash_array(work_product(case))
            if cell_hash == refs.reference_hash(case):
                status = Outcome.PASS.value
            else:
                status = Outcome.FAIL.value
                detail = ("bit-identity hash differs from engine-off "
                          "reference")
        except Exception as exc:  # noqa: BLE001 - recorded, not hidden
            status = Outcome.FAIL.value
            detail = f"{type(exc).__name__}: {exc}"
    else:
        from repro.resilience.inject import FaultCampaign
        from repro.scenarios.faults import BODIES

        campaign = FaultCampaign(seed=case_seed(case, base_seed),
                                 name=f"scenario-{fault}")
        error: Optional[BaseException] = None
        try:
            with engine.scope(**policy_overrides(case)):
                BODIES[fault](case, campaign, armed,
                              **spec.settings.get(fault, {}))
        except Exception as exc:  # noqa: BLE001 - classified below
            error = exc
            detail = f"{type(exc).__name__}: {exc}"
        status = classify_cell(campaign, error).value
        fired = campaign.fired
    return Cell(
        key=case.key, status=status,
        xfail=xfail is not None,
        expect=xfail.expect if xfail is not None else None,
        reason=xfail.reason if xfail is not None else "",
        hash=cell_hash, seconds=time.perf_counter() - t0, detail=detail,
        fired=fired,
    )


def run_cases(spec: ScenarioSpec, cases: Sequence[Case],
              mode: str = "custom", seed: int = 0,
              base_seed: int = 0,
              progress: Optional[Callable] = None,
              armed: bool = True) -> ResultMatrix:
    """Run a generated case list into a :class:`ResultMatrix`.

    Starts from a clean slate: sticky backend degradations, open
    circuit breakers and live comms state from earlier work are reset
    (:func:`repro.engine.reset_all`), and the base policy's fallback
    flag is restored on exit even if a cell flips it.  Counters and
    caches are left alone so a matrix can run mid-benchmark.
    """
    from repro.engine.policy import base_policy, update_base_policy
    from repro.engine.reset import reset_all

    reset_all(counters=False, caches=False)
    fallback_before = base_policy().fallback
    matrix = ResultMatrix(spec=spec.name, mode=mode, seed=seed)
    refs = ReferenceBank()
    try:
        for case in cases:
            cell = run_case(case, spec, refs=refs, base_seed=base_seed,
                            armed=armed)
            matrix.add(cell)
            if progress is not None:
                progress(cell)
    finally:
        update_base_policy(fallback=fallback_before)
    return matrix
