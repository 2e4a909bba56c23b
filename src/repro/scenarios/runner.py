"""Execute generated scenario cases through the production stack.

Every case runs through ``engine.scope(...)`` with the policy knobs
the case names, against the operator the case names, under the fault
model the case names:

* ``fault=none`` — the case's hot-path product (a ``dhop`` /
  operator application) is SHA-256 hashed in canonical site order and
  compared against the **engine-off reference** for the same
  (operator, backend family, VL): bit-identity is the pass criterion,
  exactly the §V-D compare-against-reference methodology.  Outcome is
  ``pass`` or ``fail`` — a fault-free cell has nothing to "detect".
* ``fault=memory`` — a seeded exponent-bit flip lands in the operator
  output mid-CG inside a fault-tolerant :func:`~repro.engine.solve.
  solve_fermion`; the drift detector must notice and restart.
* ``fault=comms`` — a seeded wire fault (corrupt/drop/truncate/
  duplicate, or a persistent dead link) hits the distributed halo
  exchange with checksums + bounded retry armed.
* ``fault=disk`` — the newest solver checkpoint bit-rots on disk; the
  CRC-verifying store must quarantine it and fall back.

Fault cells classify through the shared
:func:`~repro.verification.outcomes.classify_cell`, so the scenario
matrix and the campaign tables cannot diverge on what ``recovered``
means.

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

#: The comms fault kinds a cell's seeded schedule draws from.  The
#: schedule is a pure function of the case key (CRC-32), so the
#: defaults' xfail rule can predict — statically — which cells draw
#: the unrecoverable persistent drop.
COMMS_KINDS = ("corrupt", "drop", "truncate", "duplicate",
               "drop-persistent")


def case_seed(case: Case, base_seed: int = 0) -> int:
    """One stable seed per cell: CRC-32 of the case key, independent
    of execution order and identical across processes (the same
    discipline as the campaign factory)."""
    return base_seed + zlib.crc32(case.key.encode())


def comms_schedule_kind(case: Case) -> str:
    """Which wire fault this cell's schedule draws (deterministic)."""
    return COMMS_KINDS[zlib.crc32(f"comms:{case.key}".encode())
                       % len(COMMS_KINDS)]


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


def _single_rank(case: Case):
    from repro.grid.cartesian import GridCartesian
    from repro.grid.random import random_gauge, random_spinor
    from repro.simd import get_backend

    be = get_backend(backend_key(case))
    grid = GridCartesian(list(DIMS), be)
    links = random_gauge(grid, seed=GAUGE_SEED)
    psi = random_spinor(grid, seed=SOURCE_SEED)
    return grid, links, psi


def work_product(case: Case) -> np.ndarray:
    """The canonical-order output array of this cell's hot path."""
    operator = case["operator"]
    if operator == "wilson-dist":
        from repro.grid.comms import DistributedLattice
        from repro.grid.dist_wilson import DistributedWilson, \
            distribute_gauge
        from repro.grid.random import random_gauge, random_spinor
        from repro.grid.cartesian import GridCartesian
        from repro.simd import get_backend
        from repro.grid.wilson import SPINOR

        be = get_backend(backend_key(case))
        grid = GridCartesian(list(DIMS), be)
        links = random_gauge(grid, seed=GAUGE_SEED)
        psi = random_spinor(grid, seed=SOURCE_SEED)
        w = DistributedWilson(
            distribute_gauge(links, list(DIMS), be, list(MPI)), mass=0.1)
        dpsi = DistributedLattice(list(DIMS), be, list(MPI),
                                  SPINOR).scatter(psi.to_canonical())
        return w.dhop(dpsi).gather()

    _, links, psi = _single_rank(case)
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
# Fault executors
# ======================================================================

class _BitFlipOperator:
    """Delegate to a base operator, flipping one exponent bit of the
    ``mdag_m`` output on a scheduled call — the canonical Krylov
    silent-corruption mode (a recursion that keeps 'converging' while
    the true residual stalls)."""

    def __init__(self, base, campaign, at_call: int = 5,
                 bit: int = 60) -> None:
        self.base = base
        self.campaign = campaign
        self.at_call = at_call
        self.bit = bit
        self._calls = 0

    def apply(self, psi):
        return self.base.apply(psi)

    def apply_dagger(self, psi):
        return self.base.apply_dagger(psi)

    def mdag_m(self, psi):
        from repro.resilience.inject import flip_field_bit

        out = self.base.mdag_m(psi)
        self._calls += 1
        if self._calls == self.at_call:
            flip_field_bit(out, self.campaign, bit=self.bit,
                           name="mdag_m output")
        return out

    @property
    def geometry(self):
        return self.base.geometry

    def flops_per_site(self) -> int:
        return self.base.flops_per_site()

    def bytes_per_site(self) -> int:
        return self.base.bytes_per_site()


#: Mass for the mid-solve SDC cells.  Heavier than the dhop cells'
#: 0.1 on purpose: the normal equations must *converge* well inside
#: the iteration budget for the FT solver's true-residual drift check
#: to have a "converged" to drift *from* — the same reason the
#: campaign's own SDC case runs at mass 0.3 (at 0.1 the clover normal
#: equations are ill-conditioned enough that the recursion never
#: settles and a flip is indistinguishable from slow convergence).
SOLVE_MASS = 0.3


def _solve_target(case: Case):
    """(operator, rhs) for the mid-solve SDC cell."""
    _, links, psi = _single_rank(case)
    operator = case["operator"]
    if operator == "clover":
        from repro.grid.clover import WilsonClover

        return WilsonClover(links, mass=SOLVE_MASS, c_sw=1.0), psi
    if operator == "wilson-eo":
        from repro.grid.evenodd import SchurWilson
        from repro.grid.wilson import WilsonDirac

        schur = SchurWilson(WilsonDirac(links, mass=SOLVE_MASS))
        return schur, schur.project(psi, "odd")
    from repro.grid.wilson import WilsonDirac

    return WilsonDirac(links, mass=SOLVE_MASS), psi


class SolveDidNotConverge(RuntimeError):
    """A solve ran out of budget without converging — a *loud* failure
    (the caller holds ``converged=False``), categorically different
    from silent corruption."""


def _run_memory_fault(case: Case, campaign) -> None:
    """An SDC bit flip mid-CG under the FT solver.

    Three distinguishable endings, in the shared vocabulary:

    * the FT solver's drift detector restarts and converges —
      ``recovered`` (or ``pass`` when the flip lands benignly and is
      masked outright);
    * the recursion stalls and the solve returns ``converged=False``
      — the run *knows* it cannot trust the result, so this is
      ``detected``, never silent;
    * the solver **claims** convergence but the true residual (checked
      against the clean operator) is wrong — ``fail``, the one genuine
      silent-corruption mode.

    The drift detector runs at ``drift_factor=10`` here, tighter than
    the library default of 100.  The detector's acceptance bound lives
    in the normal-equations metric (CGNE recurses on ``M^dagger M``);
    the corruption check below measures the original-system residual,
    which conditioning amplifies.  With both thresholds at 100x the
    two bounds coincide in *different* metrics, and a flip landing
    just inside the detector's contract can sit just above the check
    — a seed-dependent false ``fail`` for a solve that met its
    documented guarantee.  The 10x detector margin leaves the
    corruption threshold meaning what it says: ``fail`` requires the
    detector to miss by an order of magnitude.
    """
    import math

    from repro.engine.solve import solve_fermion
    from repro.verification.suite import SilentCorruption

    op, b = _solve_target(case)
    tol = 1e-6
    wrapped = _BitFlipOperator(op, campaign, at_call=5)
    result = solve_fermion(wrapped, b, method="cg", ft=True, tol=tol,
                           max_iter=400, recompute_interval=8,
                           drift_factor=10.0, campaign=campaign)
    if not result.converged:
        campaign.record_detected(
            "solver reported non-convergence (corrupted recursion)")
        raise SolveDidNotConverge(
            f"no convergence in {result.iterations} iterations "
            f"(residual {result.residual:.3e})")
    true_rel = result.residual
    if not math.isfinite(true_rel) or true_rel > 100.0 * tol:
        raise SilentCorruption(
            f"solver claims convergence but true residual is "
            f"{true_rel:.3e}")


def _run_comms_fault(case: Case, campaign) -> None:
    """A seeded wire fault against the checksummed, retrying halo
    exchange of the distributed operator."""
    from repro.grid.cartesian import GridCartesian
    from repro.grid.comms import DistributedLattice, HaloExchangeError
    from repro.grid.dist_wilson import DistributedWilson, distribute_gauge
    from repro.grid.random import random_gauge, random_spinor
    from repro.grid.wilson import SPINOR
    from repro.resilience.campaign import sync_comms_stats
    from repro.resilience.inject import CommsFault, CommsFaultInjector
    from repro.simd import get_backend
    from repro.verification.suite import SilentCorruption

    kind = comms_schedule_kind(case)
    if kind == "drop-persistent":
        faults = [CommsFault("drop", message=2, persistent=True)]
    else:
        message = {"corrupt": 1, "drop": 2, "truncate": 3,
                   "duplicate": 4}[kind]
        faults = [CommsFault(kind, message=message)]

    be = get_backend(backend_key(case))
    grid = GridCartesian(list(DIMS), be)
    psi = random_spinor(grid, seed=SOURCE_SEED)
    links = random_gauge(grid, seed=GAUGE_SEED)
    w = DistributedWilson(
        distribute_gauge(links, list(DIMS), be, list(MPI)), mass=0.1)
    want = w.dhop(DistributedLattice(list(DIMS), be, list(MPI),
                                     SPINOR).scatter(
        psi.to_canonical())).gather()
    dpsi = DistributedLattice(
        list(DIMS), be, list(MPI), SPINOR, checksum_halos=True,
        comms_faults=CommsFaultInjector(campaign, faults), max_retries=3,
    ).scatter(psi.to_canonical())
    try:
        got = w.dhop(dpsi).gather()
    except HaloExchangeError:
        sync_comms_stats(campaign, dpsi.stats)
        raise
    sync_comms_stats(campaign, dpsi.stats)
    if not np.array_equal(got, want):
        raise SilentCorruption(
            "distributed dhop differs from fault-free reference")


def _run_disk_fault(case: Case, campaign) -> None:
    """Bit rot on the newest checkpoint; the CRC-verifying store must
    quarantine it and resume from the previous one."""
    import tempfile

    from repro.resilience.checkpoint import CheckpointStore
    from repro.resilience.inject import bit_rot_file
    from repro.verification.suite import SilentCorruption

    grid, _links, psi = _single_rank(case)
    arr = psi.to_canonical()
    states = {10: arr, 20: arr * 2.0}
    with tempfile.TemporaryDirectory() as d:
        store = CheckpointStore(d, campaign=campaign)
        for it, state in states.items():
            store.save("scenario", {"x": state}, iteration=it)
        bit_rot_file(store.list("scenario")[0], campaign)
        ck = store.load_latest("scenario")
        if ck is None or not np.array_equal(ck.arrays["x"],
                                            states[ck.iteration]):
            raise SilentCorruption(
                "checkpoint fallback returned wrong state")


_FAULT_RUNNERS = {
    "memory": _run_memory_fault,
    "comms": _run_comms_fault,
    "disk": _run_disk_fault,
}


# ======================================================================
# The per-case and per-campaign drivers
# ======================================================================

def run_case(case: Case, spec: ScenarioSpec,
             refs: Optional[ReferenceBank] = None,
             base_seed: int = 0) -> Cell:
    """Execute one case (honouring skip/xfail metadata) into a Cell."""
    import repro.engine as engine
    from repro.resilience.inject import FaultCampaign

    skip = spec.skip_for(case)
    if skip is not None:
        return Cell(key=case.key, status=SKIP, reason=skip.reason)
    xfail = spec.xfail_for(case)
    refs = refs if refs is not None else ReferenceBank()

    fault = case.get("fault", "none")
    t0 = time.perf_counter()
    cell_hash = None
    detail = ""
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
        campaign = FaultCampaign(seed=case_seed(case, base_seed),
                                 name=f"scenario-{fault}")
        error: Optional[BaseException] = None
        try:
            with engine.scope(**policy_overrides(case)):
                _FAULT_RUNNERS[fault](case, campaign)
        except Exception as exc:  # noqa: BLE001 - classified below
            error = exc
            detail = f"{type(exc).__name__}: {exc}"
        status = classify_cell(campaign, error).value
    return Cell(
        key=case.key, status=status,
        xfail=xfail is not None,
        expect=xfail.expect if xfail is not None else None,
        reason=xfail.reason if xfail is not None else "",
        hash=cell_hash, seconds=time.perf_counter() - t0, detail=detail,
    )


def run_cases(spec: ScenarioSpec, cases: Sequence[Case],
              mode: str = "custom", seed: int = 0,
              base_seed: int = 0,
              progress: Optional[Callable] = None) -> ResultMatrix:
    """Run a generated case list into a :class:`ResultMatrix`.

    Starts from a clean slate (same discipline as
    :func:`~repro.verification.suite.run_campaign_suite`): sticky
    backend degradations and live comms state from earlier work are
    reset, and the base policy's fallback flag is restored on exit.
    Counters and caches are left alone so a matrix can run
    mid-benchmark.
    """
    from repro.engine.policy import base_policy, update_base_policy
    from repro.engine.reset import reset_all

    reset_all(counters=False, caches=False)
    fallback_before = base_policy().fallback
    matrix = ResultMatrix(spec=spec.name, mode=mode, seed=seed)
    refs = ReferenceBank()
    try:
        for case in cases:
            cell = run_case(case, spec, refs=refs, base_seed=base_seed)
            matrix.add(cell)
            if progress is not None:
                progress(cell)
    finally:
        update_base_policy(fallback=fallback_before)
    return matrix
