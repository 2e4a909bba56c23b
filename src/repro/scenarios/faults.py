"""The fault-cell bodies the scenario runner executes, keyed by fault.

A body is ``body(case, campaign, armed)``.  It runs one experiment
through the production stack under the cell's seeded
:class:`~repro.resilience.inject.FaultCampaign`, leaves what fired,
what was noticed and what was repaired in the campaign's ledger, and
raises :class:`~repro.verification.outcomes.SilentCorruption` when its
answer is wrong.  :func:`~repro.verification.outcomes.classify_cell`
folds the ledger and the error into the cell's outcome.

``armed`` switches the detection and recovery machinery on: checksummed
halos, the solver's fault guard, verifying reads, redundant kernel
execution and backend fallback.  Disarmed, the same seeded faults hit
the plain code paths — which is how a campaign shows the machinery does
the work: the same seed moves cells from ``fail`` (silent corruption)
to ``recovered``/``detected``.

Both specs run these bodies: the default cube's ``memory``, ``comms``
and ``disk`` values, and every value of the fault campaign
(:func:`repro.scenarios.defaults.campaign_spec`).  One experiment each:

* ``comms`` / ``comms-<kind>`` — a wire-fault schedule
  (:data:`~repro.scenarios.runner.COMMS_SCHEDULES`) against the
  distributed hop of the ``wilson-dist`` cell;
* ``memory`` — an exponent-bit flip in the ``mdag_m`` output during a
  CGNE solve;
* ``kernel-memory`` — a flipped DRAM load under an emulated SVE kernel;
* ``toolchain`` — the modelled armclang 18.3 predicate defects (§V-D);
* ``backend`` — a SIMD backend that raises mid-kernel;
* ``disk`` — bit rot on the newest solver checkpoint;
* ``archive`` — a torn write of a gauge archive;
* ``crash`` — a solve killed mid-flight while its newest checkpoint
  rots.
"""

from __future__ import annotations

import math
import tempfile
import warnings

import numpy as np

from repro.resilience.inject import (
    CommsFault,
    CommsFaultInjector,
    FaultyMemory,
    KillAtIteration,
    SimulatedCrash,
    bit_rot_file,
    flip_field_bit,
    torn_write_file,
)
from repro.scenarios.runner import (
    COMMS_SCHEDULES,
    comms_kind,
    distributed_operator,
    single_rank,
    work_product,
)
from repro.simd.generic import GenericBackend
from repro.verification.outcomes import SilentCorruption


# ======================================================================
# Comms: wire faults against the distributed hop
# ======================================================================

def _comms(case, campaign, armed) -> None:
    """The distributed hop under a seeded wire-fault schedule, with
    checksummed halos and bounded retry when armed."""
    want = work_product(case)
    faults = [CommsFault(*f) for f in COMMS_SCHEDULES[comms_kind(case)]]
    w, dpsi = distributed_operator(
        case, checksum_halos=armed, max_retries=3,
        comms_faults=CommsFaultInjector(campaign, faults))
    try:
        got = w.dhop(dpsi).gather()
    finally:
        # The comms layer has no campaign handle by design: fold its
        # protocol-visible counters into the ledger.
        for _ in range(dpsi.stats.detected_failures):
            campaign.record_detected("comms: bad delivery (CRC/timeout)")
        for _ in range(dpsi.stats.recovered_messages):
            campaign.record_recovered("comms: retransmission succeeded")
    if not np.array_equal(got, want):
        raise SilentCorruption(
            "distributed dhop differs from fault-free reference")


# ======================================================================
# SDC in solver state: a bit flip mid-CGNE
# ======================================================================

class _BitFlipOperator:
    """Delegate to a base operator, flipping one exponent bit of the
    ``mdag_m`` output on a scheduled call — the canonical Krylov
    silent-corruption mode (a recursion that keeps 'converging' while
    the true residual stalls)."""

    def __init__(self, base, campaign, at_call: int, bit: int = 60) -> None:
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


#: Mass for the mid-solve SDC cells.  Heavier than the hop cells' 0.1
#: on purpose: the normal equations must *converge* well inside the
#: iteration budget for the guard's true-residual drift check to have
#: a "converged" to drift *from* (at 0.1 the clover normal equations
#: are ill-conditioned enough that the recursion never settles and a
#: flip is indistinguishable from slow convergence).
SOLVE_MASS = 0.3


def _solve_target(case):
    """(operator, rhs) for the mid-solve SDC cell."""
    _, links, psi = single_rank(case)
    operator = case["operator"]
    if operator == "clover":
        from repro.grid.clover import WilsonClover

        return WilsonClover(links, mass=SOLVE_MASS, c_sw=1.0), psi
    from repro.grid.wilson import WilsonDirac

    if operator == "wilson-eo":
        from repro.grid.evenodd import SchurWilson

        schur = SchurWilson(WilsonDirac(links, mass=SOLVE_MASS))
        return schur, schur.project(psi, "odd")
    return WilsonDirac(links, mass=SOLVE_MASS), psi


class SolveDidNotConverge(RuntimeError):
    """A solve ran out of budget without converging — a *loud* failure
    (the caller holds ``converged=False``), categorically different
    from silent corruption."""


def _sdc(case, campaign, armed, at_call: int = 5, interval: int = 8,
         tol: float = 1e-6) -> None:
    """A bit flip in the ``mdag_m`` output at call ``at_call`` of a
    CGNE solve, guarded (true residual checked every ``interval``
    iterations) when armed.

    Three distinguishable endings, in the shared vocabulary:

    * the guard's drift detector restarts and converges —
      ``recovered`` (or ``pass`` when the flip lands benignly and is
      masked outright);
    * the recursion stalls and the solve returns ``converged=False``
      — the run *knows* it cannot trust the result, so this is
      ``detected``, never silent;
    * the solver **claims** convergence but the original system's
      true residual is above ``100 * tol`` — ``fail``, the one genuine
      silent-corruption mode.

    The drift detector runs at ``drift_factor=10``, tighter than the
    library default of 100.  The detector's bound lives in the
    normal-equations metric (CGNE recurses on ``M^dagger M``); the
    corruption check measures the original-system residual, which
    conditioning amplifies.  With both thresholds at 100x, a flip
    landing just inside the detector's contract can sit just above
    the check — a seed-dependent false ``fail`` for a solve that met
    its documented guarantee.  At 10x, ``fail`` requires the detector
    to miss by an order of magnitude.
    """
    from repro.engine.solve import solve_fermion

    op, b = _solve_target(case)
    guard = dict(recompute_interval=interval, drift_factor=10.0) \
        if armed else {}
    result = solve_fermion(_BitFlipOperator(op, campaign, at_call), b,
                           method="cg", ft=armed, tol=tol, max_iter=400,
                           campaign=campaign, **guard)
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


# ======================================================================
# Emulated kernels: DRAM SDC and the paper's toolchain defects
# ======================================================================

def _kernel_cell(case, campaign, armed, rng_seed: int, what: str,
                 memory=None, fault_model=None) -> None:
    """``z = x*y`` on the emulated SVE machine at the cell's VL.  Armed,
    the output is checked against a redundant architecture-independent
    execution — the §V-D compare-against-reference methodology as an
    acceptance test — and recomputed on mismatch."""
    from repro.perf.trace_cache import cached_run_kernel
    from repro.vectorizer import ir

    vl = case["vl"]
    rng = np.random.default_rng(rng_seed + vl)
    n = 1001  # ragged tail: exercises partial predicates
    x, y = rng.normal(size=n), rng.normal(size=n)
    got = cached_run_kernel(ir.mult_real_kernel(), [x, y], vl,
                            memory=memory, fault_model=fault_model).output
    if fault_model is not None:
        campaign.absorb_toolchain(fault_model)
    want = x * y
    if armed and not np.array_equal(got, want):
        campaign.record_detected(f"{what}: kernel output != redundant "
                                 f"execution at VL{vl}")
        got = want
        campaign.record_recovered(f"{what}: generic recomputation")
    if not np.array_equal(got, want):
        raise SilentCorruption(f"{what} fault corrupted kernel at VL{vl}")


def _kernel_memory(case, campaign, armed) -> None:
    """A scheduled load returns one flipped bit (DRAM SDC model)."""
    size = max(1 << 20, 64 * 1001 * 16 + (1 << 16))
    _kernel_cell(case, campaign, armed, 100, "memory",
                 memory=FaultyMemory(size, campaign, flip_reads={8}))


def _toolchain(case, campaign, armed) -> None:
    """The modelled armclang 18.3 defects at fault-prone VLs."""
    from repro.sve.faults import armclang_18_3

    _kernel_cell(case, campaign, armed, 200, "toolchain",
                 fault_model=armclang_18_3())


# ======================================================================
# Backend crash -> graceful degradation
# ======================================================================

class _FlakyBackend(GenericBackend):
    """A backend whose ``mul`` dies on a scheduled call — the moral
    equivalent of an SVE-sim fault deep in a vector kernel."""

    def __init__(self, width_bits: int, campaign, fail_on_call: int = 2):
        super().__init__(width_bits)
        self.name = f"flaky-sve{width_bits}"
        self.campaign = campaign
        self.fail_on_call = fail_on_call
        self._mul_calls = 0

    def mul(self, x, y):
        self._mul_calls += 1
        if self._mul_calls == self.fail_on_call:
            self.campaign.record_fired(
                "backend-crash", self.name,
                detail=f"mul call #{self.fail_on_call}")
            raise RuntimeError("simulated backend fault in mul")
        return super().mul(x, y)


def _backend(case, campaign, armed) -> None:
    """A raising backend degrades to ``generic`` instead of killing the
    run when armed (the ``simd.registry`` fallback policy)."""
    from repro.simd.resilient import BackendDegradedWarning, \
        ResilientBackend

    vl = case["vl"]
    flaky = _FlakyBackend(vl, campaign)
    be = ResilientBackend(flaky) if armed else flaky
    rng = np.random.default_rng(300 + vl)
    cl = flaky.clanes()
    x = rng.normal(size=(3, cl)) + 1j * rng.normal(size=(3, cl))
    y = rng.normal(size=(3, cl)) + 1j * rng.normal(size=(3, cl))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BackendDegradedWarning)
        for _ in range(3):  # the 2nd call trips the fault
            got = be.mul(x, y)
    if armed and be.degraded:
        campaign.record_detected("backend: op raised, degraded to generic")
        if np.array_equal(got, x * y):
            campaign.record_recovered("backend: generic fallback correct")
    if not np.array_equal(got, x * y):
        raise SilentCorruption("backend fallback produced wrong result")


# ======================================================================
# Disk: checkpoint bit rot, torn gauge archives
# ======================================================================

def _disk(case, campaign, armed) -> None:
    """Bit rot on the newest solver checkpoint.  Armed, the
    CRC-verifying store quarantines it and resumes from the previous
    one; the naive reader trusts the bytes."""
    from repro.resilience.checkpoint import CheckpointStore, \
        read_checkpoint

    arr = single_rank(case)[2].to_canonical()
    states = {10: arr, 20: arr * 2.0}
    with tempfile.TemporaryDirectory() as d:
        store = CheckpointStore(d, campaign=campaign if armed else None)
        for it, state in states.items():
            store.save("scenario", {"x": state}, iteration=it)
        newest = store.list("scenario")[0]
        bit_rot_file(newest, campaign)
        ck = (store.load_latest("scenario") if armed
              else read_checkpoint(newest, verify=False))
        if ck is None or not np.array_equal(ck.arrays["x"],
                                            states[ck.iteration]):
            raise SilentCorruption(
                "resumed from a wrong checkpoint state undetected")


def _archive(case, campaign, armed) -> None:
    """A gauge archive suffers a torn write (zero-padded tail).  Armed,
    the verifying load (payload CRC, per-link digests, unitarity,
    plaquette) rejects it and the replica every archive pipeline keeps
    is loaded; the naive reader deserialises zeroed links."""
    from repro.grid.io import ConfigFormatError, load_gauge, save_gauge

    grid, links, _ = single_rank(case)
    with tempfile.TemporaryDirectory() as d:
        primary, replica = f"{d}/cfg.lat", f"{d}/cfg.replica.lat"
        save_gauge(primary, links, grid)
        save_gauge(replica, links, grid)
        torn_write_file(primary, campaign)
        try:
            got = load_gauge(primary, grid, verify=armed)
        except ConfigFormatError as exc:
            if not armed:
                raise
            campaign.record_detected(f"gauge archive: {exc}")
            got = load_gauge(replica, grid, verify=True)
            campaign.record_recovered("gauge archive: replica restored")
        for a, u in zip(got, links):
            if not np.array_equal(a.data, u.data):
                raise SilentCorruption(
                    "torn gauge archive loaded undetected")


# ======================================================================
# Crash mid-solve: kill + checkpoint rot, supervised vs naive
# ======================================================================

def _crash(case, campaign, armed) -> None:
    """A solve is killed mid-flight AND its newest durable checkpoint
    bit-rots at the moment of death.

    Armed, the supervised runtime quarantines the rotted file, resumes
    from the older valid checkpoint and converges (``recovered``).
    Disarmed, the naive restart script trusts the newest checkpoint's
    bytes and resumes from corrupt state without noticing.
    """
    from repro.engine.solve import solve_fermion
    from repro.grid.wilson import WilsonDirac
    from repro.resilience.checkpoint import CheckpointStore, \
        checkpoint_key, read_checkpoint
    from repro.resilience.supervisor import supervised_solve

    _, links, b = single_rank(case)
    w = WilsonDirac(links, mass=0.1)
    tol = 1e-8
    with tempfile.TemporaryDirectory() as d:
        store = CheckpointStore(d, campaign=campaign if armed else None)
        key = checkpoint_key(w, b, tol)
        kill = KillAtIteration(campaign, iteration=6, name="cgne")

        def chaos(it, x, true_rel):
            # At the kill point, rot the newest on-disk checkpoint
            # first: the crash and the storage fault land together.
            if it >= kill.iteration and not kill.exhausted:
                paths = store.list(key)
                if paths:
                    bit_rot_file(paths[0], campaign)
            kill.check(it)

        if armed:
            sup = supervised_solve(
                w, b, tol=tol, store=store, campaign=campaign,
                recompute_interval=3, on_checkpoint=chaos)
            assert kill.exhausted, "solve converged before the kill"
            if not sup.converged:
                raise AssertionError("supervised solve did not converge")
            true_rel = (b - w.apply(sup.result.x)).norm2() ** 0.5 \
                / b.norm2() ** 0.5
            if not math.isfinite(true_rel) or true_rel > 100.0 * tol:
                raise SilentCorruption(
                    f"supervised answer wrong: true residual "
                    f"{true_rel:.3e}")
            return
        truth = {}

        def naive_hook(it, x, true_rel):
            chaos(it, x, true_rel)
            truth[it] = x.to_canonical()
            store.save(key, {"x": truth[it]}, iteration=it,
                       residual=true_rel, tol=tol)

        try:
            solve_fermion(w, b, method="cg", ft=True, tol=tol,
                          recompute_interval=3, good_hook=naive_hook)
        except SimulatedCrash:
            # The naive restart: take the newest checkpoint at face
            # value.  Its payload is rotted.
            ck = read_checkpoint(store.list(key)[0], verify=False)
            if not np.array_equal(ck.arrays["x"], truth[ck.iteration]):
                raise SilentCorruption(
                    "restarted from rotted checkpoint undetected"
                ) from None


#: Fault axis value -> cell body.
BODIES = {
    "comms": _comms,
    **{f"comms-{kind}": _comms for kind in COMMS_SCHEDULES},
    "memory": _sdc,
    "kernel-memory": _kernel_memory,
    "toolchain": _toolchain,
    "backend": _backend,
    "disk": _disk,
    "archive": _archive,
    "crash": _crash,
}
