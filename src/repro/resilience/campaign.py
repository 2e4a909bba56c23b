"""The default fault-injection campaign: cases, factory, runner.

Each campaign case exercises one fault class end-to-end through the
production stack and checks the final answer against a fault-free
reference.  Run with ``resilient=True`` the detection/recovery
machinery is armed (checksummed halos, FT solvers, redundant kernel
verification, backend fallback); with ``resilient=False`` the same
faults hit the pristine code paths — which is how the campaign proves
the layer does the work: the identical seed must flip cells from
``fail`` (silent corruption) to ``recovered``/``detected``.

The case x VL x campaign matrix is run by
:func:`repro.verification.suite.run_campaign_suite`; this module
supplies the cases and the seeded per-cell campaign factory.
"""

from __future__ import annotations

import math
import tempfile
import warnings
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.grid.cartesian import GridCartesian
from repro.grid.comms import DistributedLattice, HaloExchangeError
from repro.grid.dist_wilson import DistributedWilson, distribute_gauge
from repro.grid.random import random_gauge, random_spinor
from repro.grid.solver import conjugate_gradient
from repro.grid.wilson import WilsonDirac
from repro.resilience.checkpoint import (
    CheckpointStore,
    checkpoint_key,
    read_checkpoint,
)
from repro.resilience.guard import FaultGuard
from repro.resilience.inject import (
    CommsFault,
    CommsFaultInjector,
    FaultCampaign,
    FaultyMemory,
    KillAtIteration,
    SimulatedCrash,
    bit_rot_file,
    flip_field_bit,
    torn_write_file,
)
from repro.resilience.supervisor import supervised_solve
from repro.perf.trace_cache import cached_run_kernel
from repro.simd import get_backend
from repro.simd.generic import GenericBackend
from repro.simd.resilient import BackendDegradedWarning, ResilientBackend
from repro.sve.faults import armclang_18_3
from repro.vectorizer import ir
from repro.verification.suite import SilentCorruption, run_campaign_suite


@dataclass(frozen=True)
class CampaignCase:
    """One end-to-end fault-injection scenario."""

    name: str
    category: str
    fn: Callable  # fn(vl_bits, campaign, resilient) -> None


_REGISTRY: list[CampaignCase] = []


def _campaign_case(category: str):
    def deco(fn):
        _REGISTRY.append(CampaignCase(
            name=fn.__name__.replace("case_", ""),
            category=category,
            fn=fn,
        ))
        return fn
    return deco


def sync_comms_stats(campaign: FaultCampaign, stats) -> None:
    """Fold the protocol-visible comms counters into the campaign
    ledger (the comms layer has no campaign handle by design).  Also
    used by the scenario matrix runner (:mod:`repro.scenarios.runner`),
    whose comms cells follow the same protocol."""
    for _ in range(stats.detected_failures):
        campaign.record_detected("comms: bad delivery (CRC/timeout)")
    for _ in range(stats.recovered_messages):
        campaign.record_recovered("comms: retransmission succeeded")


#: Backwards-compatible private alias (pre-scenario-matrix spelling).
_sync_comms = sync_comms_stats


# ======================================================================
# Comms faults through the distributed Wilson operator
# ======================================================================

def _dhop_under_faults(vl_bits, campaign, resilient, faults) -> None:
    be = get_backend(f"generic{vl_bits}")
    dims = [4, 4, 4, 4]
    mpi = [2, 1, 1, 1]
    g = GridCartesian(dims, be)
    psi = random_spinor(g, seed=7)
    links = random_gauge(g, seed=11)
    dlinks = distribute_gauge(links, dims, be, mpi)
    w = DistributedWilson(dlinks, mass=0.1)
    ref = DistributedLattice(dims, be, mpi, (4, 3)).scatter(
        psi.to_canonical())
    want = w.dhop(ref).gather()
    injector = CommsFaultInjector(campaign, faults)
    dpsi = DistributedLattice(
        dims, be, mpi, (4, 3), checksum_halos=resilient,
        comms_faults=injector, max_retries=3,
    ).scatter(psi.to_canonical())
    try:
        got = w.dhop(dpsi).gather()
    except HaloExchangeError:
        _sync_comms(campaign, dpsi.stats)
        raise
    _sync_comms(campaign, dpsi.stats)
    if not np.array_equal(got, want):
        raise SilentCorruption(
            "distributed dhop differs from fault-free reference"
        )


@_campaign_case("comms")
def case_comms_drop_transient(vl_bits, campaign, resilient):
    """One halo message times out once; the retransmission is clean."""
    _dhop_under_faults(vl_bits, campaign, resilient,
                       [CommsFault("drop", message=2)])


@_campaign_case("comms")
def case_comms_drop_persistent(vl_bits, campaign, resilient):
    """A dead link: every delivery attempt of one message is lost."""
    _dhop_under_faults(vl_bits, campaign, resilient,
                       [CommsFault("drop", message=5, persistent=True)])


@_campaign_case("comms")
def case_comms_corrupt_transient(vl_bits, campaign, resilient):
    """Bit flips on the wire in three different halo messages."""
    _dhop_under_faults(vl_bits, campaign, resilient, [
        CommsFault("corrupt", message=1),
        CommsFault("corrupt", message=6),
        CommsFault("corrupt", message=11),
    ])


@_campaign_case("comms")
def case_comms_truncate_transient(vl_bits, campaign, resilient):
    """A halo message arrives short once."""
    _dhop_under_faults(vl_bits, campaign, resilient,
                       [CommsFault("truncate", message=3)])


@_campaign_case("comms")
def case_comms_duplicate(vl_bits, campaign, resilient):
    """A message is delivered twice (benign, must be tolerated)."""
    _dhop_under_faults(vl_bits, campaign, resilient,
                       [CommsFault("duplicate", message=4)])


# ======================================================================
# SDC in solver state (field bit flip mid-solve)
# ======================================================================

@_campaign_case("sdc")
def case_field_bitflip_solver(vl_bits, campaign, resilient):
    """An exponent bit of the operator output flips mid-CG.

    The recursive residual keeps converging while the true residual
    stalls: the canonical silent-corruption mode of Krylov solvers.
    The FT solver's periodic true-residual check catches it and
    restarts from the last verified iterate.
    """
    be = get_backend(f"generic{vl_bits}")
    g = GridCartesian([4, 4, 4, 4], be)
    dirac = WilsonDirac(random_gauge(g, seed=11), mass=0.3)
    b = random_spinor(g, seed=5)
    rhs = dirac.apply_dagger(b)
    calls = {"n": 0}

    def op(v):
        out = dirac.mdag_m(v)
        calls["n"] += 1
        if calls["n"] == 15:
            flip_field_bit(out, campaign, bit=60, name="mdag_m output")
        return out

    tol = 1e-7
    guard = FaultGuard(recompute_interval=10, campaign=campaign) \
        if resilient else None
    res = conjugate_gradient(op, rhs, tol=tol, max_iter=400, guard=guard)
    true_rel = (b - dirac.apply(res.x)).norm2() ** 0.5 / b.norm2() ** 0.5
    if not math.isfinite(true_rel) or true_rel > 100.0 * tol:
        raise SilentCorruption(
            f"solver solution wrong: true residual {true_rel:.3e}"
        )


# ======================================================================
# Memory SDC under an emulated kernel
# ======================================================================

@_campaign_case("sdc")
def case_memory_bitflip_kernel(vl_bits, campaign, resilient):
    """A scheduled load returns one flipped bit (DRAM SDC model).

    Resilient mode verifies the kernel output against a redundant
    architecture-independent execution — the ABFT-style acceptance
    check — and recomputes on mismatch.
    """
    rng = np.random.default_rng(100 + vl_bits)
    n = 1001
    x, y = rng.normal(size=n), rng.normal(size=n)
    kernel = ir.mult_real_kernel()
    size = max(1 << 20, 64 * n * 16 + (1 << 16))
    mem = FaultyMemory(size, campaign, flip_reads={8})
    res = cached_run_kernel(kernel, [x, y], vl_bits, memory=mem)
    want = x * y
    got = res.output
    if resilient and not np.array_equal(got, want):
        campaign.record_detected(
            "memory: kernel output != redundant execution")
        got = want  # recompute on the generic path
        campaign.record_recovered("memory: generic recomputation")
    if not np.array_equal(got, want):
        raise SilentCorruption("memory bit flip reached kernel output")


# ======================================================================
# Toolchain predicate defects (the paper's V-D class)
# ======================================================================

@_campaign_case("toolchain")
def case_toolchain_predicate_kernel(vl_bits, campaign, resilient):
    """The modelled armclang 18.3 defects at fault-prone VLs.

    Detection is the V-D methodology itself — compare against a
    reference execution; recovery is recomputation on the
    architecture-independent path.
    """
    rng = np.random.default_rng(200 + vl_bits)
    n = 1001  # ragged tail: exercises partial predicates
    x, y = rng.normal(size=n), rng.normal(size=n)
    kernel = ir.mult_real_kernel()
    fm = armclang_18_3()
    res = cached_run_kernel(kernel, [x, y], vl_bits, fault_model=fm)
    campaign.absorb_toolchain(fm)
    want = x * y
    got = res.output
    if resilient and not np.array_equal(got, want):
        campaign.record_detected(
            f"toolchain: VL{vl_bits}-dependent kernel mismatch")
        got = want
        campaign.record_recovered("toolchain: generic recomputation")
    if not np.array_equal(got, want):
        raise SilentCorruption(
            f"toolchain defect corrupted kernel at VL{vl_bits}")


# ======================================================================
# Backend crash -> graceful degradation
# ======================================================================

class _FlakyBackend(GenericBackend):
    """A backend whose ``mul`` dies on a scheduled call — the moral
    equivalent of an SVE-sim fault deep in a vector kernel."""

    def __init__(self, width_bits: int, campaign: FaultCampaign,
                 fail_on_call: int = 2) -> None:
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


@_campaign_case("backend")
def case_backend_crash_fallback(vl_bits, campaign, resilient):
    """A raising backend degrades to ``generic`` instead of killing
    the run (the ``simd.registry`` fallback policy)."""
    flaky = _FlakyBackend(vl_bits, campaign, fail_on_call=2)
    be = ResilientBackend(flaky) if resilient else flaky
    rng = np.random.default_rng(300 + vl_bits)
    cl = flaky.clanes()
    x = rng.normal(size=(3, cl)) + 1j * rng.normal(size=(3, cl))
    y = rng.normal(size=(3, cl)) + 1j * rng.normal(size=(3, cl))
    want = x * y
    got = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BackendDegradedWarning)
        for _ in range(3):  # the 2nd call trips the fault
            got = be.mul(x, y)
    if resilient and getattr(be, "degraded", False):
        campaign.record_detected("backend: op raised, degraded to generic")
        if np.array_equal(got, want):
            campaign.record_recovered("backend: generic fallback correct")
    if not np.array_equal(got, want):
        raise SilentCorruption("backend fallback produced wrong result")


# ======================================================================
# Disk faults: checkpoint bit rot, torn gauge archives
# ======================================================================

@_campaign_case("disk")
def case_checkpoint_bitrot(vl_bits, campaign, resilient):
    """Storage rots the newest solver checkpoint.

    Resilient mode loads through the CRC-verifying store: the rotted
    file is quarantined and the previous checkpoint takes over.  The
    naive reader trusts the bytes and resumes from corrupt state —
    silent corruption.
    """
    be = get_backend(f"generic{vl_bits}")
    g = GridCartesian([4, 4, 4, 4], be)
    states = {it: random_spinor(g, seed=it).to_canonical()
              for it in (10, 20)}
    with tempfile.TemporaryDirectory() as d:
        store = CheckpointStore(
            d, campaign=campaign if resilient else None)
        for it, arr in states.items():
            store.save("solve", {"x": arr}, iteration=it)
        bit_rot_file(store.list("solve")[0], campaign)
        if resilient:
            ck = store.load_latest("solve")
            if ck is None or not np.array_equal(ck.arrays["x"],
                                                states[ck.iteration]):
                raise SilentCorruption(
                    "checkpoint fallback returned wrong state")
        else:
            ck = read_checkpoint(store.list("solve")[0], verify=False)
            if not np.array_equal(ck.arrays["x"], states[20]):
                raise SilentCorruption(
                    "resumed from bit-rotted checkpoint undetected")


@_campaign_case("disk")
def case_gauge_archive_torn_write(vl_bits, campaign, resilient):
    """A gauge archive suffers a torn write (zero-padded tail).

    Resilient mode verifies on load (payload CRC, per-link checksums,
    plaquette), detects the damage and recovers from the replica every
    archive pipeline keeps; the naive reader deserialises zeroed links
    without complaint.
    """
    from repro.grid.io import ConfigFormatError, load_gauge, save_gauge

    be = get_backend(f"generic{vl_bits}")
    g = GridCartesian([4, 4, 4, 4], be)
    links = random_gauge(g, seed=13)
    with tempfile.TemporaryDirectory() as d:
        primary = f"{d}/cfg.lat"
        replica = f"{d}/cfg.replica.lat"
        save_gauge(primary, links, g)
        save_gauge(replica, links, g)
        torn_write_file(primary, campaign)
        if resilient:
            try:
                got = load_gauge(primary, g, verify=True)
            except ConfigFormatError as exc:
                campaign.record_detected(f"gauge archive: {exc}")
                got = load_gauge(replica, g, verify=True)
                campaign.record_recovered(
                    "gauge archive: replica restored")
        else:
            got = load_gauge(primary, g, verify=False)
        for a, u in zip(got, links):
            if not np.array_equal(a.data, u.data):
                raise SilentCorruption(
                    "torn gauge archive loaded undetected")


# ======================================================================
# Crash mid-solve: kill + checkpoint rot, supervised vs naive
# ======================================================================

@_campaign_case("crash")
def case_supervised_kill_resume(vl_bits, campaign, resilient):
    """The composed chaos cell: a solve is killed mid-flight AND the
    newest durable checkpoint is bit-rotted at the moment of death.

    The supervised runtime quarantines the rotted file, resumes from
    the older valid checkpoint and converges (``recovered``).  The
    naive restart script trusts the newest checkpoint's bytes and
    resumes from corrupt state without noticing.
    """
    be = get_backend(f"generic{vl_bits}")
    g = GridCartesian([4, 4, 4, 4], be)
    w = WilsonDirac(random_gauge(g, seed=17), mass=0.1)
    b = random_spinor(g, seed=18)
    tol = 1e-8
    with tempfile.TemporaryDirectory() as d:
        store = CheckpointStore(
            d, campaign=campaign if resilient else None)
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

        if resilient:
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
        else:
            from repro.engine.solve import solve_fermion

            truth = {}

            def naive_hook(it, x, true_rel):
                chaos(it, x, true_rel)
                arr = x.to_canonical()
                truth[it] = arr
                store.save(key, {"x": arr}, iteration=it,
                           residual=true_rel, tol=tol)

            try:
                solve_fermion(w, b, method="cg", ft=True, tol=tol,
                              recompute_interval=3,
                              good_hook=naive_hook)
            except SimulatedCrash:
                # The naive restart: take the newest checkpoint at
                # face value.  Its payload is rotted.
                ck = read_checkpoint(store.list(key)[0], verify=False)
                if not np.array_equal(ck.arrays["x"],
                                      truth[ck.iteration]):
                    raise SilentCorruption(
                        "restarted from rotted checkpoint undetected"
                    ) from None


CAMPAIGN_CASES: tuple[CampaignCase, ...] = tuple(_REGISTRY)

#: The composed chaos subset the CI smoke job runs: comms corruption,
#: disk rot on checkpoints and archives, and the kill+rot crash cell.
CHAOS_CASES: tuple[CampaignCase, ...] = tuple(
    c for c in _REGISTRY
    if c.category in ("disk", "crash") or c.name == "comms_corrupt_transient"
)


# ======================================================================
# Factory + runner
# ======================================================================

def default_campaign_factory(base_seed: int = 0):
    """Per-cell campaign factory: one stable seed per (case, VL).

    Uses CRC-32 of the cell coordinates so the schedule is independent
    of execution order and identical across processes.
    """
    def factory(case_name: str, vl_bits: int) -> FaultCampaign:
        cell_seed = base_seed + zlib.crc32(
            f"{case_name}:{vl_bits}".encode())
        return FaultCampaign(seed=cell_seed,
                             name=f"default-{base_seed}")
    return factory


def run_default_campaign(seed: int = 0, resilient: bool = True,
                         vls=(256, 1024)):
    """The bundled campaign (all fault classes) over the given VLs."""
    return run_campaign_suite(CAMPAIGN_CASES,
                              default_campaign_factory(seed),
                              vls=vls, resilient=resilient)


def run_chaos_campaign(seed: int = 0, resilient: bool = True,
                       vls=(256,)):
    """The composed chaos smoke: wire corruption + disk rot + crash
    cells in one seeded run (the CI chaos job's entry point).  Gate
    with :func:`repro.verification.suite.gate_outcomes` — with
    resilience on, no cell may end in silent corruption."""
    return run_campaign_suite(CHAOS_CASES,
                              default_campaign_factory(seed),
                              vls=vls, resilient=resilient)
