"""Seeded, deterministic fault-injection campaigns.

The three system-fault classes a production lattice-QCD run meets:

* **Memory SDC** — a bit flips in DRAM or a register file and a load
  returns a wrong value.  :class:`FaultyMemory` wraps the simulator
  memory of :mod:`repro.sve.memory` and flips one bit of a scheduled
  read; :func:`flip_field_bit` corrupts lattice field data in place.
* **Comms faults** — halo messages dropped, corrupted, truncated or
  duplicated on the wire.  :class:`CommsFaultInjector` plugs into
  :class:`repro.grid.comms.DistributedLattice`.
* **Toolchain defects** — the paper's own Section V-D class, already
  modelled by :mod:`repro.sve.faults`; campaigns absorb the ``fired``
  counters of a :class:`~repro.sve.faults.FaultModel` so all three
  classes report uniformly.
* **Disk faults** — archived bytes rot (:func:`bit_rot_file`), files
  are truncated (:func:`truncate_file`), or an in-place writer dies
  mid-write leaving a zero-padded prefix (:func:`torn_write_file`).
  These exercise the durable tier: gauge archives
  (:mod:`repro.grid.io`) and the checkpoint store
  (:mod:`repro.resilience.checkpoint`).
* **Crashes** — :class:`KillAtIteration` raises
  :class:`SimulatedCrash` at a scheduled solver iteration, modelling a
  node loss mid-solve; the supervised runtime
  (:mod:`repro.resilience.supervisor`) must resume from the newest
  durable checkpoint.

Everything is driven by one :class:`FaultCampaign` with a seed: the
same seed replays the identical fault schedule, which is what makes
campaign results reproducible and regressions bisectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sve.faults import FaultModel
from repro.sve.memory import Memory
from repro.telemetry import metrics as _telemetry_metrics
from repro.telemetry import trace as _telemetry


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired during a campaign run."""

    kind: str      # 'memory-bitflip' | 'field-bitflip' | 'comms-*' | ...
    target: str    # what it hit (message id, read ordinal, field name)
    detail: str = ""


class FaultCampaign:
    """A seeded fault schedule plus the ledger of what happened.

    The campaign records three independent streams:

    * ``events`` — faults that fired (ground truth, known only to the
      injectors),
    * ``detections`` — faults some mechanism noticed,
    * ``recoveries`` — detected faults that were repaired.

    Classification of an experiment cell (see
    :func:`repro.verification.outcomes.classify_cell`) compares the
    three: a fired fault with no detection and a wrong answer is a
    *silent corruption*.
    """

    def __init__(self, seed: int = 0, name: str = "") -> None:
        self.seed = int(seed)
        self.name = name or f"campaign-{seed}"
        self.rng = np.random.default_rng(self.seed)
        self.events: list[FaultEvent] = []
        self.detections: list[str] = []
        self.recoveries: list[str] = []

    # ------------------------------------------------------------------
    # Ledger
    # ------------------------------------------------------------------
    def record_fired(self, kind: str, target: str, detail: str = "") -> None:
        self.events.append(FaultEvent(kind=kind, target=target,
                                      detail=detail))
        # The ledger is ground truth; telemetry only mirrors it.
        if _telemetry.metrics_on():
            _telemetry_metrics.registry().counter("fault.fired").inc()
            _telemetry.event("fault.fired", campaign=self.name,
                             kind=kind, target=target)

    def record_detected(self, what: str) -> None:
        self.detections.append(what)
        if _telemetry.metrics_on():
            _telemetry_metrics.registry().counter("fault.detected").inc()
            _telemetry.event("fault.detected", campaign=self.name,
                             what=what)

    def record_recovered(self, what: str) -> None:
        self.recoveries.append(what)
        if _telemetry.metrics_on():
            _telemetry_metrics.registry().counter("fault.recovered").inc()
            _telemetry.event("fault.recovered", campaign=self.name,
                             what=what)

    @property
    def fired(self) -> int:
        return len(self.events)

    @property
    def detected(self) -> int:
        return len(self.detections)

    @property
    def recovered(self) -> int:
        return len(self.recoveries)

    def absorb_toolchain(self, fault_model: Optional[FaultModel]) -> None:
        """Fold a toolchain fault model's ``fired`` counters into the
        event ledger (one event per defect that fired)."""
        if fault_model is None:
            return
        for defect, count in fault_model.fired.items():
            self.record_fired("toolchain-predicate", defect,
                              detail=f"fired {count}x")

    def reset(self) -> "FaultCampaign":
        """Clear the ledger and rewind the RNG to the seed, so the
        identical schedule replays."""
        self.rng = np.random.default_rng(self.seed)
        self.events.clear()
        self.detections.clear()
        self.recoveries.clear()
        return self

    def summary(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "fired": self.fired,
            "detected": self.detected,
            "recovered": self.recovered,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.summary()
        return (f"<FaultCampaign {s['name']} fired={s['fired']} "
                f"detected={s['detected']} recovered={s['recovered']}>")


# ======================================================================
# Comms faults
# ======================================================================

@dataclass(frozen=True)
class CommsFault:
    """One scheduled wire fault.

    ``message`` is the global message ordinal it targets (the
    :class:`~repro.grid.comms.CommsStats` message counter at send
    time).  A *transient* fault fires only on the first delivery
    attempt — a retransmission goes through clean, so the self-healing
    path can recover.  A ``persistent`` fault fires on every attempt,
    modelling a broken link: detectable, not recoverable.
    """

    kind: str                 # 'drop' | 'corrupt' | 'truncate' | 'duplicate'
    message: int
    persistent: bool = False

    KINDS = ("drop", "corrupt", "truncate", "duplicate")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown comms fault kind {self.kind!r}; "
                             f"known: {self.KINDS}")


class CommsFaultInjector:
    """Applies scheduled :class:`CommsFault` to wire messages.

    Plugs into ``DistributedLattice(comms_faults=...)``; the comms
    layer calls :meth:`deliver` once per transmission attempt and
    receives zero or more payload copies back.
    """

    def __init__(self, campaign: FaultCampaign,
                 faults: list = ()) -> None:
        self.campaign = campaign
        self.faults = list(faults)

    @classmethod
    def random_schedule(
        cls, campaign: FaultCampaign, n_messages: int, rate: float = 0.05,
        kinds=CommsFault.KINDS, persistent_fraction: float = 0.0,
    ) -> "CommsFaultInjector":
        """A seeded random schedule over the first ``n_messages``."""
        rng = campaign.rng
        faults = []
        for msg in range(n_messages):
            if rng.random() < rate:
                kind = str(rng.choice(list(kinds)))
                persistent = bool(rng.random() < persistent_fraction)
                faults.append(CommsFault(kind=kind, message=msg,
                                         persistent=persistent))
        return cls(campaign, faults)

    def deliver(self, payload: np.ndarray, message: int, attempt: int,
                stats=None) -> list:
        """One transmission attempt: returns the delivered copies
        (empty list = dropped)."""
        copies = [payload]
        for f in self.faults:
            if f.message != message or (attempt > 0 and not f.persistent):
                continue
            tag = f"msg{message}" + ("/persistent" if f.persistent else "")
            if f.kind == "drop":
                self.campaign.record_fired("comms-drop", tag)
                return []
            if f.kind == "corrupt":
                corrupted = payload.copy()
                pos = int(self.campaign.rng.integers(corrupted.size))
                bit = int(self.campaign.rng.integers(8))
                corrupted[pos] ^= np.uint8(1 << bit)
                self.campaign.record_fired(
                    "comms-corrupt", tag, detail=f"byte {pos} bit {bit}"
                )
                copies = [corrupted if c is payload else c for c in copies]
            elif f.kind == "truncate":
                cut = int(self.campaign.rng.integers(1, max(payload.size, 2)))
                self.campaign.record_fired(
                    "comms-truncate", tag, detail=f"lost {cut} bytes"
                )
                copies = [c[:-cut] if c is payload else c for c in copies]
            elif f.kind == "duplicate":
                self.campaign.record_fired("comms-duplicate", tag)
                copies = copies + [copies[0]]
        return copies


# ======================================================================
# Memory faults (SDC)
# ======================================================================

class FaultyMemory(Memory):
    """Simulator memory whose scheduled reads suffer one-bit SDC.

    ``flip_reads`` maps a read ordinal (counting every
    :meth:`read_array` / :meth:`gather_elements` call) to the fault;
    the flipped byte/bit position is drawn from the campaign RNG, so
    one seed gives one reproducible corruption pattern.  Writes and
    memory contents stay pristine — the model is a disturbed load,
    the dominant DRAM SDC presentation.
    """

    def __init__(self, size: int, campaign: FaultCampaign,
                 flip_reads=()) -> None:
        super().__init__(size)
        self.campaign = campaign
        self.flip_reads = set(int(i) for i in flip_reads)
        self.reads = 0

    def _maybe_flip(self, out: np.ndarray, what: str) -> np.ndarray:
        ordinal = self.reads
        self.reads += 1
        if ordinal not in self.flip_reads or out.nbytes == 0:
            return out
        raw = out.view(np.uint8).reshape(-1)
        pos = int(self.campaign.rng.integers(raw.size))
        bit = int(self.campaign.rng.integers(8))
        raw[pos] ^= np.uint8(1 << bit)
        self.campaign.record_fired(
            "memory-bitflip", f"read#{ordinal}",
            detail=f"{what}: byte {pos} bit {bit}"
        )
        return out

    def read_array(self, addr, dtype, count):
        out = super().read_array(addr, dtype, count)
        return self._maybe_flip(out, f"read_array@{addr}")

    def gather_elements(self, addrs, active, dtype):
        out = super().gather_elements(addrs, active, dtype)
        return self._maybe_flip(out, "gather")


# ======================================================================
# Disk faults (bit rot, truncation, torn writes)
# ======================================================================

def bit_rot_file(path, campaign: FaultCampaign, offset: int = None,
                 bit: int = None) -> int:
    """Flip one bit of the file at ``path`` in place (storage bit rot).

    With ``offset`` unset the position is drawn from the campaign RNG
    over the *second half* of the file — the payload region of every
    format in this codebase (headers are a few hundred bytes, payloads
    kilobytes), so the rot lands where only a payload checksum can
    catch it.  Returns the flipped offset."""
    import os

    size = os.path.getsize(path)
    if size == 0:
        raise ValueError(f"{path}: cannot rot an empty file")
    if offset is None:
        offset = int(campaign.rng.integers(size // 2, size))
    if bit is None:
        bit = int(campaign.rng.integers(8))
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)[0]
        f.seek(offset)
        f.write(bytes([byte ^ (1 << bit)]))
    campaign.record_fired("disk-bitrot", os.path.basename(path),
                          detail=f"byte {offset} bit {bit}")
    return offset


def truncate_file(path, campaign: FaultCampaign, keep: int = None) -> int:
    """Cut the tail off the file at ``path`` (interrupted copy, full
    filesystem, lost append).  ``keep`` is the surviving byte count;
    drawn from the campaign RNG when unset.  Returns it."""
    import os

    size = os.path.getsize(path)
    if size < 2:
        raise ValueError(f"{path}: too small to truncate")
    if keep is None:
        keep = int(campaign.rng.integers(1, size))
    with open(path, "r+b") as f:
        f.truncate(keep)
    campaign.record_fired("disk-truncate", os.path.basename(path),
                          detail=f"kept {keep} of {size} bytes")
    return keep


def torn_write_file(path, campaign: FaultCampaign, cut: int = None) -> int:
    """Model a non-atomic in-place writer dying mid-write: the file
    keeps its length but everything past ``cut`` is zeros (the
    preallocated-but-unwritten tail).  This is exactly the failure the
    atomic temp-file/rename discipline of :func:`repro.grid.io.
    atomic_write` makes impossible.  Returns the cut offset."""
    import os

    size = os.path.getsize(path)
    if size < 2:
        raise ValueError(f"{path}: too small to tear")
    if cut is None:
        cut = int(campaign.rng.integers(1, size))
    with open(path, "r+b") as f:
        f.seek(cut)
        f.write(b"\x00" * (size - cut))
    campaign.record_fired("disk-torn-write", os.path.basename(path),
                          detail=f"zeroed past byte {cut} of {size}")
    return cut


# ======================================================================
# Crash simulation
# ======================================================================

class SimulatedCrash(RuntimeError):
    """The process 'dies' here: raised by :class:`KillAtIteration` to
    model node loss / OOM-kill / power cut mid-solve.  Recovery code
    must treat it like any crash — nothing after the raise point ran."""


class KillAtIteration:
    """Kill the solve when its iteration counter reaches ``iteration``.

    ``times`` controls how many attempts die (default 1: the classic
    crash-then-restart scenario; higher values force the supervisor
    down its degradation ladder).  The schedule records each kill into
    the campaign ledger — the ground truth the classifier compares
    detections against."""

    def __init__(self, campaign: FaultCampaign, iteration: int,
                 times: int = 1, name: str = "solve") -> None:
        self.campaign = campaign
        self.iteration = int(iteration)
        self.times = int(times)
        self.name = name
        self.kills = 0

    @property
    def exhausted(self) -> bool:
        return self.kills >= self.times

    def check(self, iteration: int) -> None:
        """Raise :class:`SimulatedCrash` when the schedule says so."""
        if self.exhausted or iteration < self.iteration:
            return
        self.kills += 1
        self.campaign.record_fired(
            "crash-kill", self.name,
            detail=f"killed at iteration {iteration} "
                   f"(kill {self.kills}/{self.times})",
        )
        raise SimulatedCrash(
            f"simulated crash at iteration {iteration} of {self.name}"
        )


# ======================================================================
# Field faults (SDC in lattice data)
# ======================================================================

def flip_field_bit(lat, campaign: FaultCampaign, index: int = None,
                   bit: int = None, name: str = "field"):
    """Flip one bit of one real component of a lattice field in place.

    Works on anything with ``.data`` holding a complex numpy array
    (:class:`repro.grid.lattice.Lattice`) — for a
    ``DistributedLattice`` pass one of its ``.locals``.  Returns
    ``(index, bit)`` so a test can re-derive the blast radius.
    """
    data = lat.data
    if data.dtype == np.complex128:
        width, uint = 64, np.uint64
        fview = data.view(np.uint64).reshape(-1)
    elif data.dtype == np.complex64:
        width, uint = 32, np.uint32
        fview = data.view(np.uint32).reshape(-1)
    else:
        raise TypeError(f"cannot flip bits of dtype {data.dtype}")
    if index is None:
        index = int(campaign.rng.integers(fview.size))
    if bit is None:
        # Prefer high mantissa / exponent bits: visible, finite-ish.
        bit = int(campaign.rng.integers(width // 2, width - 1))
    fview[index] ^= uint(1) << uint(bit)
    campaign.record_fired("field-bitflip", name,
                          detail=f"element {index} bit {bit}")
    return index, bit
