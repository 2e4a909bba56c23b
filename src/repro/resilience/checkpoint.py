"""Durable checkpoint store for solver state and gauge fields.

PR 1's fault-tolerant solvers already keep an *in-memory* copy of the
last verified-good iterate — enough to survive an SDC, useless against
a crash, a deadline overrun, or a torn write: the process dies and the
whole solve restarts from iteration zero.  This module is the durable
tier underneath that machinery, in the tradition of the restartable
solver stacks production Grid deployments ship (arXiv:1512.03487) for
long solves on machines where node loss is routine (arXiv:2112.01852).

Design:

* **Atomic writes** — every checkpoint lands via write-temp / flush /
  fsync / rename (:func:`repro.grid.io.atomic_write`), so a crash
  mid-save can never tear a checkpoint file; at worst the newest
  checkpoint is the previous one.
* **Versioned header + CRC-32 payload** — a checkpoint file is a small
  ASCII header (magic + version, key, iteration, residual, tolerance,
  policy fingerprint, array directory) followed by the raw array
  bytes, whose CRC-32 is recorded in the header and verified on load.
* **Corrupt-file quarantine** — a checkpoint that fails verification
  is moved to ``<root>/quarantine/`` (never silently used, never
  deleted: it is forensic evidence) and the store falls back to the
  next-newest valid checkpoint.
* **Keying** — checkpoints are grouped under a key derived from
  (operator name, gauge-field hash, source hash, tolerance), so a
  restarted job finds exactly the checkpoints of *its own* solve and
  a different gauge configuration or RHS can never be resumed from.
* **Retention** — after each successful save the oldest checkpoints
  beyond ``retention`` are pruned, bounding disk use for long solves.

The store is deliberately dumb about *what* it persists: a checkpoint
is a named bundle of numpy arrays plus scalar metadata.  The solver
supervisor (:mod:`repro.resilience.supervisor`) stores ``x`` and the
residual history; :func:`save_gauge_state` / :func:`load_gauge_state`
store the four link fields of a gauge configuration.
"""

from __future__ import annotations

import hashlib
import os
import re
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.telemetry import metrics as _telemetry_metrics
from repro.telemetry import trace as _telemetry

MAGIC = "REPRO_CKPT_V1"

#: Conservative filename alphabet for key directories.
_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


class CheckpointCorrupt(ValueError):
    """A checkpoint file failed header or CRC verification."""


def _count(name: str, n: int = 1) -> None:
    if _telemetry.metrics_on():
        _telemetry_metrics.registry().counter(name).inc(n)


# ======================================================================
# Keying
# ======================================================================

def _short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def checkpoint_key(operator, b, tol: float) -> str:
    """The durable-store key of one logical solve.

    Combines the operator's name, a hash of its gauge links (so a
    different configuration never resumes from these checkpoints), a
    hash of the source, and the tolerance.  Falls back to structural
    descriptions for operators/fields without the usual surfaces.
    """
    from repro.grid.checksum import field_checksum

    name = type(operator).__name__
    base = getattr(operator, "base", None)
    links = getattr(operator, "links", None)
    if links is None and base is not None:
        links = getattr(base, "links", None)
    if links is not None:
        try:
            gauge = _short_hash(",".join(field_checksum(u) for u in links))
        except Exception:  # noqa: BLE001 - structural fallback
            gauge = _short_hash(repr(links))
    else:
        gauge = "nogauge"
    try:
        source = field_checksum(b)[:12]
    except Exception:  # noqa: BLE001 - structural fallback
        source = _short_hash(repr(getattr(b, "tensor_shape", b)))
    return f"{name}-g{gauge}-s{source}-tol{tol:g}"


def policy_fingerprint() -> str:
    """A short stable description of the resolved execution policy —
    recorded in every checkpoint so a restart can report under which
    configuration the state was produced (the state itself is policy-
    independent: every policy computes the same numbers)."""
    from repro.engine.policy import current_policy

    p = current_policy()
    return (f"backend={p.backend}/enabled={p.enabled}/"
            f"workers={p.workers}")


# ======================================================================
# The checkpoint record
# ======================================================================

@dataclass
class Checkpoint:
    """One verified checkpoint, loaded or about to be saved."""

    key: str
    iteration: int
    residual: float
    tol: float
    policy: str = ""
    arrays: dict = field(default_factory=dict)
    path: str = ""

    def render_header(self, payload: bytes) -> str:
        specs = []
        for name, arr in self.arrays.items():
            if _SAFE.search(name):
                raise ValueError(f"unsafe array name {name!r}")
            shape = "x".join(str(d) for d in arr.shape)
            specs.append(f"{name}:{arr.dtype.name}:{shape}")
        lines = [
            f"BEGIN_CKPT {MAGIC}",
            f"key = {self.key}",
            f"iteration = {int(self.iteration)}",
            f"residual = {self.residual!r}",
            f"tol = {self.tol!r}",
            f"policy = {self.policy}",
            f"arrays = {' '.join(specs)}",
            f"payload_bytes = {len(payload)}",
            f"payload_crc = {zlib.crc32(payload)}",
            "END_CKPT",
        ]
        return "\n".join(lines) + "\n"


def _encode(ck: Checkpoint) -> bytes:
    payload = b"".join(
        np.ascontiguousarray(arr).tobytes() for arr in ck.arrays.values()
    )
    return ck.render_header(payload).encode() + payload


def _decode(raw: bytes, path: str = "", verify: bool = True) -> Checkpoint:
    end = raw.find(b"END_CKPT")
    if end < 0:
        raise CheckpointCorrupt(f"{path}: missing END_CKPT")
    end = raw.index(b"\n", end) + 1
    try:
        text = raw[:end].decode()
    except UnicodeDecodeError:
        raise CheckpointCorrupt(f"{path}: undecodable header") from None
    lines = [ln.strip() for ln in text.splitlines()]
    if not lines or not lines[0].startswith("BEGIN_CKPT"):
        raise CheckpointCorrupt(f"{path}: missing BEGIN_CKPT")
    if MAGIC not in lines[0]:
        raise CheckpointCorrupt(f"{path}: not a {MAGIC} file")
    fields_ = {}
    for ln in lines[1:]:
        if ln == "END_CKPT":
            break
        if "=" in ln:
            k, v = ln.split("=", 1)
            fields_[k.strip()] = v.strip()
    payload = raw[end:]
    try:
        nbytes = int(fields_["payload_bytes"])
        crc = int(fields_["payload_crc"])
        iteration = int(fields_["iteration"])
        residual = float(fields_["residual"])
        tol = float(fields_["tol"])
        key = fields_["key"]
        specs = fields_["arrays"].split()
    except (KeyError, ValueError) as e:
        raise CheckpointCorrupt(f"{path}: malformed header ({e})") from None
    if verify:
        if len(payload) != nbytes:
            raise CheckpointCorrupt(
                f"{path}: payload is {len(payload)} bytes, header says "
                f"{nbytes} (truncated or torn?)"
            )
        if zlib.crc32(payload) != crc:
            raise CheckpointCorrupt(f"{path}: payload CRC mismatch")
    arrays = {}
    offset = 0
    for spec in specs:
        try:
            name, dtype_name, shape_s = spec.split(":")
            shape = tuple(int(d) for d in shape_s.split("x") if d)
            dtype = np.dtype(dtype_name)
        except (ValueError, TypeError) as e:
            raise CheckpointCorrupt(f"{path}: bad array spec {spec!r} "
                                    f"({e})") from None
        count = 1
        for d in shape:
            count *= d
        nb = count * dtype.itemsize
        chunk = payload[offset:offset + nb]
        if len(chunk) != nb:
            raise CheckpointCorrupt(
                f"{path}: array {name!r} runs past end of payload"
            )
        arrays[name] = np.frombuffer(chunk, dtype=dtype).reshape(
            shape).copy()
        offset += nb
    return Checkpoint(key=key, iteration=iteration, residual=residual,
                      tol=tol, policy=fields_.get("policy", ""),
                      arrays=arrays, path=path)


def read_checkpoint(path, verify: bool = True) -> Checkpoint:
    """Read one checkpoint file.  With ``verify`` (default) the CRC
    and length are checked and :class:`CheckpointCorrupt` raised on
    mismatch; ``verify=False`` models the naive reader that trusts the
    bytes — campaign cases use it to demonstrate the silent-corruption
    outcome the verification exists to prevent."""
    with open(path, "rb") as f:
        raw = f.read()
    return _decode(raw, path=os.fspath(path), verify=verify)


# ======================================================================
# The store
# ======================================================================

class CheckpointStore:
    """Durable, keyed, CRC-verified checkpoint directory.

    Layout::

        <root>/<keydir>/ckpt-<iteration>.ckpt
        <root>/quarantine/<keydir>-<filename>

    ``keydir`` is a filesystem-safe slug of the key plus a short hash
    (two distinct keys can never collide into one directory).
    ``campaign`` (optional) receives ``record_detected`` /
    ``record_recovered`` calls when corruption is found and an older
    checkpoint takes over — the same ledger protocol the comms layer
    uses.
    """

    def __init__(self, root, retention: int = 3, campaign=None) -> None:
        if retention < 1:
            raise ValueError(f"retention must be >= 1, got {retention}")
        self.root = os.fspath(root)
        self.retention = int(retention)
        self.campaign = campaign
        self.saves = 0
        self.loads = 0
        self.quarantines = 0
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------
    def _keydir(self, key: str) -> str:
        slug = _SAFE.sub("_", key)[:80]
        return os.path.join(self.root, f"{slug}-{_short_hash(key)}")

    def _quarantine_dir(self) -> str:
        return os.path.join(self.root, "quarantine")

    def list(self, key: str) -> list:
        """Checkpoint paths for ``key``, newest (highest iteration)
        first."""
        d = self._keydir(key)
        if not os.path.isdir(d):
            return []
        entries = []
        for name in os.listdir(d):
            m = re.fullmatch(r"ckpt-(\d+)\.ckpt", name)
            if m:
                entries.append((int(m.group(1)), os.path.join(d, name)))
        entries.sort(reverse=True)
        return [path for _, path in entries]

    # ------------------------------------------------------------------
    def save(self, key: str, arrays: dict, iteration: int,
             residual: float = 0.0, tol: float = 0.0,
             policy: Optional[str] = None) -> str:
        """Atomically persist one checkpoint; returns its path.

        ``arrays`` maps names to numpy arrays; scalar metadata rides in
        the header.  An existing checkpoint at the same iteration is
        replaced atomically.  Older checkpoints beyond the retention
        budget are pruned afterwards."""
        from repro.grid.io import atomic_write

        ck = Checkpoint(
            key=key, iteration=int(iteration), residual=float(residual),
            tol=float(tol),
            policy=policy_fingerprint() if policy is None else policy,
            arrays=dict(arrays),
        )
        d = self._keydir(key)
        os.makedirs(d, exist_ok=True)
        path = os.path.join(d, f"ckpt-{int(iteration):08d}.ckpt")
        atomic_write(path, _encode(ck))
        self.saves += 1
        _count("checkpoint.saves")
        _telemetry.event("checkpoint.save", key=key,
                         iteration=int(iteration))
        self.prune(key)
        return path

    def prune(self, key: str) -> int:
        """Delete checkpoints beyond the retention budget (newest are
        kept); returns how many were removed."""
        removed = 0
        for path in self.list(key)[self.retention:]:
            try:
                os.unlink(path)
                removed += 1
            except OSError:  # pragma: no cover - already gone
                pass
        if removed:
            _count("checkpoint.pruned", removed)
        return removed

    # ------------------------------------------------------------------
    def quarantine(self, path: str, reason: str = "") -> str:
        """Move a corrupt checkpoint file aside (never delete: it is
        forensic evidence) and account for it."""
        qdir = self._quarantine_dir()
        os.makedirs(qdir, exist_ok=True)
        parent = os.path.basename(os.path.dirname(path))
        dest = os.path.join(qdir, f"{parent}-{os.path.basename(path)}")
        try:
            os.replace(path, dest)
        except OSError:  # pragma: no cover - race with another process
            dest = path
        self.quarantines += 1
        _count("checkpoint.quarantined")
        _telemetry.event("checkpoint.quarantine", path=path,
                         reason=reason)
        if self.campaign is not None:
            self.campaign.record_detected(
                f"checkpoint: corrupt file quarantined ({reason})"
            )
        return dest

    def quarantined(self) -> list:
        """Paths of every quarantined checkpoint file."""
        qdir = self._quarantine_dir()
        if not os.path.isdir(qdir):
            return []
        return sorted(os.path.join(qdir, n) for n in os.listdir(qdir))

    # ------------------------------------------------------------------
    def load_latest(self, key: str) -> Optional[Checkpoint]:
        """The newest checkpoint for ``key`` that passes verification.

        Corrupt files (bad CRC, torn payload, mangled header) are
        quarantined and the next-newest tried; returns ``None`` when no
        valid checkpoint exists."""
        fell_back = False
        for path in self.list(key):
            try:
                ck = read_checkpoint(path, verify=True)
            except (CheckpointCorrupt, OSError) as exc:
                self.quarantine(path, reason=str(exc))
                fell_back = True
                continue
            if ck.key != key:
                self.quarantine(path, reason="key mismatch")
                fell_back = True
                continue
            self.loads += 1
            _count("checkpoint.loads")
            if fell_back and self.campaign is not None:
                self.campaign.record_recovered(
                    f"checkpoint: fell back to iteration {ck.iteration}"
                )
            return ck
        return None


# ======================================================================
# Gauge-field convenience
# ======================================================================

def save_gauge_state(store: CheckpointStore, key: str, links,
                     iteration: int = 0) -> str:
    """Persist a gauge configuration (list of link :class:`Lattice`)
    into the store as one checkpoint bundle of canonical arrays."""
    arrays = {
        f"u{mu}": np.ascontiguousarray(u.to_canonical())
        for mu, u in enumerate(links)
    }
    return store.save(key, arrays, iteration=iteration)


def load_gauge_state(store: CheckpointStore, key: str, grid):
    """Restore gauge links saved by :func:`save_gauge_state` onto
    ``grid``; returns ``None`` when no valid checkpoint exists."""
    from repro.grid.lattice import Lattice

    ck = store.load_latest(key)
    if ck is None:
        return None
    links = []
    for mu in range(len(ck.arrays)):
        can = ck.arrays[f"u{mu}"]
        links.append(Lattice(grid, (3, 3)).from_canonical(can))
    return links
