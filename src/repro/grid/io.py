"""Gauge-configuration I/O.

Production lattice codes archive configurations in site-ordered binary
formats with a self-describing header and checksums (NERSC, ILDG/LIME,
SciDAC).  This module implements a simple format in that family:

* an ASCII header (dimensions, precision, plaquette, checksum, note),
* the canonical site-ordered link data (``mu`` slowest, then the
  lexicographic site index, then the 3x3 colour matrix),

so a configuration written under one SIMD layout / rank decomposition
reads back bit-identically under any other — the layout-transparency
contract of the canonical ordering, applied to persistence.

Durability: :func:`save_gauge` writes atomically (temp file in the
same directory, flush + fsync, then :func:`os.replace`), so a crash
mid-save can never leave a torn file under the target name — the old
configuration, if any, survives intact.  The header additionally
carries a CRC-32 of the whole binary payload; :func:`load_gauge`
verifies it before any parsing of the link data, so truncation or bit
rot is rejected up front rather than discovered (or missed) by the
per-link checks.  Files written before the CRC existed (no
``payload_crc`` header line) still load.

Each direction's digest is :func:`repro.grid.checksum.component_digest`
in ``REPRO_GAUGE_V2`` files, the ones :func:`save_gauge` writes: every
real component at the file's precision.  ``REPRO_GAUGE_V1`` files carry
:func:`repro.grid.checksum.canonical_digest`, which cannot see a
complex64 file's real parts, and are read under that rule.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.grid.cartesian import GridCartesian
from repro.grid.checksum import canonical_digest, component_digest
from repro.grid.lattice import Lattice
from repro.grid.su3 import _link_checks, plaquette

#: The format :func:`save_gauge` writes.
MAGIC = "REPRO_GAUGE_V2"
#: Each readable format's per-direction digest.
DIGESTS = {"REPRO_GAUGE_V1": canonical_digest, MAGIC: component_digest}


class ConfigFormatError(ValueError):
    """Raised for malformed or corrupted configuration files."""


@dataclass
class ConfigHeader:
    """Parsed configuration-file header."""

    dims: list
    dtype: str
    plaquette: float
    checksums: list
    note: str = ""
    payload_crc: Optional[int] = None
    magic: str = MAGIC

    def digest(self, can: np.ndarray) -> str:
        """A direction's digest under this file's format."""
        return DIGESTS[self.magic](can)

    def render(self) -> str:
        lines = [
            f"BEGIN_HEADER {self.magic}",
            f"dims = {' '.join(str(d) for d in self.dims)}",
            f"dtype = {self.dtype}",
            f"plaquette = {self.plaquette!r}",
            f"checksums = {' '.join(self.checksums)}",
        ]
        if self.payload_crc is not None:
            lines.append(f"payload_crc = {self.payload_crc}")
        lines += [
            f"note = {self.note}",
            "END_HEADER",
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "ConfigHeader":
        lines = [ln.strip() for ln in text.splitlines()]
        if not lines or not lines[0].startswith("BEGIN_HEADER"):
            raise ConfigFormatError("missing BEGIN_HEADER")
        magic = lines[0].split()[-1]
        if magic not in DIGESTS:
            raise ConfigFormatError(f"not a {MAGIC} file")
        fields = {}
        for ln in lines[1:]:
            if ln == "END_HEADER":
                break
            if "=" in ln:
                k, v = ln.split("=", 1)
                fields[k.strip()] = v.strip()
        else:
            raise ConfigFormatError("missing END_HEADER")
        try:
            return cls(
                dims=[int(d) for d in fields["dims"].split()],
                dtype=fields["dtype"],
                plaquette=float(fields["plaquette"]),
                checksums=fields["checksums"].split(),
                note=fields.get("note", ""),
                payload_crc=(int(fields["payload_crc"])
                             if "payload_crc" in fields else None),
                magic=magic,
            )
        except (KeyError, ValueError) as e:
            if isinstance(e, ValueError):
                raise ConfigFormatError(f"malformed header field: {e}") \
                    from None
            raise ConfigFormatError(f"header missing field {e}") from None


def atomic_write(path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: temp file in the same
    directory, flush + fsync, then :func:`os.replace`.  A crash at any
    point leaves either the old file or the new one under ``path``,
    never a torn mixture."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    try:  # pragma: no cover - platform-dependent
        dfd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)
    except OSError:
        pass


def save_gauge(path, links, grid: GridCartesian, note: str = "") -> ConfigHeader:
    """Write gauge links to ``path`` in canonical site order.

    The write is atomic (see :func:`atomic_write`) and the header
    carries a CRC-32 of the binary payload, so a crash mid-save leaves
    the previous file intact and any later corruption of the payload
    is caught by :func:`load_gauge` before parsing.  Each link is
    exported once, for both the payload and its digest."""
    canonical = [u.to_canonical() for u in links]
    payload = b"".join(canonical)
    header = ConfigHeader(
        dims=list(grid.ldims),
        dtype=str(grid.dtype),
        plaquette=plaquette(links, grid),
        checksums=[component_digest(c) for c in canonical],
        note=note,
        payload_crc=zlib.crc32(payload),
    )
    atomic_write(path, header.render().encode() + payload)
    return header


def verify_limits(dtype) -> tuple:
    """``(unitarity limit, plaquette tolerance)`` for links of
    ``dtype``: 1e-7 and 1e-10 in double precision, widened to 100 ulps
    where the dtype's own rounding is coarser (complex64 links read a
    unitarity defect of ~1e-7 straight from ``random_su3_field``)."""
    ulps = 100 * float(np.finfo(dtype).eps)
    return max(1e-7, ulps), max(1e-10, ulps)


def load_gauge(path, grid: GridCartesian, verify: bool = True) -> list:
    """Read gauge links written by :func:`save_gauge`.

    ``verify`` re-checks the payload CRC, the stored per-link
    checksums, link unitarity and the plaquette — the paranoia every
    archive reader applies — each on data the loader holds: the file's
    bytes, each direction's payload view, and one working-row copy per
    direction (:func:`repro.grid.su3._link_checks`).  The unitarity
    limit and the plaquette's absolute tolerance are
    :func:`verify_limits` of the link dtype.
    """
    with open(path, "rb") as f:
        raw = f.read()
    end = raw.find(b"END_HEADER")
    if end < 0:
        raise ConfigFormatError("missing END_HEADER")
    end = raw.index(b"\n", end) + 1
    header = ConfigHeader.parse(raw[:end].decode())
    if header.dims != list(grid.ldims):
        raise ConfigFormatError(
            f"file dims {header.dims} != grid dims {grid.ldims}"
        )
    if header.dtype != str(grid.dtype):
        raise ConfigFormatError(
            f"file dtype {header.dtype} != grid dtype {grid.dtype}"
        )
    # The payload is read in place, through a view: each direction's
    # digest and link are taken straight from it, and the file's bytes
    # are released before the links are verified.
    body = memoryview(raw)[end:]
    del raw
    if verify and header.payload_crc is not None and \
            zlib.crc32(body) != header.payload_crc:
        raise ConfigFormatError(
            "payload CRC mismatch (truncated or bit-rotted file?)"
        )
    per_link = grid.lsites * 9 * grid.dtype.itemsize
    if len(body) != grid.ndim * per_link:
        raise ConfigFormatError(
            f"payload is {len(body)} bytes, expected "
            f"{grid.ndim * per_link}"
        )
    links = []
    for mu in range(grid.ndim):
        can = np.frombuffer(body, dtype=grid.dtype, count=9 * grid.lsites,
                            offset=mu * per_link).reshape(grid.lsites, 3, 3)
        if verify and header.digest(can) != header.checksums[mu]:
            raise ConfigFormatError(
                f"checksum mismatch for direction {mu} (corrupted file?)"
            )
        links.append(Lattice(grid, (3, 3)).from_canonical(can))
    del can, body
    if verify:
        unitarity_limit, plaquette_tol = verify_limits(grid.dtype)
        defects, p = _link_checks(links, grid)
        for mu, defect in enumerate(defects):
            if defect > unitarity_limit:
                raise ConfigFormatError(
                    f"direction {mu} links are not unitary"
                )
        if not abs(p - header.plaquette) <= plaquette_tol:
            raise ConfigFormatError(
                f"plaquette mismatch: file says {header.plaquette}, "
                f"data gives {p}"
            )
    return links
