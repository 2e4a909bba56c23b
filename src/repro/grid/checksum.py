"""Deterministic lattice checksums for verification reporting.

The Section V-D verification harness compares runs across vector
lengths and backends; a short stable digest of the canonical field
content makes mismatches reportable without dumping whole fields.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.grid.lattice import Lattice


def canonical_digest(can: np.ndarray, ndigits: int = 12) -> str:
    """SHA-256 of a canonical array's bytes read as float64 (a re/im
    pair per float64 on complex64), rounded to ``ndigits``: robust
    against the last-bit differences legitimate reorderings (e.g.
    different summation trees) produce, while catching real defects."""
    rounded = np.round(np.ascontiguousarray(can).view(np.float64), ndigits)
    return hashlib.sha256(rounded).hexdigest()[:16]


def component_digest(can: np.ndarray) -> str:
    """SHA-256 of a canonical array's real components at its own
    precision (float32 on complex64, float64 on complex128), exactly:
    the digest ``REPRO_GAUGE_V2`` files carry, which sees every bit the
    file stores.  :func:`canonical_digest` reads a complex64 array's
    re/im pairs as float64 and rounds them, so a change to a real part
    can vanish from it."""
    can = np.ascontiguousarray(can)
    return hashlib.sha256(can.view(can.real.dtype)).hexdigest()[:16]


def field_checksum(lat: Lattice, ndigits: int = 12) -> str:
    """:func:`canonical_digest` of the field's canonical array."""
    return canonical_digest(lat.to_canonical(), ndigits)


def scalar_checksum(value: complex, ndigits: int = 10) -> str:
    """Digest of a scalar observable."""
    v = complex(value)
    payload = f"{round(v.real, ndigits)}:{round(v.imag, ndigits)}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
