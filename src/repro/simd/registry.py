"""Backend registry: Grid's compile-time ``--enable-simd=`` switch.

Keys:

* ``generic`` / ``generic<bits>`` — architecture-independent numpy,
* ``sse4``, ``avx``, ``avx512``, ``qpx``, ``neon`` — Table I families,
* ``sve<bits>-acle`` — FCMLA complex arithmetic (Section V-C),
* ``sve<bits>-real`` — real-instruction complex arithmetic (Section V-E),

where ``<bits>`` is a legal SVE vector length (the paper enables 128,
256 and 512 in Grid; wider lengths work here too).

A **fallback policy** (off by default, the ``fallback`` field of the
engine's :class:`~repro.engine.ExecutionPolicy`) makes every
non-generic backend resilient: an op that raises degrades the instance
to ``generic`` with a recorded :class:`~repro.simd.resilient.
BackendDegradedWarning` instead of crashing the run.  Enable scoped
via ``engine.scope(fallback=True)`` (:func:`fallback_policy` is the
pre-engine spelling of the same thing), or process-wide via
``engine.update_base_policy(fallback=True)``.
"""

from __future__ import annotations

import re
from contextlib import contextmanager

from repro.engine.policy import (
    current_policy,
    scope as _engine_scope,
)
from repro.simd.backend import SimdBackend
from repro.simd.fixed import FIXED_FAMILIES, FixedWidthBackend
from repro.simd.generic import GenericBackend
from repro.simd.resilient import ResilientBackend
from repro.simd.sve_acle import SveAcleBackend
from repro.simd.sve_real import SveRealBackend

_SVE_RE = re.compile(r"^sve(\d+)-(acle|real)$")
_GENERIC_RE = re.compile(r"^generic(\d*)$")


def fallback_enabled() -> bool:
    """Whether new backends are wrapped for graceful degradation
    (the resolved engine policy's ``fallback`` field)."""
    return current_policy().fallback


@contextmanager
def fallback_policy(enabled: bool):
    """Scoped fallback policy — a thin wrapper over
    ``engine.scope(fallback=...)`` (nestable, thread-isolated)."""
    with _engine_scope(fallback=bool(enabled)):
        yield


def available_backends(sve_vls=(128, 256, 512)) -> list[str]:
    """All registry keys (SVE keys for the given vector lengths)."""
    keys = ["generic"] + [f.key for f in FIXED_FAMILIES]
    for bits in sve_vls:
        keys.append(f"sve{bits}-acle")
        keys.append(f"sve{bits}-real")
    return keys


def get_backend(key: str = None, resilient: bool = None) -> SimdBackend:
    """Instantiate a backend from its registry key.

    ``key=None`` resolves the current engine policy's ``backend``
    field — the scoped default for call sites that do not name one.
    ``resilient`` overrides the policy's fallback setting for this
    instance: ``True`` wraps the backend in a
    :class:`~repro.simd.resilient.ResilientBackend`, ``False`` never
    wraps, ``None`` (default) follows :func:`fallback_enabled`.
    Generic backends are never wrapped (they *are* the fallback).
    """
    if key is None:
        key = current_policy().backend
    backend = _construct(key)
    wrap = fallback_enabled() if resilient is None else resilient
    if wrap and not isinstance(backend, GenericBackend):
        return ResilientBackend(backend)
    return backend


def _construct(key: str) -> SimdBackend:
    m = _GENERIC_RE.match(key)
    if m:
        bits = int(m.group(1)) if m.group(1) else 256
        return GenericBackend(bits)
    if key in {f.key for f in FIXED_FAMILIES}:
        return FixedWidthBackend(key)
    m = _SVE_RE.match(key)
    if m:
        bits = int(m.group(1))
        cls = SveAcleBackend if m.group(2) == "acle" else SveRealBackend
        return cls(bits)
    raise ValueError(
        f"unknown SIMD backend {key!r}; known: {available_backends()}"
    )
