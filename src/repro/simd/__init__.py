"""Grid's machine-specific abstraction layer (Section II-C).

Grid confines machine-specific code to a small set of operations —
"arithmetics of real and complex numbers, permutations of vector
elements, load/store, conversion of floating-point precision" — behind
a vector-type abstraction.  This package reproduces that layer:

* :class:`~repro.simd.backend.SimdBackend` — the abstract interface
  (``MultComplex``, ``MaddComplex``, ``TimesI``, ``Permute`` ...).
* :mod:`repro.simd.generic` — the architecture-independent C/C++ path
  of Table I (numpy arithmetic, user-defined lane count).
* :mod:`repro.simd.fixed` — the fixed-width families of Table I
  (SSE4, AVX/AVX2, AVX-512/ICMI, QPX, NEONv8).
* :mod:`repro.simd.sve_acle` — SVE via ACLE intrinsics with FCMLA
  (the paper's chosen implementation, Sections V-B/V-C).
* :mod:`repro.simd.sve_real` — SVE complex arithmetic built from real
  instructions (the alternative of Section V-E).

All backends implement identical mathematics; the Grid layer above is
backend-agnostic.  Backends carry their lane geometry, which drives the
virtual-node decomposition of the lattice (Fig. 1).
"""

from repro.simd.backend import SimdBackend
from repro.simd.generic import GenericBackend
from repro.simd.fixed import FIXED_FAMILIES, FixedWidthBackend
from repro.simd.sve_acle import SveAcleBackend
from repro.simd.sve_real import SveRealBackend
from repro.simd.resilient import (
    BackendDegradedWarning,
    DegradeEvent,
    ResilientBackend,
    reset_all_degraded,
)
from repro.simd.registry import (
    available_backends,
    fallback_enabled,
    fallback_policy,
    get_backend,
)

__all__ = [
    "SimdBackend",
    "GenericBackend",
    "FixedWidthBackend",
    "FIXED_FAMILIES",
    "SveAcleBackend",
    "SveRealBackend",
    "ResilientBackend",
    "BackendDegradedWarning",
    "DegradeEvent",
    "reset_all_degraded",
    "available_backends",
    "get_backend",
    "fallback_enabled",
    "fallback_policy",
]
