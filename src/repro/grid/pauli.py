"""SU(2) helpers used to build and project SU(3) matrices.

Random SU(3) elements are generated by embedding random SU(2) subgroup
rotations (the Cabibbo–Marinari subgroups), and reunitarisation uses
Gram–Schmidt; both live here and in :mod:`repro.grid.su3`.

:func:`random_su3` draws one matrix (the Metropolis update proposes
with it); :func:`random_su3_sites` draws a whole field of them at once,
byte for byte the matrices and generator state of a loop of
:func:`random_su3` calls.
"""

from __future__ import annotations

import numpy as np

#: Pauli matrices.
SIGMA = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=np.complex128)

#: The three SU(2) subgroups of SU(3): index pairs they act on.
SU2_SUBGROUPS = ((0, 1), (0, 2), (1, 2))


def random_su2(rng: np.random.Generator, spread: float = 1.0) -> np.ndarray:
    """A random SU(2) matrix ``a0 + i a.sigma`` with ``|a| = 1``.

    ``spread`` in (0, 1] biases toward the identity for small values
    (useful for generating gauge fields of tunable roughness).
    """
    a = rng.normal(size=4)
    a /= np.linalg.norm(a)
    if spread < 1.0:
        # Pull a0 toward +1 (the identity), shrinking the rotation part.
        a[0] = (1 - spread) + spread * abs(a[0])
        a[1:] *= spread
        a /= np.linalg.norm(a)
    m = a[0] * np.eye(2, dtype=np.complex128)
    for k in range(3):
        m = m + 1j * a[k + 1] * SIGMA[k]
    return m


def embed_su2(u2: np.ndarray, subgroup: tuple) -> np.ndarray:
    """Embed an SU(2) matrix into SU(3) on the given index pair."""
    i, j = subgroup
    m = np.eye(3, dtype=np.complex128)
    m[i, i] = u2[0, 0]
    m[i, j] = u2[0, 1]
    m[j, i] = u2[1, 0]
    m[j, j] = u2[1, 1]
    return m


def random_su3(rng: np.random.Generator, spread: float = 1.0,
               hits: int = 3) -> np.ndarray:
    """A random SU(3) matrix from products of embedded SU(2) rotations."""
    m = np.eye(3, dtype=np.complex128)
    for _ in range(hits):
        for sg in SU2_SUBGROUPS:
            m = embed_su2(random_su2(rng, spread), sg) @ m
    return m


def random_su3_sites(rng: np.random.Generator, n: int,
                     spread: float = 1.0, hits: int = 3) -> np.ndarray:
    """``n`` random SU(3) matrices ``(n, 3, 3)``: byte for byte the
    matrices, and the generator state after, of ``n`` calls of
    :func:`random_su3`.

    The normals are drawn in one call, in the loop's order; every
    per-matrix operation is applied elementwise or stacked with the
    same IEEE operations (``np.vecdot`` for the norm, which matches
    ``np.linalg.norm``'s dot where ``einsum`` does not; ``@`` for the
    products).
    """
    a = rng.normal(size=(n, hits, len(SU2_SUBGROUPS), 4))
    a /= np.sqrt(np.vecdot(a, a))[..., None]
    if spread < 1.0:
        a[..., 0] = (1 - spread) + spread * np.abs(a[..., 0])
        a[..., 1:] *= spread
        a /= np.sqrt(np.vecdot(a, a))[..., None]
    u2 = a[..., 0, None, None] * np.eye(2, dtype=np.complex128)
    for k in range(3):
        u2 = u2 + 1j * a[..., k + 1, None, None] * SIGMA[k]
    eye = np.broadcast_to(np.eye(3, dtype=np.complex128), (n, 3, 3))
    m = eye.copy()
    for h in range(hits):
        for g, (i, j) in enumerate(SU2_SUBGROUPS):
            e = eye.copy()
            e[:, i, i], e[:, i, j] = u2[:, h, g, 0, 0], u2[:, h, g, 0, 1]
            e[:, j, i], e[:, j, j] = u2[:, h, g, 1, 0], u2[:, h, g, 1, 1]
            m = e @ m
    return m
