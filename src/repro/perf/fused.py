"""Fused, cache-blocked Wilson-Dslash for numpy-semantics backends.

The layered reference path (``grid/wilson.py``) issues one backend
call per tensor element — project, nine ``madd`` per half-spinor SU(3)
multiply, reconstruct, accumulate — each validating its operands and
materialising intermediates.  This module fuses the whole
project/SU(3)/reconstruct chain for one (direction, sign) into a
handful of whole-block numpy expressions.

**Working layout.**  Under numpy the ufunc inner loop plays the part of
the paper's SVE vector (Fig. 1), and the lattice's lane-innermost
``(osites, 4, 3, nlanes)`` storage hands it loops of ``nlanes`` (1–4)
elements.  The single-rank sweep (:func:`fused_dhop`) therefore works
on a *tensor-major flat* copy ``(4, 3, N)``, ``N = osites * nlanes``:
``psi`` is transposed once on entry and each block's accumulator once
on exit, and the operator snapshots its links in the same layout on
the sweep's first call (``WilsonDirac._full_links``: the links, and
the back-links as adjoints).  Every neighbour gather — lane
permutations at virtual-node boundaries included — is one ``np.take``
through a flat index table per (mu, ±1)
(:func:`repro.grid.stencil.neighbour_table`, derived by cshifting an
index field, so it cannot disagree with ``cshift``).  The sweep runs
over blocks of :data:`BLOCK_SITES` flat sites: per block it gathers
one neighbour field at a time into block-sized scratch and folds it
into the accumulator while the block is still in cache, instead of
materialising all eight neighbour fields over the whole lattice.
The even-odd checkerboard hop (:func:`fused_dhop_cb`) is the same
sweep over half the sites: a half field's working copy is
``(4, 3, N/2)``, gathered through per-parity tables, and the links
are the operator's contiguous ``(3, 3, N/2)`` slices for the target
parity (``WilsonDirac._parity_links``), so every link operand is a
contiguous load as in the paper's virtual-node layout.

**Bit-identity contract.**  Every expression below reproduces the
reference accumulation element-for-element:

* the per-element accumulation order is unchanged — colour index ``b``
  ascending inside the SU(3) multiply (after a leading ``0 +``), then
  (mu, sign) in sweep order;
* each fused step computes exactly the reference's IEEE operation
  (``acc + u*v``, ``x * dtype(1j)``, …) on the same dtype, since the
  numpy backends' ops are those expressions verbatim
  (:class:`repro.simd.backend.NumpyArithmeticMixin`);
* layout, blocks and tiles only decide *where* an element is computed
  — the computation is elementwise in sites once the neighbour values
  are in hand, and a gather is an exact copy.

The distributed operator's routes run the same blocked sweep
(:func:`sweep_blocks`) over extended working arrays: each rank's shard
followed by the face slabs it received, in process
(:mod:`repro.grid.overlap`) or in the shared-memory rank workers
(:mod:`repro.grid.comms.shmem`).  Every route with the engine on
therefore accumulates through one body, :func:`_accumulate_direction`.

The path is only taken for backends whose arithmetic is *exactly* the
numpy mixin (``generic``/``fixed``); instruction-counting SVE backends
and resilient proxies keep the layered path, which is also what
``perf.disabled()`` forces.
"""

from __future__ import annotations

import numpy as np

from repro.grid.lattice import Lattice
from repro.grid.stencil import neighbour_table, parity_neighbour_table
from repro.perf.counters import counters
from repro.perf.parallel import run_tiles, tiles_for

#: Flat sites per sweep block.  Picked by measurement on a 2-core
#: x86-64 host (2 MB L2, numpy 2.4, ``generic256``, complex128): at
#: 16^4, 4096 ran at 1.4–1.5 us/site against 1.6–1.8 for 1024, 2048
#: and 8192; at 4^3x8 and 8^4 every size from 1024 to 8192 was within
#: noise.  A block then touches ~4 MB (accumulator, neighbour, three
#: half-spinor buffers and the block's stretch of two link fields).
BLOCK_SITES = 4096


def to_working(x: np.ndarray) -> np.ndarray:
    """Copy a lane-major ``(osites, *tensor, nlanes)`` array into the
    tensor-major flat working layout ``(*tensor, osites * nlanes)``."""
    t = np.ascontiguousarray(np.moveaxis(x, 0, -2))
    return t.reshape(t.shape[:-2] + (-1,))


def from_working(w: np.ndarray, out: np.ndarray) -> None:
    """Write the working-layout ``w`` back into lane-major ``out``."""
    view = np.moveaxis(out, 0, -2)
    view[...] = w.reshape(view.shape)


def adjoint(U: np.ndarray) -> np.ndarray:
    """``U^dagger`` of a working-layout ``(3, 3, n)`` link field:
    ``V[a, b] = conj(U[b, a])``.  Conjugation is exact, so products
    with ``V`` are bitwise those with ``conj(U[b, a])``; it runs on the
    whole (contiguous) array and the transpose is a view."""
    return np.conj(U).swapaxes(0, 1)


def _su3_halfspinor(V: np.ndarray, h: np.ndarray, out: np.ndarray,
                    prod: np.ndarray) -> None:
    """``out_{s,a} = sum_b V[a,b] h_{s,b}``.

    ``V`` is ``(3, 3, n)`` and ``h``/``out``/``prod`` ``(2, 3, n)``.
    Accumulates with ``b`` ascending — the reference's inner-loop
    order in :func:`repro.grid.tensor.su3_mul_vec` — so every element
    sees the identical IEEE sum ``((0 + t0) + t1) + t2``.
    """
    zero = out.dtype.type(0)
    for b in range(3):
        u = V[None, :, b]  # column b
        hb = h[:, b, None]
        np.multiply(u, hb, out=prod)
        np.add(zero if b == 0 else out, prod, out=out)


def _accumulate_direction(acc: np.ndarray, V: np.ndarray,
                          nbr: np.ndarray, mu: int, sign: int,
                          scratch=None) -> None:
    """Add one hopping-term direction into ``acc`` in place.

    ``acc``/``nbr`` are working-layout spinor fields ``(4, 3, n)`` and
    ``V`` a ``(3, 3, n)`` colour-matrix field: the matrix the hop
    applies, the link ``U_mu(x)`` for ``sign=+1``, the :func:`adjoint`
    back-link ``U_mu(x - mu)^dagger`` for ``sign=-1``.  ``scratch`` is
    three ``(2, 3, n)`` arrays (half-spinor, SU(3) result, product),
    allocated when not given.

    Fuses project -> SU(3) -> reconstruct for direction ``mu`` with
    projector sign ``sign``.  Formula-for-formula this is
    :func:`repro.grid.gamma.project` /
    :func:`~repro.grid.gamma.reconstruct` with the mixin ops inlined;
    the ``out=`` forms change where results land, never how they are
    computed.
    """
    I = nbr.dtype.type(1j)
    NI = nbr.dtype.type(-1j)
    if scratch is None:
        scratch = [np.empty((2,) + nbr.shape[1:], dtype=nbr.dtype)
                   for _ in range(3)]
    h, uh, prod = scratch
    p0, p1, p2, p3 = nbr  # spin components
    h0, h1 = h
    if mu == 0:
        # h0 = p0 ± p3*i ; h1 = p1 ± p2*i
        np.multiply(p3, I, out=h0)
        np.multiply(p2, I, out=h1)
        op = np.add if sign > 0 else np.subtract
        op(p0, h0, out=h0)
        op(p1, h1, out=h1)
    elif mu == 1:
        # h0 = p0 ∓ p3 ; h1 = p1 ± p2
        if sign > 0:
            np.subtract(p0, p3, out=h0)
            np.add(p1, p2, out=h1)
        else:
            np.add(p0, p3, out=h0)
            np.subtract(p1, p2, out=h1)
    elif mu == 2:
        # h0 = p0 ± p2*i ; h1 = p1 ± p3*(-i)
        np.multiply(p2, I, out=h0)
        np.multiply(p3, NI, out=h1)
        op = np.add if sign > 0 else np.subtract
        op(p0, h0, out=h0)
        op(p1, h1, out=h1)
    elif mu == 3:
        # h0 = p0 ± p2 ; h1 = p1 ± p3
        op = np.add if sign > 0 else np.subtract
        op(p0, p2, out=h0)
        op(p1, p3, out=h1)
    else:
        raise ValueError(f"no direction {mu}")
    _su3_halfspinor(V, h, uh, prod)
    u0, u1 = uh
    a0, a1, a2, a3 = acc
    np.add(a0, u0, out=a0)
    np.add(a1, u1, out=a1)
    t = h0  # the half-spinor buffer is dead: reuse it as scratch
    if mu == 0:
        f = NI if sign > 0 else I
        np.multiply(u1, f, out=t)
        np.add(a2, t, out=a2)
        np.multiply(u0, f, out=t)
        np.add(a3, t, out=a3)
    elif mu == 1:
        # acc2 ± h1, acc3 ∓ h0 (x + (-y) == x - y exactly in IEEE-754)
        if sign > 0:
            np.add(a2, u1, out=a2)
            np.subtract(a3, u0, out=a3)
        else:
            np.subtract(a2, u1, out=a2)
            np.add(a3, u0, out=a3)
    elif mu == 2:
        fa, fb = (NI, I) if sign > 0 else (I, NI)
        np.multiply(u0, fa, out=t)
        np.add(a2, t, out=a2)
        np.multiply(u1, fb, out=t)
        np.add(a3, t, out=a3)
    else:  # mu == 3
        if sign > 0:
            np.add(a2, u0, out=a2)
            np.add(a3, u1, out=a3)
        else:
            np.subtract(a2, u0, out=a2)
            np.subtract(a3, u1, out=a3)


def fused_dhop(dirac, psi: Lattice, plan=None) -> Lattice:
    """The engine's Wilson hopping term (``WilsonDirac.dhop``).

    Transposes ``psi`` into the ``(4, 3, N)`` working layout, sweeps
    blocks of :data:`BLOCK_SITES` flat sites — per block and per
    (mu, sign): one ``np.take`` through the memoized neighbour table,
    then the fused accumulation against the operator's tensor-major
    links into a block-sized accumulator, which is transposed into the
    lane-major output as the block completes.  Blocks are whole outer
    sites (a multiple of ``nlanes`` flat sites), so each lands in one
    contiguous stretch of the output.  Bit-identical to the layered
    reference, serial or tiled.

    ``plan`` (a resolved :class:`repro.engine.plan.KernelPlan`) pins
    the tile split to the plan's ``workers``/``tile_min_sites`` and
    feeds its per-stage counters; without one the split falls back to
    the current policy.  Tiles split the outer-site axis; each tile
    allocates its own scratch, so tiles may run on concurrent workers.
    """
    grid = dirac.grid
    counters().bump("fused_dhop_calls")
    hops = [(sign, neighbour_table(grid, mu, sign), links[mu], mu)
            for mu in range(grid.ndim)
            for sign, links in zip((+1, -1), dirac._full_links())]
    return _sweep(hops, psi, grid, plan)


def fused_dhop_cb(dirac, psi: Lattice, target, plan=None) -> Lattice:
    """One checkerboard hop: ``D_h`` from the half field ``psi`` onto
    the half grid ``target`` of the other parity
    (``WilsonDirac.dhop_cb``).

    The same sweep as :func:`fused_dhop` over half the sites: the
    gathers go through :func:`repro.grid.stencil.parity_neighbour_table`
    and the links are the operator's per-parity slices
    (``WilsonDirac._parity_links``, built on the first hop onto
    ``target``'s parity): the full-order links at ``target.sites``, so
    each block reads its links as contiguous stretches.  Every
    neighbour of a ``target`` site lies in ``psi``'s parity, so each
    output site accumulates the values the full sweep would — the hop
    is bit-identical to ``dhop`` of the embedded field, restricted to
    ``target``.
    """
    grid = dirac.grid
    hops = [(sign, parity_neighbour_table(grid, target.parity, mu, sign),
             links[mu], mu)
            for mu in range(grid.ndim)
            for sign, links in zip((+1, -1), dirac._parity_links(target))]
    return _sweep(hops, psi, target, plan)


def _sweep(hops, psi: Lattice, grid, plan) -> Lattice:
    """The single-rank driver of :func:`sweep_blocks`, shared by the
    full and checkerboard hops.

    ``hops`` lists ``(sign, table, links, mu)`` in accumulation order:
    ``table`` maps the output's flat sites on ``grid`` (a full or half
    grid) to ``psi``'s, and ``links`` is a working-layout link field in
    the output's site order (output site ``i`` reads link site ``i``).
    Blocks are whole outer sites, so each finished block is transposed
    into one contiguous stretch of the lane-major output.
    """
    nl = grid.nlanes
    out = Lattice(grid, psi.tensor_shape,
                  np.empty((grid.osites,) + psi.tensor_shape + (nl,),
                           dtype=grid.dtype))
    flat = to_working(psi.data).reshape(12, -1)  # a gather row per (s, c)

    def store(acc, b0, b1) -> None:
        from_working(acc, out.data[b0 // nl:b1 // nl])

    ntiles = sweep_blocks(hops, flat, grid.osites * nl, store, plan,
                          unit=nl)
    if plan is not None:
        plan.stages.bump("gather", len(hops))
        plan.stages.bump("compute", ntiles)
    return out


def sweep_blocks(hops, flat: np.ndarray, count: int, store, plan,
                 unit: int = 1, link_sites=None) -> int:
    """The blocked, tiled sweep over output sites ``0 .. count - 1``;
    returns the number of tiles.

    ``flat`` is the ``(12, M)`` working-layout source every ``table``
    of ``hops`` (see :func:`_sweep`) indexes, and ``links[..., i]`` —
    or with ``link_sites`` ``links[..., link_sites[i]]``, gathered per
    block (the distributed interior and shell parts of
    :mod:`repro.grid.overlap`, which sweep scattered sites of the full
    rank arrays) — is output site ``i``'s link.  Each finished block's
    ``(4, 3, n)`` accumulator goes to ``store(acc, b0, b1)``.  Blocks
    and tiles are whole multiples of ``unit`` sites; tiles allocate
    their own scratch and store disjoint sites, so they may run on
    concurrent workers.
    """
    if plan is None:
        tiles = tiles_for(count // unit)
        workers = None
    else:
        tiles = tiles_for(count // unit, workers=plan.workers,
                          min_sites=plan.tile_min_sites)
        workers = plan.workers
    step = max(unit, BLOCK_SITES - BLOCK_SITES % unit)

    def body(sl) -> None:
        lo, hi = sl.start * unit, sl.stop * unit
        size = min(step, hi - lo)
        acc_buf, nbr_buf = (np.empty(12 * size, dtype=flat.dtype)
                            for _ in range(2))
        bufs = [np.empty(6 * size, dtype=flat.dtype) for _ in range(3)]
        link_buf = None if link_sites is None else \
            np.empty(9 * size, dtype=flat.dtype)
        for b0 in range(lo, hi, step):
            b1 = min(b0 + step, hi)
            n = b1 - b0
            acc = acc_buf[:12 * n].reshape(4, 3, n)
            acc[...] = 0
            nbr = nbr_buf[:12 * n].reshape(12, n)
            scratch = [b[:6 * n].reshape(2, 3, n) for b in bufs]
            for sign, table, links, mu in hops:
                # Indices are in range by construction: "clip" skips
                # numpy's buffered bounds-checked copy.
                np.take(flat, table[b0:b1], axis=1, out=nbr, mode="clip")
                if link_buf is None:
                    V = links[:, :, b0:b1]
                else:
                    V = link_buf[:9 * n].reshape(3, 3, n)
                    np.take(links, link_sites[b0:b1], axis=-1, out=V,
                            mode="clip")
                _accumulate_direction(acc, V, nbr.reshape(4, 3, n), mu,
                                      sign, scratch)
            store(acc, b0, b1)

    run_tiles(body, tiles, workers=workers)
    return len(tiles)

