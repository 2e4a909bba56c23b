"""Fused, cache-blocked Wilson-Dslash for numpy-semantics backends.

The layered reference path (``grid/wilson.py``) issues one backend
call per tensor element — project, nine ``madd`` per half-spinor SU(3)
multiply, reconstruct, accumulate — each validating its operands and
materialising intermediates.  This module fuses the whole
project/SU(3)/reconstruct chain of every (direction, sign) into one
compiled call per block of sites, or, where the kernel cannot load,
one (direction, sign) at a time into a handful of whole-block numpy
expressions.

**One compiled body.**  Every fused Wilson sweep -- the full hop
(:func:`fused_dhop`), the even-odd checkerboard hop
(:func:`fused_dhop_cb`) and the distributed halo sweep, in process
(:func:`repro.grid.dist_wilson.halo_dhop`) and in the shared-memory
rank workers (:mod:`repro.grid.comms.shmem`) -- runs one call of a
compiled C kernel per block of output sites (:meth:`Sweep.run`;
:mod:`repro.perf.native`, ``hop_cb.c``).  An operator keeps one
:class:`Sweep` per route, whose tables and links the kernel checks
once and binds; each call checks only its source and output.  Per
output site and (mu, ±1), in sweep order (:func:`sweep_order`), it
gathers the neighbour through an ``(8, n)`` table, spin-projects it,
multiplies by the link and reconstructs into the block.  Every sweep hands the
kernel its links by one addressing rule (``hop_cb.c``), as a *link
operand*: the full hop reads the operator's lane-major ``U_mu`` in
place, at the output site for ``+mu`` and at the neighbour,
conjugate-transposed as it loads, for ``-mu`` (:func:`inplace_links`);
the checkerboard and distributed sweeps pass compact contiguous
``(8, 3, 3, n)`` arrays in sweep order (``U_mu``, then the back-link
``U_mu(x - mu)`` stored as its adjoint) in the tensor-major working
layout below (:func:`stored_links`).  The kernel reads its source and
writes its output in either of two layouts:

* *lane-major* -- the lattice's own ``(osites, 4, 3, nlanes)`` storage.
  The full hop reads ``psi.data`` and the links in place through the
  operator's tables of lane-major offsets (``WilsonDirac._full_hop``)
  and writes the output lattice in place; nothing is transposed or
  copied.  The distributed sweep writes every rank's output this way.
* *tensor-major flat* -- ``(4, 3, N)``, one row of ``N`` sites per
  spin-colour component.  Half fields *are* this layout: a
  :class:`~repro.grid.cartesian.GridRedBlack` field is stored
  ``(4, 3, N/2)`` (split into register rows), so the checkerboard hop
  reads and writes it in place through per-parity tables
  (``WilsonDirac._cb_hops`` holds the stacked tables and link slices,
  built once per operator and parity).  The distributed sweep reads the
  ranks' extended arrays this way.

The kernel states numpy's arithmetic -- the contract below, with each
complex product contracted the way numpy's ``multiply`` contracts on
the host -- so its bytes are those of the numpy block body.  Its store
also states the even-odd blocks' scalar algebra (:func:`store_block`):
the checkerboard hop writes ``D_h psi``, the off-diagonal block
``D_h psi * (-1/2)`` or the Schur operator ``x * d - (D_h psi *
(-1/2)) * (1/d)``, the Lattice expressions' IEEE operations in their
order, so :class:`repro.grid.evenodd.SchurWilson` is two sweeps and no
whole-field algebra.

**The numpy block body** (:func:`sweep_blocks`) runs where the kernel
cannot load (no compiler, or an unknown contraction key), over the same
tables and link operand, building each block's matrices as it goes
(:func:`_block_links`).  Under numpy the ufunc inner loop plays the part
of the paper's SVE vector (Fig. 1), and lane-major storage would hand it
loops of ``nlanes`` (1–4) elements, so the body works tensor-major:
the full hop transposes ``psi`` into that layout once on entry, tile
by tile, and each block's accumulator back once on exit.  Every
neighbour gather -- lane permutations at virtual-node boundaries
included -- is one ``np.take`` through a flat index table per (mu, ±1)
(:func:`repro.grid.stencil.neighbour_table`, derived by cshifting an
index field, so it cannot disagree with ``cshift``).  Per block of
:data:`BLOCK_SITES` flat sites and per (mu, ±1) it gathers the 12
neighbour rows, then projects, multiplies and reconstructs them into
the accumulator while the block is still in cache (gather-then-project
order).  It composes three steps, :func:`_project`,
:func:`_su3_halfspinor` and :func:`_reconstruct`, one implementation
each; where the two rows of a spin pair take the same operation they
run as one ``(2, 3, n)`` ufunc call.

The same row kernel serves the gauge field's plaquette, under the
same rule (:func:`repro.engine.plan.takes_fused_path`):
:func:`loop_traces` sweeps the closed loops of
``repro.grid.su3.plaquette`` in blocks, gathering shifted links
through the same neighbour tables, and forms each colour-matrix
product with :func:`_su3_halfspinor` on colour-matrix rows
(:func:`colour_mm_rows`).

**Bit-identity contract.**  Every expression below reproduces the
reference accumulation element-for-element:

* the per-element accumulation order is unchanged — from +0, colour
  index ``b`` ascending inside the SU(3) multiply (after a leading
  ``0 +``), then (mu, sign) in sweep order;
* each fused step computes exactly the reference's IEEE operation
  (``acc + u*v``, ``x * dtype(1j)``, …) on the same dtype, since the
  numpy backends' ops are those expressions verbatim
  (:class:`repro.simd.backend.NumpyArithmeticMixin`); the C kernel
  spells out the same operations, constants as full complex products
  (``-1j`` keeps its ``-0.0`` real part);
* layout, order, blocks and tiles only decide *where* an element is
  computed — the computation is elementwise in sites once the
  neighbour values are in hand, a gather is an exact copy, and so
  projecting before or after the gather gives the same bits.

The distributed operator's routes run the same sweep over extended
working arrays: each rank's shard followed by the face slabs it
received.

The path is only taken for backends whose arithmetic is *exactly* the
numpy mixin (``generic``/``fixed``); instruction-counting SVE backends
and resilient proxies keep the layered path, which is also what
``perf.disabled()`` forces.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.engine.policy import current_policy
from repro.perf.counters import counters
from repro.perf.native import NHOPS, STORE_HOP, STORE_SCHUR, LinkFields
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


@functools.lru_cache(maxsize=None)
def _spin_pair(dtype: np.dtype, a: complex, b: complex) -> np.ndarray:
    """The ``(2, 1, 1)`` factor ``[a, b]``: one ufunc call scales the
    two rows of a spin pair by ``a`` and ``b``, through the same
    broadcast (stride-0) operand a scalar factor takes."""
    f = np.array([a, b], dtype=dtype).reshape(2, 1, 1)
    f.setflags(write=False)
    return f


def _project(p: np.ndarray, mu: int, sign: int, h: np.ndarray) -> None:
    """``h`` = the two independent spin rows of
    ``(1 + sign gamma_mu) p``: :func:`repro.grid.gamma.project` with the
    mixin ops inlined.  ``p`` is ``(4, 3, n)`` and ``h`` ``(2, 3, n)``;
    where both rows take the same operation they run as one call."""
    op = np.add if sign > 0 else np.subtract
    if mu == 0:
        # h0 = p0 ± p3*i ; h1 = p1 ± p2*i
        np.multiply(p[3:1:-1], p.dtype.type(1j), out=h)
        op(p[0:2], h, out=h)
    elif mu == 1:
        # h0 = p0 ∓ p3 ; h1 = p1 ± p2
        (np.subtract if sign > 0 else np.add)(p[0], p[3], out=h[0])
        op(p[1], p[2], out=h[1])
    elif mu == 2:
        # h0 = p0 ± p2*i ; h1 = p1 ± p3*(-i)
        np.multiply(p[2:4], _spin_pair(p.dtype, 1j, -1j), out=h)
        op(p[0:2], h, out=h)
    elif mu == 3:
        # h0 = p0 ± p2 ; h1 = p1 ± p3
        op(p[0:2], p[2:4], out=h)
    else:
        raise ValueError(f"no direction {mu}")


def _su3_halfspinor(V: np.ndarray, h: np.ndarray, out: np.ndarray,
                    prod: np.ndarray) -> None:
    """``out_{s,a} = sum_b V[a,b] h_{s,b}``.

    ``V`` is ``(3, 3, n)`` and ``h``/``out``/``prod`` ``(s, 3, n)``:
    a half spinor's two spin rows, or for the colour-matrix products
    three matrix rows (``n`` may be several axes).  Accumulates with
    ``b`` ascending — the reference's inner-loop order in
    :func:`repro.grid.tensor.su3_mul_vec` — so every element sees the
    identical IEEE sum ``((0 + t0) + t1) + t2``.
    """
    zero = out.dtype.type(0)
    for b in range(3):
        u = V[None, :, b]  # column b
        hb = h[:, b, None]
        np.multiply(u, hb, out=prod)
        np.add(zero if b == 0 else out, prod, out=out)


def colour_mm_rows(A: np.ndarray, B: np.ndarray, out: np.ndarray,
                   prod: np.ndarray) -> None:
    """``out = A B`` on colour-matrix fields whose two colour axes lead
    (``(3, 3, ...)``, any strides): :func:`_su3_halfspinor` with
    ``V = A`` and the rows of ``B^T`` as its half spinors, written to
    ``out^T``.  Each element is ``((0 + A_a0 B_0c) + A_a1 B_1c) +
    A_a2 B_2c`` with the operands in that order — the ``madd`` loop of
    :func:`repro.grid.tensor.colour_mm`, bit for bit."""
    _su3_halfspinor(A, B.swapaxes(0, 1), out.swapaxes(0, 1), prod)


def loop_traces(loops, nlanes: int) -> list:
    """``sum_x Re tr [A(x) B(x) C(x)^dagger D(x)^dagger]`` for each
    loop in ``loops``: the closed loops behind the plaquette, on
    working-layout ``(3, 3, N)`` colour-matrix fields, in blocks of
    :data:`BLOCK_SITES` flat sites.

    Each loop is four ``(field, table)`` pairs for ``A, B, C, D``: the
    factor at flat site ``f`` is ``field[:, :, table[f]]`` (a
    neighbour, gathered per block through a
    :func:`repro.grid.stencil.neighbour_table`) or, for ``table``
    ``None``, ``field[:, :, f]``.  The loops share one set of block
    buffers and one trace buffer.

    Each trace is bit-identical to ``colour_trace_re(
    colour_mm_dagger_right(colour_mm_dagger_right(colour_mm(A, B), C),
    D))`` on the lane-major fields.  The products are
    :func:`colour_mm_rows` and, for ``M C^dagger``,
    :func:`_su3_halfspinor` with ``V = conj(C)`` and the rows of ``M``
    as its half spinors, so each product is ``conj(C_cb) M_ab`` — the
    ``conj_madd`` loop of :func:`repro.grid.tensor.
    colour_mm_dagger_right`; of the last product only the diagonal is
    formed, each element by the same operations.  Each colour's
    diagonal is reduced over an ``(osites, nlanes)`` array strided like
    the lane-major ``A[:, a, a]``, because numpy's pairwise sum depends
    on the shape and strides it reduces; the three traces are summed in
    colour order, as :func:`repro.grid.tensor.colour_trace_re` does.
    """
    first = loops[0][0][0]
    count, dtype = first.shape[-1], first.dtype
    zero = dtype.type(0)
    step = max(nlanes, BLOCK_SITES - BLOCK_SITES % nlanes)
    size = 9 * min(step, count)
    bufs = [np.empty(size, dtype=dtype) for _ in range(7)]
    diag = np.empty((count // nlanes, 3, nlanes), dtype=dtype)
    traces = []
    for factors in loops:
        for b0 in range(0, count, step):
            b1 = min(b0 + step, count)
            n = b1 - b0
            *fetched, m1, m2, prod = [b[:9 * n].reshape(3, 3, n)
                                      for b in bufs]
            A, B, C, D = [field[:, :, b0:b1] if table is None else
                          np.take(field, table[b0:b1], axis=-1, out=buf,
                                  mode="clip")
                          for (field, table), buf in zip(factors, fetched)]
            colour_mm_rows(A, B, m1, prod)
            _su3_halfspinor(np.conj(C, out=fetched[2]), m1, m2, prod)
            Dc = np.conj(D, out=fetched[3])
            tr, p = prod[0], prod[1]
            for b in range(3):  # tr_a = sum_b conj(D_ab) m2_ab
                np.multiply(Dc[:, b], m2[:, b], out=p)
                np.add(zero if b == 0 else tr, p, out=tr)
            diag[b0 // nlanes:b1 // nlanes] = np.moveaxis(
                tr.reshape(3, -1, nlanes), 0, 1)
        total = 0.0
        for a in range(3):
            total += complex(diag[:, a].sum()).real
        traces.append(total)
    return traces


def _reconstruct(acc: np.ndarray, uh: np.ndarray, mu: int, sign: int,
                 t: np.ndarray) -> None:
    """Add the spinor rebuilt from the half spinor ``uh`` into ``acc``
    in place: :func:`repro.grid.gamma.reconstruct` and the accumulate,
    with the mixin ops inlined.  ``acc`` is ``(4, 3, n)``, ``uh`` and
    the scratch ``t`` ``(2, 3, n)``; rows that take the same operation
    run as one call."""
    np.add(acc[0:2], uh, out=acc[0:2])
    lower = acc[2:4]
    if mu == 0:
        # acc2 += u1 * f ; acc3 += u0 * f   (f = -i on +mu, +i on -mu)
        np.multiply(uh[::-1], uh.dtype.type(-1j if sign > 0 else 1j),
                    out=t)
        np.add(lower, t, out=lower)
    elif mu == 1:
        # acc2 ± u1, acc3 ∓ u0 (x + (-y) == x - y exactly in IEEE-754)
        u0, u1 = uh
        a2, a3 = lower
        if sign > 0:
            np.add(a2, u1, out=a2)
            np.subtract(a3, u0, out=a3)
        else:
            np.subtract(a2, u1, out=a2)
            np.add(a3, u0, out=a3)
    elif mu == 2:
        # acc2 += u0 * (∓i) ; acc3 += u1 * (±i)
        f = _spin_pair(uh.dtype, -1j, 1j) if sign > 0 \
            else _spin_pair(uh.dtype, 1j, -1j)
        np.multiply(uh, f, out=t)
        np.add(lower, t, out=lower)
    else:  # mu == 3: acc2 ± u0, acc3 ± u1
        (np.add if sign > 0 else np.subtract)(lower, uh, out=lower)


def _accumulate_direction(acc: np.ndarray, V: np.ndarray,
                          nbr: np.ndarray, mu: int, sign: int,
                          scratch=None) -> None:
    """Add one hopping-term direction into ``acc`` in place, in
    gather-then-project order.

    ``acc``/``nbr`` are working-layout spinor fields ``(4, 3, n)`` and
    ``V`` a ``(3, 3, n)`` colour-matrix field: the matrix the hop
    applies, the link ``U_mu(x)`` for ``sign=+1``, the :func:`adjoint`
    back-link ``U_mu(x - mu)^dagger`` for ``sign=-1``.  ``scratch`` is
    three ``(2, 3, n)`` arrays (half-spinor, SU(3) result, product),
    allocated when not given.

    :func:`_project` -> :func:`_su3_halfspinor` -> :func:`_reconstruct`
    for direction ``mu`` with projector sign ``sign``; the half-spinor
    buffer is dead after the SU(3) multiply and serves as the
    reconstruct's scratch.
    """
    if scratch is None:
        scratch = [np.empty((2,) + nbr.shape[1:], dtype=nbr.dtype)
                   for _ in range(3)]
    h, uh, prod = scratch
    _project(nbr, mu, sign, h)
    _su3_halfspinor(V, h, uh, prod)
    _reconstruct(acc, uh, mu, sign, h)


def fused_dhop(dirac, psi: Lattice, hop=None, plan=None) -> Lattice:
    """The engine's Wilson hopping term (``WilsonDirac.dhop``).

    Both routes read the gauge field in place: ``U_mu`` at the output
    site for ``+mu``, and ``U_mu`` at the neighbour, conjugate-
    transposed as it is loaded, for ``-mu`` (:func:`inplace_links`), so
    no copy of the links is made.

    With the compiled kernel ``hop`` (:func:`repro.perf.native.kernel`)
    the sweep reads ``psi.data`` and writes the output in place, in
    their lane-major layout: per block of output sites one call of
    ``hop`` runs every (mu, sign) in sweep order, through the
    operator's lane-major offset tables (``WilsonDirac._full_hop``).
    Nothing is transposed and no working copy is made.

    With ``hop`` ``None`` (no compiler, or an unknown contraction key)
    the numpy body runs instead: ``psi`` is transposed into the
    ``(4, 3, N)`` working layout (on the sweep's tiles, every tile
    finishing before the sweep starts), and :func:`sweep_blocks` walks
    blocks of :data:`BLOCK_SITES` flat sites -- per block and per
    (mu, sign): one ``np.take`` through the memoized neighbour table,
    the block's matrices gathered from the links, then the fused
    accumulation into a block-sized accumulator, which is transposed
    into the lane-major output as the block completes.

    Either way blocks are whole outer sites (a multiple of ``nlanes``
    flat sites), the result is bit-identical to the layered reference,
    serial or tiled.  ``plan`` (a resolved
    :class:`repro.engine.plan.KernelPlan`) pins the tile split to the
    plan's ``workers``/``tile_min_sites`` and feeds its per-stage
    counters; without one the split falls back to the current policy.
    Tiles split the outer-site axis and write disjoint sites, so they
    may run on concurrent workers.
    """
    grid = dirac.grid
    counters().bump("fused_dhop_calls")
    nl, n = grid.nlanes, grid.osites * grid.nlanes
    out = Lattice(grid, psi.tensor_shape,
                  np.empty(grid.field_shape(psi.tensor_shape),
                           dtype=grid.dtype))
    if hop is not None:
        dirac._full_hop().run(hop, np.ascontiguousarray(psi.data), out.data,
                              plan)
        return out
    hops = [(sign, neighbour_table(grid, mu, sign), mu)
            for mu, sign in sweep_order(grid.ndim)]
    flat = np.empty((12, n), dtype=psi.data.dtype)  # a gather row per (s, c)
    lanes = flat.reshape(psi.tensor_shape + (grid.osites, nl))

    def transpose(sl) -> None:
        o = slice(sl.start // nl, sl.stop // nl)
        lanes[:, :, o] = np.moveaxis(psi.data[o], 0, -2)

    def store(acc, b0, b1) -> None:
        from_working(acc, out.data[b0 // nl:b1 // nl])

    # The entry transpose runs on the sweep's tiles (the split is a
    # pure function of the plan and the size) and is complete before
    # the sweep reads any neighbour.
    run_tiles(transpose, *_split(plan, n, nl))
    ntiles = sweep_blocks(hops, flat, inplace_links(dirac.links), n, store,
                          plan, unit=nl)
    _bump_stages(plan, len(hops), ntiles)
    return out


def fused_dhop_cb(dirac, psi: Lattice, target, hop=None, plan=None,
                  store: int = STORE_HOP, x: Lattice = None,
                  diag: float = 1.0) -> Lattice:
    """One checkerboard hop: ``D_h`` from the half field ``psi`` onto
    the half grid ``target`` of the other parity
    (``WilsonDirac.dhop_cb``), in compressor order, written through the
    kernel's store ``store`` (:data:`~repro.perf.native.STORE_HOP`,
    ``STORE_BLOCK`` or ``STORE_SCHUR``, whose source ``x`` is a half
    field on ``target`` and whose diagonal is ``diag``).

    Half fields are stored in the working layout, so nothing is
    transposed.  The operator's :class:`Sweep` onto ``target``'s parity
    (``WilsonDirac._cb_hops``, built and bound once) holds the stacked
    :func:`repro.grid.stencil.parity_neighbour_table` tables and
    per-parity links.  Per block of output sites, one call of the
    compiled kernel ``hop`` (:func:`repro.perf.native.kernel`) runs
    every (mu, sign) in sweep order -- gather, spin-project, multiply by
    the link, reconstruct into the block -- and stores the block.  With
    ``hop`` ``None`` the numpy body (:func:`sweep_blocks`) runs over the
    same tables and links and stores each block by :func:`store_block`.
    Both compute the numpy sweep's IEEE operations in its order, so the
    ``STORE_HOP`` hop is bit-identical to ``dhop`` of the embedded
    field, restricted to ``target``, and the others to the numpy
    expressions of :func:`store_block` applied to it.  Tiles split the
    output sites; each writes only its own.
    """
    sweep = dirac._cb_hops(target)
    src = np.ascontiguousarray(psi.data)
    xs = None if x is None else np.ascontiguousarray(x.data)
    out = np.empty(target.field_shape(psi.tensor_shape), dtype=src.dtype)
    if hop is not None:
        sweep.run(hop, src, out, plan, store, xs, diag)
    else:
        work = out.reshape(src.shape[:2] + (-1,))
        xw = None if xs is None else xs.reshape(work.shape)

        def block(acc, b0, b1) -> None:
            store_block(store, acc, work[:, :, b0:b1],
                        None if xw is None else xw[:, :, b0:b1], diag)

        hops = [(sign, sweep.tables[k], mu)
                for k, (mu, sign) in enumerate(sweep_order(dirac.grid.ndim))]
        ntiles = sweep_blocks(hops, src.reshape(12, -1), sweep.links,
                              sweep.n, block, plan, unit=target.nlanes)
        _bump_stages(plan, NHOPS, ntiles)
    return Lattice.wrap(target, psi.tensor_shape, out)


def store_block(store: int, acc: np.ndarray, out: np.ndarray, x, diag: float
                ) -> None:
    """The kernel's store (``hop_cb.c``) in numpy: write into ``out``
    what ``store`` names for the ``(4, 3, n)`` accumulated hop ``acc``
    (overwritten), with ``x`` the Schur source at ``out``'s sites.
    Each step is the Lattice algebra's numpy operation -- a product with
    the scalar ``dtype(c)`` (``Lattice.__mul__``), a subtraction -- in
    the kernel's order: ``acc * (-1/2)``, then ``* (1/diag)`` and
    ``(x * diag) - acc``."""
    t = acc.dtype.type
    if store != STORE_HOP:
        np.multiply(acc, t(-0.5), out=acc)
    if store == STORE_SCHUR:
        np.multiply(acc, t(1.0 / diag), out=acc)
        np.subtract(x * t(diag), acc, out=out)
    elif out is not acc:
        out[...] = acc


def sweep_order(ndim: int) -> list:
    """The hops ``(mu, sign)`` in accumulation order: ``mu`` ascending,
    ``+1`` before ``-1`` -- the row order of every stacked table and
    links array."""
    return [(mu, sign) for mu in range(ndim) for sign in (+1, -1)]


def stored_links(links: np.ndarray) -> LinkFields:
    """The link operand of a sweep whose every matrix, adjoint
    back-links included, is stored per output site in one contiguous
    ``(8, 3, 3, n)`` array in sweep order (the checkerboard hop's
    per-parity arrays, the distributed sweeps' per-rank ones)."""
    return LinkFields(links, links.shape[-1], back=False)


def inplace_links(fields) -> LinkFields:
    """The link operand of a sweep that reads the operator's lane-major
    gauge field in place: each ``U_mu`` (a :class:`Lattice`) serves
    hop ``(mu, +1)`` at the output site and hop ``(mu, -1)`` at the
    neighbour, conjugate-transposed on load."""
    return LinkFields([u.data for u in fields for _sign in (+1, -1)],
                      fields[0].grid.nlanes, back=True)


class Sweep:
    """One fused Wilson sweep's static operands: the ``(8, n)`` int64
    ``tables`` (largest entry ``top``), the link operand ``links``
    (:func:`stored_links`, :func:`inplace_links`), the source's row
    stride ``rstride`` and size ``src_size``, the output ``lanes`` and
    the tile ``unit`` (see :func:`repro.perf.native.kernel`).  An
    operator keeps one per route it sweeps (``WilsonDirac._full_hop``,
    ``WilsonDirac._cb_hops``), so the kernel checks these once
    (:meth:`bound`) and each sweep checks only its source, output and
    Schur source."""

    def __init__(self, tables, top: int, links, rstride: int, lanes: int,
                 unit: int, src_size: int) -> None:
        self.tables, self.top, self.links = tables, int(top), links
        self.rstride, self.lanes, self.unit = rstride, lanes, unit
        self.src_size = src_size
        self.n = tables.shape[-1]
        self._bound = (None, None)  # (kernel, its binding)
        self._tiles = (None, None)  # (plan, its tiling)

    def bound(self, hop):
        """The kernel ``hop`` bound to these operands (once per kernel:
        a test may swap the kernel)."""
        kernel, bound = self._bound
        if kernel is not hop:
            bound = hop(self.tables, self.top, self.links, self.rstride,
                        self.lanes, self.src_size)
            self._bound = (hop, bound)
        return bound

    def run(self, hop, src, out, plan, store: int = STORE_HOP, x=None,
            diag: float = 1.0, stages: bool = True) -> int:
        """Run the compiled kernel ``hop`` over every output site, in
        blocks of :data:`BLOCK_SITES`, tiled as ``plan`` says (whole
        multiples of ``unit`` sites), storing through ``store``; returns
        the number of tiles.  Counted as one ``native_sweeps``, with
        the plan's ``gather`` and ``compute`` stages where ``stages``.
        The tiling of the last plan is kept: a plan is frozen, so it
        tiles this sweep the same way each time."""
        run = self.bound(hop)(src, out, store, x, diag)
        cached, tiling = self._tiles
        if plan is None or cached is not plan:
            tiling = _tiling(plan, self.n, self.unit)
            self._tiles = (plan, tiling)
        tiles, workers, step = tiling

        def body(sl) -> None:
            for b0 in range(sl.start, sl.stop, step):
                run(b0, min(b0 + step, sl.stop))

        run_tiles(body, tiles, workers)
        counters().bump_sweep(len(tiles), plan.stages if stages and plan
                              else None, NHOPS)
        return len(tiles)


def native_sweep(hop, src, rstride: int, tables, top: int, links, out,
                 lanes: int, unit: int, plan) -> int:
    """One :meth:`Sweep.run` of the compiled kernel ``hop`` over
    operands bound for this call alone (the distributed sweeps, whose
    source is a fresh extended array each time); returns the number of
    tiles."""
    return Sweep(tables, top, links, rstride, lanes, unit,
                 src.size).run(hop, src, out, plan, stages=False)


def _bump_stages(plan, nhops: int, ntiles: int) -> None:
    if plan is not None:
        plan.stages.bump("gather", nhops)
        plan.stages.bump("compute", ntiles)


def _split(plan, count: int, unit: int) -> tuple:
    """``(tiles, workers)`` for a sweep over ``count`` sites: the
    :func:`~repro.perf.parallel.tiles_for` split and the pool width,
    from ``plan`` when given, else from the current policy — resolved
    on the calling thread, so no tile reads the policy."""
    shape = current_policy() if plan is None else plan
    return (tiles_for(count, shape.workers, shape.tile_min_sites, unit),
            shape.workers)


def _tiling(plan, count: int, unit: int) -> tuple:
    """``(tiles, workers, step)``: :func:`_split`'s tiles and pool
    width, and the block length, a whole multiple of ``unit`` sites."""
    return _split(plan, count, unit) + (
        max(unit, BLOCK_SITES - BLOCK_SITES % unit),)


def _run_blocks(block, count: int, plan, unit: int, rows: tuple,
                dtype) -> int:
    """Run ``block(b0, b1, bufs)`` over output sites ``0 .. count - 1``
    in blocks of :data:`BLOCK_SITES`, tiled; returns the number of
    tiles.

    Blocks and tiles are whole multiples of ``unit`` sites.  ``bufs``
    is one ``(r, b1 - b0)`` scratch array per entry ``r`` of ``rows``;
    each tile allocates its own, so tiles may run on concurrent
    workers as long as ``block`` writes only its own sites.  ``plan``
    pins the tile split (see :func:`fused_dhop`).
    """
    tiles, workers, step = _tiling(plan, count, unit)
    counters().bump("tiles_dispatched", len(tiles))

    def body(sl) -> None:
        lo, hi = sl.start, sl.stop
        size = min(step, hi - lo)
        bufs = [np.empty(r * size, dtype=dtype) for r in rows]
        for b0 in range(lo, hi, step):
            b1 = min(b0 + step, hi)
            n = b1 - b0
            block(b0, b1, [b[:r * n].reshape(r, n)
                           for b, r in zip(bufs, rows)])

    run_tiles(body, tiles, workers)
    return len(tiles)


def gather_links(u: np.ndarray, sites: np.ndarray, out=None) -> np.ndarray:
    """The ``(3, 3, n)`` matrices of the lane-major colour-matrix field
    ``u`` (``(osites, 3, 3, nlanes)``) at the flat ``sites``, read in
    place: element ``(a, b)`` of site ``s`` is at ``(s // nlanes) * 9
    nlanes + (3a + b) nlanes + s % nlanes``."""
    nl = u.shape[-1]
    site, lane = np.divmod(sites, nl)
    rows = (site * (9 * nl) + lane) + np.arange(0, 9 * nl, nl)[:, None]
    if out is not None:
        out = out.reshape(9, -1)
    return np.take(u.reshape(-1), rows, out=out).reshape(3, 3, -1)


def _block_links(links, k: int, nbr: np.ndarray, b0: int, b1: int,
                 buf: np.ndarray) -> np.ndarray:
    """Hop ``k``'s ``(3, 3, n)`` matrices at output sites ``b0 .. b1 -
    1``, addressed by the kernel's rule (``hop_cb.c``) from the link
    operand ``links``: at the output site, as stored, or -- for a
    ``(mu, -1)`` hop where ``links.back`` -- ``U_mu`` at the block's
    flat neighbour sites ``nbr``, conjugate-transposed.  Written into
    ``buf`` where they are not one run of the field."""
    ll = links.llanes
    u = links.fields[k].reshape(-1, 3, 3, ll)
    n = b1 - b0
    if links.back and k % 2:
        return np.conj(gather_links(u, nbr).swapaxes(0, 1), out=buf)
    o, lane = divmod(b0, ll)
    if lane + n <= ll:  # one run: a view
        return u[o, :, :, lane:lane + n]
    # Blocks are whole runs here (``unit`` is the lanes).
    buf.reshape(3, 3, -1, ll)[...] = np.moveaxis(u[o:b1 // ll], 0, -2)
    return buf


def sweep_blocks(hops, flat: np.ndarray, links, count: int, store, plan,
                 unit: int = 1) -> int:
    """The blocked, tiled sweep over output sites ``0 .. count - 1`` in
    gather-then-project order; returns the number of tiles.

    ``hops`` lists ``(sign, table, mu)`` in accumulation order:
    ``table`` maps output sites to columns of ``flat``, the ``(12, M)``
    working-layout source.  ``links`` is the kernel's link operand
    (:func:`stored_links`, :func:`inplace_links`); where it reads
    back-links at the neighbour, ``table`` is also the neighbour's flat
    site in the link field.  Per block and hop the sweep gathers the 12
    neighbour rows and the block's matrices (:func:`_block_links`) and
    accumulates them with :func:`_accumulate_direction`; each finished
    block's ``(4, 3, n)`` accumulator goes to ``store(acc, b0, b1)``.
    Blocks and tiles are whole multiples of ``unit`` sites, and tiles
    store disjoint sites (:func:`_run_blocks`).

    Every fused sweep runs this body only where the compiled kernel
    cannot load (:func:`repro.perf.native.kernel` is ``None``), so each
    call counts one ``native_fallbacks``.
    """

    def block(b0, b1, bufs) -> None:
        n = b1 - b0
        acc, nbr, vbuf, *scratch = bufs
        acc = acc.reshape(4, 3, n)
        acc[...] = 0
        vbuf = vbuf.reshape(3, 3, n)
        scratch = [b.reshape(2, 3, n) for b in scratch]
        for k, (sign, table, mu) in enumerate(hops):
            # Indices are in range by construction: "clip" skips
            # numpy's buffered bounds-checked copy.
            np.take(flat, table[b0:b1], axis=1, out=nbr, mode="clip")
            V = _block_links(links, k, table[b0:b1], b0, b1, vbuf)
            _accumulate_direction(acc, V, nbr.reshape(4, 3, n), mu, sign,
                                  scratch)
        store(acc, b0, b1)

    counters().bump("native_fallbacks")
    return _run_blocks(block, count, plan, unit, (12, 12, 9, 6, 6, 6),
                       flat.dtype)


# ``repro.grid``'s package init imports ``grid/wilson.py``, which
# imports the sweeps above: importing the grid's names last lets either
# package be imported first.
from repro.grid.lattice import Lattice  # noqa: E402
from repro.grid.stencil import neighbour_table  # noqa: E402
