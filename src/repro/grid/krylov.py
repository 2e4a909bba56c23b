"""The Krylov solvers' vector algebra: each step once, on two routes.

Between two operator applications a Krylov recursion is BLAS-1
algebra -- updates, norms and inner products -- which, as Lattice
expressions, is a numpy call (and a temporary) per operation.  Grid
fuses these steps (``axpy_norm`` and the like, arXiv:1512.03487); here
each step the solvers take is one method of an *algebra*, on one of two
routes with the same bytes:

* :class:`LatticeAlgebra`, the reference: the step's Lattice
  expression, operation for operation as the solvers wrote it, on any
  backend;
* :class:`NativeAlgebra`: one fused pass of the native library per step
  (``krylov.c``, :class:`repro.perf.native.Passes`), which computes the
  same IEEE operations in the same order -- products under the
  contraction key, reductions in numpy's pairwise order -- so its
  outputs and sums are the reference's bytes.  A
  :class:`~repro.grid.comms.DistributedLattice` runs the pass per rank
  and sums the ranks' reductions in rank order, as its
  ``inner_product`` does.

:func:`algebra` picks the route for a field where the fused hop runs:
engine on, a fused-safe backend and the library loaded.  Everywhere else
(engine off, SVE/ACLE or fault-injecting backends, no compiler) the
reference runs; where only the library is missing, each pick counts one
``native_fallbacks``.

Two reductions of a fused pass come early: :meth:`bicg_dots` returns
``<t, s>`` with ``<t, t>``, and :meth:`bicg_update` the next iteration's
``<r0, r>``.  The reference returns ``None`` for them, and the solver
computes them with :meth:`dot` where its expression always did, so a
backend sees the reference's operations in their order.  Every step
returns fresh fields; none writes an operand.
"""

from __future__ import annotations

import numpy as np

from repro.engine.plan import takes_fused_path
from repro.perf import native
from repro.perf.counters import counters


class LatticeAlgebra:
    """The reference route: each step as its Lattice expression."""

    @staticmethod
    def dot(x, y) -> complex:
        """``<x, y>``."""
        return x.inner_product(y)

    @staticmethod
    def norm2(x) -> float:
        """``|x|^2``."""
        return x.norm2()

    @staticmethod
    def axpy(x, p, a):
        """``x + p * a``."""
        return x + p * a

    @staticmethod
    def sub_scaled(a, y, c):
        """``a - y * c``."""
        return a - y * c

    @staticmethod
    def sub_norm(b, y) -> tuple:
        """``(r, |r|^2)`` for ``r = b - y``."""
        r = b - y
        return r, r.norm2()

    @staticmethod
    def bicg_direction(r, p, v, omega, beta):
        """BiCGSTAB's search direction ``r + (p - v * omega) * beta``."""
        return r + (p - v * omega) * beta

    @staticmethod
    def bicg_half(r, v, alpha) -> tuple:
        """BiCGSTAB's half-step residual ``(s, |s|^2)``, ``s = r - v *
        alpha``."""
        s = r - v * alpha
        return s, s.norm2()

    @staticmethod
    def bicg_dots(t, s) -> tuple:
        """``(<t, t>, <t, s>)``; the reference defers ``<t, s>``
        (``None``)."""
        return t.inner_product(t), None

    @staticmethod
    def bicg_update(x, p, alpha, s, omega, t, r0) -> tuple:
        """BiCGSTAB's update ``(x + p * alpha + s * omega, r, |r|^2,
        <r0, r>)`` with ``r = s - t * omega``; the reference defers
        ``<r0, r>`` (``None``)."""
        x = x + p * alpha + s * omega
        r = s - t * omega
        return x, r, r.norm2(), None

    @staticmethod
    def cg_update(x, p, r, ap, alpha) -> tuple:
        """CG's update ``(x + p * alpha, r - ap * alpha, |r - ap *
        alpha|^2)``."""
        x = x + p * alpha
        r = r - ap * alpha
        return x, r, r.norm2()

    @staticmethod
    def schur_back(b_e, hop_o, diag: float) -> tuple:
        """The Schur solve's back-substitution ``psi_e = (b_e - hop_o *
        (-0.5)) * (1 / diag)`` and ``|r_e|^2`` of its residual ``b_e -
        (psi_e * diag - hop_o * 0.5)``."""
        psi_e = (b_e - hop_o * (-0.5)) * (1.0 / diag)
        r_e = b_e - (psi_e * diag - hop_o * 0.5)
        return psi_e, r_e.norm2()

    @staticmethod
    def schur_residual(b_o, psi_o, hop_e, diag: float) -> float:
        """``|b_o - (psi_o * diag - hop_e * 0.5)|^2``."""
        return (b_o - (psi_o * diag - hop_e * 0.5)).norm2()

    @staticmethod
    def add_converted(x, d, convert):
        """``x + convert(d)``: a defect correction's trial iterate."""
        return x + convert(d)

    @staticmethod
    def convert(r, convert):
        """``convert(r)``: a residual in the other precision."""
        return convert(r)

    @staticmethod
    def pick(field, half):
        """The sites of ``field`` on the half grid ``half``."""
        return half.pick(field)

    @staticmethod
    def embed(even, odd):
        """The full field of the half fields ``even`` and ``odd``."""
        return odd.grid.embed(odd, out=even.grid.embed(even))


REFERENCE = LatticeAlgebra()


def _data(lat) -> np.ndarray:
    data = lat.data
    return data if data.flags.c_contiguous else np.ascontiguousarray(data)


class NativeAlgebra(LatticeAlgebra):
    """The fused route: each step one pass of ``passes`` (a
    :class:`repro.perf.native.Passes`), per rank of a distributed
    field.  Its outputs and sums are the reference's bytes."""

    def __init__(self, passes) -> None:
        self.passes = passes

    def _run(self, op: int, fields, k0=0j, k1=0j) -> tuple:
        """Pass ``op`` over ``fields`` rank by rank: ``(outputs, sums)``,
        the outputs fields like ``fields[0]`` and the sums per rank."""
        first = fields[0]
        run = self.passes.run
        if not hasattr(first, "locals"):
            outs, sums = run(op, [_data(f) for f in fields], k0, k1)
            return [first.wrap(first.grid, first.tensor_shape, o)
                    for o in outs], [sums]
        ranks = [run(op, [_data(p) for p in parts], k0, k1)
                 for parts in zip(*(f.locals for f in fields))]
        outs = []
        for i in range(native.PASS_SHAPES[op][1]):
            field = first.clone_empty()
            field.locals = [lat.wrap(lat.grid, lat.tensor_shape, o[i])
                            for lat, (o, _s) in zip(first.locals, ranks)]
            outs.append(field)
        return outs, [sums for _o, sums in ranks]

    @staticmethod
    def _complex(sums, i: int = 0) -> complex:
        if len(sums) == 1:
            return complex(sums[0][i], sums[0][i + 1])
        return sum(complex(s[i], s[i + 1]) for s in sums)

    @staticmethod
    def _real(sums, i: int = 0) -> float:
        if len(sums) == 1:
            return sums[0][i]
        return float(sum(complex(s[i], 0.0) for s in sums).real)

    def dot(self, x, y) -> complex:
        return self._complex(self._run(native.OP_DOT, (x, y))[1])

    def norm2(self, x) -> float:
        return self._real(self._run(native.OP_NORM, (x,))[1])

    def axpy(self, x, p, a):
        return self._run(native.OP_AXPY, (x, p), a)[0][0]

    def sub_scaled(self, a, y, c):
        return self._run(native.OP_SUBMUL, (a, y), c)[0][0]

    def sub_norm(self, b, y) -> tuple:
        (r,), sums = self._run(native.OP_SUB_NORM, (b, y))
        return r, self._real(sums)

    def bicg_direction(self, r, p, v, omega, beta):
        return self._run(native.OP_BICG_DIR, (r, p, v), omega, beta)[0][0]

    def bicg_half(self, r, v, alpha) -> tuple:
        (s,), sums = self._run(native.OP_SUBMUL_NORM, (r, v), alpha)
        return s, self._real(sums)

    def bicg_dots(self, t, s) -> tuple:
        sums = self._run(native.OP_DOT2, (t, s))[1]
        return self._complex(sums, 0), self._complex(sums, 2)

    def bicg_update(self, x, p, alpha, s, omega, t, r0) -> tuple:
        (x, r), sums = self._run(native.OP_BICG_UPD, (x, p, s, t, r0),
                                 alpha, omega)
        return x, r, self._real(sums), self._complex(sums, 1)

    def cg_update(self, x, p, r, ap, alpha) -> tuple:
        (x, r), sums = self._run(native.OP_CG_UPD, (x, p, r, ap), alpha)
        return x, r, self._real(sums)

    def schur_back(self, b_e, hop_o, diag: float) -> tuple:
        (psi_e,), sums = self._run(native.OP_SCHUR_BACK, (b_e, hop_o),
                                   1.0 / diag, diag)
        return psi_e, self._real(sums)

    def schur_residual(self, b_o, psi_o, hop_e, diag: float) -> float:
        return self._real(self._run(native.OP_SCHUR_RES,
                                    (b_o, psi_o, hop_e), diag)[1])

    def add_converted(self, x, d, convert):
        take = getattr(convert, "take", None)
        if take is None or x.data.dtype != np.complex128:
            return super().add_converted(x, d, convert)
        return x.wrap(x.grid, x.tensor_shape, self.passes.relayout_add(
            _data(x), _data(d), take))

    def convert(self, r, convert):
        take = getattr(convert, "take", None)
        if take is None or r.data.dtype != np.complex128:
            return super().convert(r, convert)
        target = convert.target
        shape = target.field_shape(r.tensor_shape)
        return r.wrap(target, r.tensor_shape, self.passes.relayout_single(
            _data(r), take, shape))

    def pick(self, field, half):
        rows = int(np.prod(field.tensor_shape))
        data = self.passes.pick(_data(field), half.site_offsets(rows),
                                half.nlanes, rows)
        return field.wrap(half, field.tensor_shape,
                          data.reshape(half.field_shape(field.tensor_shape)))

    def embed(self, even, odd):
        full = odd.grid.full
        tensor = odd.tensor_shape
        rows = int(np.prod(tensor))
        data = self.passes.embed(
            [_data(even), _data(odd)],
            [h.grid.site_offsets(rows) for h in (even, odd)],
            full.nlanes, rows, full.osites * full.nlanes * rows)
        return odd.wrap(full, tensor, data.reshape(full.field_shape(tensor)))


def algebra(field) -> LatticeAlgebra:
    """The algebra that runs the Krylov steps on ``field`` (a
    :class:`~repro.grid.lattice.Lattice` or a distributed field):
    :class:`NativeAlgebra` where the fused hop runs -- the engine on, a
    fused-safe backend and the library loaded for the field's dtype --
    else the reference.  Where only the library is missing the pick is
    counted as one ``native_fallbacks``."""
    grid = (field.locals[0] if hasattr(field, "locals") else field).grid
    if not takes_fused_path(grid.backend):
        return REFERENCE
    passes = native.passes(grid.dtype)
    if passes is None:
        counters().bump("native_fallbacks")
        return REFERENCE
    return NativeAlgebra(passes)
