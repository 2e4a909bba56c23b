"""The Wilson-Dslash IR, pinned to the production body.

Every statement of :mod:`repro.vectorizer.wilson_ir` is simplified by
:func:`repro.vectorizer.passes.simplify` and evaluated with
:func:`repro.vectorizer.ir.reference_eval`; per direction the result
must equal the production body, :func:`repro.perf.fused.
_accumulate_direction` on working-layout ``(4, 3, n)`` arrays (with
``adjoint(u_b)`` on the backward hop), byte for byte, NaN payloads and
signed zeros included.  The whole-sweep comparison, on
every ``generic`` width, lives with the sweep's own tests
(``tests/perf/test_tensor_major_dhop.py``).
"""

import warnings

import numpy as np
import pytest

import repro.grid  # noqa: F401 - loads before repro.perf.fused, which imports it
from repro.perf.fused import (
    _accumulate_direction,
    _project,
    _reconstruct,
    _su3_halfspinor,
    adjoint,
)
from repro.vectorizer import ir, passes, wilson_ir

DTYPES = (np.complex128, np.complex64)


def _scalar_type(dtype) -> str:
    return "c64" if np.dtype(dtype) == np.complex64 else "c128"


def _plant(spinor: np.ndarray, links: np.ndarray) -> None:
    """±0, ±inf and NaN in a working-layout spinor and link field."""
    spinor[0, 0, 0] = complex(-0.0, -0.0)
    spinor[1, 1, 7] = complex(np.inf, 0.0)
    spinor[3, 0, 8] = complex(0.0, -np.inf)
    spinor[2, 2, 12] = complex(np.nan, 1.0)
    spinor[0, 1, 19] = complex(-0.0, np.nan)
    links[1, 1, 20] = complex(-0.0, np.inf)
    links[0, 2, 27] = complex(-np.inf, -0.0)


def _hop(acc, u_f, u_b, p_f, p_b, mu) -> None:
    """Both hops of direction ``mu`` through the production body."""
    _accumulate_direction(acc, u_f, p_f, mu, +1)
    _accumulate_direction(acc, adjoint(u_b), p_b, mu, -1)


def _sites_first(x: np.ndarray) -> np.ndarray:
    """The site-first view :func:`wilson_ir.evaluate` takes."""
    return np.moveaxis(x, -1, 0)


class TestSimplifiedStatements:
    def test_leading_zero_addend_survives_simplification(self):
        # The SU(3) sum must keep its ``0 + t`` head for IEEE -0.0
        # bit-identity with the reference; a simplifier that folded
        # x + 0 would break it, so pin its presence.
        for dagger in (False, True):
            for st in wilson_ir.su3_statements("u", dagger):
                if not st.dest.startswith("_w"):
                    continue  # the hoisted conj(U) components
                e = passes.simplify(st.kernel).kernel.expr
                while isinstance(e.a, ir.Add):
                    e = e.a
                assert e.a == ir.Const(0j), st.dest

    @pytest.mark.parametrize("mu", range(4))
    def test_negations_become_subtractions(self, mu):
        # ``x + (-y)`` canonicalises to ``x - y``, the fused body's
        # np.subtract: no Neg node survives simplification.
        def has_neg(e) -> bool:
            if isinstance(e, ir.Neg):
                return True
            return any(has_neg(getattr(e, f)) for f in ("a", "b")
                       if isinstance(getattr(e, f, None), ir.Expr))

        for st in wilson_ir.hop_statements(mu):
            assert not has_neg(passes.simplify(st.kernel).kernel.expr)


class TestPerDirection:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("mu", range(4))
    def test_matches_accumulate_hop(self, mu, dtype):
        rng = np.random.default_rng(100 + mu)
        n = 128

        def carr(*shape):
            return (rng.normal(size=shape)
                    + 1j * rng.normal(size=shape)).astype(dtype)

        acc = carr(4, 3, n)
        u_f, u_b = carr(3, 3, n), carr(3, 3, n)
        p_f, p_b = carr(4, 3, n), carr(4, 3, n)
        _plant(p_f, u_b)
        _plant(p_b, u_f)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = acc.copy()
            _hop(want, u_f, u_b, p_f, p_b, mu)
            got = acc.copy()
            wilson_ir.evaluate(wilson_ir.hop_statements(
                mu, _scalar_type(dtype)), _sites_first(got),
                **{k: _sites_first(v) for k, v in (
                    ("u_fwd", u_f), ("psi_fwd", p_f),
                    ("u_bwd", u_b), ("psi_bwd", p_b))})

        assert got.dtype == dtype
        assert np.isnan(got).any()
        assert got.tobytes() == want.tobytes()


    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("mu", range(4))
    def test_compressor_order_matches_ir(self, mu, dtype):
        """The checkerboard hop's order — project the whole source,
        gather the 6 half-spinor rows, SU(3), reconstruct — against the
        IR on the gathered spinors, byte for byte."""
        rng = np.random.default_rng(200 + mu)
        n = 96

        def carr(*shape):
            return (rng.normal(size=shape)
                    + 1j * rng.normal(size=shape)).astype(dtype)

        acc = carr(4, 3, n)
        u_f, u_b = carr(3, 3, n), carr(3, 3, n)
        psi = carr(4, 3, n)
        _plant(psi, u_b)
        _plant(psi, u_f)
        tables = {+1: rng.permutation(n), -1: rng.permutation(n)}

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = acc.copy()
            h, uh, prod = (np.empty((2, 3, n), dtype) for _ in range(3))
            for sign, u in ((+1, u_f), (-1, adjoint(u_b))):
                proj = np.empty((2, 3, n), dtype)
                _project(psi, mu, sign, proj)
                np.take(proj.reshape(6, n), tables[sign], axis=1,
                        out=h.reshape(6, n), mode="clip")
                _su3_halfspinor(u, h, uh, prod)
                _reconstruct(want, uh, mu, sign, h)
            got = acc.copy()
            wilson_ir.evaluate(wilson_ir.hop_statements(
                mu, _scalar_type(dtype)), _sites_first(got),
                u_fwd=_sites_first(u_f), u_bwd=_sites_first(u_b),
                psi_fwd=_sites_first(np.ascontiguousarray(
                    psi[..., tables[+1]])),
                psi_bwd=_sites_first(np.ascontiguousarray(
                    psi[..., tables[-1]])))

        assert np.isnan(got).any()
        assert got.tobytes() == want.tobytes()

    def test_special_values_complex64(self):
        # Forward and backward operands alias one field and the
        # accumulator starts at zero: -0.0 and a NaN+inf element must
        # come through exactly as the fused body produces them.
        rng = np.random.default_rng(9)
        n = 64
        shape = (4, 3, n)
        p = (rng.normal(size=shape)
             + 1j * rng.normal(size=shape)).astype(np.complex64)
        p[0, 0, 0] = complex(-0.0, -0.0)
        p[1, 1, 5] = complex(np.nan, np.inf)
        u = (rng.normal(size=(3, 3, n))
             + 1j * rng.normal(size=(3, 3, n))).astype(np.complex64)
        acc = np.zeros(shape, dtype=np.complex64)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = acc.copy()
            _hop(want, u, u, p, p, 0)
            got = acc.copy()
            us, ps = _sites_first(u), _sites_first(p)
            wilson_ir.evaluate(wilson_ir.hop_statements(0, "c64"),
                               _sites_first(got), u_fwd=us, psi_fwd=ps,
                               u_bwd=us, psi_bwd=ps)

        assert np.isnan(got).any()
        assert got.tobytes() == want.tobytes()
