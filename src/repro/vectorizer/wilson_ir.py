"""The Wilson-Dslash hot path expressed in the vectorizer's scalar IR.

The compiled hop (``perf/hop_cb.c``, run by :mod:`repro.perf.fused`)
spells out the project/SU(3)/reconstruct chain in C; this module states
the *same arithmetic* as :mod:`repro.vectorizer.ir` expression trees —
one :class:`Statement` per output component, fully unrolled over
colour and spin.  :func:`evaluate` runs every statement through the
IEEE-exact simplifier (:mod:`repro.vectorizer.passes`) and evaluates
the canonical tree with :func:`repro.vectorizer.ir.reference_eval`.
Per direction the result equals the layered reference's ops
(:func:`repro.grid.gamma.project`,
:func:`repro.grid.tensor.su3_mul_vec` /
:func:`~repro.grid.tensor.su3_dagger_mul_vec`,
:func:`repro.grid.gamma.reconstruct` on a ``generic`` backend) byte
for byte but for the sign and payload of a NaN, and the whole
checkerboard hop, evaluated in compressor order, equals the compiled
kernel byte for byte, NaN payloads included; so a lowering of these
statements to SVE has a numpy oracle that is pinned to the production
sweep.

**Bit-identity discipline.**  Each expression is built so that, after
simplification, it performs exactly the reference path's IEEE
operations in the reference order:

* sign handling uses ``Add(x, Neg(term))`` and lets the simplifier's
  ``x + (-y) -> x - y`` rewrite (IEEE-identical by definition) expose
  the same ``np.subtract`` the fused body issues — the passes do real
  work here, not decoration;
* the SU(3) accumulation is ``((0 + t0) + t1) + t2`` with the colour
  index ``b`` ascending, the exact reference sum including the leading
  ``0 +`` (which the simplifier deliberately never folds — it is wrong
  for ``-0.0``);
* multiplication operand order matches the reference (``u * h``,
  ``x * (±1j)``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.vectorizer import ir, passes

#: Spin projection keeps 2 of 4 spinor components; colour is SU(3).
HALF_SPINS = 2
SPINS = 4
COLOURS = 3


@dataclass(frozen=True)
class Statement:
    """``dest <- expr(args)``: one unrolled output component.

    ``kernel`` is an element-wise :class:`repro.vectorizer.ir.Kernel`
    whose ``Load(k)`` refers to ``args[k]`` — a buffer name (e.g.
    ``"_h01"``) or a component view of a named array (e.g.
    ``"psi_fwd[:, 3, 0]"``), resolved by :func:`evaluate`.
    """

    dest: str
    kernel: ir.Kernel
    args: tuple


class _StmtBuilder:
    """Collects Load sources while an expression tree is built."""

    def __init__(self, name: str, scalar_type: str = "c128") -> None:
        self._name = name
        self._scalar_type = scalar_type
        self._args: list = []

    def load(self, src: str) -> ir.Load:
        self._args.append(src)
        return ir.Load(len(self._args) - 1)

    def build(self, dest: str, expr: ir.Expr) -> Statement:
        kernel = ir.Kernel(
            name=self._name,
            scalar_type=self._scalar_type,
            inputs=[ir.Array(f"in{i}") for i in range(len(self._args))],
            expr=expr,
            output=ir.Array(dest, const=False),
        )
        return Statement(dest=dest, kernel=kernel, args=tuple(self._args))


def _signed(base: ir.Expr, term: ir.Expr, sign: int) -> ir.Expr:
    """``base + term`` or ``base + (-term)`` — the negative form is
    left for the simplifier to canonicalise into ``Sub`` (exactly the
    fmls-exposing rewrite of :mod:`repro.vectorizer.passes`)."""
    return ir.Add(base, term if sign > 0 else ir.Neg(term))


# ----------------------------------------------------------------------
# Component-name conventions
# ----------------------------------------------------------------------

def half_name(s: int, c: int) -> str:
    return f"_h{s}{c}"


def su3_out_name(s: int, a: int) -> str:
    return f"_w{s}{a}"


def conj_link_name(b: int, a: int) -> str:
    return f"_cu{b}{a}"


def acc_name(s: int, c: int) -> str:
    return f"_a{s}{c}"


def _psi(arr: str, s: int, c: int) -> str:
    return f"{arr}[:, {s}, {c}]"


def _link(arr: str, a: int, b: int) -> str:
    return f"{arr}[:, {a}, {b}]"


# ----------------------------------------------------------------------
# The three kernel stages, unrolled
# ----------------------------------------------------------------------

def project_statements(psi: str, mu: int, sign: int,
                       scalar_type: str = "c128") -> list:
    """``h = P^{±}_mu psi`` per (half-spin, colour) component.

    Mirrors :func:`repro.grid.gamma.project` formula-for-formula; the
    ``times_i`` factors appear as ``Mul(p, Const(±1j))`` with the
    array operand first, the reference's dtype-preserving order.
    """
    out = []
    for c in range(COLOURS):
        b = _StmtBuilder(f"project_mu{mu}_s{'p' if sign > 0 else 'm'}_c{c}",
                         scalar_type)
        p = [b.load(_psi(psi, s, c)) for s in range(SPINS)]
        if mu == 0:      # h0 = p0 ± i p3 ; h1 = p1 ± i p2
            e0 = _signed(p[0], ir.Mul(p[3], ir.Const(1j)), sign)
            e1 = _signed(p[1], ir.Mul(p[2], ir.Const(1j)), sign)
        elif mu == 1:    # h0 = p0 ∓ p3 ; h1 = p1 ± p2
            e0 = _signed(p[0], p[3], -sign)
            e1 = _signed(p[1], p[2], sign)
        elif mu == 2:    # h0 = p0 ± i p2 ; h1 = p1 ± (-i) p3
            e0 = _signed(p[0], ir.Mul(p[2], ir.Const(1j)), sign)
            e1 = _signed(p[1], ir.Mul(p[3], ir.Const(-1j)), sign)
        elif mu == 3:    # h0 = p0 ± p2 ; h1 = p1 ± p3
            e0 = _signed(p[0], p[2], sign)
            e1 = _signed(p[1], p[3], sign)
        else:
            raise ValueError(f"no direction {mu}")
        out.append(b.build(half_name(0, c), e0))
        out.append(b.build(half_name(1, c), e1))
    return out


def su3_statements(links: str, dagger: bool,
                   scalar_type: str = "c128") -> list:
    """``w_{s,a} = sum_b U[a,b] h_{s,b}`` (or ``conj(U[b,a])``).

    The adjoint form hoists the nine conjugated link components into
    named buffers first (each is consumed by both half-spins), then
    both forms accumulate ``((0 + t0) + t1) + t2`` with ``b``
    ascending — the reference inner-loop order.
    """
    out = []
    if dagger:
        for b_idx in range(COLOURS):
            for a in range(COLOURS):
                sb = _StmtBuilder(f"conj_u{b_idx}{a}", scalar_type)
                out.append(sb.build(conj_link_name(b_idx, a),
                                    ir.Conj(sb.load(_link(links, b_idx, a)))))
    for s in range(HALF_SPINS):
        for a in range(COLOURS):
            sb = _StmtBuilder(f"su3_s{s}_a{a}{'_dag' if dagger else ''}",
                              scalar_type)
            expr: ir.Expr = ir.Const(0j)
            for b_idx in range(COLOURS):
                u = sb.load(conj_link_name(b_idx, a) if dagger
                            else _link(links, a, b_idx))
                h = sb.load(half_name(s, b_idx))
                expr = ir.Add(expr, ir.Mul(u, h))
            out.append(sb.build(su3_out_name(s, a), expr))
    return out


def accumulate_statements(mu: int, sign: int,
                          scalar_type: str = "c128") -> list:
    """Reconstruct the 4-spinor image of ``w`` and add it into the
    accumulator views, per (spin, colour) component.

    The lower-spin factors mirror :func:`repro.grid.gamma.reconstruct`
    (``-i``/``+i``/``±1``); negations ride through the simplifier so
    ``acc + (-w)`` lowers to the fused body's ``np.subtract``.
    """
    out = []
    for c in range(COLOURS):
        for s in (0, 1):
            sb = _StmtBuilder(f"acc_mu{mu}_s{s}_c{c}", scalar_type)
            a = sb.load(acc_name(s, c))
            w = sb.load(su3_out_name(s, c))
            out.append(sb.build(acc_name(s, c), ir.Add(a, w)))
        # Spin components 2 and 3 are fixed linear images of 0 and 1:
        # (upper spin, half-spin source, ±i factor or accumulation sign).
        if mu == 0:
            f = ir.Const(-1j if sign > 0 else 1j)
            image = ((2, 1, f), (3, 0, f))
        elif mu == 1:
            # (1+gy): +w1 into spin2, -w0 into spin3; (1-gy) flipped.
            image = ((2, 1, sign), (3, 0, -sign))
        elif mu == 2:
            image = ((2, 0, ir.Const(-1j if sign > 0 else 1j)),
                     (3, 1, ir.Const(1j if sign > 0 else -1j)))
        else:  # mu == 3
            image = ((2, 0, sign), (3, 1, sign))
        for s, src, fac in image:
            sb = _StmtBuilder(f"acc_mu{mu}_s{s}_c{c}", scalar_type)
            a = sb.load(acc_name(s, c))
            w = sb.load(su3_out_name(src, c))
            if isinstance(fac, ir.Const):
                expr = ir.Add(a, ir.Mul(w, fac))
            else:
                expr = _signed(a, w, fac)
            out.append(sb.build(acc_name(s, c), expr))
    return out


def direction_statements(mu: int, sign: int, links: str, psi: str,
                         scalar_type: str = "c128") -> list:
    """Every statement of one (direction, sign) hop: project, SU(3)
    (adjoint on the backward hop), reconstruct-accumulate."""
    stmts = project_statements(psi, mu, sign, scalar_type)
    stmts += su3_statements(links, dagger=sign < 0, scalar_type=scalar_type)
    stmts += accumulate_statements(mu, sign, scalar_type)
    return stmts


def hop_statements(mu: int, scalar_type: str = "c128") -> list:
    """Both hops of direction ``mu`` (+1 then -1) over the arrays
    ``u_fwd``/``psi_fwd`` and ``u_bwd``/``psi_bwd`` (the back-link
    ``U_mu(x - mu)``, not its adjoint) — the statement form of the
    layered hop's direction ``mu``: project, ``su3_mul_vec`` with
    ``u_fwd`` and reconstruct at ``sign=+1``, then project,
    ``su3_dagger_mul_vec`` with ``u_bwd`` and reconstruct at
    ``sign=-1``, each accumulated in that order."""
    return (direction_statements(mu, +1, "u_fwd", "psi_fwd", scalar_type)
            + direction_statements(mu, -1, "u_bwd", "psi_bwd",
                                   scalar_type))


# ----------------------------------------------------------------------
# The numpy oracle
# ----------------------------------------------------------------------

_VIEW = re.compile(r"(\w+)\[:, (\d+), (\d+)\]$")


def evaluate(stmts, acc, **arrays) -> None:
    """Execute ``stmts`` in order, accumulating into ``acc`` in place.

    ``acc`` and ``arrays`` (keyed as the statements name them) are
    ``(sites, *tensor, ...)`` arrays: lane-major lattice data, or a
    site-first view of the tensor-major working layout.  Each
    statement's kernel is simplified (:func:`passes.simplify`) and
    evaluated by :func:`ir.reference_eval`; intermediates (half
    spinors, SU(3) products, conjugated links) live in a local table.
    """
    env = dict(arrays)
    for s in range(SPINS):
        for c in range(COLOURS):
            env[acc_name(s, c)] = acc[:, s, c]

    def resolve(src: str):
        m = _VIEW.match(src)
        return env[src] if m is None else env[m[1]][:, int(m[2]), int(m[3])]

    for st in stmts:
        kernel = passes.simplify(st.kernel).kernel
        value = ir.reference_eval(kernel, [resolve(a) for a in st.args])
        if st.dest in env:
            env[st.dest][...] = value
        else:
            env[st.dest] = value
