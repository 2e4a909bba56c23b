"""SVE complex-arithmetic semantics: ``FCMLA`` and ``FCADD``.

These are the instructions at the heart of the paper (Section III-D).
A vector register holds interleaved complex numbers — real components
in even elements, imaginary components in odd elements — and

* ``FCMLA`` performs half of a complex multiply-accumulate, selected by
  an immediate rotation of the second operand in the complex plane;
* ``FCADD`` adds a vector rotated by ±90°.

Concatenating two ``FCMLA`` with rotations (0°, 90°) yields
``z += x*y``; (0°, 270°) yields ``z += conj(x)*y``; (180°, 270°) yields
``z -= x*y``; (180°, 90°) yields ``z -= conj(x)*y`` — exactly the
operations Eq. (2) of the paper builds from instruction pairs.
"""

from __future__ import annotations

import numpy as np

from repro.sve.ops.arith import _merge

#: The four legal FCMLA rotations.
FCMLA_ROTATIONS = (0, 90, 180, 270)

#: The two legal FCADD rotations.
FCADD_ROTATIONS = (90, 270)


def _split_pairs(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even (real-slot) and odd (imaginary-slot) elements."""
    v = np.asarray(v)
    if v.size % 2:
        raise ValueError("complex-layout vector needs an even lane count")
    return v[0::2], v[1::2]


def _join_pairs(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    out = np.empty(even.size * 2, dtype=even.dtype)
    out[0::2] = even
    out[1::2] = odd
    return out


def fcmla(acc, x, y, rot: int, pred=None):
    """``FCMLA Zda, Pg/M, Zn, Zm, #rot``.

    With ``xr, xi`` the even/odd elements of ``x`` (likewise ``y``),
    each complex pair of the accumulator is updated as:

    ====  ==========================  ==========================
    rot   even (real slot)            odd (imaginary slot)
    ====  ==========================  ==========================
    0     ``+= xr * yr``              ``+= xr * yi``
    90    ``-= xi * yi``              ``+= xi * yr``
    180   ``-= xr * yr``              ``-= xr * yi``
    270   ``+= xi * yi``              ``-= xi * yr``
    ====  ==========================  ==========================

    i.e. rotation 0 accumulates ``Re(x) * y`` and rotation 90
    accumulates ``(i Im(x)) * y`` — the paper's
    ``z_i ± (Re x_i) × y_i`` and ``z_i ± (i Im x_i) × y_i``.

    ``pred`` is the element-granular governing predicate (merging:
    inactive elements keep the accumulator value).
    """
    if rot not in FCMLA_ROTATIONS:
        raise ValueError(f"illegal FCMLA rotation {rot}")
    acc = np.asarray(acc)
    xr, xi = _split_pairs(x)
    yr, yi = _split_pairs(y)
    ar, ai = _split_pairs(acc)
    result = np.empty(acc.size, dtype=acc.dtype)
    er, ei = result[0::2], result[1::2]
    if rot == 0:
        np.add(ar, xr * yr, out=er)
        np.add(ai, xr * yi, out=ei)
    elif rot == 90:
        np.subtract(ar, xi * yi, out=er)
        np.add(ai, xi * yr, out=ei)
    elif rot == 180:
        np.subtract(ar, xr * yr, out=er)
        np.subtract(ai, xr * yi, out=ei)
    else:  # 270
        np.add(ar, xi * yi, out=er)
        np.subtract(ai, xi * yr, out=ei)
    if pred is None:
        return result
    return _merge(pred, result, acc)


def fcadd(a, b, rot: int, pred=None):
    """``FCADD Zdn, Pg/M, Zdn, Zm, #rot``: ``a + i*b`` (90°) or ``a - i*b`` (270°).

    This is the paper's "vectorized add/sub of complex numbers,
    x_i ± i y_i" (Section III-D).
    """
    if rot not in FCADD_ROTATIONS:
        raise ValueError(f"illegal FCADD rotation {rot}")
    a = np.asarray(a)
    ar, ai = _split_pairs(a)
    br, bi = _split_pairs(b)
    if rot == 90:  # + i*b = (ar - bi) + i (ai + br)
        er, ei = ar - bi, ai + br
    else:  # 270: - i*b = (ar + bi) + i (ai - br)
        er, ei = ar + bi, ai - br
    result = _join_pairs(er.astype(a.dtype), ei.astype(a.dtype))
    if pred is None:
        return result
    return np.where(np.asarray(pred, dtype=bool), result, a)


# ----------------------------------------------------------------------
# Composite idioms (Eq. (2) of the paper) — used by tests and by the
# SVE ACLE Grid backend to document intent.
# ----------------------------------------------------------------------

def cmadd(acc, x, y, pred=None):
    """``acc + x*y`` via FCMLA rotations (0, 90)."""
    t = fcmla(acc, x, y, 0, pred)
    return fcmla(t, x, y, 90, pred)


def cmsub(acc, x, y, pred=None):
    """``acc - x*y`` via FCMLA rotations (180, 270)."""
    t = fcmla(acc, x, y, 180, pred)
    return fcmla(t, x, y, 270, pred)


def conj_cmadd(acc, x, y, pred=None):
    """``acc + conj(x)*y`` via FCMLA rotations (0, 270)."""
    t = fcmla(acc, x, y, 0, pred)
    return fcmla(t, x, y, 270, pred)


def conj_cmsub(acc, x, y, pred=None):
    """``acc - conj(x)*y`` via FCMLA rotations (180, 90)."""
    t = fcmla(acc, x, y, 180, pred)
    return fcmla(t, x, y, 90, pred)


def cmul(x, y, pred=None):
    """``x*y``: complex multiplication by accumulating onto zero
    (Section III-D: "achieved by setting z_i = 0")."""
    zero = np.zeros_like(np.asarray(x))
    return cmadd(zero, x, y, pred)


def interleave_complex(z: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Pack a complex numpy array into the interleaved real layout."""
    z = np.asarray(z, dtype=np.complex128 if np.dtype(dtype) == np.float64
                   else np.complex64)
    out = np.empty(z.size * 2, dtype=dtype)
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def deinterleave_complex(v: np.ndarray) -> np.ndarray:
    """Unpack an interleaved real layout back to a complex array."""
    re, im = _split_pairs(np.asarray(v))
    ctype = np.complex128 if re.dtype == np.float64 else np.complex64
    return (re + 1j * im).astype(ctype)
