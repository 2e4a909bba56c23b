"""The native library: build, load and call the compiled Wilson hop
(``hop_cb.c``) and the Krylov passes (``krylov.c``).

Every fused Wilson sweep of :mod:`repro.perf.fused` -- the
checkerboard hop, the full hop and the distributed halo sweep, in
process and in the shared-memory rank workers -- runs one call of the
C kernel per block of output sites.  The kernel computes numpy's IEEE
operations in numpy's order (see the contract at the top of
``hop_cb.c``), so its bytes are those of the numpy block sweep
(:func:`repro.perf.fused.sweep_blocks`) -- provided it contracts a
complex product the way numpy's ``multiply`` does on this host.

**The contraction key.**  numpy computes ``a * b`` on complex operands
as ``re = a.re b.re - a.im b.im``, ``im = a.re b.im + a.im b.re``; its
SIMD loops fuse the first product of each into an FMA on hosts that
have one (``fma``), its baseline loops round both (``unfused``).  On
first use :func:`contraction_key` multiplies crafted operand pairs whose
fused and unfused products differ, through a contiguous and a
scalar-broadcast call, and names what numpy did.  The key picks the
``FUSED_C64``/``FUSED_C128`` macros the kernel is built with; the
source states its contraction with explicit ``fma`` calls under
``-ffp-contract=off`` and forms every product on split real/imaginary
rows (gcc's SLP vectorizer contracts interleaved complex products
even under that flag), so the compiler never decides the bits.

**The build.**  The host ``gcc`` compiles the sources (:data:`SOURCES`)
into one library once per (sources, flags, compiler version, CPU, key)
into :data:`BUILD_DIR`, in the checkout: each builder writes a temporary file and ``os.replace``-s it
into place, so concurrent builders all load a whole library.  The file
ends with a SHA-256 of the library; a cached file whose digest does not
match is rebuilt, never loaded.  The library is loaded once per
process, on the first hop that asks for it.

**The other route.**  With no compiler, a failed build or a key that is
neither ``fma`` nor ``unfused``, :func:`kernel` returns ``None`` and
each sweep runs the numpy block body (:func:`repro.perf.fused.
sweep_blocks`) over the same tables and links, which is bit-identical;
the ``native_fallbacks`` counter counts those sweeps and :func:`status`
says why.

**The Krylov passes.**  The same library holds the solvers' vector
algebra (``krylov.c``), one fused pass per step, under the same
contraction key and numpy's pairwise summation order; :func:`passes`
returns them bound (:class:`Passes`) where the hop loads, and
:mod:`repro.grid.krylov` runs the Lattice expressions where they do
not.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import shutil
import threading
from pathlib import Path

import numpy as np

#: The kernel's source, shipped with the package.
SOURCE = Path(__file__).with_name("hop_cb.c")
#: Every source of the library: the hop and the Krylov passes.
SOURCES = (SOURCE, SOURCE.with_name("krylov.c"))


def _build_dir() -> Path:
    """Where built libraries are cached: ``.native-build/`` at the root
    of a source checkout (git-ignored; the program tree stays as
    committed), else ``_native/`` beside this module in an installed
    package."""
    here = Path(__file__).resolve().parent
    root = here.parents[2]
    if here.parents[1].name == "src" and (root / "pyproject.toml").is_file():
        return root / ".native-build"
    return here / "_native"


BUILD_DIR = _build_dir()
#: Compiler flags; the contraction macros are added per key.
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")
#: Seconds a compile may take before it is abandoned.
BUILD_TIMEOUT = 300
#: The element types the kernel is built for, and their entry points.
ENTRY = {
    np.dtype(np.complex64): "hop_cb_c64",
    np.dtype(np.complex128): "hop_cb_c128",
}
#: The library's trailer: this tag, then the SHA-256 of what precedes it.
TRAILER = b"repro-hop-cb-sha256"

#: Hops per sweep: (mu, +-1) for the four directions.
NHOPS = 8
#: What the kernel's store writes for a site's accumulated hop ``a``
#: (``hop_cb.c``): ``a`` itself (``D_h``), the even-odd matrix's
#: off-diagonal block ``a * (-1/2)``, or the Schur operator
#: ``(psi * d) - ((a * (-1/2)) * (1/d))``.
STORE_HOP, STORE_BLOCK, STORE_SCHUR = STORES = (0, 1, 2)
#: The one error every operand check raises.
MISFIT = "operands do not fit the Wilson hop kernel"
_ARGTYPES = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
             ctypes.POINTER(ctypes.c_void_p), ctypes.c_int64, ctypes.c_int64,
             ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
             ctypes.c_void_p, ctypes.c_double, ctypes.c_double,
             ctypes.c_int64, ctypes.c_int64, ctypes.c_int64]

_LOCK = threading.Lock()
#: The process's one load attempt: ``kernels`` (dtype -> bound entry
#: point; empty where the reference route runs), ``passes`` (dtype ->
#: :class:`Passes`, for the same dtypes), ``reason`` (why not, or
#: ``""``), the contraction ``keys``, ``flags``, ``compiler`` and ``path``.
_STATE: dict = {}


def find_compiler():
    """The C compiler to build with: ``gcc`` on the path, or ``None``."""
    return shutil.which("gcc")


# -- the contraction key ------------------------------------------------------


def _probe_operands(dtype: np.dtype) -> tuple:
    """Four operand pairs ``(a, b)`` and ``e^2``.  ``e`` is small enough
    that ``(1 + e)(1 - e)`` rounds to 1, so a component reads 0 wherever
    that product is rounded before the other is added.  Exactly, ``re``
    of pair 0 and ``im`` of pair 2 are ``-e^2`` and survive only a fused
    first product; ``re`` of pair 1 (``e^2``) and ``im`` of pair 3
    (``-e^2``) survive only a fused second product."""
    e = 2.0**-13 if dtype == np.complex64 else 2.0**-30
    a = [complex(1 + e, 1), complex(1, 1 + e), complex(1 + e, -1), complex(-1, 1 + e)]
    b = [complex(1 - e, 1), complex(1, 1 - e), complex(1, 1 - e), complex(1 - e, 1)]
    return np.array(a, dtype=dtype), np.array(b, dtype=dtype), e * e


def classify(multiply, dtype) -> str:
    """``"fma"``, ``"unfused"`` or ``"unknown"``: how ``multiply`` (numpy's
    ``np.multiply`` or a stand-in) forms complex products of ``dtype``.

    ``fma`` is ``re = fma(a.re, b.re, -(a.im b.im))``, ``im = fma(a.re,
    b.im, a.im b.re)``; ``unfused`` rounds every product.  Both a
    contiguous call and a scalar-broadcast call must agree."""
    dtype = np.dtype(dtype)
    a, b, e2 = _probe_operands(dtype)
    reps = 19  # long enough for the SIMD body and its remainder loop
    contiguous = multiply(np.repeat(a, reps), np.repeat(b, reps))
    products = [contiguous.reshape(4, reps).T]
    products.append(
        np.stack([multiply(np.full(reps, a[k]), b[k]) for k in range(4)], axis=1)
    )
    seen = set()
    for rows in products:
        for p in rows:
            got = (p[0].real, p[1].real, p[2].imag, p[3].imag)
            if got == (-e2, 0, -e2, 0):
                seen.add("fma")
            elif got == (0, 0, 0, 0):
                seen.add("unfused")
            else:
                seen.add("unknown")
    return seen.pop() if len(seen) == 1 else "unknown"


@functools.lru_cache(maxsize=None)
def contraction_key(dtype) -> str:
    """How numpy's complex ``multiply`` contracts on this host, for
    ``dtype`` (see :func:`classify`); probed once per process."""
    return classify(np.multiply, dtype)


def multiply_target(dtype) -> str:
    """The SIMD target numpy dispatches complex ``multiply`` to, for the
    record beside the key (``np.lib.introspect.opt_func_info``)."""
    sig = "FFF" if np.dtype(dtype) == np.complex64 else "DDD"
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2.0
        return "?"
    info = opt_func_info(func_name="^multiply$")
    return info.get("multiply", {}).get(sig, {}).get("current", "?")


# -- the build ----------------------------------------------------------------


def _cpu_identity() -> str:
    """The CPU a ``-march=native`` build is for: the machine and the
    first processor's identity lines of ``/proc/cpuinfo`` (where there
    is one)."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        text = ""
    keys = ("vendor_id", "cpu family", "model", "model name", "flags")
    keys += ("Features", "CPU implementer", "CPU architecture", "CPU part")
    first = text.split("\n\n", 1)[0].splitlines()
    lines = [ln for ln in first if ln.split(":", 1)[0].strip() in keys]
    return "\n".join([platform.machine(), *lines])


def compiler_version(cc: str) -> str:
    """The first line of ``cc --version``."""
    import subprocess

    out = subprocess.run(
        [cc, "--version"], capture_output=True, text=True, timeout=60, check=True
    ).stdout
    return out.splitlines()[0].strip() if out else "?"


def build_flags(keys: dict) -> tuple:
    """:data:`FLAGS` plus the contraction macros for ``keys`` (dtype ->
    key); a dtype whose key is not ``fma`` is built unfused."""
    fused = {dt.itemsize * 8: int(keys[dt] == "fma") for dt in ENTRY}
    return FLAGS + (f"-DFUSED_C64={fused[64]}", f"-DFUSED_C128={fused[128]}")


def _seal(path: Path) -> None:
    """Append the trailer to the freshly built library at ``path``."""
    import hashlib

    body = path.read_bytes()
    path.write_bytes(body + TRAILER + hashlib.sha256(body).digest())


def sealed(path: Path) -> bool:
    """Whether ``path`` is a whole library: it ends with the trailer and
    the trailer's digest is that of the bytes before it."""
    import hashlib

    try:
        data = path.read_bytes()
    except OSError:
        return False
    cut = len(data) - len(TRAILER) - 32
    return (
        cut > 0
        and data[cut:-32] == TRAILER
        and hashlib.sha256(data[:cut]).digest() == data[-32:]
    )


def _compile(cc: str, flags: tuple, path: Path) -> str:
    """Build the library into ``path`` (through a temporary file and an
    atomic replace); returns ``""`` or why it failed."""
    import subprocess
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", dir=path.parent)
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *flags, "-o", tmp, *map(str, SOURCES), "-lm"],
            capture_output=True,
            text=True,
            timeout=BUILD_TIMEOUT,
        )
        if proc.returncode != 0:
            return f"{cc} failed: {proc.stderr.strip()[-400:]}"
        _seal(Path(tmp))
        os.replace(tmp, path)
        return ""
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load() -> dict:
    """Find or build, then load, the library for this host.  The
    modules only a build needs are imported here, not with this module
    (``hashlib`` alone maps ~3 MB of OpenSSL)."""
    import hashlib
    import subprocess

    keys = {dt: contraction_key(dt) for dt in ENTRY}
    state = {"kernels": {}, "reason": "", "keys": keys}
    state["flags"] = flags = build_flags(keys)
    if all(k == "unknown" for k in keys.values()):
        state["reason"] = "numpy's complex multiply is neither fma nor unfused"
        return state
    cc = find_compiler()
    if cc is None:
        state["reason"] = "no C compiler (gcc) on the path"
        return state
    try:
        state["compiler"] = version = compiler_version(cc)
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in SOURCES))
        for part in (" ".join(flags), version, _cpu_identity()):
            digest.update(b"\0" + part.encode())
        path = BUILD_DIR / f"hop_cb-{digest.hexdigest()[:24]}.so"
        state["path"] = str(path)
        if not sealed(path):
            state["reason"] = _compile(cc, flags, path)
            if state["reason"]:
                return state
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError) as exc:
        state["reason"] = f"{type(exc).__name__}: {exc}"
        return state
    state["kernels"] = {
        dt: _bind(getattr(lib, name), dt)
        for dt, name in ENTRY.items()
        if keys[dt] != "unknown"
    }
    state["passes"] = {dt: Passes(lib, dt) for dt in state["kernels"]}
    return state


class LinkFields:
    """The kernel's link operand: the per-hop colour-matrix fields
    ``fields`` (hop ``k`` in sweep order reads ``fields[k]``), laid out
    in ``llanes`` lanes, and ``back``: whether each ``(mu, -1)`` hop
    reads ``U_mu`` at the neighbour, conjugate-transposed as it loads,
    or -- ``False`` -- its stored adjoint at the output site (see
    ``hop_cb.c``).

    The fields' dtype, count and contiguity are checked, and their
    pointers taken, once, here: an operator's links are static, so it
    makes one and the kernel's per-sweep check is a few comparisons.
    It holds the fields, so the pointers stay valid while it lives."""

    def __init__(self, fields, llanes: int, back: bool) -> None:
        self.fields = tuple(fields)
        self.llanes = int(llanes)
        self.back = bool(back)
        dtypes = {u.dtype for u in self.fields}
        if (len(self.fields) != NHOPS or len(dtypes) != 1
                or self.llanes <= 0
                or not all(u.flags.c_contiguous for u in self.fields)):
            raise ValueError("link fields do not fit the Wilson hop kernel")
        (self.dtype,) = dtypes
        self.pointers = (ctypes.c_void_p * NHOPS)(
            *(u.ctypes.data for u in self.fields))
        sizes = [u.size for u in self.fields]
        #: Elements of the smallest field read at the output site, and
        #: (where ``back``) of the smallest read at the neighbour.
        self.site_size = min(sizes[0::2] if self.back else sizes)
        self.nbr_size = min(sizes[1::2]) if self.back else 0

    def fit(self, dtype, n: int, top: int, rstride: int) -> bool:
        """Whether the fields hold every matrix a sweep over ``n`` output
        sites addresses through tables whose largest entry is ``top``,
        on a source of row stride ``rstride``."""
        ll = self.llanes
        return (self.dtype == dtype and n % ll == 0
                and self.site_size >= 9 * n
                # The neighbour at entry t = q * 12 L + r reads q * 9 L + r.
                and (not self.back or (rstride == ll and self.nbr_size
                                       >= (top // (12 * ll) + 1) * 9 * ll)))


class BoundHop:
    """The kernel bound to one sweep's static operands (see
    :func:`kernel`): the ``(8, n)`` int64 ``tables`` (largest entry
    ``top``), the :class:`LinkFields` ``links``, the source's row stride
    ``rstride`` and size ``src_size`` and the output ``lanes``, checked
    once, here, with their pointers taken.  An operator binds each of
    its sweeps once.

    ``bound(src, out, store=STORE_HOP, psi=None, diag=1.0)`` checks
    what changes per call -- ``src`` (``src_size`` elements), ``out``
    (``12 n``, writeable) and, for :data:`STORE_SCHUR` only, ``psi``
    (``12 n``, read at ``out``'s offsets): dtype, size and contiguity --
    and returns ``run(b0, b1)``, which writes output sites ``b0 .. b1 -
    1`` through the store ``store`` with the Schur diagonal ``diag``.
    It holds the operands, so the pointers stay valid while it lives."""

    def __init__(self, fn, dtype, tables, top: int, links: LinkFields,
                 rstride: int, lanes: int, src_size: int) -> None:
        n = tables.shape[-1]
        if not (
            tables.dtype == np.int64
            and tables.shape == (NHOPS, n)
            and tables.flags.c_contiguous
            and 0 < rstride and 0 <= top
            and top + 11 * rstride < src_size
            and 0 < lanes and n % lanes == 0
            and links.fit(dtype, n, top, rstride)
        ):
            raise ValueError(MISFIT)
        self.n, self.dtype, self.src_size = n, dtype, src_size
        self._fn = fn
        self._static = (rstride, tables.ctypes.data, links.pointers,
                        links.llanes, int(links.back))
        self._lanes = lanes
        self.operands = (tables, links)

    def __call__(self, src, out, store: int = STORE_HOP, psi=None,
                 diag: float = 1.0):
        n, dtype = self.n, self.dtype
        schur = store == STORE_SCHUR
        if not (
            src.dtype == dtype and out.dtype == dtype
            and src.size == self.src_size and out.size == 12 * n
            and src.flags.c_contiguous and out.flags.c_contiguous
            and out.flags.writeable and store in STORES and diag != 0
            and (psi is not None) == schur
            and (psi is None or (psi.dtype == dtype and psi.size == 12 * n
                                 and psi.flags.c_contiguous))
        ):
            raise ValueError(MISFIT)
        fn = self._fn
        args = (_address(src), *self._static, _address(out), n, self._lanes,
                _address(psi) if schur else None, diag, 1.0 / diag, store)

        def run(b0: int, b1: int) -> None:
            if not 0 <= b0 <= b1 <= n:
                raise ValueError(MISFIT)
            fn(*args, b0, b1)

        # The pointers are only valid while the arrays live.
        run.operands = (src, out, psi, self)
        return run


def _address(a: np.ndarray) -> int:
    """The address of the C-contiguous, non-empty ``a``'s first element:
    through the buffer protocol where ``a`` is writeable (a third of the
    cost of ``a.ctypes.data``, which a read-only array takes)."""
    if a.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data


def _bind(fn, dtype: np.dtype):
    """The Python face of one entry point (see :func:`kernel`)."""
    fn.restype, fn.argtypes = None, _ARGTYPES

    def bind(tables, top: int, links: LinkFields, rstride: int, lanes: int,
             src_size: int) -> BoundHop:
        return BoundHop(fn, dtype, tables, top, links, rstride, lanes,
                        src_size)

    return bind


#: The Krylov passes of ``krylov.c``, in its order; what each computes
#: is stated there and, as a Lattice expression, in
#: :mod:`repro.grid.krylov`.
(OP_DOT, OP_NORM, OP_DOT2, OP_AXPY, OP_SUBMUL, OP_SUBMUL_NORM, OP_SUB_NORM,
 OP_BICG_DIR, OP_BICG_UPD, OP_CG_UPD, OP_SCHUR_BACK, OP_SCHUR_RES) = range(12)
#: Per pass: (operands, outputs, sums).
PASS_SHAPES = ((2, 0, 2), (1, 0, 1), (2, 0, 4), (2, 1, 0), (2, 1, 0),
               (2, 1, 1), (2, 1, 1), (3, 1, 0), (5, 2, 3), (4, 2, 1),
               (2, 1, 1), (3, 0, 1))
#: The one error every pass's operand check raises.
PASS_MISFIT = "operands do not fit the Krylov pass"
_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
_SUMS = ctypes.c_double * 4


class Passes:
    """The Krylov passes of ``krylov.c`` for one complex ``dtype``.

    :meth:`run` runs one fused pass over C-contiguous arrays of
    ``dtype`` and one size and returns fresh outputs and the pass's
    sums; :meth:`pick` and :meth:`embed` move a half field's sites from
    and to a lane-major full field, and (complex128 only)
    :meth:`relayout_add` and :meth:`relayout_single` are the
    mixed-precision solve's conversions.  Every operand is checked
    (dtype, size, contiguity) before its pointer is taken; a misfit
    raises ``ValueError(PASS_MISFIT)``."""

    def __init__(self, lib, dtype) -> None:
        self.dtype = dt = np.dtype(dtype)
        sfx = "c64" if dt == np.complex64 else "c128"
        #: The entry points bound here.
        self.entries = tuple(f"{name}_{sfx}"
                             for name in ("krylov", "pick", "embed"))
        self._pass, self._pick, self._embed = (
            _entry(lib, name, argtypes) for name, argtypes in zip(
                self.entries, ([_I, _I] + [_P] * 7 + [_D] * 4 + [_P],
                               [_P, _P, _I, _I, _I, _P],
                               [_P, _P, _I, _I, _I, _P])))
        if dt == np.complex128:
            self.entries += ("relayout_add_c128", "relayout_c64")
            self._relayout_add = _entry(lib, "relayout_add_c128",
                                        [_P, _P, _P, _I, _I, _P])
            self._relayout = _entry(lib, "relayout_c64",
                                    [_P, _P, _I, _I, _P])

    def _fits(self, a, size: int) -> bool:
        return (a.dtype == self.dtype and a.size == size
                and a.flags.c_contiguous)

    def run(self, op: int, operands, k0: complex = 0j, k1: complex = 0j):
        """``(outputs, sums)`` of pass ``op`` over ``operands`` with the
        constants ``k0``, ``k1`` (each rounded to ``dtype`` by the
        pass): the outputs fresh arrays shaped like ``operands[0]``,
        the sums Python floats."""
        nin, nout, nsum = PASS_SHAPES[op]
        first = operands[0]
        n, dtype = first.size, self.dtype
        if len(operands) != nin or not n:
            raise ValueError(PASS_MISFIT)
        ptrs = [None] * 7
        for i, a in enumerate(operands):
            if not (a.dtype == dtype and a.size == n
                    and a.flags.c_contiguous):
                raise ValueError(PASS_MISFIT)
            ptrs[i] = _address(a)
        outs = []
        for i in range(nout):
            out = np.empty(first.shape, dtype)
            outs.append(out)
            ptrs[5 + i] = _address(out)
        sums = _SUMS()
        self._pass(op, n, *ptrs, k0.real, k0.imag, k1.real, k1.imag, sums)
        return outs, sums[:nsum]

    def _check_table(self, table, nl: int, nh: int, rows: int) -> None:
        if not (table.dtype == np.int64 and table.size == nh
                and table.flags.c_contiguous and 0 < nl and 0 < rows):
            raise ValueError(PASS_MISFIT)

    def pick(self, full, base, nl: int, rows: int):
        """The half field ``(rows, nh)`` of the sites whose first row sits
        at ``base`` (``nh`` int64 offsets) in the lane-major ``full``
        field of ``nl`` lanes: row ``r`` of site ``k`` is
        ``full.flat[base[k] + r * nl]``.  ``base`` must address within
        ``full``; its builder (:mod:`repro.grid.krylov`) sees to that."""
        nh = base.size
        self._check_table(base, nl, nh, rows)
        if not self._fits(full, 2 * rows * nh):
            raise ValueError(PASS_MISFIT)
        half = np.empty(rows * nh, self.dtype)
        self._pick(_address(full), base.ctypes.data, nl, rows, nh,
                   _address(half))
        return half

    def embed(self, halves, bases, nl: int, rows: int, size: int):
        """A fresh lane-major full field of ``size`` elements holding
        each half field of ``halves`` at its ``bases`` (as
        :meth:`pick` reads them); the bases must cover every site."""
        full = np.empty(size, self.dtype)
        for half, base in zip(halves, bases):
            nh = base.size
            self._check_table(base, nl, nh, rows)
            if not self._fits(half, rows * nh) or size != 2 * rows * nh:
                raise ValueError(PASS_MISFIT)
            self._embed(_address(half), base.ctypes.data, nl, rows, nh,
                        _address(full))
        return full

    def relayout_add(self, x, d, take):
        """``x + d[..., take].astype(complex128)``: ``x`` a complex128
        field whose last axes are ``n`` sites, ``d`` its complex64 twin
        in the site order ``take`` permutes."""
        n = take.size
        if not (self._fits(x, x.size) and d.dtype == np.complex64
                and d.size == x.size and d.flags.c_contiguous
                and take.dtype == np.int64 and take.flags.c_contiguous
                and n and x.size % n == 0):
            raise ValueError(PASS_MISFIT)
        out = np.empty(x.shape, self.dtype)
        self._relayout_add(_address(x), _address(d), take.ctypes.data,
                           x.size // n, n, _address(out))
        return out

    def relayout_single(self, x, take, shape):
        """``x[..., take].astype(complex64)``, shaped ``shape``."""
        n = take.size
        if not (self._fits(x, x.size) and take.dtype == np.int64
                and take.flags.c_contiguous and n and x.size % n == 0):
            raise ValueError(PASS_MISFIT)
        out = np.empty(shape, np.complex64)
        if out.size != x.size:
            raise ValueError(PASS_MISFIT)
        self._relayout(_address(x), take.ctypes.data, x.size // n, n,
                       _address(out))
        return out


def _entry(lib, name: str, argtypes: list):
    fn = getattr(lib, name)
    fn.restype, fn.argtypes = None, argtypes
    return fn


def _state() -> dict:
    if not _STATE:  # filled once, by one ``update`` under the lock
        with _LOCK:
            if not _STATE:
                _STATE.update(_load())
    return _STATE


def kernel(dtype):
    """The compiled hop for ``dtype``, or ``None`` where the numpy
    sweep must run (:func:`status` says why).  Builds or loads the
    library on the first call in the process.

    The kernel is ``hop(tables, top, links, rstride, lanes, src_size)``,
    which checks a sweep's static operands once and returns their
    :class:`BoundHop`; ``bound(src, out, store, psi, diag)`` checks the
    per-call operands and returns ``run(b0, b1)``.  Through the
    ``(8, n)`` int64 ``tables`` (whose largest entry is ``top``,
    computed when they were built) and the :class:`LinkFields`
    ``links``, each ``run`` writes output sites ``b0 .. b1 - 1`` of
    ``out`` (``12 n`` elements), reading row ``r`` of the neighbour at
    table entry ``t`` from ``src.flat[r * rstride + t]`` (``src`` holds
    ``src_size`` elements); ``lanes`` picks the output layout (``n``
    for tensor-major ``(4, 3, n)``, the grid's ``nlanes`` for lane-major
    ``(osites, 4, 3, nlanes)``), and ``store`` what is written
    (:data:`STORE_HOP`, :data:`STORE_BLOCK`, :data:`STORE_SCHUR`).  The
    link fields are laid out by the same rule in their own lanes; where
    their back-links are read at the neighbour, the source shares those
    lanes (``rstride == links.llanes``); see ``hop_cb.c``.  All arrays
    are C-contiguous, and every check raises ``ValueError(MISFIT)``.
    ``run`` holds no lock, so tiles may call it concurrently on disjoint
    sites; ctypes releases the GIL for the call."""
    return _state()["kernels"].get(np.dtype(dtype))


def passes(dtype):
    """The Krylov passes for ``dtype`` (:class:`Passes`), or ``None``
    where the library does not load for it (:func:`status` says why):
    they load with the hop, under the same contraction key."""
    return _state().get("passes", {}).get(np.dtype(dtype))


def status(dtype=np.complex128) -> dict:
    """Which kernel the Wilson hops of ``dtype`` run, and why:
    ``kernel`` (``native``/``reference``), ``reason`` (empty when
    native), the contraction ``key``, numpy's multiply ``target``, the
    ``compiler``, the ``flags``, the library ``path`` and the Krylov
    ``passes``' entry points (empty where the Lattice expressions
    run)."""
    dtype = np.dtype(dtype)
    state = _state()
    native = dtype in state["kernels"]
    bound = state.get("passes", {}).get(dtype)
    reason = state["reason"]
    if not native and not reason:
        reason = f"contraction key of {dtype} is {state['keys'].get(dtype)!r}"
    return {
        "kernel": "native" if native else "reference",
        "reason": reason,
        "key": contraction_key(dtype),
        "target": multiply_target(dtype),
        "compiler": state.get("compiler", find_compiler() or "none"),
        "flags": " ".join(state["flags"]),
        "path": state.get("path", ""),
        "passes": " ".join(bound.entries) if bound else "",
    }
