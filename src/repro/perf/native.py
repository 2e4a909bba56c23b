"""The compiled Wilson hop: build, load and call ``hop_cb.c``.

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
``-ffp-contract=off``, so the compiler never decides the bits.

**The build.**  The host ``gcc`` compiles the source once per (source,
flags, compiler version, CPU, key) into :data:`BUILD_DIR`, in the
checkout: each builder writes a temporary file and ``os.replace``-s it
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
_ARGTYPES = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
             ctypes.POINTER(ctypes.c_void_p), ctypes.c_int64, ctypes.c_int64,
             ctypes.c_void_p] + [ctypes.c_int64] * 4

_LOCK = threading.Lock()
#: The process's one load attempt: ``kernels`` (dtype -> bound entry
#: point; empty where the reference route runs), ``reason`` (why not, or
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
            [cc, *flags, "-o", tmp, str(SOURCE), "-lm"],
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
        digest = hashlib.sha256(SOURCE.read_bytes())
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


def _bind(fn, dtype: np.dtype):
    """The Python face of one entry point (see :func:`kernel`): checks
    each operand's dtype, shape and contiguity, and that ``src`` and the
    link fields hold every element the tables address, before binding
    their pointers to the calls over a sweep's blocks."""
    fn.restype, fn.argtypes = None, _ARGTYPES

    def bind(src, rstride: int, tables, top: int, links: LinkFields, out,
             lanes: int):
        n = tables.shape[-1]
        if not (
            src.dtype == out.dtype == dtype
            and tables.dtype == np.int64
            and tables.shape == (NHOPS, n)
            and out.size == 12 * n
            and all(a.flags.c_contiguous for a in (src, tables, out))
            and 0 < rstride and 0 <= top
            and top + 11 * rstride < src.size
            and 0 < lanes and n % lanes == 0
            and links.fit(dtype, n, top, rstride)
        ):
            raise ValueError("operands do not fit the Wilson hop kernel")
        args = (src.ctypes.data, rstride, tables.ctypes.data, links.pointers,
                links.llanes, int(links.back), out.ctypes.data, n, lanes)

        def run(b0: int, b1: int) -> None:
            if not 0 <= b0 <= b1 <= n:
                raise ValueError("operands do not fit the Wilson hop kernel")
            fn(*args, b0, b1)

        # The pointers are only valid while the arrays live.
        run.operands = (src, tables, links, out)
        return run

    return bind


def _state() -> dict:
    with _LOCK:
        if not _STATE:
            _STATE.update(_load())
        return _STATE


def kernel(dtype):
    """The compiled hop for ``dtype``, or ``None`` where the numpy
    sweep must run (:func:`status` says why).  Builds or loads the
    library on the first call in the process.

    The kernel is ``hop(src, rstride, tables, top, links, out, lanes)``,
    which checks the operands once and returns ``run(b0, b1)``: through
    the ``(8, n)`` int64 ``tables`` (whose largest entry is ``top``,
    computed when they were built) and the :class:`LinkFields`
    ``links``, each call writes output sites
    ``b0 .. b1 - 1`` of ``out`` (``12 n`` elements), reading row ``r``
    of the neighbour at table entry ``t`` from ``src.flat[r * rstride +
    t]``; ``lanes`` picks the output layout
    (``n`` for tensor-major ``(4, 3, n)``, the grid's ``nlanes`` for
    lane-major ``(osites, 4, 3, nlanes)``).  The link fields are laid
    out by the same rule in their own lanes; where their back-links are
    read at the neighbour, the source shares those lanes
    (``rstride == links.llanes``); see ``hop_cb.c``.  All arrays are
    C-contiguous.  ``run`` holds no lock, so tiles may
    call it concurrently on disjoint sites; ctypes releases the GIL for
    the call."""
    return _state()["kernels"].get(np.dtype(dtype))


def status(dtype=np.complex128) -> dict:
    """Which kernel the Wilson hops of ``dtype`` run, and why:
    ``kernel`` (``native``/``reference``), ``reason`` (empty when
    native), the contraction ``key``, numpy's multiply ``target``, the
    ``compiler``, the ``flags`` and the library ``path``."""
    dtype = np.dtype(dtype)
    state = _state()
    native = dtype in state["kernels"]
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
    }
