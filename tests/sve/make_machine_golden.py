"""Regenerate ``machine_golden.json``, the SVE machine's differential fixture.

The fixture pins what the machine makes observable over a fixed corpus,
one cell per {program x vector length x trip count x toolchain}:

* programs: the paper's listings IV-A and IV-C, the hand-written dot
  product ``LISTING_DOT``, and ``vectorize``/``vectorize_fixed`` output
  (``complex_isa`` on and off) for every ready-made ``vectorizer.ir``
  kernel -- which includes the listings IV-B and IV-D;
* all 16 legal vector lengths;
* ragged trip counts 1, lanes - 1, lanes + 1 and 1001;
* the pristine toolchain and the modelled ``armclang_18_3`` one.

Each cell records a sha256 (first 16 hex digits) of the output bytes,
of the final Z/P/X/NZCV state and of the retired instruction stream;
the retired count, ``steps`` and final ``pc``; the per-mnemonic and
per-category histograms in first-retired order; ``faults_fired``; and
how many ``read_array``/``gather_elements`` calls the run made.  A run
that raises appends its error.  An ``armclang_18_3`` cell whose record
equals the pristine one is stored as ``"="``.

The fixture was written from the interpreter that preceded the
decode-once machine; regenerate it only when a change of the machine's
observable behaviour is intended.

Run from the repository root::

    PYTHONPATH=src python tests/sve/make_machine_golden.py

``tests/sve/test_machine_golden.py`` re-runs every cell and compares.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

from repro.sve.decoder import assemble
from repro.sve.faults import armclang_18_3
from repro.sve.machine import Machine
from repro.sve.memory import Memory
from repro.sve.ops.cplx import interleave_complex
from repro.sve.tracer import Tracer
from repro.sve.vl import LEGAL_VLS, VL
from repro.vectorizer import ir
from repro.vectorizer.autovec import vectorize, vectorize_fixed
from repro.verification.cases import LISTING_DOT, LISTING_IVA, LISTING_IVC

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "machine_golden.json")
TOOLCHAINS = {"pristine": None, "armclang_18_3": armclang_18_3}


class CountingMemory(Memory):
    """Memory that counts its ``read_array``/``gather_elements`` calls."""

    def __init__(self, size: int) -> None:
        super().__init__(size)
        self.reads = [0, 0]

    def read_array(self, addr, dtype, count):
        self.reads[0] += 1
        return super().read_array(addr, dtype, count)

    def gather_elements(self, addrs, active, dtype):
        self.reads[1] += 1
        return super().gather_elements(addrs, active, dtype)


def corpus() -> dict:
    """Program name -> (program, kernel); the kernel is ``None`` for the
    dot product, whose harness is its own."""
    kernels = [ir.mult_real_kernel("f64"), ir.mult_real_kernel("f32"),
               ir.mult_cplx_kernel("c128"), ir.mult_cplx_kernel("c64"),
               ir.axpy_kernel(0.5 - 1.25j), ir.conj_mul_kernel()]
    out = {"listing_iva": (assemble(LISTING_IVA), ir.mult_real_kernel()),
           "listing_ivc": (assemble(LISTING_IVC), ir.mult_cplx_kernel()),
           "listing_dot": (assemble(LISTING_DOT), None)}
    seen = set()
    for k in kernels:
        for compile_name, compile_fn in (("vla", vectorize),
                                         ("fixed", vectorize_fixed)):
            for isa in (False, True):
                prog = compile_fn(k, complex_isa=isa)
                if prog.source in seen:  # real kernels ignore complex_isa
                    continue
                seen.add(prog.source)
                name = f"{k.name}_{k.scalar_type}_{compile_name}" \
                       f"{'_isa' if isa else ''}"
                out[name] = (prog, k)
    return out


def trip_counts(kernel, vl_bits: int) -> list:
    lanes = VL(vl_bits).lanes(8 if kernel is None
                              else kernel.real_dtype.itemsize)
    return sorted({1, lanes - 1, lanes + 1, 1001})


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


def _state_sha(m: Machine) -> str:
    return _sha(
        *(m.z.read_bytes(i) for i in range(32)),
        *(m.p.read_bits(i) for i in range(16)),
        np.array([m.x.read(i) for i in range(31)] + [m.x.sp],
                 dtype=np.uint64),
        np.array([m.flags.n, m.flags.z, m.flags.c, m.flags.v], dtype=bool),
    )


def _inputs(kernel, n: int) -> list:
    rng = np.random.default_rng([n, 7])
    if kernel is None or not kernel.is_complex:
        dtype = np.float64 if kernel is None else kernel.real_dtype
        return [rng.normal(size=n).astype(dtype) for _ in range(2)]
    return [interleave_complex(rng.normal(size=n) + 1j * rng.normal(size=n),
                               kernel.real_dtype) for _ in range(2)]


def run_cell(program, kernel, vl_bits: int, n: int, toolchain: str) -> str:
    """Run one cell and return its record, one line of text:
    ``state output stream retired steps pc reads/gathers histogram
    categories faults_fired [! error]``, histograms as ``key:count``."""
    vl = VL(vl_bits)
    factory = TOOLCHAINS[toolchain]
    fm = factory() if factory else None
    mem = CountingMemory(max(1 << 20, 64 * n * 16 + (1 << 16)))
    addrs = [mem.alloc_array(a) for a in _inputs(kernel, n)]
    if kernel is None:
        out_bytes = vl.bytes
    else:
        out_bytes = (max(n * (2 if kernel.is_complex else 1), 1)
                     * kernel.real_dtype.itemsize)
    out_addr = mem.alloc(out_bytes + vl.bytes)
    m = Machine(vl, memory=mem, tracer=Tracer(record_stream=True),
                fault_model=fm)
    error = None
    try:
        m.call(program, n, *addrs, out_addr)
    except Exception as e:  # recorded: the error path is pinned too
        error = f"{type(e).__name__}: {e}"
    t = m.tracer
    hist = ",".join(f"{k}:{v}" for k, v in t.by_mnemonic.items())
    cats = ",".join(f"{k}:{v}" for k, v in t.by_category.items())
    fired = ",".join(f"{k}:{v}" for k, v in sorted(fm.fired.items())) \
        if fm and fm.fired else "-"
    stream = hashlib.sha256("\n".join(t.stream).encode()).hexdigest()
    rec = (f"{_state_sha(m)[:16]} "
           f"{_sha(mem.read_bytes(out_addr, out_bytes))[:16]} {stream[:16]} "
           f"{t.total} {m.steps} {m.pc} {mem.reads[0]}/{mem.reads[1]} "
           f"{hist} {cats} {fired}")
    return rec if error is None else f"{rec} ! {error}"


def cells():
    """Yield ``(key, program, kernel, vl_bits, n, toolchain)``."""
    for name, (prog, kernel) in corpus().items():
        for vl_bits in LEGAL_VLS:
            for n in trip_counts(kernel, vl_bits):
                for tc in TOOLCHAINS:
                    yield (f"{name}|{vl_bits}|{n}|{tc}", prog, kernel,
                           vl_bits, n, tc)


def main() -> int:
    out = {}
    for key, prog, k, vl_bits, n, tc in cells():
        rec = run_cell(prog, k, vl_bits, n, tc)
        pristine = out.get(key.replace(tc, "pristine"))
        out[key] = "=" if rec == pristine else rec
    with open(FIXTURE, "w") as f:
        f.write("{\n")
        f.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                           for k, v in out.items()))
        f.write("\n}\n")
    print(f"wrote {len(out)} cells to {FIXTURE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
