"""The five benchmark workloads.

Each workload makes its inputs from a seed (untimed), sets the program
up the way a user would (``load_gauge`` with verification, operator
construction, first call), runs one *operation* per loop iteration as
a closed loop, and checks the outputs outside the timed region.  The
program is reached only through public entry points and runs under the
default ``ExecutionPolicy``, so a change of default shows up here
without touching the benchmark.

Why each workload exists is in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import os
import random

import numpy as np

from repro import engine
from repro.grid import io as grid_io
from repro.grid import propagator as grid_propagator
from repro.grid.cartesian import GridCartesian
from repro.grid.comms import DistributedLattice
from repro.grid.dhop_ref import dhop_reference
from repro.grid.dist_wilson import DistributedWilson, distribute_gauge
from repro.grid.lattice import Lattice
from repro.grid.wilson import WilsonDirac
from repro.simd import get_backend
from repro.sve.faults import armclang_18_3
from repro.verification import ALL_CASES, run_suite

BACKEND = "generic256"
MASS = 0.3
TOL = 1e-8
MAX_ITER = 2000
#: A true residual above this fails the check (the solver's own
#: stopping test is on the recursive residual).
RESIDUAL_LIMIT = 10 * TOL
ORACLE_RTOL = 1e-12

#: The Pauli matrices, for the SU(2) subgroup rotations below.
_SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                   [[1, 0], [0, -1]]], dtype=np.complex128)


def random_su3_links(rng: np.random.Generator, sites: int,
                     ndim: int = 4, hits: int = 3) -> list:
    """Canonical random SU(3) links, ``ndim`` arrays ``(sites, 3, 3)``.

    The same construction as ``repro.grid.pauli.random_su3`` with
    ``spread=1`` (products of uniformly random SU(2) rotations in the
    three SU(2) subgroups), vectorized over sites: the program's
    per-link loop takes about a minute at 16^4.
    """
    links = []
    for _ in range(ndim):
        m = np.broadcast_to(np.eye(3, dtype=np.complex128),
                            (sites, 3, 3)).copy()
        for _ in range(hits):
            for i, j in ((0, 1), (0, 2), (1, 2)):
                a = rng.normal(size=(sites, 4))
                a /= np.linalg.norm(a, axis=1, keepdims=True)
                u2 = a[:, 0, None, None] * np.eye(2) \
                    + 1j * np.einsum("nk,kab->nab", a[:, 1:], _SIGMA)
                e = np.broadcast_to(np.eye(3, dtype=np.complex128),
                                    (sites, 3, 3)).copy()
                e[:, i, i], e[:, i, j] = u2[:, 0, 0], u2[:, 0, 1]
                e[:, j, i], e[:, j, j] = u2[:, 1, 0], u2[:, 1, 1]
                m = e @ m
        links.append(m)
    return links


def write_gauge(path: str, dims, links_canonical) -> None:
    """Save canonical links with the program's own writer."""
    grid = GridCartesian(dims, get_backend(BACKEND))
    links = [Lattice(grid, (3, 3)).from_canonical(u)
             for u in links_canonical]
    grid_io.save_gauge(path, links, grid, note="perfbench")


class Checks:
    """Pass/fail tally of the correctness checks of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


class Workload:
    """Base: subclasses define the inputs, the three set-up steps, the
    operation and the checks."""

    name = ""
    #: What one operation is, for the report.
    op_label = ""
    #: Operations an untraced run times at least, whatever its
    #: ``--seconds``: the median of a run of 3-4 s operations needs
    #: more than the two or three that fit in ten seconds.
    min_ops = 4

    def make_inputs(self, seed: int, workdir: str) -> dict:
        raise NotImplementedError

    def load(self, inputs: dict):
        raise NotImplementedError

    def build(self, inputs: dict, loaded):
        raise NotImplementedError

    def first_call(self, state) -> None:
        raise NotImplementedError

    def op(self, state):
        raise NotImplementedError

    def check(self, inputs: dict, state, results: list,
              checks: Checks) -> None:
        raise NotImplementedError

    def keep(self, results: list, result) -> None:
        """Store what the checks need of one operation's result."""
        results.append(result)

    def summary(self, result) -> dict:
        """Deterministic facts of one result (for the tests)."""
        return {}

    def cells(self, result) -> tuple:
        """(verification cells run, cells passed) by one operation."""
        return 0, 0


class _GaugeWorkload(Workload):
    """A workload whose input is one seeded configuration on disk."""

    def make_inputs(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng(seed)
        sites = int(np.prod(self.dims))
        links = random_su3_links(rng, sites)
        path = os.path.join(workdir, f"{self.name}.gauge")
        write_gauge(path, self.dims, links)
        return {"path": path, "links": links, "rng": rng}

    def load(self, inputs: dict):
        grid = GridCartesian(self.dims, get_backend(BACKEND))
        return grid_io.load_gauge(inputs["path"], grid, verify=True)


class PionWorkload(_GaugeWorkload):
    """12-column point propagator plus the pion correlator."""

    op_label = "propagator_s"

    def __init__(self, name: str, dims) -> None:
        self.name = name
        self.dims = list(dims)
        self.origin = (0,) * len(self.dims)

    def build(self, inputs, links):
        return WilsonDirac(links, mass=MASS)

    def first_call(self, dirac) -> None:
        dirac.apply(grid_propagator.point_source(dirac.grid, self.origin,
                                                 0, 0))

    def op(self, dirac):
        columns, results = grid_propagator.propagator(
            dirac, self.origin, tol=TOL, max_iter=MAX_ITER)
        corr = np.zeros(self.dims[-1])
        for spin in range(4):
            for colour in range(3):
                corr += grid_propagator.timeslice_sums(columns[spin][colour])
        return {"corr": corr, "columns": columns, "results": results}

    def keep(self, results: list, result) -> None:
        """The checks need the columns of the first propagator only."""
        if results:
            result = dict(result, columns=None)
        results.append(result)

    def summary(self, result) -> dict:
        return {"corr": result["corr"],
                "iterations": [r.iterations for r in result["results"]]}

    def check(self, inputs, dirac, results, checks):
        first = results[0]
        with engine.scope(enabled=False):
            for spin in range(4):
                for colour in range(3):
                    b = grid_propagator.point_source(
                        dirac.grid, self.origin, spin, colour)
                    x = first["columns"][spin][colour]
                    r = (b - dirac.apply(x)).norm2() ** 0.5 \
                        / b.norm2() ** 0.5
                    checks.expect(r <= RESIDUAL_LIMIT,
                                  f"column ({spin},{colour}) true "
                                  f"residual {r:.3e}")
        checks.expect(bool(np.all(first["corr"] > 0)),
                      "correlator not positive")
        for res in results[1:]:
            checks.expect(np.array_equal(res["corr"], first["corr"]),
                          "correlator differs between repetitions")


class DslashWorkload(_GaugeWorkload):
    """Repeated full-lattice Wilson hopping-term sweeps."""

    name = "dslash-large"
    op_label = "dslash_s"

    def __init__(self, dims) -> None:
        self.dims = list(dims)

    def make_inputs(self, seed, workdir):
        inputs = super().make_inputs(seed, workdir)
        rng = inputs["rng"]
        sites = int(np.prod(self.dims))
        inputs["psi"] = (rng.normal(size=(sites, 4, 3))
                         + 1j * rng.normal(size=(sites, 4, 3)))
        return inputs

    def build(self, inputs, links):
        dirac = WilsonDirac(links, mass=MASS)
        psi = Lattice(dirac.grid, (4, 3)).from_canonical(inputs["psi"])
        return dirac, psi

    def first_call(self, state) -> None:
        dirac, psi = state
        dirac.dhop(psi)

    def op(self, state):
        dirac, psi = state
        return dirac.dhop(psi)

    def check(self, inputs, state, results, checks):
        ref = dhop_reference(inputs["links"], inputs["psi"], self.dims)
        got = results[0].to_canonical()
        err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
        checks.expect(err <= ORACLE_RTOL,
                      f"dhop differs from the oracle: {err:.3e}")
        for same in results[1:]:
            checks.expect(same, "dhop differs between sweeps")

    def keep(self, results: list, result) -> None:
        """Only the first sweep is kept; each later one is kept as
        whether it equals the first (a 16^4 sweep is 13 MB)."""
        results.append(result if not results
                       else np.array_equal(result.data, results[0].data))


class DistHaloWorkload(_GaugeWorkload):
    """CGNE column solves on the rank-decomposed operator."""

    name = "dist-halo"
    op_label = "dist_solve_s"
    MPI = [2, 2, 1, 1]

    def __init__(self, dims) -> None:
        self.dims = list(dims)

    def make_inputs(self, seed, workdir):
        inputs = super().make_inputs(seed, workdir)
        rng = inputs["rng"]
        sites = int(np.prod(self.dims))
        inputs["psi"] = (rng.normal(size=(sites, 4, 3))
                         + 1j * rng.normal(size=(sites, 4, 3)))
        return inputs

    def _field(self, canonical):
        return DistributedLattice(
            self.dims, get_backend(BACKEND), self.MPI, (4, 3),
            checksum_halos=True).scatter(canonical)

    def build(self, inputs, links):
        dist = distribute_gauge(links, self.dims, get_backend(BACKEND),
                                self.MPI, checksum_halos=True)
        source = np.zeros((int(np.prod(self.dims)), 4, 3),
                          dtype=np.complex128)
        source[0, 0, 0] = 1.0  # spin 0, colour 0 at the origin
        return {"op": DistributedWilson(dist, mass=MASS), "links": links,
                "b": self._field(source)}

    def first_call(self, state) -> None:
        state["op"].apply(state["b"])

    def op(self, state):
        return engine.solve_fermion(state["op"], state["b"], method="cg",
                                    tol=TOL, max_iter=MAX_ITER)

    def summary(self, result) -> dict:
        return {"iterations": [result.iterations]}

    def expected_traffic(self, grid) -> tuple:
        """Messages and bytes of one sweep from the geometry alone: one
        halo message per rank, direction and sign, each one boundary
        slab of spinors."""
        nranks = int(np.prod(self.MPI))
        ldims = [d // r for d, r in zip(self.dims, self.MPI)]
        lsites = int(np.prod(ldims))
        per_site = 12 * np.dtype(grid.dtype).itemsize
        messages = 2 * len(ldims) * nranks
        nbytes = sum(2 * nranks * (lsites // ld) * per_site for ld in ldims)
        return messages, nbytes

    def check(self, inputs, state, results, checks):
        for res in results:
            checks.expect(res.converged and res.residual <= RESIDUAL_LIMIT,
                          f"distributed solve: converged={res.converged} "
                          f"residual {res.residual:.3e}")
        psi = self._field(inputs["psi"])
        stats = psi.stats
        m0, b0 = stats.messages, stats.bytes_sent
        hopped = state["op"].dhop(psi).gather()
        messages, nbytes = self.expected_traffic(psi.grids[0])
        checks.expect(stats.messages - m0 == messages,
                      f"{stats.messages - m0} halo messages per sweep, "
                      f"geometry says {messages}")
        checks.expect(stats.bytes_sent - b0 == nbytes,
                      f"{stats.bytes_sent - b0} halo bytes per sweep, "
                      f"geometry says {nbytes}")
        single = WilsonDirac(state["links"], mass=MASS)
        ref = single.dhop(
            Lattice(single.grid, (4, 3)).from_canonical(inputs["psi"]))
        checks.expect(np.array_equal(hopped, ref.to_canonical()),
                      "distributed dhop differs from single-rank dhop")


#: Where the {case x VL x toolchain} outcome table lives.
EXPECTED_TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "sve_expected.json")
TOOLCHAINS = {"pristine": None, "armclang_18_3": armclang_18_3}


class SveVerifyWorkload(Workload):
    """The paper's Section V-D sweep: every case at every vector
    length, on the pristine and on the modelled armclang toolchain."""

    name = "sve-verify"
    op_label = "verify_s"
    CATEGORIES = ("kernel", "acle", "simd")
    VLS = (128, 256, 384, 512, 1024, 2048)

    def __init__(self, vls) -> None:
        self.vls = tuple(vls)

    def make_inputs(self, seed, workdir):
        """The cases and their data are the suite's fixed table; the
        seed sets the order the cells run in."""
        rng = random.Random(seed)
        vls = list(self.vls)
        rng.shuffle(vls)
        names = sorted(c.name for c in ALL_CASES
                       if c.category in self.CATEGORIES)
        rng.shuffle(names)
        return {"vls": tuple(vls), "names": names}

    def load(self, inputs):
        with open(EXPECTED_TABLE) as f:
            table = json.load(f)
        by_name = {c.name: c for c in ALL_CASES}
        return table, [by_name[n] for n in inputs["names"]]

    def build(self, inputs, loaded):
        table, cases = loaded
        return {"table": table, "cases": cases, "vls": inputs["vls"]}

    def first_call(self, state) -> None:
        run_suite(vls=(min(state["vls"]),), cases=state["cases"])

    def op(self, state):
        return {tc: run_suite(vls=state["vls"], fault_model_factory=fm,
                              cases=state["cases"])
                for tc, fm in TOOLCHAINS.items()}

    def summary(self, result) -> dict:
        return {tc: sorted((r.name, r.vl_bits, r.passed)
                           for r in rep.results)
                for tc, rep in result.items()}

    def cells(self, result) -> tuple:
        return (sum(rep.total for rep in result.values()),
                sum(rep.passed for rep in result.values()))

    def check(self, inputs, state, results, checks):
        table = state["table"]
        for reports in results:
            for tc, rep in reports.items():
                seen = set()
                for r in rep.results:
                    seen.add(r.name)
                    fails = table[tc].get(r.name)
                    checks.expect(
                        fails is not None
                        and (r.vl_bits in fails) != r.passed,
                        f"{tc} {r.name} VL{r.vl_bits}: "
                        f"{'pass' if r.passed else 'FAIL'}")
                checks.expect(seen == set(table[tc]),
                              f"{tc}: cases differ from the stored table")


def make(name: str, smoke: bool = False) -> Workload:
    """The named workload; ``smoke`` shrinks it for the tests."""
    if name == "pion-small":
        wl = PionWorkload(name, [4, 4, 4, 4] if smoke else [4, 4, 4, 8])
    elif name == "pion-large":
        wl = PionWorkload(name, [4, 4, 4, 4] if smoke else [8, 8, 8, 8])
        wl.min_ops = 2  # each propagator takes about 20 s
    elif name == "dslash-large":
        wl = DslashWorkload([8, 8, 8, 8] if smoke else [16, 16, 16, 16])
    elif name == "dist-halo":
        wl = DistHaloWorkload([4, 4, 4, 4] if smoke else [8, 8, 8, 8])
    elif name == "sve-verify":
        wl = SveVerifyWorkload(
            (128, 384) if smoke else SveVerifyWorkload.VLS)
    else:
        raise ValueError(f"unknown workload {name!r}")
    if smoke:
        wl.min_ops = 1
    return wl


NAMES = ("pion-small", "pion-large", "dslash-large", "dist-halo",
         "sve-verify")
