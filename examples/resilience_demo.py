"""The resilience layer end-to-end: fault injection, self-healing
comms, fault-tolerant solvers, and the campaign report.

Production lattice-QCD runs last days on thousands of nodes; bit
flips, flaky links and immature toolchains are routine, and the
dangerous failure mode is *silent* corruption — a wrong answer with no
warning.  This example drives all three fault classes through the
stack and shows each being detected and healed:

1. a corrupted halo message caught by the CRC and retransmitted,
2. an SDC bit flip mid-CG caught by the true-residual check and
   repaired by checkpoint restart,
3. a crashing SIMD backend degrading gracefully to ``generic``,
4. the full seeded campaign matrix, with and without resilience.

Usage::

    python examples/resilience_demo.py
"""

import warnings

import numpy as np

from repro.grid.cartesian import GridCartesian
from repro.grid.comms import DistributedLattice
from repro.grid.random import random_gauge, random_spinor
from repro.grid.solver import conjugate_gradient
from repro.grid.wilson import WilsonDirac
from repro.resilience import (
    CommsFault,
    CommsFaultInjector,
    FaultCampaign,
    FaultGuard,
    flip_field_bit,
)
from repro.scenarios import run_campaign
from repro.simd import BackendDegradedWarning, ResilientBackend, get_backend
from repro.simd.generic import GenericBackend

DIMS = [4, 4, 4, 4]
MPI = [2, 1, 1, 1]


def demo_self_healing_comms() -> None:
    print("=== 1. self-healing halo exchange ===")
    be = get_backend("generic256")
    grid = GridCartesian(DIMS, be)
    psi = random_spinor(grid, seed=23)

    clean = DistributedLattice(DIMS, be, MPI, (4, 3))
    clean.scatter(psi.to_canonical())
    want = clean.cshift(0, 1).gather()

    campaign = FaultCampaign(seed=0)
    injector = CommsFaultInjector(campaign, [
        CommsFault("corrupt", message=0),
        CommsFault("drop", message=1),
    ])
    dl = DistributedLattice(DIMS, be, MPI, (4, 3), checksum_halos=True,
                            comms_faults=injector)
    dl.scatter(psi.to_canonical())
    got = dl.cshift(0, 1).gather()

    s = dl.stats
    print(f"faults fired:          {campaign.fired}")
    print(f"detected corruptions:  {s.detected_corruptions}")
    print(f"detected drops:        {s.detected_drops}")
    print(f"retransmissions:       {s.retries}")
    print(f"recovered messages:    {s.recovered_messages}")
    print(f"result bit-identical:  {np.array_equal(got, want)}\n")


def demo_ft_solver() -> None:
    print("=== 2. fault-tolerant CG under an SDC bit flip ===")
    be = get_backend("generic256")
    grid = GridCartesian(DIMS, be)
    dirac = WilsonDirac(random_gauge(grid, seed=11), mass=0.3)
    b = random_spinor(grid, seed=5)
    rhs = dirac.apply_dagger(b)

    campaign = FaultCampaign(seed=1)
    calls = {"n": 0}

    def op(v):
        out = dirac.mdag_m(v)
        calls["n"] += 1
        if calls["n"] == 15:  # flip an exponent bit mid-solve
            flip_field_bit(out, campaign, bit=60, name="mdag_m output")
        return out

    res = conjugate_gradient(op, rhs, tol=1e-8, guard=FaultGuard(
        recompute_interval=10, campaign=campaign))
    rel = (b - dirac.apply(res.x)).norm2() ** 0.5 / b.norm2() ** 0.5
    print(f"converged:             {res.converged}")
    print(f"restarts:              {res.restarts}")
    print(f"true-residual checks:  {res.true_residual_checks}")
    for e in res.detected_events:
        print(f"  detected: {e}")
    print(f"final true residual:   {rel:.3e}\n")


def demo_backend_fallback() -> None:
    print("=== 3. graceful backend degradation ===")

    class Crashy(GenericBackend):
        def __init__(self):
            super().__init__(256)
            self.name = "crashy-sve256"

        def mul(self, x, y):
            raise RuntimeError("simulated backend fault")

    be = ResilientBackend(Crashy())
    rng = np.random.default_rng(0)
    cl = be.clanes()
    x = rng.normal(size=(2, cl)) + 1j * rng.normal(size=(2, cl))
    y = rng.normal(size=(2, cl)) + 1j * rng.normal(size=(2, cl))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", BackendDegradedWarning)
        got = be.mul(x, y)
    print(f"degraded:              {be.degraded}")
    print(f"warning:               {caught[0].message}")
    print(f"result correct:        {np.allclose(got, x * y)}\n")


def demo_campaign_matrix() -> None:
    print("=== 4. the full campaign, with and without resilience ===")
    for armed in (True, False):
        m = run_campaign(seed=0, armed=armed, vls=(256,))
        print(m.format_table("fault", "vl", title="resilience ON" if armed
                             else "resilience OFF"))
        detection, recovery = m.fault_rates()
        print(f"detection {detection:.0%}, recovery {recovery:.0%}, "
              f"silent corruptions {m.counts()['fail']}\n")


def main() -> None:
    demo_self_healing_comms()
    demo_ft_solver()
    demo_backend_fallback()
    demo_campaign_matrix()


if __name__ == "__main__":
    main()
