"""The telemetry layer end-to-end: tracing, metrics, derived reports.

One instrumented run — Wilson-Dslash sweeps, a CGNE solve through the
unified entry, and a fault-tolerant solve that survives an injected
bit flip — produces every observability artifact the layer offers:

1. nested spans in the trace ring buffer, exported as JSONL and as a
   Chrome ``about://tracing`` file,
2. the metrics registry (solver counters, plan stage counts, perf
   cache tallies) exported in Prometheus textfile format,
3. the roofline report locating the Wilson operator by achieved
   GFLOP/s, GB/s and arithmetic intensity, and
4. the convergence report: residual trajectories plus the FT events
   that fired inside each solve.

Telemetry observes — the solves below are bit-identical to running
with it off.  Artifacts land in the working directory; render them
offline with ``python tools/teleview.py telemetry_demo.spans.jsonl``.

Usage::

    python examples/telemetry_demo.py
"""

import repro.engine as engine
import repro.telemetry as telemetry
from repro.grid.cartesian import GridCartesian
from repro.grid.random import random_gauge, random_spinor
from repro.grid.solver import conjugate_gradient
from repro.grid.wilson import WilsonDirac
from repro.resilience import FaultCampaign, FaultGuard, flip_field_bit
from repro.simd import get_backend

DIMS = [4, 4, 4, 4]


def main() -> None:
    grid = GridCartesian(DIMS, get_backend("generic256"))
    w = WilsonDirac(random_gauge(grid, seed=11), mass=0.3)
    b = random_spinor(grid, seed=5)

    engine.reset_all()
    with engine.scope(telemetry="trace"):
        # 1. Raw operator sweeps: each dhop records one span stamped
        #    with sites, flops/byte metadata and the backend.
        psi = b
        for _ in range(8):
            psi = w.dhop(psi)

        # 2. A solve through the unified entry: the "solve_fermion"
        #    envelope carries the operator name; the CG recursion
        #    inside records its own "solve" span with the residual
        #    trajectory.
        engine.solve_fermion(w, b, method="cg", tol=1e-8, max_iter=300)

        # 3. A fault-tolerant solve with one injected SDC: the drift
        #    detection and checkpoint restart show up as ft.* events
        #    inside the solve's span window.
        campaign = FaultCampaign(seed=3, name="demo")
        fired = {"done": False}

        def op(v):
            out = w.mdag_m(v)
            if not fired["done"] and campaign.rng.random() < 0.2:
                flip_field_bit(out, campaign, name="mdag_m(v)")
                fired["done"] = True
            return out

        ft = conjugate_gradient(op, b, tol=1e-8, max_iter=400,
                                guard=FaultGuard(campaign=campaign,
                                                 recompute_interval=5))
        print(f"FT solve: converged={ft.converged} in "
              f"{ft.iterations} iterations, {ft.restarts} restart(s), "
              f"campaign fired={campaign.fired}")

    spans = telemetry.drain_spans()

    print(f"\nrecorded {len(spans)} spans")
    print("\n# roofline")
    print(telemetry.roofline_table(spans))
    print("\n# convergence")
    print(telemetry.convergence_table(spans))

    n = telemetry.write_jsonl(spans, "telemetry_demo.spans.jsonl")
    telemetry.write_chrome_trace(spans, "telemetry_demo.trace.json")
    telemetry.write_prometheus(telemetry.registry(),
                               "telemetry_demo.prom")
    print(f"\nartifacts: telemetry_demo.spans.jsonl ({n} spans), "
          f"telemetry_demo.trace.json, telemetry_demo.prom")

    snap = telemetry.snapshot()
    print(f"solve.calls={snap['solve.calls']} "
          f"solve.iterations={snap['solve.iterations']} "
          f"fault.fired={snap.get('fault.fired', 0)}")

    # Smoke checks so CI fails loudly if instrumentation regresses.
    assert any(s.name == "dhop" for s in spans)
    assert any(s.name == "solve" for s in spans)
    assert any(s.name == "solve_fermion" for s in spans)
    assert snap["solve.calls"] >= 1

    engine.reset_all()
    assert len(telemetry.buffer()) == 0


if __name__ == "__main__":
    main()
