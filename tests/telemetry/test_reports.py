"""Derived reports: roofline arithmetic against hand-computed Wilson
numbers, convergence rows with parent-resolved operator names and
windowed FT events, and the ``traced_solver`` wrapper."""

import numpy as np

import repro.engine as engine
import repro.telemetry as telemetry
from repro.grid.cartesian import GridCartesian
from repro.grid.comms import DistributedLattice
from repro.grid.dist_wilson import DistributedWilson, distribute_gauge
from repro.grid.mixedprec import MixedPrecisionResult
from repro.grid.random import random_gauge, random_spinor
from repro.grid.solver import conjugate_gradient
from repro.grid.stencil import red_black
from repro.grid.wilson import WilsonDirac
from repro.perf import native
from repro.simd import get_backend
from repro.telemetry.reports import (
    OPERATOR_SPAN_NAMES,
    convergence_attrs,
    convergence_from_spans,
    roofline_from_spans,
    traced_solver,
)
from repro.telemetry.trace import Span

#: Hand-computed 4^4 Wilson-Dslash numbers: 256 sites; the canonical
#: 1320 flops/site (Grid's accounting for the 8-direction
#: project/SU(3)/reconstruct sweep); per-site traffic = 8 neighbour
#: spinor reads x 12 + 8 link reads x 9 + 1 spinor write x 12 = 180
#: complex128 values x 16 bytes = 2880 bytes.
SITES = 256
FLOPS_PER_SITE = 1320
BYTES_PER_SITE = 2880


def _dhop_span(seconds=0.5, backend="generic256"):
    return Span(
        name="dhop", t0=1.0, t1=1.0 + seconds, span_id=1,
        thread="MainThread",
        attrs={
            "sites": SITES,
            "flops_per_site": FLOPS_PER_SITE,
            "bytes_per_site": BYTES_PER_SITE,
            "backend": backend,
        },
    )


class TestRooflineMath:
    def test_hand_computed_wilson_row(self):
        (row,) = roofline_from_spans([_dhop_span(seconds=0.5)])
        assert row["op"] == "dhop"
        assert row["backend"] == "generic256"
        assert row["calls"] == 1
        assert row["sites"] == SITES
        assert row["flops"] == SITES * FLOPS_PER_SITE  # 337 920
        assert row["bytes"] == SITES * BYTES_PER_SITE  # 737 280
        assert abs(row["gflops"] - 337920 / 0.5 / 1e9) < 1e-12
        assert abs(row["gbytes_per_s"] - 737280 / 0.5 / 1e9) < 1e-12
        assert abs(row["intensity"] - FLOPS_PER_SITE / BYTES_PER_SITE) < 1e-12

    def test_rows_aggregate_per_operator_and_backend(self):
        spans = [
            _dhop_span(), _dhop_span(),
            _dhop_span(backend="generic512"),
        ]
        rows = roofline_from_spans(spans)
        assert [(r["backend"], r["calls"]) for r in rows] == [
            ("generic256", 2), ("generic512", 1),
        ]
        assert rows[0]["sites"] == 2 * SITES

    def test_spans_without_metadata_are_skipped(self):
        bare = Span(name="dhop", t0=0.0, t1=1.0, attrs={})
        assert roofline_from_spans([bare]) == []

    def test_live_dhop_span_matches_operator_metadata(self):
        grid = GridCartesian([4, 4, 4, 4], get_backend("generic256"))
        w = WilsonDirac(random_gauge(grid, seed=11), mass=0.3)
        psi = random_spinor(grid, seed=5)
        with engine.scope(telemetry="trace"):
            w.dhop(psi)
        (row,) = roofline_from_spans(telemetry.drain_spans())
        assert row["sites"] == SITES
        assert row["flops"] == SITES * w.flops_per_site()
        assert row["bytes"] == SITES * w.bytes_per_site()
        assert abs(row["intensity"] - FLOPS_PER_SITE / BYTES_PER_SITE) < 1e-12

    def test_operator_span_names_are_the_emitted_hops(self):
        """Each traced hop — full, checkerboard, distributed — emits a
        span the roofline report reads, and every name the report
        reads is emitted by one of them."""
        dims = [4, 4, 4, 4]
        be = get_backend("generic256")
        grid = GridCartesian(dims, be)
        links = random_gauge(grid, seed=11)
        psi = random_spinor(grid, seed=5)
        w = WilsonDirac(links, mass=0.3)
        dist = DistributedWilson(distribute_gauge(links, dims, be,
                                                  [2, 1, 1, 1]), mass=0.3)
        dpsi = DistributedLattice(dims, be, [2, 1, 1, 1], (4, 3)).scatter(
            psi.to_canonical())
        emitted = set()
        for hop in (lambda: w.dhop(psi),
                    lambda: w.dhop_cb(red_black(grid, "even").pick(psi)),
                    lambda: dist.dhop(dpsi)):
            telemetry.drain_spans()
            with engine.scope(telemetry="trace"):
                hop()
            spans = [s for s in telemetry.drain_spans()
                     if s.name in OPERATOR_SPAN_NAMES]
            assert len(spans) == 1
            assert {"flops_per_site", "bytes_per_site"} <= set(spans[0].attrs)
            emitted.add(spans[0].name)
            if spans[0].name == "dhop.cb":
                assert spans[0].attrs["kernel"] in ("native", "reference")
                assert spans[0].attrs["contraction"] == \
                    native.contraction_key(grid.dtype)
        assert emitted == set(OPERATOR_SPAN_NAMES)


class TestHostFingerprint:
    def test_records_the_hops_arithmetic(self):
        """Per complex dtype: the kernel that runs, numpy's contraction
        key and multiply target, the compiler and the flags."""
        host = telemetry.host_fingerprint()
        assert host["cpus"] >= 1
        assert set(host["hop"]) == {"complex64", "complex128"}
        for name, hop in host["hop"].items():
            state = native.status(np.dtype(name))
            assert hop["key"] == native.contraction_key(np.dtype(name))
            assert hop["target"] == native.multiply_target(np.dtype(name))
            assert hop["kernel"] == state["kernel"]
            assert hop["compiler"] == state["compiler"]
            assert hop["flags"] == state["flags"]
        text = telemetry.host_table(host)
        assert "complex64" in text and host["numpy"] in text


class TestConvergenceReport:
    def _solve_span(self, span_id=10, parent_id=0, **attrs):
        base = {
            "solver": "cg", "iterations": 3, "converged": True,
            "residuals": [1.0, 0.1, 0.01, 0.001],
            "final_residual": 1e-3,
        }
        base.update(attrs)
        return Span(name="solve", t0=10.0, t1=20.0, span_id=span_id,
                    parent_id=parent_id, attrs=base)

    def test_row_fields(self):
        (row,) = convergence_from_spans([self._solve_span()])
        assert row["solver"] == "cg"
        assert row["iterations"] == 3
        assert row["converged"] is True
        assert row["final_residual"] == 1e-3
        assert row["residuals"] == [1.0, 0.1, 0.01, 0.001]
        assert abs(row["seconds"] - 10.0) < 1e-12

    def test_operator_resolved_through_parent_envelope(self):
        envelope = Span(name="solve_fermion", t0=9.0, t1=21.0,
                        span_id=5, attrs={"operator": "WilsonDirac",
                                          "solver": "cg"})
        solve = self._solve_span(parent_id=5)
        (row,) = convergence_from_spans([envelope, solve])
        assert row["operator"] == "WilsonDirac"
        # The envelope itself contributes no duplicate row.
        assert len(convergence_from_spans([envelope, solve])) == 1

    def test_operator_unknown_without_envelope(self):
        (row,) = convergence_from_spans([self._solve_span()])
        assert row["operator"] == "?"

    def test_ft_events_counted_only_inside_the_window(self):
        def ev(name, t):
            return Span(name=name, t0=t, t1=t, span_id=90 + int(t))

        spans = [
            self._solve_span(),          # window [10, 20]
            ev("ft.restart", 12.0),      # inside
            ev("fault.fired", 15.0),     # inside
            ev("fault.fired", 19.0),     # inside
            ev("ft.restart", 25.0),      # outside
            ev("fault.detected", 5.0),   # outside
        ]
        (row,) = convergence_from_spans(spans)
        assert row["ft_events"] == {"ft.restart": 1, "fault.fired": 2}


class TestConvergenceAttrs:
    def test_mixed_precision_result_reports_inner_total(self):
        result = MixedPrecisionResult(
            x=None, converged=True, outer_iterations=2,
            inner_iterations_total=43, residual=1e-10,
            residual_history=[1.0, 1e-5, 1e-10])
        attrs = convergence_attrs(result)
        assert attrs["iterations"] == 43
        assert attrs["residuals"] == [1.0, 1e-5, 1e-10]
        assert "restarts" not in attrs
        assert "breakdown" not in attrs

    def test_ft_result_reports_restarts(self):
        class FTResult:
            iterations = 9
            converged = True
            residual = 1e-8
            residual_history = [1.0, 1e-8]
            restarts = 2
            breakdown = ""

        assert convergence_attrs(FTResult())["restarts"] == 2


class TestTracedSolver:
    def test_off_records_nothing_and_passes_through(self):
        @traced_solver("toy")
        def solve(x):
            return type("R", (), {"iterations": 1, "converged": True,
                                  "residual": 0.0,
                                  "residual_history": [0.0]})()

        result = solve(3)
        assert result.converged
        assert telemetry.spans() == []

    def test_on_stamps_convergence_attrs(self):
        grid = GridCartesian([4, 4, 4, 4], get_backend("generic256"))
        w = WilsonDirac(random_gauge(grid, seed=11), mass=0.3)
        b = random_spinor(grid, seed=5)
        with engine.scope(telemetry="trace"):
            res = conjugate_gradient(w.mdag_m, b, tol=1e-6, max_iter=200)
        solves = [s for s in telemetry.drain_spans() if s.name == "solve"]
        (sp,) = solves
        assert sp.attrs["solver"] == "cg"
        assert sp.attrs["iterations"] == res.iterations
        assert sp.attrs["converged"] is True
        assert sp.attrs["residuals"] == [
            float(r) for r in res.residual_history
        ]
