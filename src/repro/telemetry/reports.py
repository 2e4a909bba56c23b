"""Derived reports: roofline/arithmetic-intensity and solver convergence.

The raw artifacts (spans, metrics) answer "what happened when"; these
reports answer the two questions the ROADMAP actually asks:

* **Roofline** — per (operator, backend): achieved GFLOP/s, achieved
  GB/s and arithmetic intensity (flops/byte), from the
  ``flops_per_site`` / ``bytes_per_site`` metadata the instrumented
  operators stamp onto their spans plus the measured wall time.  This
  is the Grid-style per-kernel performance monitor (Boyle et al.,
  arXiv:1512.03487) in report form: it locates each operator on the
  roofline so the next perf PR knows whether it is compute- or
  bandwidth-bound.
* **Convergence** — per solve span: residual-vs-iteration series,
  iteration count, convergence flag, and the fault-tolerance events
  (restarts, rollbacks, detected faults) that fired while the solve
  was open.

Both consume plain :class:`~repro.telemetry.trace.Span` lists — live
from :func:`repro.telemetry.spans` or reloaded from a JSONL artifact —
so ``tools/teleview.py`` renders the same report offline that a test
checks in-process.
"""

from __future__ import annotations

import functools
from typing import Iterable, List

from repro.telemetry.trace import Span, span, tracing

#: Span names carrying operator flop/byte metadata.
OPERATOR_SPAN_NAMES = ("dhop", "dhop.cb")

#: Span names marking one solver *recursion* (one convergence row).
#: The unified entry :func:`repro.engine.solve.solve_fermion` wraps
#: its dispatch in a ``"solve_fermion"`` envelope span instead — it
#: carries the operator name, which the report resolves through the
#: parent link, without duplicating the recursion's row.
SOLVE_SPAN_NAMES = ("solve",)

#: Instant-event names counted as fault-tolerance activity.
FT_EVENT_NAMES = (
    "ft.restart", "ft.rollback", "ft.recompute",
    "fault.fired", "fault.detected", "fault.recovered",
)

#: Merged rank-worker span names (see :mod:`repro.telemetry.merge`):
#: the whole command round, the block sweep's compute (one span per
#: round; the wire codec runs before it, as ``rank.wire``), and
#: mailbox-arrival waits.
RANK_ROUND_SPAN = "rank.round"
RANK_COMPUTE_SPAN_NAMES = ("rank.sweep",)
RANK_WAIT_SPAN_NAMES = ("rank.mailbox_wait",)


def convergence_attrs(result) -> dict:
    """The solver-result fields :func:`convergence_from_spans`
    consumes, as JSON-serialisable span attributes.

    Works on every result family — ``SolverResult``, the FT
    extensions (``restarts``) and ``MixedPrecisionResult``
    (``iterations`` is its inner total) — reading only by ``getattr``
    so it never constrains the result types.
    """
    out = {
        "iterations": int(getattr(result, "iterations", 0) or 0),
        "converged": bool(getattr(result, "converged", False)),
        "residuals": [
            float(r) for r in getattr(result, "residual_history", []) or []
        ],
    }
    residual = getattr(result, "residual", None)
    if residual is not None:
        out["final_residual"] = float(residual)
    restarts = getattr(result, "restarts", None)
    if restarts is not None:
        out["restarts"] = int(restarts)
    breakdown = getattr(result, "breakdown", "")
    if breakdown:
        out["breakdown"] = str(breakdown)
    return out


def traced_solver(label: str):
    """Decorator wrapping one Krylov recursion in a ``"solve"`` span.

    The fast path (tracing off) is a single resolved-policy flag check
    before tail-calling the recursion — the overhead test counts Span
    constructions to pin this.  With tracing on, the recursion runs
    inside the span and its convergence record
    (:func:`convergence_attrs`) is stamped onto the span *after* the
    recursion returns, so telemetry can never perturb the iteration.
    A run given a fault ``guard`` is labelled ``"<label>-ft"``.
    """
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracing():
                return fn(*args, **kwargs)
            solver = label if kwargs.get("guard") is None \
                else f"{label}-ft"
            with span("solve", solver=solver) as sp:
                result = fn(*args, **kwargs)
                sp.attrs.update(convergence_attrs(result))
                return result
        return wrapper
    return deco


def host_fingerprint() -> dict:
    """The host a trace's rates were measured on: Python, numpy, the
    machine, the CPUs the process may run on, and per complex dtype the
    fused Wilson hops' arithmetic (:func:`repro.perf.native.status`):
    the ``kernel`` that runs (``native``/``reference``, with the
    ``reason`` where it is the reference), the contraction ``key`` of
    numpy's complex multiply, the SIMD ``target`` numpy dispatches it
    to, and the ``compiler`` and ``flags`` of the compiled hop.
    Loads the compiled hop if no hop has yet."""
    import os
    import platform

    import numpy as np

    from repro.perf import native

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        cpus = os.cpu_count() or 1
    hop = {}
    for dtype in (np.complex64, np.complex128):
        state = native.status(dtype)
        hop[np.dtype(dtype).name] = {k: state[k] for k in (
            "kernel", "reason", "key", "target", "compiler", "flags")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": cpus,
        "hop": hop,
    }


def host_table(host: dict) -> str:
    """:func:`host_fingerprint` as aligned plain text."""
    lines = [f"python {host['python']}, numpy {host['numpy']}, "
             f"{host['machine']}, {host['cpus']} CPU(s)"]
    rows = [[dtype, h["kernel"], h["key"], h["target"], h["compiler"],
             h["flags"] if h["kernel"] == "native" else h["reason"]]
            for dtype, h in host["hop"].items()]
    lines.append(_table(["dhop.cb", "kernel", "key", "numpy target",
                         "compiler", "flags / reason"], rows))
    return "\n".join(lines)


def roofline_from_spans(spans: Iterable[Span]) -> List[dict]:
    """Aggregate operator spans into one roofline row per
    (operator span name, backend).

    Each row:  ``op``, ``backend``, ``calls``, ``seconds``, ``sites``
    (sites processed across all calls), ``flops`` / ``bytes`` totals,
    ``gflops`` / ``gbytes_per_s`` achieved rates, and ``intensity``
    (flops per byte — a pure ratio of the per-site metadata, so it is
    exact regardless of timer noise).
    """
    acc: dict = {}
    for s in spans:
        if s.name not in OPERATOR_SPAN_NAMES:
            continue
        a = s.attrs
        if "flops_per_site" not in a or "sites" not in a:
            continue
        key = (s.name, a.get("backend", "?"))
        row = acc.setdefault(key, {
            "op": s.name,
            "backend": a.get("backend", "?"),
            "calls": 0,
            "seconds": 0.0,
            "sites": 0,
            "flops": 0,
            "bytes": 0,
        })
        sites = int(a["sites"])
        row["calls"] += 1
        row["seconds"] += s.duration
        row["sites"] += sites
        row["flops"] += sites * int(a["flops_per_site"])
        row["bytes"] += sites * int(a.get("bytes_per_site", 0))
    out = []
    for key in sorted(acc):
        row = acc[key]
        secs = row["seconds"]
        row["gflops"] = (row["flops"] / secs / 1e9) if secs > 0 else 0.0
        row["gbytes_per_s"] = (
            (row["bytes"] / secs / 1e9) if secs > 0 else 0.0
        )
        row["intensity"] = (
            row["flops"] / row["bytes"] if row["bytes"] else 0.0
        )
        out.append(row)
    return out


def convergence_from_spans(spans: Iterable[Span]) -> List[dict]:
    """One convergence row per solve span.

    Each row: ``solver``, ``operator``, ``iterations``, ``converged``,
    ``final_residual``, ``residuals`` (the residual-vs-iteration
    series the solver recorded), and ``ft_events`` — a name -> count
    map of the fault-tolerance events that fired *inside* the solve's
    time window on the same recorded data.

    The recursions do not know which fermion operator they invert (a
    CG span sees only a callable), so ``operator`` is resolved by
    walking the parent links up to the nearest enclosing span that
    carries an ``operator`` attribute — the ``"solve_fermion"``
    envelope of the unified entry.
    """
    spans = list(spans)
    by_id = {s.span_id: s for s in spans if s.span_id}
    solves = [s for s in spans if s.name in SOLVE_SPAN_NAMES]
    ft_events = [s for s in spans if s.name in FT_EVENT_NAMES]
    out = []
    for s in solves:
        inside: dict = {}
        for ev in ft_events:
            if s.t0 <= ev.t0 <= s.t1:
                inside[ev.name] = inside.get(ev.name, 0) + 1
        a = s.attrs
        residuals = list(a.get("residuals", ()))
        operator = a.get("operator")
        parent = by_id.get(s.parent_id)
        while operator is None and parent is not None:
            operator = parent.attrs.get("operator")
            parent = by_id.get(parent.parent_id)
        out.append({
            "solver": a.get("solver", "?"),
            "operator": operator if operator is not None else "?",
            "iterations": a.get("iterations", len(residuals)),
            "converged": a.get("converged"),
            "final_residual": (
                a.get("final_residual",
                      residuals[-1] if residuals else None)
            ),
            "residuals": residuals,
            "seconds": s.duration,
            "ft_events": inside,
        })
    return out


def imbalance_from_spans(spans: Iterable[Span]) -> List[dict]:
    """One load-imbalance row per merged lockstep round.

    Consumes the rank spans the merge layer lands in the timeline
    (``rank.round`` / ``rank.sweep`` / ``rank.mailbox_wait``, each
    tagged ``rank`` and ``round``) and answers the scaling question
    per round: how evenly did the ranks work, how long did each sit
    waiting on halos, and which rank set the round's critical path.

    Each row: ``round``, ``nranks``, per-rank ``walls`` / ``compute``
    / ``wait`` maps, ``slowest_rank`` (longest round wall — the
    straggler every other rank lockstepped behind), ``compute_spread``
    (max/min rank compute, 1.0 = perfectly balanced), ``wait_skew``
    (max − min mailbox wait, seconds).  A rank that reported no spans
    in a round simply has no entry in the maps — missing, not zero.
    """
    rounds: dict = {}
    for s in spans:
        rank = s.attrs.get("rank")
        rnd = s.attrs.get("round")
        if rank is None or rnd is None:
            continue
        row = rounds.setdefault(rnd, {})
        per = row.setdefault(rank, {"wall": 0.0, "compute": 0.0,
                                    "wait": 0.0})
        if s.name == RANK_ROUND_SPAN:
            per["wall"] += s.duration
        elif s.name in RANK_COMPUTE_SPAN_NAMES:
            per["compute"] += s.duration
        elif s.name in RANK_WAIT_SPAN_NAMES:
            per["wait"] += s.duration
    out = []
    for rnd in sorted(rounds):
        per = rounds[rnd]
        walls = {r: v["wall"] for r, v in per.items() if v["wall"] > 0}
        compute = {r: v["compute"] for r, v in per.items()
                   if v["compute"] > 0}
        waits = {r: v["wait"] for r, v in per.items()}
        slowest = (max(walls, key=walls.get) if walls
                   else max(compute, key=compute.get) if compute
                   else None)
        spread = (max(compute.values()) / min(compute.values())
                  if compute and min(compute.values()) > 0 else 0.0)
        skew = ((max(waits.values()) - min(waits.values()))
                if waits else 0.0)
        out.append({
            "round": rnd,
            "nranks": len(per),
            "walls": walls,
            "compute": compute,
            "wait": waits,
            "slowest_rank": slowest,
            "compute_spread": spread,
            "wait_skew": skew,
        })
    return out


def imbalance_summary(spans: Iterable[Span]) -> dict:
    """Aggregate imbalance attribution across every merged round.

    ``slowest_rank`` is the rank that set the critical path in the
    most rounds (ties broken toward the lower rank id for a
    deterministic report); ``slowest_rounds`` counts how often.
    """
    rows = imbalance_from_spans(spans)
    tally: dict = {}
    compute: dict = {}
    wait: dict = {}
    for row in rows:
        if row["slowest_rank"] is not None:
            tally[row["slowest_rank"]] = (
                tally.get(row["slowest_rank"], 0) + 1)
        for r, v in row["compute"].items():
            compute[r] = compute.get(r, 0.0) + v
        for r, v in row["wait"].items():
            wait[r] = wait.get(r, 0.0) + v
    slowest = (min((r for r in tally
                    if tally[r] == max(tally.values()))) if tally
               else None)
    return {
        "rounds": len(rows),
        "ranks": sorted(set(compute) | set(wait)),
        "slowest_rank": slowest,
        "slowest_rounds": tally.get(slowest, 0),
        "compute_seconds": compute,
        "wait_seconds": wait,
    }


# ----------------------------------------------------------------------
# Plain-text rendering (shared by tools/teleview.py and the examples)
# ----------------------------------------------------------------------
def _fmt(value, width: int) -> str:
    if isinstance(value, float):
        text = f"{value:.4g}"
    else:
        text = str(value)
    return text.rjust(width)


def _table(headers: list, rows: list) -> str:
    cols = [
        max(len(str(h)), *(len(_fmt(r[i], 0).strip()) for r in rows))
        if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(str(h).rjust(w) for h, w in zip(headers, cols)),
        "  ".join("-" * w for w in cols),
    ]
    for r in rows:
        lines.append(
            "  ".join(_fmt(v, w) for v, w in zip(r, cols))
        )
    return "\n".join(lines)


def roofline_table(spans: Iterable[Span]) -> str:
    """The roofline report as an aligned plain-text table."""
    rows = roofline_from_spans(spans)
    if not rows:
        return "(no operator spans with flop/byte metadata)"
    headers = ["op", "backend", "calls", "seconds", "GF/s", "GB/s",
               "flops/byte"]
    body = [
        [r["op"], r["backend"], r["calls"], r["seconds"], r["gflops"],
         r["gbytes_per_s"], r["intensity"]]
        for r in rows
    ]
    return _table(headers, body)


def imbalance_table(spans: Iterable[Span]) -> str:
    """The load-imbalance report as an aligned plain-text table,
    footed by the cross-round slowest-rank attribution."""
    rows = imbalance_from_spans(spans)
    if not rows:
        return "(no merged rank spans — run under " \
               "engine.scope(transport=\"shmem\", telemetry=\"trace\"))"
    headers = ["round", "ranks", "slowest", "wall_max_s",
               "compute_spread", "wait_skew_s"]
    body = []
    for r in rows:
        wall_max = max(r["walls"].values()) if r["walls"] else 0.0
        body.append([
            r["round"], r["nranks"],
            "-" if r["slowest_rank"] is None
            else f"rank {r['slowest_rank']}",
            wall_max, r["compute_spread"], r["wait_skew"],
        ])
    summary = imbalance_summary(spans)
    foot = [
        "",
        f"slowest rank: {summary['slowest_rank']} "
        f"(critical path in {summary['slowest_rounds']} of "
        f"{summary['rounds']} rounds)",
    ]
    for rank in summary["ranks"]:
        foot.append(
            f"  rank {rank}: compute "
            f"{summary['compute_seconds'].get(rank, 0.0):.6f}s, "
            f"halo wait {summary['wait_seconds'].get(rank, 0.0):.6f}s"
        )
    return _table(headers, body) + "\n" + "\n".join(foot)


def convergence_table(spans: Iterable[Span]) -> str:
    """The convergence report as an aligned plain-text table."""
    rows = convergence_from_spans(spans)
    if not rows:
        return "(no solve spans)"
    headers = ["solver", "operator", "iters", "converged", "final_res",
               "seconds", "ft_events"]
    body = []
    for r in rows:
        ft = ",".join(
            f"{k}x{v}" for k, v in sorted(r["ft_events"].items())
        ) or "-"
        body.append([
            r["solver"], r["operator"], r["iterations"],
            r["converged"], r["final_residual"], r["seconds"], ft,
        ])
    return _table(headers, body)
