"""Fault-injection campaign report: detection and recovery rates.

Runs the seeded fault campaign (comms faults, memory/field SDC,
toolchain predicate defects, backend crashes, disk faults, a crash
mid-solve) twice — resilience armed and exposed — and reports the
{fault x VL} outcome matrices plus the headline rates.  The contract:
armed there are zero silent corruptions; exposed the same seeds
corrupt silently.
"""

import pytest

from repro.bench.tables import Table
from repro.scenarios import run_campaign
from repro.verification import OUTCOMES

VLS = (256, 1024)
SEED = 0


@pytest.fixture(scope="module")
def matrices():
    return {armed: run_campaign(seed=SEED, armed=armed, vls=VLS)
            for armed in (True, False)}


def _fired(m) -> int:
    return sum(c.fired for c in m.cells.values())


def test_outcome_matrices(show, matrices):
    for armed in (True, False):
        show(matrices[armed].format_table(
            "fault", "vl",
            title="resilience ON" if armed else "resilience OFF"))


def test_rates_report(show, matrices):
    table = Table(
        ["campaign", "cells", "faults", "detection", "recovery",
         "silent corruptions"],
        title=f"Fault campaign (seed {SEED}, VLs {VLS})",
        align=["l", "r", "r", "r", "r", "r"],
    )
    for armed in (True, False):
        m = matrices[armed]
        detection, recovery = m.fault_rates()
        table.add(
            "resilience ON" if armed else "resilience OFF",
            len(m.cells),
            _fired(m),
            f"{detection:.0%}",
            f"{recovery:.0%}",
            m.counts()["fail"],
        )
    show(table)
    on, off = matrices[True], matrices[False]
    assert on.failures() == []
    assert on.counts()["recovered"] >= 1
    assert on.counts()["detected"] >= 1
    assert off.counts()["fail"] >= 1
    assert on.fault_rates()[0] > off.fault_rates()[0]
    assert on.fault_rates()[1] > off.fault_rates()[1]


def test_outcomes_are_classified(matrices):
    legal = {o.value for o in OUTCOMES}
    for m in matrices.values():
        assert all(c.status in legal for c in m.cells.values())
        assert len(m.cells) > 0


def test_campaign_is_reproducible():
    a = run_campaign(seed=SEED, armed=True, vls=(256,))
    b = run_campaign(seed=SEED, armed=True, vls=(256,))
    assert [c.status for c in a.cells.values()] == \
        [c.status for c in b.cells.values()]
    assert [c.fired for c in a.cells.values()] == \
        [c.fired for c in b.cells.values()]


def test_campaign_benchmark(benchmark):
    m = benchmark.pedantic(
        run_campaign, kwargs=dict(seed=SEED, armed=True, vls=(256,)),
        iterations=1, rounds=1,
    )
    assert m.failures() == []
