"""The machine reproduces a fixture recorded from an earlier interpreter.

``machine_golden.json`` was written by ``make_machine_golden.py`` (next
to this file) from the instruction-at-a-time interpreter that preceded
the decode-once machine.  Every cell — program x vector length x trip
count x toolchain — must come out identical: output and final register
state, retired stream and histograms (in first-retired order), fired
faults and the number of memory reads.
"""

import importlib.util
import json
import os

import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "make_machine_golden", os.path.join(_HERE, "make_machine_golden.py"))
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.fixture(scope="module")
def expected():
    with open(golden.FIXTURE) as f:
        return json.load(f)


def test_corpus_matches_fixture_keys(expected):
    assert [key for key, *_ in golden.cells()] == list(expected)


def test_every_cell_reproduces(expected):
    bad = []
    for key, prog, kernel, vl_bits, n, tc in golden.cells():
        want = expected[key]
        if want == "=":
            want = expected[key.replace(tc, "pristine")]
        got = golden.run_cell(prog, kernel, vl_bits, n, tc)
        if got != want:
            bad.append(f"{key}\n  want {want}\n  got  {got}")
    assert not bad, f"{len(bad)} cells differ:\n" + "\n".join(bad[:5])
