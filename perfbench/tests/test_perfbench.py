"""Smoke tests of the benchmark itself, on small lattices.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run as bench  # noqa: E402
from perfbench import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _tree(*dirs) -> dict:
    """(size, mtime) of every file under ``dirs``."""
    out = {}
    for top in dirs:
        for base, _dirs, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                path = os.path.join(base, name)
                st = os.stat(path)
                out[path] = (st.st_size, st.st_mtime_ns)
    return out


def _scratch_dirs() -> list:
    return [n for n in os.listdir(ROOT) if n.startswith(bench.SCRATCH_PREFIX)]


def _children() -> list:
    """Live child processes of this process (Linux ``/proc``)."""
    me = str(os.getpid())
    kids = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            kids.append(int(pid))
    return kids


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_cli_prints_every_metric_and_writes_no_program_file(name, trace):
    before = _tree("src", "tests")
    proc = _cli("--workload", name, "--seed", str(2 + trace),
                "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert _tree("src", "tests") == before
    assert _scratch_dirs() == []
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0, proc.stdout
    assert out["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in spec)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_changes_inputs(name, tmp_path):
    wl = workloads.make(name, smoke=True)
    a = wl.make_inputs(1, str(tmp_path))
    b = wl.make_inputs(2, str(tmp_path))
    again = wl.make_inputs(2, str(tmp_path))
    if "links" in a:
        assert not np.array_equal(a["links"][0], b["links"][0])
    else:
        assert (a["names"], a["vls"]) != (b["names"], b["vls"])
    if "links" in b:
        assert all(np.array_equal(x, y)
                   for x, y in zip(b["links"], again["links"]))
    else:
        assert (b["names"], b["vls"]) == (again["names"], again["vls"])


@pytest.mark.parametrize("name", ["pion-small", "dist-halo"])
def test_traced_run_matches_untraced(name):
    plain = bench.run(name, seed=5, seconds=0, trace=False, smoke=True)
    traced = bench.run(name, seed=5, seconds=0, trace=True, smoke=True)
    assert plain["correct"] and traced["correct"]
    a = plain["details"]["summaries"][0]
    b = traced["details"]["summaries"][-1]
    assert a["iterations"] == b["iterations"]
    if "corr" in a:
        assert np.array_equal(a["corr"], b["corr"])


def test_leaves_nothing_behind():
    from repro.grid.comms.shmem import live_segments

    tmp_before = set(os.listdir(tempfile.gettempdir()))
    out = bench.run("dist-halo", seed=3, seconds=0, trace=False,
                    smoke=True)
    assert out["correct"]
    assert multiprocessing.active_children() == []
    assert _children() == []
    assert live_segments() == []
    assert _scratch_dirs() == []
    assert set(os.listdir(tempfile.gettempdir())) <= tmp_before


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    proc = _cli("--workload", "pion-small", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
