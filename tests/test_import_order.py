"""Each engine and operator module imports cleanly as a process's first
``repro`` import: ``repro.grid``'s package init reaches ``perf/fused.py``
through ``grid/wilson.py``, so a module-level import cycle between them
would fail only for whichever is imported first."""

import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.mark.parametrize("module", ("repro.perf.fused", "repro.perf.parallel",
                                    "repro.grid.wilson",
                                    "repro.grid.dist_wilson"))
def test_first_import(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", f"import {module}"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
