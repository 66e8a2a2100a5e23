"""The benchmark's tracer and counters still find every name they patch.

bench/tracer.py and bench/worker.py wrap library functions by attribute
name; a library change that removes one of them would otherwise surface
only in a traced benchmark run.
"""

import os
import subprocess
import sys

from mmdg import harness
from mmdg.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTALL_HOOKS = """
from mmdg import harness
from tracer import Tracer
from worker import _install_counters

Tracer().install()
_install_counters(harness, {})
"""


def test_bench_hooks_install():
    path = os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "bench"))
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL_HOOKS],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_bench_counters_count_driver_work(monkeypatch):
    # bench/worker.py counts dof_updates by wrapping harness.run_fixed_steps
    # and harness.energy_history; a driver that reached either through a
    # local name would bypass the wrapper and read zero work
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    from worker import _install_counters

    for attr in ("run_fixed_steps", "energy_history"):
        monkeypatch.setattr(harness, attr, getattr(harness, attr))  # restored after
    counts = {"cell_steps_advanced": 0, "cell_steps_probed": 0}
    _install_counters(harness, counts)
    assert main("stability-scan --k 0 --cells 8 --eps 1 --tmax 0.05".split()) == 0
    assert main("converge --k 1 --cells 4,8,16 --eps 0.5 --tmax 0.01".split()) == 0
    spec = harness.ExperimentSpec(mode="converge", cells=(4, 8, 16), eps=(0.5,), tmax=0.01)
    levels, reference = harness._convergence_levels(spec, 0.5, [4, 8, 16])
    runs = levels + [reference]
    assert counts["cell_steps_advanced"] == sum(c.mesh.n_cells * n for c, n in runs)
    assert counts["cell_steps_probed"] > 0
