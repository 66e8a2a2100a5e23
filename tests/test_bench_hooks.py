"""The benchmark's tracer and counters still find every name they patch.

bench/tracer.py and bench/worker.py wrap library functions by attribute
name; a library change that removes one of them would otherwise surface
only in a traced benchmark run.
"""

import json
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


TRACE_DRIVERS = """
import json, os, sys
from mmdg.cli import main
from tracer import Tracer, span_totals

tracer = Tracer()
tracer.install()
out = sys.argv[1]
for argv in (
    f"solve --k 0 --cells 8 --eps 1 --tmax 0.01 --out {out}/solve.csv",
    f"converge --k 0 --cells 4,8,16 --eps 0.5 --tmax 0.01 --out {out}/conv.csv",
    f"stability-scan --k 0 --cells 8 --eps 1 --tmax 0.05 --out {out}/scan.csv",
):
    assert main(argv.split()) == 0, argv
totals = span_totals({"names": tracer.names, "spans": tracer.spans})
print(json.dumps({name: total[0] for name, total in totals.items()}))
"""

TRACED_HARNESS_LAYERS = (
    "stencil_build",
    "stencil_apply",
    "propagate",
    "packed_norms",
    "energy_history",
    "is_stable",
    "write_csv",
)


def test_tracer_sees_every_harness_layer(tmp_path):
    # bench/tracer.py wraps these where the drivers look them up; a driver
    # that reached one another way would leave its span count at zero
    path = os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "bench"))
    proc = subprocess.run(
        [sys.executable, "-c", TRACE_DRIVERS, str(tmp_path)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.splitlines()[-1])
    missing = [name for name in TRACED_HARNESS_LAYERS if not calls.get(f"harness.{name}")]
    assert not missing, calls


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
