"""The benchmark's tracer and counters still find every name they patch.

bench/tracer.py and bench/worker.py wrap library functions by attribute
name; a library change that removes one of them would otherwise surface
only in a traced benchmark run.
"""

import json
import os
import subprocess
import sys

from mmdg import harness, scheme, stencil
from mmdg.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTALL_HOOKS = """
from mmdg import harness
from tracer import Tracer
from worker import _install_counters

Tracer().install()
_install_counters(harness, {})
"""


def _run_with_bench(code, *args):
    """Run code in a fresh interpreter that imports mmdg and bench/; return its stdout."""
    path = os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "bench"))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bench_hooks_install():
    _run_with_bench(INSTALL_HOOKS)


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
    calls = json.loads(_run_with_bench(TRACE_DRIVERS, tmp_path).splitlines()[-1])
    missing = [name for name in TRACED_HARNESS_LAYERS if not calls.get(f"harness.{name}")]
    assert not missing, calls
    # converge at eps 0.5 measures against its reference run
    assert calls.get("fields.l2_distance", 0) >= 1, calls


def test_bench_counters_count_driver_work(monkeypatch):
    # bench/worker.py counts dof_updates by wrapping harness.run_fixed_steps
    # and harness.energy_history; a driver that reached either through a
    # local name would bypass the wrapper and read zero work
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    from worker import _install_counters

    for attr in ("run_fixed_steps", "energy_history"):
        monkeypatch.setattr(harness, attr, getattr(harness, attr))  # restored after
    # the spectral marches above dt_stab are the certified ones
    certified, march = [], stencil.LiveSpectrum.march

    def recorded_march(self, *args):
        certified.append(self.config.dt > scheme.stable_dt(self.config))
        return march(self, *args)

    monkeypatch.setattr(stencil.LiveSpectrum, "march", recorded_march)
    counts = {"cell_steps_advanced": 0, "cell_steps_probed": 0}
    _install_counters(harness, counts)
    # bench/worker.py and bench/tracer.py read energy_history's config, state
    # and n_steps as positional arguments 0..2, and its result as (energies, ok)
    probes, counted = [], harness.energy_history

    def recorded(*args, **kw):
        out = counted(*args, **kw)
        probes.append((args, out))
        return out

    harness.energy_history = recorded
    assert main("stability-scan --k 0 --cells 8 --eps 1 --tmax 0.05".split()) == 0
    scan = "stability-scan --model slab --nv 8 --k 1 --cells 128 --eps 1e-2 --tmax 0.05"
    assert main(scan.split()) == 0
    assert main("converge --k 1 --cells 4,8,16 --eps 0.5 --tmax 0.01".split()) == 0
    spec = harness.ExperimentSpec(mode="converge", cells=(4, 8, 16), eps=(0.5,), tmax=0.01)
    levels, reference = harness._convergence_levels(spec, 0.5, [4, 8, 16])
    runs = levels + [reference]
    assert counts["cell_steps_advanced"] == sum(c.mesh.n_cells * n for c, n in runs)
    assert any(certified)
    assert all(len(args) >= 3 and type(out) is tuple and len(out) == 2 for args, out in probes)
    probed = sum(args[0].mesh.n_cells * (len(out[0]) - 1) for args, out in probes)
    assert counts["cell_steps_probed"] == probed > 0


TRACE_CHECKPOINT = """
import json, os, sys
from mmdg.cli import main
from tracer import Tracer

tracer = Tracer()
tracer.install()
out = os.path.join(sys.argv[1], "solve.csv")
assert main(f"solve --k 0 --cells 8 --eps 1 --tmax 0.01 --out {out}".split()) == 0
print(json.dumps([tracer.counts["scheme.save_state.bytes"], os.path.getsize(out + ".state.csv")]))
"""


def test_tracer_reads_the_checkpoint_path(tmp_path):
    # bench/tracer.py sizes the file at scheme.save_state's positional argument 2
    traced, size = json.loads(_run_with_bench(TRACE_CHECKPOINT, tmp_path).splitlines()[-1])
    assert traced == size > 0


def test_every_workload_output_passes_the_bench_checks(monkeypatch, tmp_path):
    # the benchmark marks a run outputs_incorrect when bench/checks.py finds a
    # problem in what it wrote; a format change should fail here first
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    from checks import OUT_NAME, check_output
    from workloads import WORKLOADS

    problems = {}
    for name, workload in WORKLOADS.items():
        out_dir = tmp_path / name
        out_dir.mkdir()
        assert main(workload.argv(1, str(out_dir / OUT_NAME))) == 0, name
        problems[name] = check_output(str(out_dir), workload)
    assert problems == {name: [] for name in WORKLOADS}
