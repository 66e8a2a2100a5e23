"""The benchmark's tracer and counters still find every name they patch.

bench/tracer.py and bench/worker.py wrap library functions by attribute
name; a library change that removes one of them would otherwise surface
only in a traced benchmark run.
"""

import os
import subprocess
import sys

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
