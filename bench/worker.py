"""One benchmark process: import mmdg, then optionally run one CLI invocation.

    python3 bench/worker.py SPAWN_TIME setup
    python3 bench/worker.py SPAWN_TIME run ARGV_JSON [SPANS_PATH]

SPAWN_TIME is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so setup_s covers
interpreter start-up and the imports of numpy and mmdg.  The run is
bracketed by the kernel of calibrate.py; calib_s holds its two timings.
With SPANS_PATH the run is traced and its spans are
written there at the end.  The last stdout line is a JSON object with the
measurements.
"""

import json
import resource
import sys
import time


def _versions(numpy):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _install_counters(harness, counts):
    """Count cell-steps of the compiled stepper; these wrappers run a few
    hundred times per workload at most, so untraced timings stay clean."""
    run_fixed_steps = harness.run_fixed_steps
    energy_history = harness.energy_history

    def counted_run_fixed_steps(config, state, n_steps):
        counts["cell_steps_advanced"] += config.mesh.n_cells * n_steps
        return run_fixed_steps(config, state, n_steps)

    def counted_energy_history(config, state, n_steps, stop_factor=None):
        energies, ok = energy_history(config, state, n_steps, stop_factor)
        counts["cell_steps_probed"] += config.mesh.n_cells * (len(energies) - 1)
        return energies, ok

    harness.run_fixed_steps = counted_run_fixed_steps
    harness.energy_history = counted_energy_history


def main():
    spawned = float(sys.argv[1])
    import numpy
    import mmdg.cli
    from mmdg import harness

    result = {"setup_s": time.monotonic() - spawned}
    if sys.argv[2] == "setup":
        result["versions"] = _versions(numpy)
    else:
        from calibrate import calibrate

        argv = json.loads(sys.argv[3])
        spans_path = sys.argv[4] if len(sys.argv) > 4 else None
        counts = {"cell_steps_advanced": 0, "cell_steps_probed": 0}
        _install_counters(harness, counts)
        cli_main = mmdg.cli.main
        tracer = None
        if spans_path:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            cli_main = tracer.wrap("cli.main", cli_main)
        before = calibrate()
        start = time.perf_counter()
        result["rc"] = cli_main(argv)
        result["wall_s"] = time.perf_counter() - start
        result["calib_s"] = [before, calibrate()]
        result["counts"] = counts
        if tracer:
            tracer.write(spans_path)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
