"""Benchmark of the mmdg experiment drivers, run through `mmdg.cli.main`.

    python3 bench/run.py --workload march --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and needs only `src/` and numpy.
Every driver run is a fresh `bench/worker.py` process with BLAS/OpenMP
threads pinned to 1.  The run repeats the workload's CLI invocation until
--seconds are spent, checks every output, and prints as its last stdout line
one JSON object: the end-to-end metrics with --trace 0, the per-layer
metrics of one traced repeat with --trace 1.  A fuller record (environment,
seed, argv, every sample) goes to bench/results/.  See bench/README.md.
"""

import argparse
import gzip
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from checks import OUT_NAME, check_output, digest, read_rows
from tracer import LAYER_UNITS, PER_LAYER, layer_metrics, layer_shares
from workloads import WORKLOADS, dof_updates, working_set_bytes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(HERE, "_work")
RESULTS_DIR = os.path.join(HERE, "results")

THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5  # import-only processes per run, besides the driver runs
MIN_REPEATS = 2  # the determinism check compares two runs of one seed
MAX_REPEATS = 100
DEADLINE_S = 170  # whole benchmark process, below the 180 s allowed

# Bounded metrics (BENCHMARK.json).  Each run's wall time is divided by the
# mean time of the reference kernel that brackets it, because the host's
# speed drifts (see calibrate.py).
END_TO_END_UNITS = {
    "wall_rel": "calib",
    "dof_updates_per_calib": "1/calib",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and recorded beside them, in plain seconds.
RAW_UNITS = {"wall_s": "s", "dof_updates_per_s": "1/s", "calib_s": "s"}


class WorkerError(Exception):
    """A worker process exited nonzero, timed out or printed no result."""


def run_worker(args, cwd, timeout):
    env = dict(os.environ, PYTHONPATH=SRC, **THREAD_VARS)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, repr(spawned), *args],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise WorkerError(f"exit code {proc.returncode}: {tail[0]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkerError("no result line") from None


def run_driver(workload, seed, out_dir, timeout, spans_path=None):
    """One driver run in a fresh process; returns its record.

    The record's "problems" list is empty for a run that succeeded: it
    exited 0 and its output passed the workload's checks.
    """
    os.makedirs(out_dir)
    argv = workload.argv(seed, OUT_NAME)
    args = ["run", json.dumps(argv)] + ([spans_path] if spans_path else [])
    record = {"argv": argv, "spans_path": spans_path, "problems": []}
    try:
        record.update(run_worker(args, out_dir, timeout))
    except WorkerError as exc:
        record["problems"].append(str(exc))
        return record
    if record["rc"] != 0:
        record["problems"].append(f"mmdg exit code {record['rc']}")
        return record
    record["problems"] += check_output(out_dir, workload)
    if not record["problems"]:
        rows = read_rows(os.path.join(out_dir, OUT_NAME))
        record["dof_updates"] = dof_updates(workload, record["counts"], rows)
        record["digest"] = digest(out_dir)
    return record


def measure(workload, seed, seconds, trace, work_dir, deadline):
    """Setup probes, then driver runs until `seconds` are spent."""
    start = time.monotonic()
    setups = [run_worker(["setup"], work_dir, deadline - time.monotonic())
              for _ in range(SETUP_PROBES)]
    runs, durations = [], []
    while len(runs) < MAX_REPEATS:
        traced = trace and len(runs) == 1
        out_dir = os.path.join(work_dir, f"rep{len(runs)}")
        spans_path = out_dir + ".spans.json" if traced else None
        t0 = time.monotonic()
        runs.append(run_driver(workload, seed, out_dir, deadline - t0, spans_path))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if deadline - time.monotonic() < statistics.median(durations):
            break
        if len(runs) >= MIN_REPEATS and elapsed + statistics.median(durations) > seconds:
            break
    first = next((r["digest"] for r in runs if "digest" in r), None)
    for r in runs:
        if "digest" in r and r["digest"] != first:
            r["problems"].append("output differs from the first run of this seed")
    return setups, runs


def _read(path):
    with open(path) as fh:
        return fh.read().strip()


def _cache_sizes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    caches = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return caches
    for entry in entries:
        try:
            level, kind, size = (_read(os.path.join(base, entry, f)) for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(versions):
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        **versions,
        "thread_vars": THREAD_VARS,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def summarize(trace, setups, runs):
    """The result line's fields, plus every derived value under "reported".

    "metrics" holds the metrics BENCHMARK.json lists; "reported" adds
    failed_frac and, when traced, the layer times only some workloads have.
    It returns the trace document too (None without a traced success).
    """
    good = [r for r in runs if not r["problems"]]
    plain = [r for r in good if not r["spans_path"]]
    result = {"attempted": len(runs), "failed": len(runs) - len(good)}
    result["correct"] = result["failed"] == 0
    reported = {"failed_frac": (result["failed"] / result["attempted"], "ratio")}
    doc = None
    if trace:
        traced = next((r for r in good if r["spans_path"]), None)
        if traced is None or not plain:
            return result, doc
        with open(traced["spans_path"]) as fh:
            doc = json.load(fh)
        values = layer_metrics(doc, statistics.median([r["wall_s"] for r in plain]))
        units, names = LAYER_UNITS, PER_LAYER
    else:
        if not plain:
            return result, doc
        setup_samples = [s["setup_s"] for s in setups] + [r["setup_s"] for r in runs if "setup_s" in r]
        med = statistics.median
        calib = [statistics.fmean(r["calib_s"]) for r in plain]
        values = {
            "wall_rel": med([r["wall_s"] / c for r, c in zip(plain, calib)]),
            "dof_updates_per_calib": med([r["dof_updates"] / r["wall_s"] * c for r, c in zip(plain, calib)]),
            "setup_s": med(setup_samples),
            "peak_rss_mb": med([r["peak_rss_mb"] for r in plain]),
            "wall_s": med([r["wall_s"] for r in plain]),
            "dof_updates_per_s": med([r["dof_updates"] / r["wall_s"] for r in plain]),
            "calib_s": med(calib),
        }
        units, names = {**END_TO_END_UNITS, **RAW_UNITS}, list(END_TO_END_UNITS)
    result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in names}
    reported.update((k, (values[k], units[k])) for k in units)
    result["reported"] = reported
    return result, doc


def _run_dir(workload, seed):
    return os.path.join(WORK_DIR, f"{workload.name}-seed{seed}-pid{os.getpid()}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "mmdg", "cli.py")):
        print(f"bench: no mmdg sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = _run_dir(workload, args.seed)
    os.makedirs(run_dir)
    try:
        setups, runs = measure(workload, args.seed, args.seconds, args.trace, run_dir, deadline)
        result, doc = summarize(args.trace, setups, runs)
    except WorkerError as exc:
        print(f"bench: setup probe failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env = environment(setups[0]["versions"])
    ws = working_set_bytes(workload)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "working_set_mb_computed": ws / 2**20,
        "setup_samples_s": [s["setup_s"] for s in setups],
        "runs": runs,
        **result,
    }
    if doc is not None:
        shares = layer_shares(doc)
        record["layer_shares"] = shares
        record["dominant_layer"] = max(shares, key=shares.get)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RESULTS_DIR, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if doc is not None:
        spans_file = os.path.join(RESULTS_DIR, f"{workload.name}-spans.json.gz")
        with gzip.open(spans_file, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)

    for r in runs:
        for problem in r["problems"]:
            print(f"# FAILED run: {problem}")
    print(f"# env: {env['cpu_model']}, nproc {env['nproc']}, caches {env['caches']}, "
          f"python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"threads {THREAD_VARS}, commit {env['git_commit']}")
    print(f"# {workload.name} seed {args.seed}: argv {runs[0]['argv']}")
    print(f"# {result['attempted']} driver runs, {result['failed']} failed; working set "
          f"{ws / 2**20:.3g} MB computed vs L3 {env['caches'].get('L3', '?')}")
    if "dominant_layer" in record:
        print(f"# dominant layer {record['dominant_layer']} "
              f"({record['layer_shares'][record['dominant_layer']]:.1%} of cli.main)")
    if "metrics" not in result:
        print("bench: no successful run to measure", file=sys.stderr)
        return 1
    samples = len([r for r in runs if not r["problems"] and not r["spans_path"]])
    print(f"# medians over {samples} untraced runs and {len(setups) + len(runs)} set-ups")
    for name, (value, unit) in result["reported"].items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
