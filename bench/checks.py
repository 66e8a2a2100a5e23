"""Output checks: each tests what a column means, not frozen bytes.

Every check takes the directory a driver run wrote into and its Workload,
and returns a list of problems (empty when the output is right).
"""

import csv
import hashlib
import math
import os

OUT_NAME = "out.csv"
ROUNDOFF = 1e-12  # zero up to roundoff, for values of order one


def read_rows(path):
    """Rows of a driver CSV as dicts of strings, skipping the spec echo."""
    with open(path, newline="") as fh:
        header = fh.readline()
        if not header.startswith("# "):
            raise ValueError(f"{os.path.basename(path)}: missing spec echo line")
        return list(csv.DictReader(fh))


def _floats(rows, column):
    return [float(r[column]) for r in rows]


def check_solve(out_dir, workload):
    rows = read_rows(os.path.join(out_dir, OUT_NAME))
    problems = []
    if any(r["status"] != "ok" for r in rows):
        problems.append("a row is not 'ok' (diverged)")
    energy = _floats(rows, "energy")
    rises = sum(1 for a, b in zip(energy, energy[1:]) if not b <= a)
    if rises:
        problems.append(f"energy rose (or went non-finite) in {rises} steps")
    mass = _floats(rows, "mass")
    scale = max(1.0, float(rows[0]["rho_norm"]))
    drift = max(abs(m - mass[0]) for m in mass)
    if not drift <= ROUNDOFF * scale:
        problems.append(f"mass drifted by {drift:.3g}")
    if not math.isclose(float(rows[-1]["t"]), workload.tmax, rel_tol=1e-9):
        problems.append(f"final t {rows[-1]['t']} is not tmax")
    problems += _check_checkpoint(
        os.path.join(out_dir, OUT_NAME + ".state.csv"), workload, int(rows[-1]["n"])
    )
    return problems


def _check_checkpoint(path, workload, last_n):
    with open(path, newline="") as fh:
        meta = dict(item.split("=", 1) for item in fh.readline()[2:].strip().split(";"))
        coeffs = list(csv.DictReader(fh))
    problems = []
    if int(meta["n"]) != last_n:
        problems.append(f"checkpoint step {meta['n']} is not the last row's {last_n}")
    expected = workload.cells[0] * workload.block
    if len(coeffs) != expected:
        problems.append(f"checkpoint has {len(coeffs)} coefficient rows, expected {expected}")
    if not all(math.isfinite(float(r["coefficient"])) for r in coeffs):
        problems.append("checkpoint has a non-finite coefficient")
    return problems


def check_converge(out_dir, workload):
    rows = read_rows(os.path.join(out_dir, OUT_NAME))
    problems = []
    if len(rows) != len(workload.cells) * len(workload.eps_nominal):
        problems.append(f"{len(rows)} rows for {len(workload.cells)} levels")
    if any(r["flag"] for r in rows):
        problems.append("a row is flagged")
    target = workload.degree + 1
    for r in rows[1:]:
        order = float(r["order_rho"])
        if not abs(order - target) <= 0.3:
            problems.append(f"order_rho {order:.3f} at N={r['n_cells']} is not near {target}")
    return problems


def check_scan(out_dir, workload):
    rows = read_rows(os.path.join(out_dir, OUT_NAME))
    problems = []
    if len(rows) != len(workload.cells) * len(workload.eps_nominal):
        problems.append(f"{len(rows)} rows for {len(workload.eps_nominal)} eps values")
    for r in rows:
        if r["flag"]:
            problems.append(f"eps={r['eps']} flagged {r['flag']}")
        elif not float(r["ratio"]) >= 1.0:
            problems.append(f"eps={r['eps']} ratio {r['ratio']} below 1")
    return problems


def check_ap_limit(out_dir, workload):
    rows = read_rows(os.path.join(out_dir, OUT_NAME))
    problems = []
    if len(rows) != len(workload.eps_nominal):
        problems.append(f"{len(rows)} rows for {len(workload.eps_nominal)} eps values")
        return problems
    eps = _floats(rows, "eps")
    dist = _floats(rows, "rho_distance")
    order = sorted(range(len(rows)), key=lambda i: -eps[i])
    for i, j in zip(order, order[1:]):
        if not dist[j] < dist[i]:
            problems.append(f"rho_distance does not fall from eps={eps[i]} to eps={eps[j]}")
    zero = [d for e, d in zip(eps, dist) if e == 0.0]
    if not zero or not zero[0] <= ROUNDOFF:
        problems.append(f"rho_distance at eps=0 is {zero} (not roundoff)")
    return problems


CHECKS = {
    "solve": check_solve,
    "converge": check_converge,
    "stability-scan": check_scan,
    "ap-limit": check_ap_limit,
}


def check_output(out_dir, workload):
    """Problems with one run's output; a file that cannot be parsed is one."""
    try:
        return CHECKS[workload.mode](out_dir, workload)
    except (OSError, ValueError, KeyError, TypeError, IndexError, csv.Error) as exc:
        return [f"unreadable output: {exc!r}"]


def digest(out_dir):
    """Hash of every file a run wrote, for the determinism check."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
