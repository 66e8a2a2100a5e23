"""Tests of the benchmark's own checker and span arithmetic.

    python3 -m pytest -q bench/test_checks.py

They run real, tiny driver invocations through the benchmark's worker.
"""

import dataclasses
import math

import run
from checks import OUT_NAME, check_output
from tracer import span_totals
from workloads import WORKLOADS

TINY_MARCH = dataclasses.replace(WORKLOADS["march"], cells=(8,), tmax=0.05)
TINY_AP = dataclasses.replace(WORKLOADS["ap-limit"], tmax=0.005)


def _run(workload, tmp_path, name="rep0"):
    return run.run_driver(workload, 0, str(tmp_path / name), timeout=60)


def _rewrite_csv(path, column, change):
    with open(path) as fh:
        lines = fh.read().splitlines()
    names = lines[1].split(",")
    col = names.index(column)
    row = lines[-2].split(",")
    row[col] = change(row[col])
    lines[-2] = ",".join(row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_real_outputs_pass(tmp_path):
    for workload in (TINY_MARCH, TINY_AP):
        record = _run(workload, tmp_path, workload.name)
        assert record["problems"] == [], record["problems"]
        assert record["dof_updates"] > 0


def test_energy_rise_is_a_failure(tmp_path):
    record = _run(TINY_MARCH, tmp_path)
    out_csv = tmp_path / "rep0" / OUT_NAME
    _rewrite_csv(out_csv, "energy", lambda v: repr(float(v) * 2.0))
    assert any("energy rose" in p for p in check_output(str(tmp_path / "rep0"), TINY_MARCH))
    assert record["problems"] == []


def test_ap_limit_distance_not_roundoff_at_zero_is_a_failure(tmp_path):
    _run(TINY_AP, tmp_path)
    out_dir = tmp_path / "rep0"
    with open(out_dir / OUT_NAME) as fh:
        lines = fh.read().splitlines()
    row = lines[-1].split(",")
    row[2] = "1e-9"  # rho_distance at eps = 0
    lines[-1] = ",".join(row)
    (out_dir / OUT_NAME).write_text("\n".join(lines) + "\n")
    assert any("eps=0" in p for p in check_output(str(out_dir), TINY_AP))


def test_truncated_csv_is_a_failure(tmp_path):
    _run(TINY_MARCH, tmp_path)
    out_csv = tmp_path / "rep0" / OUT_NAME
    out_csv.write_text(out_csv.read_text()[:200])
    assert check_output(str(tmp_path / "rep0"), TINY_MARCH)


def test_raising_and_rejected_runs_count_as_failed(tmp_path):
    raising = dataclasses.replace(TINY_MARCH, tmax=math.inf)  # uncaught OverflowError
    rejected = dataclasses.replace(TINY_MARCH, cells=(8, 16))  # mmdg exits 2
    runs = [
        _run(TINY_MARCH, tmp_path, "ok"),
        _run(raising, tmp_path, "raising"),
        _run(rejected, tmp_path, "rejected"),
    ]
    assert runs[0]["problems"] == []
    assert runs[1]["problems"] and runs[2]["problems"]
    setups = [{"setup_s": runs[0]["setup_s"]}]
    result, _ = run.summarize(0, setups, runs)
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 2, False)


def test_self_time_subtracts_direct_children():
    doc = {
        "names": ["root", "child", "grandchild"],
        "spans": [
            [0, 0.0, 10.0, -1, 0],
            [1, 1.0, 4.0, 0, 0],
            [2, 2.0, 3.0, 1, 0],
            [1, 5.0, 6.0, 0, 0],
        ],
    }
    totals = span_totals(doc)
    assert totals["root"] == [1, 10.0, 6.0]
    assert totals["child"] == [2, 4.0, 3.0]
    assert totals["grandchild"] == [1, 1.0, 1.0]


def test_seeded_argv_is_reproducible_and_in_band():
    for workload in WORKLOADS.values():
        assert workload.argv(7, "x.csv") == workload.argv(7, "x.csv")
        for eps, nominal in zip(workload.draw_eps(7), workload.eps_nominal):
            assert abs(eps - nominal) <= workload.eps_band * nominal * (1 + 1e-9)
