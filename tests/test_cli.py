import contextlib
import dataclasses
import io
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmdg
from mmdg import harness, scheme
from mmdg.cli import build_parser, main, read_config_file
from mmdg.harness import MODELS, MODES, ExperimentSpec
from mmdg.scheme import load_state


def test_parser_requires_mode():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_bad_flux():
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["solve", "--flux", "roe"])
    assert err.value.code == 2


def test_argparse_refusals_carry_the_mmdg_prefix(capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve", "--flux", "roe"])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "mmdg: error:" in message and "invalid choice" in message


def test_help_names_every_mode(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    text = capsys.readouterr().out
    assert all(mode in text for mode in MODES)


def test_every_spec_field_but_mode_is_one_option():
    # main hands the parsed options to ExperimentSpec by dest, so the one
    # parser and the spec must name the same fields
    actions = build_parser()._actions
    assert [a.dest for a in actions if not a.option_strings] == ["mode"]
    dests = Counter(a.dest for a in actions if a.option_strings)
    fields = {field.name for field in dataclasses.fields(ExperimentSpec)} - {"mode"}
    assert {dest: dests[dest] for dest in fields} == dict.fromkeys(fields, 1)
    assert set(dests) - fields == {"help", "config"}


def test_solve_roundtrip(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(
        [
            "solve",
            "--model", "telegraph",
            "--k", "1",
            "--cells", "16",
            "--eps", "0.5",
            "--tmax", "0.01",
            "--ic", "sin",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert "mode=solve" in header and "eps=0.5" in header
    assert header.endswith(";growth_limit=10")
    assert str(out) in capsys.readouterr().out


def test_unknown_ic_exits_nonzero(capsys):
    code = main(["solve", "--cells", "16", "--eps", "1", "--ic", "wavelet"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_infinite_tmax_exits_cleanly(capsys):
    code = main(["solve", "--cells", "16", "--eps", "1", "--tmax", "inf"])
    assert code == 2
    err = capsys.readouterr().err
    assert "mmdg: error:" in err and "Traceback" not in err


@pytest.mark.parametrize("dt, planned", [("1e-300", "1e+300"), ("1e-310", "inf")])
@pytest.mark.parametrize("mode", ["solve", "ap-limit"])
def test_step_budget_exits_cleanly(mode, dt, planned, capsys):
    # a tiny user dt passes the clamp; the planned step count is refused up
    # front, also when a subnormal dt overflows it to inf
    code = main([mode, "--k", "0", "--cells", "8", "--eps", "0", "--dt", dt, "--tmax", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "mmdg: error:" in err and f"plans {planned} steps" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["solve", "ap-limit"])
def test_tiny_safety_exits_cleanly(mode, capsys):
    # the policy's own step at safety 1e-300 plans about 1e303 steps; it is
    # finer than the default policy's step, so the budget refuses it up front
    code = main([mode, "--safety", "1e-300", "--tmax", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "mmdg: error:" in err and "over the budget" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["solve", "ap-limit", "converge"])
def test_underflowing_step_exits_cleanly(mode, capsys):
    # the safety factor scales the stable step to a subnormal float or zero
    cells = "8,16,32" if mode == "converge" else "8"
    code = main([mode, "--cells", cells, "--safety", "1e-320", "--tmax", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "mmdg: error:" in err and "too small to step" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--cells", "4", "--eps", "1", "--tmax", "1e-320"],
        ["converge", "--cells", "8,16,32", "--eps", "1", "--tmax", "1e-320"],
        ["ap-limit", "--cells", "8", "--eps", "1", "--tmax", "1e-320"],
        ["solve", "--eps", "1", "--dt", "1e-320", "--force-dt", "--tmax", "1e-318"],
    ],
    ids=["solve", "converge", "ap-limit", "solve-force-dt"],
)
def test_subnormal_step_exits_cleanly(argv, capsys):
    # the step that lands on tmax is subnormal, so eps^2/dt would overflow at
    # eps = 1 and blame eps; the step itself is refused first
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "mmdg: error:" in err and "too small to step" in err
    assert "eps=" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--eps", "1e300"],
        ["converge", "--cells", "8,16,32", "--eps", "1e300"],
        ["stability-scan", "--eps", "1e300"],
        ["ap-limit", "--eps", "1e154,0"],
        # eps^2/dt fits at dt = tmax = 1, but eps^2 |||g^0|||^2 overflows E_0
        ["solve", "--k", "0", "--eps", "1e154", "--tmax", "1"],
    ],
    ids=["solve", "converge", "stability-scan", "ap-limit", "solve-energy"],
)
def test_overflowing_eps_exits_cleanly(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "mmdg: error:" in err and "is too large" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "mode, cells",
    [("solve", "16"), ("converge", "4,8,16"), ("ap-limit", "16"), ("stability-scan", "16")],
)
def test_overflowing_plan_blames_tmax(mode, cells, capsys):
    # tmax / dt overflows at a normal dt: tmax is too large, the step is not too small
    argv = [mode, "--k", "1", "--cells", cells, "--eps", "1e-2", "--tmax", "1.7976931348623157e308"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("mmdg: error: tmax=1.79769e+308 is too large for dt=")
    assert "too small" not in err and "Traceback" not in err


_SCAN = "stability-scan --k 0 --cells 8 --eps 1 --tmax 0.1"


def _forbid_steps(monkeypatch):
    # any step, stencil build or limit step fails the test
    def refuse(*args, **kwargs):
        raise AssertionError("stepped before refusing")

    monkeypatch.setattr("mmdg.harness.StencilStepper.__init__", refuse)
    monkeypatch.setattr("mmdg.harness.step_limit", refuse)
    monkeypatch.setattr("mmdg.scheme.step", refuse)


@pytest.mark.parametrize(
    "argv, message",
    [
        # eps^2/dt_stab overflows at the last eps only
        ("stability-scan --k 1 --cells 64 --eps 1e-2,1,1e154 --tmax 1", "is too large"),
        # eps^2/dt_stab fits at k = 0, but E_0 overflows
        ("stability-scan --k 0 --cells 8 --eps 1e-2,1e154 --tmax 1", "E_0 overflows"),
        ("converge --k 1 --cells 64,128,256 --eps 1e-2,1e154 --tmax 0.1", "is too large"),
        # every probe's dt is at least dt_stab, which plans about 1.8e9 steps
        ("stability-scan --k 0 --cells 8 --eps 1 --tmax 1e9", "over the budget"),
        # the user dt of the first level plans 1e299 steps
        ("converge --k 1 --cells 8,16,32 --eps 0.1 --dt 1e-300 --tmax 0.1", "over the budget"),
        # solve takes every step: every plan is held to the budget, the
        # auto step's and a clamped dt's alike
        ("solve --k 1 --cells 512 --eps 1e-6 --tmax 1", "plans 1120723 steps"),
        ("solve --cells 8 --eps 1 --tmax 1e6 --dt 5", "plans 4.323037e+07 steps"),
        # ap-limit powers its steps: only a step finer than every mode's
        # default is held to it, the policy's own at a c0 near 1 and a forced
        # small dt alike; its symbol would round to the identity
        ("ap-limit --k 0 --cells 8 --eps 1 --tmax 1 --c0 0.9999999999999999",
         "plans 6.489743e+16 steps"),
        ("ap-limit --k 0 --cells 8 --eps 1 --tmax 1 --dt 1e-300 --force-dt", "plans 1e+300 steps"),
        # step options the mode never reads: the scan probes its own steps,
        # and only ap-limit shrinks its bound by c0
        (_SCAN + " --dt 5 --force-dt --safety 0.1 --c0 0.5", "does not read --dt"),
        (_SCAN + " --force-dt", "does not read --force-dt"),
        (_SCAN + " --safety 0.1", "does not read --safety"),
        (_SCAN + " --c0 0.5", "does not read --c0"),
        ("solve --k 0 --cells 8 --eps 1 --tmax 0.1 --c0 0.5", "does not read --c0"),
        ("converge --k 1 --cells 8,16,32 --eps 0.1 --tmax 0.1 --c0 0.5", "does not read --c0"),
        # stable_dt reads continuum moments for the slab model only
        (
            "solve --k 1 --cells 8 --eps 0.1 --tmax 0.01 --continuum-moments",
            "--continuum-moments only applies to the slab model",
        ),
        # the telegraph space always has its two nodes, and the header echoes nv=2
        ("ap-limit --k 1 --cells 8 --eps 0.1 --tmax 0.01 --nv 8", "has 2 velocity nodes"),
    ],
    ids=[
        "scan-eps",
        "scan-energy",
        "converge-eps",
        "scan-budget",
        "converge-budget",
        "solve-budget-auto",
        "solve-budget-clamped",
        "ap-limit-budget-auto",
        "ap-limit-budget-forced",
        "scan-step-options",
        "scan-force-dt",
        "scan-safety",
        "scan-c0",
        "solve-c0",
        "converge-c0",
        "telegraph-continuum-moments",
        "telegraph-nv",
    ],
)
def test_bad_case_refused_before_any_step(argv, message, monkeypatch, capsys):
    _forbid_steps(monkeypatch)
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert "mmdg: error:" in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, n_cells, n_bytes",
    [
        ("solve --k 0 --cells 20000000 --eps 1", 20000000, 480000000),
        ("converge --k 0 --cells 5000000,10000000,20000000 --eps 1", 20000000, 480000000),
        ("stability-scan --k 0 --cells 20000000 --eps 1", 20000000, 480000000),
        # ap-limit's joint state holds the defect's 2(k + 1) columns too
        ("ap-limit --k 0 --cells 20000000 --eps 1", 20000000, 800000000),
        ("ap-limit --k 0 --cells 10000000 --eps 1", 10000000, 400000000),
        # the levels fit (173 MB at 131072 cells), the reference at 4x does not
        ("converge --model slab --nv 32 --k 4 --cells 32768,65536,131072 --eps 0.1 --tmax 0.001",
         524288, 692060160),
    ],
    ids=["solve", "converge", "stability-scan", "ap-limit", "ap-limit-joint", "converge-reference"],
)
def test_oversized_state_refused_before_any_allocation(argv, n_cells, n_bytes, monkeypatch,
                                                       capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("projected a state before refusing")

    _forbid_steps(monkeypatch)
    monkeypatch.setattr("mmdg.scheme.init_state", refuse)
    assert main(argv.split()) == 2
    assert capsys.readouterr().err == (
        f"mmdg: error: a packed state of {n_cells} cells takes {n_bytes} bytes, "
        "over the budget 268435456\n"
    )


@pytest.mark.parametrize(
    "argv, n_probe, n_bytes",
    [
        # a 33 KB state, but the probe is 2^j >= 5B cells of B = 4097 columns
        ("solve --model slab --nv 4096 --k 0 --cells 1", 32768, 1074003968),
        # the kinetic block's probe (B = 2047) fits, the joint block's (2049) does not
        ("ap-limit --model slab --nv 2046 --k 0 --cells 1", 16384, 268566528),
    ],
    ids=["solve", "ap-limit-joint"],
)
def test_oversized_probe_refused_before_the_velocity_space(argv, n_probe, n_bytes, monkeypatch,
                                                           capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("built a velocity space before refusing")

    monkeypatch.setattr("mmdg.velocity.make_velocity_space", refuse)
    assert main(argv.split()) == 2
    assert capsys.readouterr().err == (
        f"mmdg: error: the stencil probe of {n_probe} cells takes {n_bytes} bytes, "
        "over the budget 268435456\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        # a 2.7 MB state, but above dt_stab all 1025 frequencies are live
        ("solve --model slab --nv 32 --k 4 --cells 2048 --dt 1 --force-dt --tmax 1",
         "the symbol of all 1025 frequencies takes 446490000 bytes"),
        # the symbol alone (223 MB) fits; propagate's spare of its size does not
        ("converge --model slab --nv 32 --k 4 --cells 1024,2048,4096 --eps 1 --dt 1 --force-dt "
         "--tmax 1", "the symbol of all 513 frequencies, with its spare, takes 446925600 bytes"),
    ],
    ids=["solve", "converge-forced"],
)
def test_all_live_symbol_refused_before_it_is_built(argv, message, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("built a symbol before refusing")

    _forbid_steps(monkeypatch)
    monkeypatch.setattr("mmdg.stencil.StencilStepper.symbol", refuse)
    assert main(argv.split()) == 2
    assert capsys.readouterr().err == (
        f"mmdg: error: at dt=1, above dt_stab, {message}, over the budget 268435456\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        # 35 of the 65 frequencies hold the bump at dt_stab; one symbol is 5 184 bytes
        ("solve --model slab --nv 8 --k 1 --cells 128 --eps 1e-2 --tmax 0.001",
         "the symbol of 35 live frequencies takes 181440 bytes"),
        # the first probe, at dt_stab, marches the live spectrum
        ("stability-scan --model slab --nv 8 --k 1 --cells 128 --eps 1e-2 --tmax 0.001",
         "the symbol of 35 live frequencies takes 181440 bytes"),
        # the reference run, on 512 cells, comes first; propagate powers it with a spare
        ("converge --model slab --nv 8 --k 1 --cells 32,64,128 --eps 1e-2 --tmax 0.001",
         "the symbol of 35 live frequencies, with its spare, takes 362880 bytes"),
        # the joint block is 22 wide
        ("ap-limit --model slab --nv 8 --k 1 --cells 128 --eps 1e-2 --tmax 0.001",
         "the symbol of 35 live frequencies, with its spare, takes 542080 bytes"),
    ],
    ids=["solve", "stability-scan", "converge", "ap-limit"],
)
def test_live_symbol_refused_before_it_is_built(argv, message, tmp_path, monkeypatch, capsys):
    # under a 128 KiB budget the packed state and the probe fit, the symbol at
    # the bump's live frequencies does not; no real size is allocated
    def refuse(*args, **kwargs):
        raise AssertionError("built a symbol before refusing")

    monkeypatch.setattr("mmdg.stencil.MAX_STATE_BYTES", 2**17)
    monkeypatch.setattr("mmdg.stencil.StencilStepper.symbol", refuse)
    out = tmp_path / "run.csv"
    assert main(argv.split() + ["--ic", "bump", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"mmdg: error: {message}, over the budget 131072\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "eps, tmax", [("1e-2", "1e300"), ("1e-2", "400"), ("1e-8", "1e300")],
    ids=["reference", "reference-400", "heat-limit"],
)
def test_converge_refuses_rows_that_measure_nothing(eps, tmax, tmp_path, capsys):
    # both solutions decay to zero by tmax, so err_rho is exactly 0 and its
    # order nan; the refusal comes after the runs and before any row is written
    out = tmp_path / "conv.csv"
    argv = ["converge", "--k", "1", "--cells", "4,8,16", "--eps", eps, "--tmax", tmax]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"mmdg: error: tmax={float(tmax):.6g} is too large: the solutions decay to 0, "
        "so err_rho is 0 at N=4\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("tmax", ["1e6", "1e300"])
def test_ap_limit_refuses_rows_that_measure_nothing(tmax, tmp_path, capsys):
    # the kinetic run decays to exactly 0 by tmax, so both distances read 0;
    # the refusal comes before any row (or a 301-digit steps cell) is written
    out = tmp_path / "ap.csv"
    argv = ["ap-limit", "--k", "0", "--cells", "8", "--eps", "1,0", "--tmax", tmax]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"mmdg: error: tmax={float(tmax):.6g} is too large: the solutions decay to 0, "
        "so the distances measure nothing at eps=1\n"
    )
    assert not out.exists()


def test_ap_limit_keeps_an_exact_zero_distance(tmp_path):
    # telegraph at eps = 0 matches the limit bit for bit: a zero distance from
    # a kinetic state that has not decayed is a measurement
    out = tmp_path / "ap.csv"
    argv = "ap-limit --k 0 --cells 8 --eps 0 --tmax 0.01".split()
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["eps,steps,rho_distance,q_distance", "0,1,0,0"]


@pytest.mark.parametrize("eps", ["1e-2", "1e-8", "0"])
def test_converge_keeps_small_nonzero_errors(eps, tmp_path):
    # at tmax 300 the errors are tiny but nonzero; err_g is 0 at eps = 0 only
    rows = _converge_rows(tmp_path, ["--cells", "4,8,16", "--eps", eps, "--tmax", "300"])
    for row in rows:
        err_rho, err_g = float(row.split(",")[3]), float(row.split(",")[5])
        assert 0 < err_rho < 1e-100 and (err_g == 0) == (eps == "0")


@pytest.mark.parametrize("mode", ["solve", "converge", "stability-scan", "ap-limit"])
def test_missing_output_directory_refused_before_any_step(mode, monkeypatch, tmp_path, capsys):
    _forbid_steps(monkeypatch)
    out = str(tmp_path / "no-such-dir" / "run.csv")
    cells = "8,16,32" if mode == "converge" else "8"
    assert main([mode, "--cells", cells, "--eps", "1", "--tmax", "0.1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "mmdg: error:" in err and "does not exist" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["solve", "converge", "stability-scan", "ap-limit"])
def test_directory_output_path_refused_before_any_step(mode, monkeypatch, tmp_path, capsys):
    _forbid_steps(monkeypatch)
    cells = "4,8,16" if mode == "converge" else "8"
    argv = [mode, "--cells", cells, "--eps", "0.5", "--tmax", "0.01", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "mmdg: error:" in err and "is a directory" in err
    assert "Traceback" not in err


def test_large_finite_eps_still_runs(tmp_path):
    out = tmp_path / "run.csv"
    assert main(["solve", "--eps", "1e150", "--tmax", "0.01", "--out", str(out)]) == 0
    last = out.read_text().splitlines()[-1].split(",")
    assert last[-1] == "ok" and math.isfinite(float(last[2]))


def test_converge_smoke(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(
        [
            "converge",
            "--k", "1",
            "--cells", "8,16,32",
            "--eps", "1e-8",
            "--tmax", "0.25",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("eps,n_cells,dt,err_rho")
    assert len(lines) == 2 + 3


def test_ap_limit_and_scan_smoke(tmp_path):
    assert main(
        ["ap-limit", "--k", "0", "--cells", "8", "--eps", "0,1e-4", "--tmax", "0.01",
         "--out", str(tmp_path / "ap.csv")]
    ) == 0
    assert main(
        ["stability-scan", "--k", "0", "--cells", "16", "--eps", "1e-2", "--tmax", "0.5",
         "--out", str(tmp_path / "scan.csv")]
    ) == 0
    header = (tmp_path / "scan.csv").read_text().splitlines()[0]
    assert header.endswith(";growth_limit=10")


def test_no_bh_and_slab_flags(tmp_path):
    out = tmp_path / "run.csv"
    code = main(
        ["solve", "--model", "slab", "--nv", "4", "--k", "0", "--cells", "16",
         "--eps", "1", "--tmax", "0.01", "--no-bh", "--out", str(out)]
    )
    # no-bh has no stability bound on slab: spec error, nonzero exit
    assert code == 2
    code = main(
        ["solve", "--model", "telegraph", "--k", "0", "--cells", "16",
         "--eps", "1", "--tmax", "0.01", "--no-bh", "--out", str(out)]
    )
    assert code == 0
    assert "include_bh=False" in out.read_text().splitlines()[0]


def test_force_dt_flow(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(
        ["solve", "--k", "0", "--cells", "32", "--eps", "1e-6", "--tmax", "25",
         "--dt", "0.5", "--force-dt", "--out", str(out)]
    )
    assert code == 0  # flagged instability demos still exit cleanly
    assert "instability flagged" in capsys.readouterr().err
    assert "dt_override=1" in out.read_text().splitlines()[0]


def _converge_rows(tmp_path, extra):
    out = str(tmp_path / "conv.csv")
    argv = "converge --k 1 --cells 8,16,32 --eps 0.1 --tmax 0.1".split()
    assert main(argv + extra + ["--out", out]) == 0
    with open(out, newline="") as fh:
        return fh.read().splitlines()[2:]


def test_unstable_ap_limit_flags_its_nan_rows(tmp_path, capsys):
    # a forced step far beyond the stable one overflows both runs to nan; the
    # rows say so and the run is flagged, with no step to name, and exits 0
    # as solve's flagged demos do
    out = str(tmp_path / "ap.csv")
    argv = "ap-limit --k 0 --cells 8 --eps 1,0 --tmax 2000 --dt 1 --force-dt".split()
    assert main(argv + ["--out", out]) == 0
    assert capsys.readouterr().err == "instability flagged\n"
    with open(out) as fh:
        assert fh.read().splitlines()[2:] == ["1,2000,nan,nan", "0,2000,nan,nan"]
    assert main(argv[:-3] + ["--tmax", "1"]) == 0  # at the stable step: no flag
    assert capsys.readouterr().err == ""


def test_unstable_converge_flags_its_non_finite_rows(tmp_path, capsys):
    # a forced step far beyond the stable one overflows the first level: its
    # row is flagged diverged, with no order, the run is flagged on stderr
    # with no numpy warning, and it exits 0 as ap-limit's flagged runs do
    out = str(tmp_path / "conv.csv")
    argv = "converge --k 1 --cells 8,16,32 --eps 1 --tmax 100 --dt 0.5 --force-dt".split()
    assert main(argv + ["--out", out]) == 0
    assert capsys.readouterr().err == "instability flagged\n"
    with open(out) as fh:
        rows = [row.split(",") for row in fh.read().splitlines()[2:]]
    assert rows[0] == ["1", "8", "0.5", "inf", "nan", "inf", "nan", "diverged"]
    assert [row[-1] for row in rows[1:]] == ["", ""]
    assert all(math.isfinite(float(row[3])) for row in rows[1:])


def test_reference_ap_limit_spec_runs(tmp_path):
    # the wide reference spec plans 28 012 563 steps at its default step;
    # powered, that is not over the step budget
    out = str(tmp_path / "ap.csv")
    argv = "ap-limit --model slab --nv 32 --k 2 --cells 4096 --eps 1e-2,1e-4,1e-6,0 --tmax 0.1"
    assert main(argv.split() + ["--out", out]) == 0
    with open(out) as fh:
        rows = [row.split(",") for row in fh.read().splitlines()[2:]]
    assert [row[1] for row in rows] == ["28012563"] * 4
    assert all(math.isfinite(float(x)) for row in rows for x in row[2:])


def test_converge_forced_dt(tmp_path):
    # a forced step runs unclamped on the first level, 10 steps to tmax, and
    # the finer levels scale it by h^2; unforced, it is clamped to the bound
    forced = _converge_rows(tmp_path, ["--dt", "0.01", "--force-dt"])
    dts = [float(row.split(",")[2]) for row in forced]
    assert dts == pytest.approx([0.01, 0.0025, 0.000625], rel=1e-12)
    assert _converge_rows(tmp_path, ["--dt", "0.01"]) == _converge_rows(tmp_path, [])


def test_config_file_merge(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "model = telegraph\n"
        "k = 1\n"
        "cells = 16\n"
        "eps = 0.5   # overridden on the command line\n"
        "tmax = 0.01\n"
        "ic = sin\n"
        "no-bh = true\n"
    )
    out = tmp_path / "run.csv"
    code = main(["solve", "--config", str(cfg), "--eps", "0.25", "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert "eps=0.25" in header  # CLI wins
    assert "degree=1" in header  # file supplies k
    assert "include_bh=False" in header  # file boolean reaches the spec


def test_config_file_rejects_bad_choice(tmp_path, capsys):
    # file values pass the same checks as flags: --k 7 is not a choice
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("k = 7\ncells = 16\n")
    with pytest.raises(SystemExit) as err:
        main(["solve", "--config", str(cfg), "--eps", "1", "--tmax", "0.01"])
    assert err.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("cells = 16\nwarp = 9\n")
    assert main(["solve", "--config", str(cfg), "--eps", "1"]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_read_config_file_parses(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# comment only\nflux = central\nno-bh = true\n")
    values = read_config_file(cfg)
    assert values == {"flux": "central", "no-bh": "true"}


_SPEC_TAIL = "safety=0.90000000000000002;c0=0.050000000000000003;"

HEADER_CASES = {
    "solve": (
        "solve --k 1 --cells 16 --eps 1e-3 --tmax 0.05 --no-bh",
        "# mode=solve;model=telegraph;nv=2;degree=1;cells=16;eps=0.001;dt=None;flux=alt-lr;"
        "include_bh=False;" + _SPEC_TAIL + "tmax=0.050000000000000003;ic=sin;out={out};"
        "force_dt=False;continuum_moments=False;dt_used=0.0017857142857142859;dt_override=0;"
        "growth_limit=10",
    ),
    "converge": (
        "converge --k 0 --cells 4,8,16 --eps 0.5 --tmax 0.01",
        "# mode=converge;model=telegraph;nv=2;degree=0;cells=4,8,16;eps=0.5;dt=None;"
        "flux=alt-lr;include_bh=True;" + _SPEC_TAIL + "tmax=0.01;ic=sin;out={out};"
        "force_dt=False;continuum_moments=False",
    ),
    "stability-scan": (
        "stability-scan --model slab --nv 2 --k 0 --cells 8 --eps 1 --tmax 0.1 "
        "--continuum-moments",
        "# mode=stability-scan;model=slab;nv=2;degree=0;cells=8;eps=1;dt=None;flux=alt-lr;"
        "include_bh=True;" + _SPEC_TAIL + "tmax=0.10000000000000001;ic=sin;out={out};"
        "force_dt=False;continuum_moments=True;growth_limit=10",
    ),
    "ap-limit": (
        "ap-limit --k 0 --cells 8 --eps 0,1e-4 --tmax 0.01 --dt 0.5 --force-dt",
        "# mode=ap-limit;model=telegraph;nv=2;degree=0;cells=8;eps=0,0.0001;dt=0.5;"
        "flux=alt-lr;include_bh=True;" + _SPEC_TAIL + "tmax=0.01;ic=sin;out={out};"
        "force_dt=True;continuum_moments=False;dt_used=0.5;dt_override=1",
    ),
}

STATE_HEADER = (
    "# n=28;t=0.050000000000000003;eps=0.001;dt=0.0017857142857142859;degree=1;n_cells=16;"
    "x_min=0;x_max=6.2831853071795862;flux=alt-lr;model=discrete-two-point;nv=2;"
    "include_bh=0;continuum_moments=0;g_norm_lag=1.6888438382089013"
)


@pytest.mark.parametrize("mode", HEADER_CASES)
def test_header_bytes_pinned(mode, tmp_path):
    # the first line of every output file, byte for byte
    argv, expected = HEADER_CASES[mode]
    out = str(tmp_path / "out.csv")
    assert main(argv.split() + ["--out", out]) == 0
    with open(out, newline="") as fh:
        assert fh.readline() == expected.format(out=out) + "\n"
    if mode == "solve":
        with open(out + ".state.csv", newline="") as fh:
            assert fh.readline() == STATE_HEADER + "\n"


def test_pinned_g_norm_lag_is_the_literal_march_at_roundoff():
    # STATE_HEADER's g_norm_lag comes from solve's spectral march; the literal
    # scheme.step march of the same plan reads 1.688843838208901, 1 ulp below it
    spec = ExperimentSpec(mode="solve", degree=1, cells=(16,), eps=(1e-3,), tmax=0.05,
                          include_bh=False)
    config, n_steps, _ = harness._plan(spec, 16, 1e-3)
    state = harness._initial_state(spec, config)
    for _ in range(n_steps - 1):
        state = scheme.step(state, config)
    pinned = float(STATE_HEADER.rsplit("g_norm_lag=", 1)[1])
    assert n_steps == 28 and abs(pinned - state.g.triple_norm()) <= 8 * math.ulp(pinned)


# the whole CSV and checkpoint of a two-cell solve, every row included; every
# line ends in \n
TINY_SOLVE = (
    "# mode=solve;model=telegraph;nv=2;degree=0;cells=2;eps=0.5;dt=None;flux=alt-lr;"
    "include_bh=True;" + _SPEC_TAIL + "tmax=0.01;ic=sin;out={out};force_dt=False;"
    "continuum_moments=False;dt_used=0.01;dt_override=0;growth_limit=10\n"
    "n,t,energy,rho_norm,g_norm,mean_g_norm,mass,status\n"
    "0,0,2.3856672960579304,1.5445605511141123,2.7829164246717666e-16,0,0,ok\n"
    "1,0.01,2.3856672960579304,1.5445605511141123,0.037819145633007895,0,0,ok\n"
)

TINY_STATE = (
    "# n=1;t=0.01;eps=0.5;dt=0.01;degree=0;n_cells=2;x_min=0;x_max=6.2831853071795862;"
    "flux=alt-lr;model=discrete-two-point;nv=2;include_bh=1;continuum_moments=0;"
    "g_norm_lag=2.7829164246717666e-16\n"
    "coefficient\n"
    "0.61619050847955759\n"
    "-0.61619050847955759\n"
    "-0.015087656201666055\n"
    "0.015087656201666055\n"
    "0.015087656201666055\n"
    "-0.015087656201666055\n"
)


def test_whole_file_bytes_pinned(tmp_path):
    out = str(tmp_path / "out.csv")
    assert main("solve --k 0 --cells 2 --eps 0.5 --tmax 0.01".split() + ["--out", out]) == 0
    with open(out, newline="") as fh:
        assert fh.read() == TINY_SOLVE.format(out=out)
    with open(out + ".state.csv", newline="") as fh:
        assert fh.read() == TINY_STATE


@pytest.mark.parametrize(
    "mode, suffix",
    [(mode, "") for mode in HEADER_CASES] + [("solve", ".state.csv")],
    ids=list(HEADER_CASES) + ["solve-checkpoint"],
)
def test_every_output_line_ends_in_one_newline(mode, suffix, tmp_path):
    # one line ending and one cell count per table, in every file a mode writes
    out = str(tmp_path / "out.csv")
    assert main(HEADER_CASES[mode][0].split() + ["--out", out]) == 0
    with open(out + suffix, "rb") as fh:
        text = fh.read()
    assert b"\r" not in text and text.endswith(b"\n")
    header, columns, *rows = text[:-1].split(b"\n")
    assert header.startswith(b"# ") and rows
    assert all(row.count(b",") == columns.count(b",") for row in rows)


def test_checkpoint_with_crlf_rows_still_loads(tmp_path):
    # a checkpoint whose rows end in \r\n, as they did before every line ended in \n
    first, rest = TINY_STATE.split("\n", 1)
    paths = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    paths[0].write_bytes(TINY_STATE.encode())
    paths[1].write_bytes((first + "\n" + rest.replace("\n", "\r\n")).encode())
    (new, new_config, new_n, new_lag), (old, old_config, old_n, old_lag) = map(load_state, paths)
    assert (old_n, old_lag) == (new_n, new_lag)
    assert (old_n, old_lag) == (1, 2.7829164246717666e-16)
    assert np.array_equal(old.rho.coeff, new.rho.coeff)
    assert np.array_equal(old.g.coeff, new.g.coeff)
    assert old.rho.coeff[:, 0].tolist() == [0.61619050847955759, -0.61619050847955759]
    assert (old_config.eps, old_config.dt, old_config.mesh) == (0.5, 0.01, new_config.mesh)


# the whole CSV of two small ap-limit runs, every row included: each row
# powers a joint step probed from scheme.step and step_limit at k >= 1, so a
# reordered sum in the weak form, the velocity fold or the mass inversion
# moves these bytes
AP_LIMIT_FILES = {
    "slab-k2": (
        "ap-limit --model slab --nv 4 --k 2 --cells 6 --eps 1e-2,1e-8,0 --tmax 0.01",
        "# mode=ap-limit;model=slab;nv=4;degree=2;cells=6;eps=0.01,1e-08,0;dt=None;"
        "flux=alt-lr;include_bh=True;" + _SPEC_TAIL + "tmax=0.01;ic=sin;out={out};"
        "force_dt=False;continuum_moments=False;dt_used=0.002;dt_override=0\n"
        "eps,steps,rho_distance,q_distance\n"
        "0.01,5,6.4864418971187341e-05,0.00057774291100370022\n"
        "1e-08,5,5.4531012558418446e-11,6.7116811701616739e-10\n"
        "0,5,1.166435471797626e-18,1.6684764713483993e-17\n",
    ),
    "telegraph-central-k1": (
        "ap-limit --k 1 --flux central --cells 8 --eps 1e-1,1e-6,0 --tmax 0.01",
        "# mode=ap-limit;model=telegraph;nv=2;degree=1;cells=8;"
        "eps=0.10000000000000001,9.9999999999999995e-07,0;dt=None;flux=central;"
        "include_bh=True;" + _SPEC_TAIL + "tmax=0.01;ic=sin;out={out};force_dt=False;"
        "continuum_moments=False;dt_used=0.0033333333333333335;dt_override=0\n"
        "eps,steps,rho_distance,q_distance\n"
        "0.10000000000000001,3,0.00458531807911579,0.18002207563197228\n"
        "9.9999999999999995e-07,3,2.543076080164658e-08,2.4805044808086737e-06\n"
        "0,3,0,0\n",
    ),
}


# ill-prepared data hold two live frequencies, so propagate powers a batch of them
ONE_CPU_ARGV = "converge --k 2 --cells 8,16,32 --eps 0.1 --tmax 0.05 --ic ill-prepared"

# the whole CSV of three small converge runs: two measured against their
# reference run (l2_distance), one against the exact heat-limit solution
# (l2_error); the same bytes with BLAS on one thread or its default
CONVERGE_FILES = {
    "slab-bump-reference": (
        "converge --model slab --nv 4 --k 2 --cells 4,8,16 --eps 0.1 --tmax 0.01 --ic bump",
        "# mode=converge;model=slab;nv=4;degree=2;cells=4,8,16;eps=0.10000000000000001;"
        "dt=None;flux=alt-lr;include_bh=True;" + _SPEC_TAIL + "tmax=0.01;ic=bump;"
        "out={out};force_dt=False;continuum_moments=False\n"
        "eps,n_cells,dt,err_rho,order_rho,err_g,order_g,flag\n"
        "0.10000000000000001,4,0.0050000000000000001,0.10916309667733419,nan,"
        "0.055221410106231605,nan,\n"
        "0.10000000000000001,8,0.00062500000000000001,0.052223940040316386,"
        "1.0637020147273506,0.028734135171834083,0.94246210014771681,\n"
        "0.10000000000000001,16,7.8125000000000002e-05,0.01246126629962805,"
        "2.0672606251955283,0.0053653753271384937,2.4210146268979416,\n",
    ),
    "telegraph-heat-limit": (
        "converge --k 1 --cells 4,8,16 --eps 1e-8 --tmax 0.01",
        "# mode=converge;model=telegraph;nv=2;degree=1;cells=4,8,16;eps=1e-08;dt=None;"
        "flux=alt-lr;include_bh=True;" + _SPEC_TAIL + "tmax=0.01;ic=sin;out={out};"
        "force_dt=False;continuum_moments=False\n"
        "eps,n_cells,dt,err_rho,order_rho,err_g,order_g,flag\n"
        "1e-08,4,0.01,0.15588737936472999,nan,6.2727045110672087e-09,nan,\n"
        "1e-08,8,0.0025000000000000001,0.044327473208537506,1.8142310999793942,"
        "2.3707599814795508e-09,1.403737992991072,\n"
        "1e-08,16,0.00062500000000000001,0.015509889553122359,1.5150127142549814,"
        "2.304597301588874e-10,3.3627630244844693,\n",
    ),
    "telegraph-ill-prepared": (
        ONE_CPU_ARGV,
        "# mode=converge;model=telegraph;nv=2;degree=2;cells=8,16,32;eps=0.10000000000000001;"
        "dt=None;flux=alt-lr;include_bh=True;" + _SPEC_TAIL + "tmax=0.050000000000000003;"
        "ic=ill-prepared;out={out};force_dt=False;continuum_moments=False\n"
        "eps,n_cells,dt,err_rho,order_rho,err_g,order_g,flag\n"
        "0.10000000000000001,8,0.0022727272727272731,0.0052820565797140721,nan,"
        "0.0012577048513120904,nan,\n"
        "0.10000000000000001,16,0.00028409090909090913,0.00068938313172399891,"
        "2.937721851832602,0.00013840588319522908,3.1838162273639057,\n"
        "0.10000000000000001,32,3.5511363636363641e-05,8.390519610402827e-05,"
        "3.0384739361750257,1.6198935436952067e-05,3.094934358490002,\n",
    ),
}


@pytest.mark.parametrize("case", CONVERGE_FILES)
def test_converge_file_bytes_pinned(case, tmp_path):
    argv, expected = CONVERGE_FILES[case]
    out = str(tmp_path / "conv.csv")
    assert main(argv.split() + ["--out", out]) == 0
    with open(out, newline="") as fh:
        assert fh.read() == expected.format(out=out)


_AFFINITY_RUN = """
import os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from mmdg.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity and at least two usable CPUs",
)
def test_converge_bytes_do_not_depend_on_the_cpu_count(tmp_path):
    src = os.path.dirname(os.path.dirname(mmdg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    rows = []
    for cpus in ("one", "all"):
        out = str(tmp_path / f"{cpus}.csv")
        argv = [sys.executable, "-c", _AFFINITY_RUN, cpus, *ONE_CPU_ARGV.split(), "--out", out]
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        with open(out, "rb") as fh:
            rows.append(fh.read().split(b"\n", 1)[1])  # the header echoes out=
    assert rows[0] == rows[1]


# wide blocks (B = 99): the stencil march wrote other rows for these argvs at
# one BLAS thread than at two; the spectral march's step is one BLAS gemv per
# live frequency, which gives the same bits at one and two threads, and since
# the stencil keeps only its reached offsets the symbol's product moves no byte
# on the alternating fluxes at 1024 cells
BLAS_ARGVS = (
    "solve --model slab --nv 32 --k 2 --cells 256 --tmax 0.002",
    "solve --model slab --nv 32 --k 2 --cells 1024 --tmax 0.0005",
    # 35 live frequencies at a block of 99: each step is 35 gemvs of 99 x 99
    "solve --model slab --nv 32 --k 2 --cells 1024 --tmax 0.0005 --ic bump",
)

_CLI_RUN = "import sys; from mmdg.cli import main; sys.exit(main(sys.argv[1:]))"


def _run_at_blas_threads(argv, out, threads):
    """Run the CLI in a new process with OPENBLAS_NUM_THREADS at threads, or
    unset for the library's default."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mmdg.__file__)))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads:
        env["OPENBLAS_NUM_THREADS"] = threads
    run = subprocess.run([sys.executable, "-c", _CLI_RUN, *argv.split(), "--out", out],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_solve_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    for argv in BLAS_ARGVS:
        outputs = []
        for threads in ("1", None):  # one BLAS thread, then the library's default
            out = str(tmp_path / f"threads-{threads}.csv")
            _run_at_blas_threads(argv, out, threads)
            with open(out, "rb") as fh, open(out + ".state.csv", "rb") as state:
                # the header echoes out=
                outputs.append((fh.read().split(b"\n", 1)[1], state.read()))
        assert outputs[0] == outputs[1], argv


# the README example and the benchmark's argv at seed 1: the joint symbol is a
# BLAS zgemm and its squarings batched matmuls, at blocks of 8 and 22
AP_LIMIT_BLAS_ARGVS = {
    "readme": "ap-limit --k 1 --cells 32 --eps 1e-2,1e-4,1e-6,1e-8,1e-10 --tmax 0.05",
    "bench": "ap-limit --model slab --nv 8 --k 1 --cells 64 --eps 0.010771146781,"
    "0.000106725815963,9.54801902996e-07,9.90965517427e-09,0.0 --tmax 0.05 --ic sin",
}


@pytest.mark.parametrize("case", AP_LIMIT_BLAS_ARGVS)
def test_ap_limit_bytes_do_not_depend_on_the_blas_thread_count(case, tmp_path):
    outputs = []
    for threads in ("1", None):  # one BLAS thread, then the library's default
        out = str(tmp_path / f"threads-{threads}.csv")
        _run_at_blas_threads(AP_LIMIT_BLAS_ARGVS[case], out, threads)
        with open(out, "rb") as fh:
            outputs.append(fh.read().split(b"\n", 1)[1])  # the header echoes out=
    assert outputs[0] == outputs[1]


# the whole CSV of a small scan whose probes take both marches: each eps's
# first probe, at dt_stab on one live frequency, steps the live spectrum, and
# the doubling and bisection probes above dt_stab step apply
SCAN_ARGV = "stability-scan --model slab --nv 4 --k 1 --cells 16 --eps 1e-2,1 --tmax 0.1"
SCAN_FILE = (
    "# mode=stability-scan;model=slab;nv=4;degree=1;cells=16;eps=0.01,1;dt=None;flux=alt-lr;"
    "include_bh=True;" + _SPEC_TAIL + "tmax=0.10000000000000001;ic=sin;out={out};"
    "force_dt=False;continuum_moments=False;growth_limit=10\n"
    "eps,n_cells,dt_stab,dt_empirical,ratio,flag\n"
    "0.01,16,0.0020347139848343313,0.025179585562324851,12.375,\n"
    "1,16,0.011955696295215215,0.13450158332117118,11.25,\n"
)


@pytest.mark.parametrize("threads", ["1", None], ids=["one-blas-thread", "blas-default"])
def test_scan_file_bytes_pinned(threads, tmp_path):
    out = str(tmp_path / "scan.csv")
    _run_at_blas_threads(SCAN_ARGV, out, threads)
    with open(out, newline="") as fh:
        assert fh.read() == SCAN_FILE.format(out=out)


# the whole CSV of the README's scan and of the benchmark's sweep at seed 1:
# most of their probes step apply, so the offsets the stencil keeps and the
# inner size of its matmul may move a verdict; the README's eps = 0.01 ratio
# has moved with the stepping path before
SCAN_EXAMPLE_FILES = {
    "readme": (
        "stability-scan --k 0 --cells 32 --eps 1e-6,1e-4,1e-2,1e-1,1 --tmax 1",
        "# mode=stability-scan;model=telegraph;nv=2;degree=0;cells=32;"
        "eps=9.9999999999999995e-07,0.0001,0.01,0.10000000000000001,1;dt=None;flux=alt-lr;"
        "include_bh=True;" + _SPEC_TAIL + "tmax=1;ic=sin;out={out};force_dt=False;"
        "continuum_moments=False;growth_limit=10\n"
        "eps,n_cells,dt_stab,dt_empirical,ratio,flag\n"
        "9.9999999999999995e-07,32,0.0096383837227092505,0.030119949133466408,3.125,\n"
        "0.0001,32,0.0096481030249812947,0.030150321953066547,3.125,\n"
        "0.01,32,0.010620033252185636,0.029536967482641299,2.78125,\n"
        "0.10000000000000001,32,0.01945576259040693,0.030399629047510826,1.5625,\n"
        "1,32,0.10781305597261988,0.16171958395892982,1.5,\n",
    ),
    "bench-sweep": (
        "stability-scan --model slab --nv 8 --k 1 --cells 128 "
        "--eps 9.99999780206e-07,0.0100000075051,1.00000001017 --tmax 0.05 --ic sin",
        "# mode=stability-scan;model=slab;nv=8;degree=1;cells=128;"
        "eps=9.999997802059999e-07,0.0100000075051,1.00000001017;dt=None;flux=alt-lr;"
        "include_bh=True;" + _SPEC_TAIL + "tmax=0.050000000000000003;ic=sin;out={out};"
        "force_dt=False;continuum_moments=False;growth_limit=10\n"
        "eps,n_cells,dt_stab,dt_empirical,ratio,flag\n"
        "9.999997802059999e-07,128,2.2915350957245894e-05,0.00041820515496973756,18.25,\n"
        "0.0100000075051,128,5.8769372417848018e-05,0.00030119303364147107,5.125,\n"
        "1.00000001017,128,0.00015993566247939311,0.015673694922980524,98,\n",
    ),
}


@pytest.mark.parametrize("threads", ["1", None], ids=["one-blas-thread", "blas-default"])
@pytest.mark.parametrize("case", SCAN_EXAMPLE_FILES)
def test_scan_example_file_bytes_pinned(case, threads, tmp_path):
    argv, expected = SCAN_EXAMPLE_FILES[case]
    out = str(tmp_path / "scan.csv")
    _run_at_blas_threads(argv, out, threads)
    with open(out, newline="") as fh:
        assert fh.read() == expected.format(out=out)


@pytest.mark.parametrize("case", AP_LIMIT_FILES)
def test_ap_limit_file_bytes_pinned(case, tmp_path):
    argv, expected = AP_LIMIT_FILES[case]
    out = str(tmp_path / "ap.csv")
    assert main(argv.split() + ["--out", out]) == 0
    with open(out, newline="") as fh:
        assert fh.read() == expected.format(out=out)



_ODD_FLOATS = ["5e-324", "1e-300", "1e300", "1.7976931348623157e308", "nan", "inf", "-inf"]


@st.composite
def _argvs(draw):
    """A CLI argv of any mode and model.  Each option takes a usual value or,
    one time in three, an odd one: tiny, huge, NaN and infinite floats,
    --nv from -2 to 6 and cell lists from -4 to 16.  The usual values are
    the default or moderate ones, at most 0.01."""
    mode = draw(st.sampled_from(list(MODES)))
    model, k = draw(st.sampled_from(list(MODELS))), draw(st.integers(0, 4))
    argv = [mode, f"--model={model}", f"--k={k}"]

    def option(name, usual, odd=st.sampled_from(_ODD_FLOATS)):
        value = draw(odd if draw(st.integers(0, 2)) == 0 else st.sampled_from(usual))
        if value is not None:
            argv.append(f"--{name}={value}")

    cell_lists = st.lists(st.integers(-4, 16), min_size=1, max_size=3)
    option("cells", ["4,8,16" if mode == "converge" else "8"], cell_lists.map(
        lambda cells: ",".join(map(str, cells))))
    option("nv", [None], st.integers(-2, 6))
    option("eps", ["0", "1e-3", "1e-2,0"], st.lists(st.sampled_from(_ODD_FLOATS + ["1e-2"]),
                                                  min_size=1, max_size=2).map(",".join))
    option("tmax", ["1e-3"])
    scan = mode == "stability-scan"  # the scan takes no step option
    option("dt", [None] if scan else [None, "1e-3", "1e-2"])
    option("safety", [None] if scan else [None, "1e-2"])
    return argv


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(argv=_argvs())
def test_any_argv_runs_or_exits_with_an_error(argv):
    # every argv runs (exit 0) or is refused with exit 2 and a message; none
    # raises.  A usual run takes at most a few thousand steps; the budget
    # refuses the huge tmax of solve and ap-limit, and converge powers its steps
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0 or (code == 2 and "mmdg: error:" in err.getvalue()), (argv, err.getvalue())
