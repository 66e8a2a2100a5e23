import math

import pytest

from mmdg.cli import build_parser, main, read_config_file


def test_parser_requires_mode():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_bad_flux():
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["solve", "--flux", "roe"])
    assert err.value.code == 2


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


# the whole CSV and checkpoint of a two-cell solve, every row included; the
# rows end in csv's \r\n, the header lines in \n
TINY_SOLVE = (
    "# mode=solve;model=telegraph;nv=2;degree=0;cells=2;eps=0.5;dt=None;flux=alt-lr;"
    "include_bh=True;" + _SPEC_TAIL + "tmax=0.01;ic=sin;out={out};force_dt=False;"
    "continuum_moments=False;dt_used=0.01;dt_override=0;growth_limit=10\n"
    "n,t,energy,rho_norm,g_norm,mean_g_norm,mass,status\r\n"
    "0,0,2.3856672960579304,1.5445605511141123,2.7829164246717666e-16,0,0,ok\r\n"
    "1,0.01,2.3856672960579304,1.5445605511141123,0.037819145633007895,0,0,ok\r\n"
)

TINY_STATE = (
    "# n=1;t=0.01;eps=0.5;dt=0.01;degree=0;n_cells=2;x_min=0;x_max=6.2831853071795862;"
    "flux=alt-lr;model=discrete-two-point;nv=2;include_bh=1;continuum_moments=0;"
    "g_norm_lag=2.7829164246717666e-16\n"
    "field,node,cell,x_left,mode,coefficient\r\n"
    "rho,-1,0,0,0,0.61619050847955759\r\n"
    "rho,-1,1,3.1415926535897931,0,-0.61619050847955759\r\n"
    "g,0,0,0,0,-0.015087656201666055\r\n"
    "g,0,1,3.1415926535897931,0,0.015087656201666055\r\n"
    "g,1,0,0,0,0.015087656201666055\r\n"
    "g,1,1,3.1415926535897931,0,-0.015087656201666055\r\n"
)


def test_whole_file_bytes_pinned(tmp_path):
    out = str(tmp_path / "out.csv")
    assert main("solve --k 0 --cells 2 --eps 0.5 --tmax 0.01".split() + ["--out", out]) == 0
    with open(out, newline="") as fh:
        assert fh.read() == TINY_SOLVE.format(out=out)
    with open(out + ".state.csv", newline="") as fh:
        assert fh.read() == TINY_STATE


# the whole CSV of two small ap-limit runs, every row included: each row
# steps scheme.step at k >= 1, so a reordered sum in the weak form, the
# velocity fold or the mass inversion moves these bytes
AP_LIMIT_FILES = {
    "slab-k2": (
        "ap-limit --model slab --nv 4 --k 2 --cells 6 --eps 1e-2,1e-8,0 --tmax 0.01",
        "# mode=ap-limit;model=slab;nv=4;degree=2;cells=6;eps=0.01,1e-08,0;dt=None;"
        "flux=alt-lr;include_bh=True;" + _SPEC_TAIL + "tmax=0.01;ic=sin;out={out};"
        "force_dt=False;continuum_moments=False;dt_used=0.002;dt_override=0\n"
        "eps,steps,rho_distance,q_distance\r\n"
        "0.01,5,6.4864418971180091e-05,0.00057774291100373665\r\n"
        "1e-08,5,5.4531032299026405e-11,6.7116813717838959e-10\r\n"
        "0,5,2.1485240331677702e-19,1.8368415966654477e-17\r\n",
    ),
    "telegraph-central-k1": (
        "ap-limit --k 1 --flux central --cells 8 --eps 1e-1,1e-6,0 --tmax 0.01",
        "# mode=ap-limit;model=telegraph;nv=2;degree=1;cells=8;"
        "eps=0.10000000000000001,9.9999999999999995e-07,0;dt=None;flux=central;"
        "include_bh=True;" + _SPEC_TAIL + "tmax=0.01;ic=sin;out={out};force_dt=False;"
        "continuum_moments=False;dt_used=0.0033333333333333335;dt_override=0\n"
        "eps,steps,rho_distance,q_distance\r\n"
        "0.10000000000000001,3,0.004585318079115829,0.18002207563197226\r\n"
        "9.9999999999999995e-07,3,2.543076080918378e-08,2.4805044808796005e-06\r\n"
        "0,3,0,0\r\n",
    ),
}


@pytest.mark.parametrize("case", AP_LIMIT_FILES)
def test_ap_limit_file_bytes_pinned(case, tmp_path):
    argv, expected = AP_LIMIT_FILES[case]
    out = str(tmp_path / "ap.csv")
    assert main(argv.split() + ["--out", out]) == 0
    with open(out, newline="") as fh:
        assert fh.read() == expected.format(out=out)
