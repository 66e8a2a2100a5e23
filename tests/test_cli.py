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
