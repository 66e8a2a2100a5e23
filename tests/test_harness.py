import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mmdg import harness, scheme, stencil
from mmdg.fields import KineticField
from mmdg.harness import (
    GROWTH_LIMIT,
    IC_REGISTRY,
    MAX_STEPS,
    ExperimentSpec,
    StencilStepper,
    _steps_for,
    build_config,
    energy_history,
    is_stable,
    pack_state,
    resolve_dt,
    run,
    run_ap_limit,
    run_convergence,
    run_fixed_steps,
    run_solve,
    run_stability_scan,
    unpack_state,
)
from mmdg.limit import LimitState, step_limit
from mmdg.velocity import TWO_POINT, make_velocity_space


def test_registry_entries():
    assert set(IC_REGISTRY) == {"sin", "ill-prepared", "bump"}
    space = make_velocity_space(TWO_POINT)
    x = np.linspace(0, 2 * np.pi, 7)
    for name in ("sin", "bump"):
        ic = IC_REGISTRY[name]
        mean = sum(0.5 * ic.g0(x, v) for v in (-1.0, 1.0))
        assert np.max(np.abs(mean)) < 1e-14  # well prepared
    ill = IC_REGISTRY["ill-prepared"]
    assert np.max(np.abs(ill.g0(x, 1.0) - 1.0)) == 0.0


@pytest.mark.parametrize(
    "bad",
    [
        dict(mode="simulate"),
        dict(mode="solve", model="sphere"),
        dict(mode="solve", safety=1.5),
        dict(mode="solve", c0=0.0),
        dict(mode="solve", tmax=-1.0),
        dict(mode="solve", cells=()),
        dict(mode="solve", eps=(-0.5,)),
        dict(mode="solve", ic="gauss-hermite"),
        dict(mode="solve", dt=-1e-3),
        dict(mode="solve", flux="roe"),
        dict(mode="solve", dt=math.inf),
        dict(mode="solve", dt=math.nan),
        dict(mode="solve", tmax=math.inf),
        dict(mode="solve", tmax=math.nan),
        dict(mode="solve", eps=(math.inf,)),
        dict(mode="solve", eps=(0.1, math.nan)),
        dict(mode="solve", nv=8),  # telegraph has two nodes
    ],
)
def test_spec_validation(bad):
    with pytest.raises(ValueError):
        ExperimentSpec(**bad).validate()


def test_spec_nv_defaults_to_the_model_node_count():
    assert ExperimentSpec(mode="solve").validate().nv == 2
    assert ExperimentSpec(mode="solve", model="slab").validate().nv == 8


def test_resolve_dt_policies():
    spec = ExperimentSpec(mode="solve", degree=0, cells=(16,), eps=(1.0,), safety=0.5)
    config = build_config(spec, 16, 1.0, dt=1.0)
    theory = scheme.stable_dt(config)
    dt, overrode = resolve_dt(spec, config)
    assert dt == pytest.approx(0.5 * theory) and not overrode
    spec.dt, spec.tmax = 1e-9, 1e-4  # within the step budget
    dt, overrode = resolve_dt(spec, config)
    assert dt == 1e-9 and not overrode
    spec.dt = 10.0
    dt, overrode = resolve_dt(spec, config)
    assert dt == pytest.approx(0.5 * theory) and not overrode
    spec.force_dt = True
    dt, overrode = resolve_dt(spec, config)
    assert dt == 10.0 and overrode


_OVER = ": it plans {} steps, over the budget 1000000"


@pytest.mark.parametrize(
    "tmax, dt, kwargs, plan",
    [
        # tmax / dt overflows at a normal dt: tmax is blamed, though the plan is over budget too
        (1e308, 1e-10, {}, "tmax=1e+308 is too large for dt=1e-10: tmax / dt overflows"),
        # a subnormal dt overflows the count to inf, which is over the budget
        (1.0, 1e-310, {}, "dt=1e-310 is too small to step to tmax=1" + _OVER.format("inf")),
        (1.0, 1e-310, {"budget": math.inf}, "dt=1e-310 is too small to step to tmax=1"),
        # one step covers tmax, but the step that lands on it is subnormal
        (1e-320, 0.01, {}, "dt=9.99989e-321 is too small to step to tmax=9.99989e-321"),
        (1e-320, 0.01, {"exact_dt": True}, (1, 0.01)),
        # an exact step keeps its size; otherwise it shrinks to tmax / n
        (1.0, 0.3, {"exact_dt": True}, (4, 0.3)),
        (1.0, 0.3, {}, (4, 0.25)),
        (1.0, 1e-7, {}, "dt=1e-07 is too small to step to tmax=1" + _OVER.format("1e+07")),
        (1.0, 1e-7, {"budget": math.inf}, (10**7, 1e-7)),
    ],
    ids=[
        "overflow-blames-tmax",
        "subnormal-over-budget",
        "subnormal-unbudgeted",
        "subnormal-landed",
        "subnormal-tmax-exact",
        "exact-keeps-dt",
        "lands-on-tmax",
        "over-budget",
        "unbudgeted",
    ],
)
def test_steps_for_plans(tmax, dt, kwargs, plan):
    if isinstance(plan, str):
        with pytest.raises(ValueError) as err:
            _steps_for(tmax, dt, **kwargs)
        assert str(err.value) == plan
    else:
        assert _steps_for(tmax, dt, **kwargs) == plan


def test_step_budget_holds_every_solve_and_ap_limit_plan(monkeypatch):
    # solve takes every step, so every plan is held to the budget, whatever
    # its dt: the auto step, a clamped dt, a small dt or a forced one.
    # ap-limit powers its steps, so only a plan finer than every mode's
    # default step is: a small dt, forced or not, or the policy's own step at
    # a smaller safety or a larger c0.  Each is refused before the first
    # step; ap-limit's other plans pass and reach the stencil build
    def refuse(*args, **kwargs):
        raise AssertionError("stepped before refusing")

    for name in ("StencilStepper", "step_limit"):
        monkeypatch.setattr(harness, name, refuse)
    monkeypatch.setattr(scheme, "step", refuse)
    spec = ExperimentSpec(mode="solve", degree=0, cells=(16,), eps=(1.0,))
    config = build_config(spec, 16, 1.0, dt=1.0)
    bound = 0.9 * scheme.stable_dt(config)
    # ap-limit's bound, at eps = 0 and shrunk by c0, is smaller: the finest default step
    finest = 0.9 * 0.95 * scheme.stable_dt(replace(config, eps=0.0))
    tmax = 20 * MAX_STEPS * bound
    refused = {
        "solve": [{}, {"dt": 10 * bound}, {"dt": bound / 2}, {"dt": 10 * bound, "force_dt": True}],
        "ap-limit": [{"dt": finest / 2}, {"dt": finest / 2, "force_dt": True},
                     {"safety": 0.5}, {"c0": 0.5}],
    }
    planned = [{}, {"dt": 10 * finest}, {"dt": finest}, {"dt": 10 * finest, "force_dt": True}]
    for mode, run_mode in (("solve", run_solve), ("ap-limit", run_ap_limit)):
        for options in refused[mode]:
            spec = ExperimentSpec(mode=mode, degree=0, cells=(16,), eps=(1.0,), tmax=tmax,
                                  **options)
            with pytest.raises(ValueError, match="over the budget 1000000"):
                run_mode(spec)
        # a subnormal dt overflows the planned count to inf and is refused too
        spec = ExperimentSpec(mode=mode, degree=0, cells=(16,), eps=(1.0,), dt=1e-310)
        with pytest.raises(ValueError, match="plans inf steps"):
            run_mode(spec)
    for options in planned:
        spec = ExperimentSpec(mode="ap-limit", degree=0, cells=(16,), eps=(1.0,), tmax=tmax,
                              **options)
        with pytest.raises(AssertionError, match="stepped before refusing"):
            run_ap_limit(spec)


def test_step_budget_holds_a_fine_first_converge_step():
    # converge powers its steps: only a first step finer than every mode's
    # default, 0.9 * (1 - 0.05) * dt_stab, is held to the budget, and
    # resolve_dt itself refuses none
    spec = ExperimentSpec(mode="converge", degree=0, cells=(16, 32, 64), eps=(1.0,))
    config = build_config(spec, 16, 1.0, dt=1.0)
    bound = 0.9 * scheme.stable_dt(config)
    spec.tmax = 10 * MAX_STEPS * bound
    assert resolve_dt(spec, config) == (bound, False)
    assert harness._convergence_levels(spec, 1.0, spec.cells)[0][0][1] > MAX_STEPS
    spec.safety = 0.86  # below the default safety, but not finer than ap-limit's default
    assert harness._convergence_levels(spec, 1.0, spec.cells)[0][0][1] > MAX_STEPS
    spec.dt, spec.safety = bound / 2, 0.9
    assert resolve_dt(spec, config) == (bound / 2, False)
    with pytest.raises(ValueError, match="over the budget 1000000"):
        harness._convergence_levels(spec, 1.0, spec.cells)
    spec.dt, spec.safety = None, 0.5  # the policy's step below the default safety
    with pytest.raises(ValueError, match="over the budget 1000000"):
        harness._convergence_levels(spec, 1.0, spec.cells)


@pytest.mark.parametrize(
    "n_steps,n_cells",
    [
        pytest.param(s, n, id=str(s) if n == 16 else f"{s}-N{n}")
        for n in (16, 1, 2, 3, 4)
        for s in (1, 7, 64, 137)
    ],
)
def test_fixed_steps_match_reference(n_steps, n_cells):
    # the five-cell stencil folded mod N serves meshes narrower than its reach
    spec = ExperimentSpec(
        mode="solve", model="slab", nv=6, degree=1, cells=(n_cells,), eps=(0.3,)
    )
    config = build_config(spec, n_cells, 0.3, dt=2e-4)
    ic = IC_REGISTRY["sin"]
    state = scheme.init_state(ic.rho0, ic.g0, config)
    ref = state
    for _ in range(n_steps):
        ref = scheme.step(ref, config)
    fast = unpack_state(run_fixed_steps(config, pack_state(state), n_steps), config)
    assert np.max(np.abs(ref.rho.coeff - fast.rho.coeff)) < 1e-11
    assert np.max(np.abs(ref.g.coeff - fast.g.coeff)) < 1e-11


def test_energy_history_matches_scheme_energy():
    spec = ExperimentSpec(mode="solve", degree=1, cells=(16,), eps=(0.5,))
    config = build_config(spec, 16, 0.5, dt=1e-3)
    ic = IC_REGISTRY["sin"]
    state = scheme.init_state(ic.rho0, ic.g0, config)
    energies, ok = energy_history(config, state, 10)
    assert ok and len(energies) == 11
    prev = ref = state
    expected = [scheme.energy(ref.rho, ref.g, config)]
    for _ in range(10):
        prev, ref = ref, scheme.step(ref, config)
        expected.append(scheme.energy(ref.rho, prev.g, config))
    assert np.allclose(energies, expected, rtol=1e-12)


def test_solve_constant_data_rows(tmp_path):
    out = tmp_path / "solve.csv"
    spec = ExperimentSpec(
        mode="solve", degree=1, cells=(16,), eps=(0.5,), tmax=0.01, ic="bump",
        out=str(out),
    )
    result = run_solve(spec)
    assert not result.diverged
    assert result.rows[0]["n"] == 0
    assert result.rows[-1]["t"] == pytest.approx(0.01, rel=1e-12)
    masses = [r["mass"] for r in result.rows]
    assert max(masses) - min(masses) < 1e-13
    text = out.read_text()
    assert text.startswith("# mode=solve;")
    assert "dt_used=" in text.splitlines()[0]
    assert text.splitlines()[1].split(",")[0] == "n"
    # the final state snapshot is importable and matches the run
    loaded, _, n, _ = scheme.load_state(str(out) + ".state.csv")
    assert np.array_equal(loaded.rho.coeff, result.final_state.rho.coeff)
    assert n == result.rows[-1]["n"]


def test_solve_well_prepared_monitors():
    spec = ExperimentSpec(
        mode="solve", degree=1, cells=(16,), eps=(1e-6,), tmax=0.05, ic="sin"
    )
    result = run_solve(spec)
    energies = [r["energy"] for r in result.rows]
    assert all(b <= a + 1e-12 * energies[0] for a, b in zip(energies[1:], energies[2:]))
    assert all(r["mean_g_norm"] <= 1e-12 for r in result.rows)
    assert all(r["status"] == "ok" for r in result.rows)


def _reference_solve(spec, config, n_steps):
    # literal scheme.step march with solve's monitors and divergence test
    ic = IC_REGISTRY[spec.ic]
    prev = state = scheme.init_state(ic.rho0, ic.g0, config)
    e0 = scheme.energy(state.rho, state.g, config)
    rows = []
    for n in range(n_steps + 1):
        if n:
            prev, state = state, scheme.step(state, config)
        en = scheme.energy(state.rho, prev.g, config)
        rows.append(
            {
                "energy": en,
                "rho_norm": state.rho.norm(),
                "g_norm": state.g.triple_norm(),
                "mean_g_norm": state.g.bracket().norm(),
                "mass": state.rho.integral(),
            }
        )
        if not np.isfinite(en) or en > GROWTH_LIMIT * e0:
            return rows, state, n
    return rows, state, None


def test_solve_flags_divergence():
    spec = ExperimentSpec(
        mode="solve", degree=0, cells=(32,), eps=(1e-6,), tmax=25.0, ic="sin",
        dt=0.5, force_dt=True,
    )
    result = run_solve(spec)
    assert result.diverged
    assert result.rows[-1]["status"] == "diverged"
    assert result.diverge_step == result.rows[-1]["n"]
    assert result.rows[-1]["t"] < 25.0  # aborted before reaching tmax
    # roundoff seeds the growth, so solve's rows differ from a literal
    # scheme.step march; the step that crosses the limit is the same
    config = build_config(spec, 32, 1e-6, 0.5)
    _, _, ref_diverge = _reference_solve(spec, config, math.ceil(25.0 / 0.5))
    assert result.diverge_step == ref_diverge


@pytest.mark.parametrize(
    "case",
    [
        dict(model="telegraph", degree=1, cells=(16,), eps=(1e-6,), tmax=0.2),
        dict(model="slab", nv=6, degree=2, cells=(3,), eps=(0.3,), tmax=0.2, ic="bump"),
        dict(model="telegraph", degree=1, cells=(16,), eps=(0.0,), tmax=0.2),
    ],
    ids=["telegraph-eps1e-6", "slab-k2-N3", "eps0"],
)
def test_solve_matches_reference(case):
    # solve's march of the live spectrum reproduces a literal scheme.step loop row by row
    _assert_solve_matches_reference(ExperimentSpec(mode="solve", **case))


def _assert_solve_matches_reference(spec):
    result = run_solve(spec)
    config = build_config(spec, spec.cells[0], spec.eps[0], result.header["dt_used"])
    ref_rows, ref_state, ref_diverge = _reference_solve(spec, config, result.rows[-1]["n"])
    assert len(result.rows) == len(ref_rows)
    for row, ref in zip(result.rows, ref_rows):
        for key in ("energy", "rho_norm", "g_norm"):
            assert row[key] == pytest.approx(ref[key], rel=1e-12, abs=0), key
        # sin data carry zero mass and zero mean g, up to roundoff
        assert row["mass"] == pytest.approx(ref["mass"], rel=1e-12, abs=1e-14)
        assert row["mean_g_norm"] == pytest.approx(ref["mean_g_norm"], abs=1e-12)
    final = result.final_state
    assert np.max(np.abs(final.rho.coeff - ref_state.rho.coeff)) < 1e-11
    assert np.max(np.abs(final.g.coeff - ref_state.g.coeff)) < 1e-11
    assert not result.diverged and ref_diverge is None


def _chunk_states(monkeypatch, spec, states):
    # size solve's chunks to hold this many of the spec's live spectra
    config = harness._plan(spec, spec.cells[0], spec.eps[0])[0]
    packed = pack_state(harness._initial_state(spec, config))
    live = stencil.LiveSpectrum(StencilStepper(config), packed)
    monkeypatch.setattr("mmdg.stencil.CHUNK_BYTES", states * live.start.nbytes)


@pytest.mark.parametrize("states", [1, 2, 3])
@pytest.mark.parametrize(
    "case",
    [
        dict(model="telegraph", degree=1, cells=(16,), eps=(1e-6,), tmax=0.2),
        dict(model="slab", nv=6, degree=2, cells=(3,), eps=(0.3,), tmax=0.2, ic="bump"),
    ],
    ids=["telegraph-eps1e-6", "slab-k2-N3"],
)
def test_solve_chunks_match_reference(monkeypatch, case, states):
    # tiny chunks put many chunk boundaries inside the run; each row still
    # matches the literal scheme.step march.  A one-state chunk makes every
    # step write into the slot it reads.
    spec = ExperimentSpec(mode="solve", **case)
    _chunk_states(monkeypatch, spec, states)
    _assert_solve_matches_reference(spec)


@pytest.mark.parametrize("states", [1, 2, 3])
def test_chunked_divergence_matches_reference(monkeypatch, states):
    # the run crosses the limit at step 12, the first state of a later chunk
    # of either size, so the march cuts that chunk short
    spec = ExperimentSpec(
        mode="solve", degree=0, cells=(32,), eps=(1e-6,), tmax=25.0, ic="sin",
        dt=0.3, force_dt=True,
    )
    config = build_config(spec, 32, 1e-6, 0.3)
    ref_rows, _, ref_diverge = _reference_solve(spec, config, math.ceil(25.0 / 0.3))
    assert ref_diverge == 12
    _chunk_states(monkeypatch, spec, states)
    result = run_solve(spec)
    assert result.diverge_step == ref_diverge
    assert len(result.rows) == len(ref_rows)
    assert [r["status"] for r in result.rows] == ["ok"] * ref_diverge + ["diverged"]


_MONITORS = ("energy", "rho_norm", "g_norm", "mean_g_norm", "mass")


def _stencil_solve(spec, dt, n_steps):
    """solve's monitor rows, final packed state and lagged norm through the
    real-space stencil march, each monitor taken from the packed states."""
    config = build_config(spec, spec.cells[0], spec.eps[0], dt)
    stepper = StencilStepper(config)
    packed = pack_state(harness._initial_state(spec, config))
    rows = []
    march = stencil._stencil_march(stepper, packed, n_steps, GROWTH_LIMIT)
    for states, energies, _, rho_sq, g_sq, lag_sq in march:
        mean_g = config.space.bracket(np.moveaxis(stepper.g_nodes(states), -2, 0))
        mass = states[..., 0].sum(axis=-1) * config.mesh.h
        monitors = zip(energies, np.sqrt(rho_sq), np.sqrt(g_sq),
                       np.sqrt(stepper.rho_norm_sq(mean_g)), mass)
        rows += [dict(zip(_MONITORS, values)) for values in monitors]
    return rows, states[-1].copy(), math.sqrt(lag_sq[-1])


@settings(max_examples=60, deadline=None, database=None)
@given(
    model=st.sampled_from(["telegraph", "slab"]),
    k=st.integers(0, 2),
    n_cells=st.sampled_from([1, 2, 3, 16]),
    eps=st.sampled_from([0.0, 1e-6, 0.3]),
    ic=st.sampled_from(sorted(IC_REGISTRY)),
)
def test_spectral_march_matches_the_stencil_march(model, k, n_cells, eps, ic):
    # Each monitor within 1e-13 of its scale: the largest energy, or the
    # largest norm, of either the run or unit data on the domain (2 pi and
    # sqrt(2 pi)).  The mass, mean_g_norm and at N = 1 every monitor are often
    # roundoff of that scale, which the two marches round differently.  The
    # worst over all 216 configurations was 7.0e-15, and 2.8e-14 for the
    # final state against its largest coefficient or 1.
    nv = 4 if model == "slab" else None
    spec = ExperimentSpec(mode="solve", model=model, nv=nv, degree=k, cells=(n_cells,),
                          eps=(eps,), tmax=0.2, ic=ic)
    result = run_solve(spec)
    ref_rows, ref_packed, ref_lag = _stencil_solve(spec, result.header["dt_used"],
                                                   result.rows[-1]["n"])
    assert len(result.rows) == len(ref_rows) and not result.diverged
    energy_scale = max([2 * np.pi] + [r["energy"] for r in ref_rows])
    norm_scale = max([np.sqrt(2 * np.pi)] + [max(r["rho_norm"], r["g_norm"]) for r in ref_rows])
    for row, ref in zip(result.rows, ref_rows):
        assert abs(row["energy"] - ref["energy"]) <= 1e-13 * energy_scale
        for key in _MONITORS[1:]:
            assert abs(row[key] - ref[key]) <= 1e-13 * norm_scale, key
    final = pack_state(result.final_state)
    assert np.max(np.abs(final - ref_packed)) <= 1e-13 * max(1.0, np.max(np.abs(ref_packed)))
    # the lag solve checkpoints is its previous row's g_norm (row 0's at n = 0)
    lag = result.rows[max(len(result.rows) - 2, 0)]["g_norm"]
    assert abs(lag - ref_lag) <= 1e-13 * norm_scale


def _solve_from(monkeypatch, spec, packed):
    """run_solve of spec from the given packed initial state."""
    monkeypatch.setattr(harness, "_initial_state",
                        lambda spec, config: unpack_state(packed, config))
    return run_solve(spec)


def test_solve_of_a_zero_state_keeps_every_row_zero(monkeypatch):
    # no frequency is live, so the march steps an empty spectrum
    spec = ExperimentSpec(mode="solve", model="slab", nv=4, degree=1, cells=(8,), tmax=0.05)
    result = _solve_from(monkeypatch, spec, np.zeros((8, 10)))
    assert not result.diverged and len(result.rows) > 2
    assert all(row[key] == 0.0 for row in result.rows for key in _MONITORS)
    assert not pack_state(result.final_state).any()


def test_solve_of_a_nan_state_diverges_at_once(monkeypatch):
    # a NaN in rho's mean mode spreads over that column's spectrum, keeps every
    # frequency live and makes E_0 NaN; the g columns stay finite
    spec = ExperimentSpec(mode="solve", degree=1, cells=(8,), tmax=0.05)
    packed = np.ones((8, 6))
    packed[3, 0] = np.nan
    result = _solve_from(monkeypatch, spec, packed)
    assert result.diverged and result.diverge_step == 0
    (row,) = result.rows
    assert row["status"] == "diverged"
    assert all(math.isnan(row[key]) for key in ("energy", "rho_norm", "mass"))
    # both modes of g are 1: ||1||^2 + ||P_1||^2 = 2 pi (1 + 1/3) at every node
    assert row["g_norm"] == pytest.approx(math.sqrt(2 * np.pi * 4 / 3), rel=1e-14)
    assert np.isnan(pack_state(result.final_state)[:, 0]).all()


def test_marches_against_extended_precision():
    # 10^4 steps of the stencil's map, its float blocks taken as exact, in
    # 160-bit arithmetic by binary powering: both marches stay within 1e-13
    # of it in ||rho^n||^2 and |||g^n|||^2 at every n = 2^j and at the last
    # step.  Measured: neither is closer throughout.  The spectral march has
    # the smaller relative error at 10 of the 15 checkpoints and the smaller
    # worst one (9.3e-15 against 1.3e-14), the stencil march at the last step
    # (8.3e-15 against 9.3e-15); both grow like accumulated roundoff.
    mpmath = pytest.importorskip("mpmath")
    spec = ExperimentSpec(mode="solve", degree=1, cells=(4,), eps=(0.1,))
    n_steps = 10**4
    config = build_config(spec, 4, 0.1, dt=2e-4)
    assert config.dt <= scheme.stable_dt(config)
    stepper = StencilStepper(config)
    packed = _initial_packed(config)
    n, block = packed.shape
    unit = np.eye(n * block).reshape(-1, n, block)
    exact = np.vectorize(mpmath.mpf, otypes=[object])
    with mpmath.workprec(160):
        power = exact(np.array([stepper.apply(e).ravel() for e in unit]).T)
        start = exact(packed.ravel())
        checks, state, bits = {}, start, n_steps
        for j in range(n_steps.bit_length()):
            checks[2**j] = power.dot(start)
            if bits >> j & 1:
                state = power.dot(state)
            power = power.dot(power)
        checks[n_steps] = state
        mass = [mpmath.mpf(m) for m in stepper._mass]
        weights = [mpmath.mpf(w) for w in config.space.weights]

        def norms_sq(flat):
            cells = flat.reshape(n, 2 + 1, 2)  # rho, then g at the two nodes
            rho_sq = sum(c[0, j] ** 2 * mass[j] for c in cells for j in range(2))
            g_sq = sum(c[1 + q, j] ** 2 * weights[q] * mass[j]
                       for c in cells for q in range(2) for j in range(2))
            return rho_sq, g_sq

        exact_norms = {step: norms_sq(flat) for step, flat in checks.items()}
    errors = {}
    live = stencil.LiveSpectrum(stepper, packed)
    for name, march in (("stencil", stencil._stencil_march(stepper, packed, n_steps)),
                        ("spectral", live.march(n_steps))):
        rho_sq, g_sq = [], []
        for _, _, ok, rho, g, _ in march:
            rho_sq.append(rho.copy())
            g_sq.append(g.copy())
        rho_sq, g_sq = np.concatenate(rho_sq), np.concatenate(g_sq)
        errors[name] = {
            step: max(float(abs(rho_sq[step] - r) / r), float(abs(g_sq[step] - g) / g))
            for step, (r, g) in exact_norms.items()
        }
        assert ok and max(errors[name].values()) <= 1e-13, (name, errors[name])
    spectral_wins = sum(errors["spectral"][n] < errors["stencil"][n] for n in exact_norms)
    print(f"spectral march closer at {spectral_wins} of {len(exact_norms)} checkpoints;",
          {name: f"worst {max(e.values()):.2g}, last {e[n_steps]:.2g}" for name, e in errors.items()})


@pytest.mark.parametrize(
    "dt, stop_factor", [(1e-3, None), (0.3, GROWTH_LIMIT)], ids=["stable", "diverging"]
)
def test_energy_history_independent_of_chunk_size(monkeypatch, dt, stop_factor):
    spec = ExperimentSpec(mode="solve", degree=0, cells=(32,), eps=(1e-6,))
    config = build_config(spec, 32, 1e-6, dt)
    ic = IC_REGISTRY["sin"]
    state = scheme.init_state(ic.rho0, ic.g0, config)
    energies, ok = energy_history(config, state, 300, stop_factor)
    monkeypatch.setattr("mmdg.stencil.CHUNK_BYTES", 1)  # one state per chunk
    single, single_ok = energy_history(config, state, 300, stop_factor)
    assert ok == single_ok == (stop_factor is None)
    assert np.array_equal(energies, single)


def _probe_packed(config, data):
    """Packed probe data: an initial condition of the registry, checkerboard
    cell averages of rho with g = 0 (the Nyquist mode alone), or noise."""
    if data in IC_REGISTRY:
        return _initial_packed(config, data)
    n, block = config.mesh.n_cells, (1 + config.space.n_nodes) * (config.degree + 1)
    if data == "checkerboard":
        packed = np.zeros((n, block))
        packed[:, 0] = (-1.0) ** np.arange(n)
        return packed
    return np.random.default_rng(n).standard_normal((n, block))


def _stencil_energies(config, packed, n_steps, stop_factor):
    """energy_history's (energies, ok) through StencilStepper.apply, whatever the data."""
    march = stencil._stencil_march(StencilStepper(config), packed, n_steps, stop_factor)
    chunks = [(energies, ok) for _, energies, ok, *_ in march]
    return np.concatenate([energies for energies, _ in chunks]), chunks[-1][1]


@settings(max_examples=40, deadline=None, database=None)
@given(
    model=st.sampled_from(["telegraph", "slab"]),
    k=st.integers(0, 2),
    n_cells=st.sampled_from([1, 2, 3, 16, 64]),
    eps=st.sampled_from([0.0, 1e-6, 0.3]),
    factor=st.sampled_from([0.5, 1.0, 2.0]),
    data=st.sampled_from(["sin", "bump", "checkerboard", "random"]),
)
def test_energy_history_matches_the_stencil_march(model, k, n_cells, eps, factor, data):
    # the scan's probe, on whichever path its data and dt choose, against
    # the apply march: same length and verdict, energies within 1e-13 E_0.
    # The worst over all 1080 configurations was 6.1e-15 E_0.
    spec = ExperimentSpec(mode="solve", model=model, nv=4, degree=k, cells=(n_cells,), eps=(eps,))
    config = build_config(spec, n_cells, eps, dt=1.0)
    config = replace(config, dt=factor * scheme.stable_dt(config))
    packed = _probe_packed(config, data)
    n_steps = harness.MIN_PROBE_STEPS
    energies, ok = energy_history(config, unpack_state(packed, config), n_steps, GROWTH_LIMIT)
    ref, ref_ok = _stencil_energies(config, packed, n_steps, GROWTH_LIMIT)
    assert ok == ref_ok and len(energies) == len(ref)
    assert np.max(np.abs(energies - ref)) <= 1e-13 * ref[0]


@pytest.mark.parametrize(
    "data, factor, steps_apply",
    [("sin", 1.0, False), ("random", 1.0, True), ("sin", 2.0, True)],
    ids=["sin-at-dt_stab", "random-at-dt_stab", "sin-above-dt_stab"],
)
def test_energy_history_steps_apply_only_where_every_frequency_is_live(
    monkeypatch, data, factor, steps_apply
):
    # sin holds one frequency, which the cut keeps alone at dt <= dt_stab;
    # noise holds all of them, and above dt_stab a probe shorter than the
    # certificate's gate is not cut
    calls = {"apply": 0, "symbol": 0}
    for name in calls:

        def counted(self, *args, _method=getattr(StencilStepper, name), _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(StencilStepper, name, counted)
    spec = ExperimentSpec(mode="solve", model="slab", nv=8, degree=1, cells=(32,), eps=(1e-2,))
    config = build_config(spec, 32, 1e-2, dt=1.0)
    config = replace(config, dt=factor * scheme.stable_dt(config))
    state = unpack_state(_probe_packed(config, data), config)
    assert harness.MIN_PROBE_STEPS < stencil.CERT_STEPS * StencilStepper(config).block
    energies, _ = energy_history(config, state, harness.MIN_PROBE_STEPS, GROWTH_LIMIT)
    # the symbol is built only for the march that steps the live spectrum
    assert calls == ({"apply": len(energies) - 1, "symbol": 0} if steps_apply
                     else {"apply": 0, "symbol": 1})


@pytest.mark.parametrize(
    "data, factor, include_bh, rffts",
    [
        ("sin", 1.0, True, 1),
        ("random", 1.0, True, 1),
        ("sin", 2.0, True, 0),
        ("random", 2.0, True, 0),
        ("sin", None, False, 0),
    ],
    ids=["sin-at-dt_stab", "random-at-dt_stab", "sin-above-dt_stab", "random-above-dt_stab",
         "no-dt_stab"],
)
def test_energy_history_takes_an_rfft_only_where_the_cut_applies(
    monkeypatch, data, factor, include_bh, rffts
):
    # above dt_stab, or on the slab without b_h, which has no dt_stab, a probe
    # shorter than the certificate's gate cannot cut a frequency, so it steps
    # apply without a spectrum
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *args, **kw: calls.append(1) or rfft(*args, **kw))
    spec = ExperimentSpec(mode="solve", model="slab", nv=8, degree=1, cells=(32,), eps=(1e-2,),
                          include_bh=include_bh)
    config = build_config(spec, 32, 1e-2, dt=1.0)
    if factor is not None:
        config = replace(config, dt=factor * scheme.stable_dt(config))
    state = unpack_state(_probe_packed(config, data), config)
    assert harness.MIN_PROBE_STEPS < stencil.CERT_STEPS * StencilStepper(config).block
    energy_history(config, state, harness.MIN_PROBE_STEPS, GROWTH_LIMIT)
    assert len(calls) == rffts


@pytest.mark.parametrize(
    "eps, factor, extra_steps, certified, path",
    [
        (1e-2, 2.0, 0, True, "spectrum"),
        (1e-2, 5.0, 0, False, "apply"),
        (0.0, 2.0, 0, True, "spectrum"),
        (0.0, 17.6, 0, False, "apply"),
        (1e-2, 2.0, -1, True, "short"),
    ],
    ids=["certified", "above-the-certified-step", "eps-0", "eps-0-above-the-certified-step",
         "shorter-than-the-gate"],
)
def test_energy_history_marches_the_spectrum_on_long_certified_probes(
    monkeypatch, eps, factor, extra_steps, certified, path
):
    # Above dt_stab a probe of at least CERT_STEPS * block steps cuts the
    # spectrum where StencilStepper.certified holds: the sweep case's eps = 0.01
    # at N = 128 is certified at 2 dt_stab, not at 5 (dt_energy is about
    # 4.56 dt_stab there); eps = 0 is certified up to 17.4 dt_stab, not at
    # 17.6 (see test_eps_to_zero_certificate_is_stricter_than_the_limit_step).
    # Whatever the path, the probe matches the apply march: same length and
    # verdict, energies within 1e-13 E_0.
    calls = {"apply": 0, "rfft": 0}

    def counted(name, function):
        def wrapper(*args, **kw):
            calls[name] += 1
            return function(*args, **kw)

        return wrapper

    spec = ExperimentSpec(mode="solve", model="slab", nv=8, degree=1, cells=(128,), eps=(eps,))
    config = build_config(spec, 128, eps, dt=1.0)
    config = replace(config, dt=factor * scheme.stable_dt(config))
    stepper = StencilStepper(config)
    assert stepper.certified == certified
    n_steps = stencil.CERT_STEPS * stepper.block + extra_steps
    packed = _initial_packed(config)
    ref, ref_ok = _stencil_energies(config, packed, n_steps, GROWTH_LIMIT)
    monkeypatch.setattr(StencilStepper, "apply", counted("apply", StencilStepper.apply))
    monkeypatch.setattr(np.fft, "rfft", counted("rfft", np.fft.rfft))
    energies, ok = energy_history(config, unpack_state(packed, config), n_steps, GROWTH_LIMIT)
    steps = len(energies) - 1
    assert calls == {"spectrum": {"apply": 0, "rfft": 1}, "apply": {"apply": steps, "rfft": 1},
                     "short": {"apply": steps, "rfft": 0}}[path]
    assert ok == ref_ok and len(energies) == len(ref)
    assert np.max(np.abs(energies - ref)) <= 1e-13 * ref[0]


@settings(max_examples=40, deadline=None, database=None)
@given(
    variant=st.sampled_from(
        [
            dict(model="telegraph"),
            dict(model="telegraph", include_bh=False),
            dict(model="slab", nv=2),
            dict(model="slab", nv=4),
            dict(model="slab", nv=8, continuum_moments=True),
        ]
    ),
    k=st.integers(0, 2),
    flux=st.sampled_from(["alt-lr", "alt-rl", "central"]),
    n_cells=st.integers(1, 32),
    eps=st.just(0.0) | st.floats(-6.0, 1.0).map(lambda e: 10.0**e),
    factor=st.floats(0.05, 1.0),
    sparse=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_energy_history_decays_at_or_below_the_stable_step(
    variant, k, flux, n_cells, eps, factor, sparse, seed
):
    # The paper's energy theorem on random configs and data, through the
    # scan's own probe: noise keeps every frequency live (apply), a few
    # Fourier modes let the cut drop the rest (the live spectrum, once
    # N // 2 + 1 > 3).  The theorem holds for micro-macro data, <g> = 0:
    # noise with a velocity mean rose by up to 15% of E_0 at eps > 1.
    # Rises are counted from E_1 on, as in C3; over 20 000 random cases the
    # largest was 8e-16 of E_0.
    spec = ExperimentSpec(mode="solve", degree=k, cells=(n_cells,), eps=(eps,), flux=flux,
                          **variant)
    config = build_config(spec, n_cells, eps, dt=1.0)
    config = replace(config, dt=factor * scheme.stable_dt(config))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_cells, config.space.n_nodes, k + 1))
    g -= config.space.bracket(g, axis=1)[:, None]
    packed = np.concatenate([rng.standard_normal((n_cells, k + 1)), g.reshape(n_cells, -1)], axis=1)
    if sparse:
        spectrum = np.fft.rfft(packed, axis=0)
        spectrum[1 + rng.permutation(len(spectrum) - 1)[2:]] = 0.0
        packed = np.fft.irfft(spectrum, n=n_cells, axis=0)
    energies, ok = energy_history(config, unpack_state(packed, config), 40)
    rises = np.diff(energies[1:])
    assert ok and rises.max() <= 1e-12 * energies[0]


def test_diverging_runs_emit_no_warning():
    # a chunk steps on past the divergence into overflow; those steps are
    # thrown away and must not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_solve(
            ExperimentSpec(
                mode="solve", degree=0, cells=(32,), eps=(1e-6,), tmax=1000.0,
                dt=0.5, force_dt=True,
            )
        )
        assert result.diverged
        run_stability_scan(
            ExperimentSpec(
                mode="stability-scan", model="slab", nv=4, degree=1, cells=(32,),
                eps=(1e-6, 1e-2, 1.0), tmax=0.05,
            )
        )


@pytest.mark.parametrize(
    "case",
    [
        dict(model="slab", nv=6, degree=2),
        dict(degree=0),
        dict(degree=1),
        # the one flux whose +-2 blocks are nonzero
        dict(degree=1, flux="central"),
    ],
    ids=["slab-k2", "telegraph-k0", "telegraph-k1", "telegraph-k1-central"],
)
@pytest.mark.parametrize("n_cells", range(1, 8))
def test_stencil_apply_matches_rolled_sum_and_step(case, n_cells):
    # below five cells the gather folds several offsets onto the same cell
    spec = ExperimentSpec(mode="solve", cells=(n_cells,), eps=(0.3,), **case)
    config = build_config(spec, n_cells, 0.3, dt=0.05)
    stepper = StencilStepper(config)
    packed = np.random.default_rng(n_cells).standard_normal((n_cells, stepper.block))
    rolled = sum(
        np.roll(packed, off, axis=0) @ block.T
        for off, block in zip(stepper._offsets, stepper._mblocks)
    )
    stepped = pack_state(scheme.step(unpack_state(packed, config), config))
    out = stepper.apply(packed)
    for ref in (rolled, stepped):
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def _reached_offsets(packed_step, config, block):
    """Offsets, target cell minus source cell, at which one packed_step of a
    unit impulse in the middle cell, one column at a time, is not exactly 0."""
    n = config.mesh.n_cells
    reached = set()
    for column in range(block):
        packed = np.zeros((n, block))
        packed[n // 2, column] = 1.0
        reached.update(np.flatnonzero(packed_step(packed, config).any(axis=1)) - n // 2)
    return sorted(reached)


REACH_BY_FLUX = {"alt-lr": [-1, 0, 1], "alt-rl": [-1, 0, 1], "central": [-2, -1, 0, 1, 2]}


@pytest.mark.parametrize("flux", REACH_BY_FLUX)
@pytest.mark.parametrize(
    "case",
    [
        dict(model="telegraph"),
        dict(model="telegraph", include_bh=False),
        dict(model="slab", nv=2),
        dict(model="slab", nv=4),
        dict(model="slab", nv=8),
    ],
    ids=["telegraph", "telegraph-no-bh", "slab-nv2", "slab-nv4", "slab-nv8"],
)
def test_stencil_keeps_the_offsets_the_step_reaches(case, flux):
    # seven cells hold offsets -3..3 apart, so a reach beyond the kept offsets
    # would show; the stepper reads its offsets from its probe, and they must
    # be the step's, for scheme.step and for ap-limit's joint step alike
    expected = REACH_BY_FLUX[flux]
    for k in range(3):
        spec = ExperimentSpec(mode="ap-limit", cells=(7,), degree=k, flux=flux, **case)
        config = build_config(spec, 7, 0.0, dt=0.05)
        m2 = config.space.moments().m2
        for eps in (0.0, 0.3):
            kinetic = build_config(spec, 7, eps, dt=0.05)
            stepper = StencilStepper(kinetic)
            assert stepper._offsets.tolist() == expected
            assert _reached_offsets(stencil._packed_step, kinetic, stepper.block) == expected
            block = stepper.block + 2 * (k + 1)
            joint = harness._joint_step(kinetic, m2)
            assert StencilStepper(config, joint, block)._offsets.tolist() == expected
            assert _reached_offsets(joint, config, block) == expected


@settings(max_examples=30, deadline=None, database=None)
@given(
    model=st.sampled_from(["telegraph", "slab"]),
    k=st.integers(0, 2),
    n_cells=st.integers(1, 12),
    eps=st.just(0.0) | st.floats(1e-6, 10.0),
    n_steps=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
    sparse=st.booleans(),
)
def test_stencil_equals_scheme_step_properties(model, k, n_cells, eps, n_steps, seed, sparse):
    # at the policy's step: apply and one step of the live spectrum are each one
    # scheme.step, and propagate(n) is n applies
    spec = ExperimentSpec(mode="solve", model=model, nv=4, degree=k, cells=(n_cells,), eps=(eps,))
    config = build_config(spec, n_cells, eps, dt=1.0)
    config = replace(config, dt=resolve_dt(spec, config)[0])
    stepper = StencilStepper(config)
    rng = np.random.default_rng(seed)
    packed = rng.standard_normal((n_cells, stepper.block))
    if sparse:  # a few Fourier modes over noise at 1e-17, which propagate drops
        # mode 0 carries the mass, which no step decays, so the output keeps
        # its scale and stepping's roundoff stays below 1e-12 of it
        spectrum = np.fft.rfft(packed, axis=0)
        spectrum[1 + rng.permutation(len(spectrum) - 1)[2:]] = 0.0
        packed = np.fft.irfft(spectrum, n=n_cells, axis=0)
        packed += 1e-17 * np.max(np.abs(packed)) * rng.standard_normal(packed.shape)
    stepped = pack_state(scheme.step(unpack_state(packed, config), config))
    assert np.max(np.abs(stepper.apply(packed) - stepped)) <= 1e-13 * np.max(np.abs(stepped))
    live = stencil.LiveSpectrum(stepper, packed)
    assert np.max(np.abs(live.packed(live.step(live.start)) - stepped)) <= 1e-13 * np.max(
        np.abs(stepped)
    )
    applied = packed
    for _ in range(n_steps):
        applied = stepper.apply(applied)
    assert _rel_diff(stepper.propagate(packed, n_steps), applied) <= 1e-12


@settings(max_examples=30, deadline=None, database=None)
@given(
    model=st.sampled_from(["telegraph", "slab"]),
    k=st.integers(0, 2),
    n_cells=st.integers(1, 16),
    n_states=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
# a stack whose spectra are not C-contiguous, which a sum over a strided axis rounds by its length
@example(model="telegraph", k=0, n_cells=14, n_states=2, seed=0)
# one-cell states at two velocity nodes, which a three-operand einsum over
# (node, mode) summed in another order for the stack than for each state
@example(model="telegraph", k=1, n_cells=1, n_states=5, seed=1)
def test_stacked_norms_equal_per_state_norms(model, k, n_cells, n_states, seed):
    # the march takes its monitors one chunk at a time, so solve's bytes must
    # not depend on how many states CHUNK_BYTES lets a chunk hold
    spec = ExperimentSpec(mode="solve", model=model, nv=4, degree=k, cells=(n_cells,), eps=(0.3,))
    stepper = StencilStepper(build_config(spec, n_cells, 0.3, dt=1e-3))
    stack = np.random.default_rng(seed).standard_normal((n_states, n_cells, stepper.block))
    for norm_sq in (stepper.rho_norm_sq, stepper.g_norm_sq):
        assert np.array_equal(norm_sq(stack), [norm_sq(packed) for packed in stack])
    # and so must solve's monitors of a stack of live spectra
    live = stencil.LiveSpectrum(stepper, stack[0])
    spectra = np.fft.rfft(stack, axis=1)[:, live.freqs]
    for monitor in (lambda s: np.stack(live.norms_sq(s)), live.mean_g_norm_sq, live.mass):
        alone = [monitor(spectra[i : i + 1]) for i in range(n_states)]
        assert np.array_equal(monitor(spectra), np.concatenate(alone, axis=-1))


@pytest.mark.parametrize(
    "model, nv, k", [("telegraph", 2, 1), ("slab", 8, 1), ("slab", 32, 2)],
    ids=["telegraph-B6", "slab-B18", "slab-B99"],
)
def test_live_step_is_one_dot_per_symbol_row(model, nv, k, monkeypatch):
    # random data keep all 33 frequencies of 64 cells live
    spec = ExperimentSpec(mode="solve", model=model, nv=nv, degree=k, cells=(64,), eps=(0.3,))
    stepper = StencilStepper(build_config(spec, 64, 0.3, dt=1e-3))
    packed = np.random.default_rng(k).standard_normal((64, stepper.block))
    live = stencil.LiveSpectrum(stepper, packed)
    symbol = stepper.symbol(live.freqs)
    stacked = live.step(live.start)
    # each row agrees with the batched einsum matvec within a few ulp of the
    # row's scale sum_b |S_ab| |x_b|; two sum orders differ by about sqrt(block) ulp
    ref = np.einsum("fab,fb->fa", symbol, live.start)
    scale = np.einsum("fab,fb->fa", np.abs(symbol), np.abs(live.start))
    assert np.all(np.abs(stacked - ref) <= 2 * math.sqrt(stepper.block) * np.spacing(scale))
    # a frequency stepped alone, on the same symbol row, gives the same bits as
    # in the stack: solve's rows do not depend on which other frequencies live
    monkeypatch.setattr(stepper, "symbol", lambda freqs: symbol[np.searchsorted(live.freqs, freqs)])
    spectrum = np.fft.rfft(packed, axis=0)
    for i, j in enumerate(live.freqs):
        only = np.zeros_like(spectrum)
        only[j] = spectrum[j]
        alone = stencil.LiveSpectrum(stepper, np.fft.irfft(only, n=64, axis=0), cut=True)
        assert alone.freqs.tolist() == [j]
        out = np.empty((1, stepper.block), complex)
        alone.step(live.start[i : i + 1], out=out)
        assert np.array_equal(out[0], stacked[i])


def test_stencil_build_steps_once_at_the_mesh_width(monkeypatch):
    # five cells of width h = 2 pi / 13 span a mesh whose own width is not h
    spec = ExperimentSpec(mode="solve", cells=(13,), eps=(0.3,))
    config = build_config(spec, 13, 0.3, dt=0.05)
    widths, step = [], scheme.step

    def recorded(state, probe):
        widths.append(probe.mesh.h)
        return step(state, probe)

    monkeypatch.setattr(scheme, "step", recorded)
    StencilStepper(config)
    assert widths == [config.mesh.h]


def _propagate_case(model, n_cells):
    # 2**20 steps of 1e-6 span t ~ 1, so the high powers stay far from the
    # steady state and one step more or less shows at 1e-12
    spec = ExperimentSpec(mode="converge", model=model, nv=6, degree=1, cells=(n_cells,))
    stepper = StencilStepper(build_config(spec, n_cells, 0.3, dt=1e-6))
    packed = np.random.default_rng(n_cells).standard_normal((n_cells, stepper.block))
    return stepper, packed


def _rel_diff(out, ref):
    return np.max(np.abs(out - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("n_cells", [7, 16])
@pytest.mark.parametrize("model", ["slab", "telegraph"])
def test_propagate_matches_stepping(model, n_cells):
    stepper, packed = _propagate_case(model, n_cells)
    stepped, done = packed, 0
    for n_steps in (0, 1, 2, 8, 9, 255, 256, 1000):
        for _ in range(n_steps - done):
            stepped = stepper.apply(stepped)
        done = n_steps
        assert _rel_diff(stepper.propagate(packed, n_steps), stepped) <= 1e-12
    # every bit of the exponent is set, so each matvec of the powering counts
    n_steps = 2**20 - 1
    power = np.linalg.matrix_power(stepper.symbol(np.arange(n_cells // 2 + 1)), n_steps)
    spectrum = np.einsum("fab,fb->fa", power, np.fft.rfft(packed, axis=0))
    ref = np.fft.irfft(spectrum, n=n_cells, axis=0)
    assert _rel_diff(stepper.propagate(packed, n_steps), ref) <= 1e-12


def test_propagate_is_pure():
    # the powering overwrites the symbol, so each call must build its own
    stepper, packed = _propagate_case("slab", 16)
    before, blocks = packed.copy(), [m.copy() for m in stepper._mblocks]
    first = stepper.propagate(packed, 1000)
    assert np.array_equal(stepper.propagate(packed, 1000), first)
    assert np.array_equal(packed, before)
    assert all(np.array_equal(m, b) for m, b in zip(stepper._mblocks, blocks))


def _record_powered(monkeypatch):
    """Frequencies each _apply_matrix_power call receives, and the unpatched power."""
    powered, power = [], stencil._apply_matrix_power

    def recorded(mats, exponent, vecs):
        powered.append(len(mats))
        return power(mats, exponent, vecs)

    monkeypatch.setattr(stencil, "_apply_matrix_power", recorded)
    return powered, power


def _initial_packed(config, ic="sin"):
    ic = IC_REGISTRY[ic]
    return pack_state(scheme.init_state(ic.rho0, ic.g0, config))


@pytest.mark.parametrize("model, nv", [("telegraph", 2), ("slab", 4), ("slab", 32)])
def test_propagate_powers_only_the_live_frequencies(monkeypatch, model, nv):
    # The refine workload's reference level: k = 2, N = 1024 and about 2e6
    # steps.  Its data hold 1, 2 and about 35 of the 513 frequencies above
    # roundoff.  At refine's own nv = 32 one full power takes about a
    # second, so there only the counts are checked.
    powered, power = _record_powered(monkeypatch)
    for eps in (1.0, 1e-2, 1e-6, 1e-8):
        # bump data: _convergence_levels gives a reference level at every eps
        spec = ExperimentSpec(mode="converge", model=model, nv=nv, degree=2,
                              cells=(64, 128, 256), eps=(eps,), tmax=0.1, ic="bump")
        _, (config, n_steps) = harness._convergence_levels(spec, eps, spec.cells)
        assert config.mesh.n_cells == 1024
        stepper = StencilStepper(config)
        for ic, n_live in (("sin", [1]), ("ill-prepared", [2]), ("bump", range(30, 41))):
            packed = _initial_packed(config, ic)
            powered.clear()
            out = stepper.propagate(packed, n_steps)
            assert sum(powered) in n_live, (eps, ic, powered)
            if nv < 32:
                freqs = np.arange(config.mesh.n_cells // 2 + 1)
                spectrum = power(stepper.symbol(freqs), n_steps, np.fft.rfft(packed, axis=0))
                full = np.fft.irfft(spectrum, n=config.mesh.n_cells, axis=0)
                assert np.max(np.abs(out - full)) <= 2e-15 * np.max(np.abs(packed)), (eps, ic)


def test_propagate_powers_every_frequency_above_the_stable_step(monkeypatch):
    # Beyond dt_stab the energy theorem does not hold: at 1.3 dt_stab mode
    # j = 16 has spectral radius 1.43, and its roundoff grows from 1e-16 to
    # about 6e14 in 200 steps.  Dropping it would report a decayed sine.
    spec = ExperimentSpec(mode="solve", degree=0, cells=(32,), eps=(1.0,))
    config = build_config(spec, 32, 1.0, dt=1.0)
    config = replace(config, dt=1.3 * scheme.stable_dt(config))
    stepper, packed = StencilStepper(config), _initial_packed(config)
    stepped = packed
    for _ in range(200):
        stepped = stepper.apply(stepped)
    powered, _ = _record_powered(monkeypatch)
    out = stepper.propagate(packed, 200)
    assert sum(powered) == 17
    # each amplifies its own roundoff, so the two agree only in size
    assert np.max(np.abs(stepped)) > 1e10 and np.max(np.abs(out)) > 1e10


def test_propagate_powers_every_frequency_without_a_stable_step(monkeypatch):
    # slab without b_h has no dt_stab, so nothing bounds the dropped roundoff
    spec = ExperimentSpec(mode="solve", model="slab", nv=4, degree=1, cells=(16,),
                          eps=(0.3,), include_bh=False)
    config = build_config(spec, 16, 0.3, dt=1e-3)
    with pytest.raises(ValueError, match="two-point"):
        scheme.stable_dt(config)
    stepper, packed = StencilStepper(config), _initial_packed(config)
    stepped = packed
    for _ in range(50):
        stepped = stepper.apply(stepped)
    powered, _ = _record_powered(monkeypatch)
    assert _rel_diff(stepper.propagate(packed, 50), stepped) <= 1e-12
    assert sum(powered) == 9


def test_propagate_of_zeros_is_zeros():
    # no frequency is live, so the power gets an empty stack
    stepper, packed = _propagate_case("slab", 16)
    assert np.array_equal(stepper.propagate(np.zeros_like(packed), 1000), np.zeros_like(packed))


def test_propagate_keeps_every_frequency_of_a_nan_state(monkeypatch):
    # the NaN spreads over the whole spectrum, and no comparison with it drops a frequency
    stepper, packed = _propagate_case("slab", 16)
    packed[3, 2] = np.nan
    powered, _ = _record_powered(monkeypatch)
    out = stepper.propagate(packed, 1000)
    assert sum(powered) == 9 and np.isnan(out).all()


def test_propagate_starts_no_thread(monkeypatch):
    # BLAS's own thread setting is the only parallelism, so the bytes do not
    # depend on how many CPUs the process may use
    stepper, packed = _propagate_case("telegraph", 7)

    def refuse(thread):
        raise RuntimeError("a thread started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert np.isfinite(stepper.propagate(packed, 2**20 - 1)).all()
    with pytest.raises(ValueError, match="n_steps must be >= 0"):
        stepper.propagate(packed, -1)


def test_import_loads_no_thread_pool():
    # nothing in mmdg imports a thread pool, so importing it stays cheap
    src = os.path.dirname(os.path.dirname(harness.__file__))
    code = "import sys, mmdg; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (out.returncode, out.stdout.strip()) == (0, "False"), out.stderr


def test_zero_fixed_steps_return_the_state():
    spec = ExperimentSpec(mode="solve", model="slab", nv=6, degree=1, cells=(16,), eps=(0.3,))
    config = build_config(spec, 16, 0.3, dt=2e-4)
    ic = IC_REGISTRY["sin"]
    state = scheme.step(scheme.init_state(ic.rho0, ic.g0, config), config)
    out = unpack_state(run_fixed_steps(config, pack_state(state), 0), config)
    assert np.array_equal(out.rho.coeff, state.rho.coeff)
    assert np.array_equal(out.g.coeff, state.g.coeff)


def _count_calls(monkeypatch, owner, names):
    """Counter of calls to owner's methods names, filled as they run."""
    calls = Counter()
    for name in names:
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_fixed_steps_are_one_propagate(monkeypatch):
    # every step sits in the power of the symbol: no real-space step and no
    # packed norm rides along
    spec = ExperimentSpec(mode="solve", model="slab", nv=6, degree=1, cells=(16,), eps=(0.3,))
    config = build_config(spec, 16, 0.3, dt=2e-4)
    ic = IC_REGISTRY["sin"]
    packed = pack_state(scheme.init_state(ic.rho0, ic.g0, config))
    calls = _count_calls(monkeypatch, StencilStepper,
                         ("propagate", "apply", "rho_norm_sq", "g_norm_sq"))
    for n_steps in (1, 7):
        calls.clear()
        run_fixed_steps(config, packed, n_steps)
        assert calls == {"propagate": 1}, n_steps


def test_converge_peak_memory_stays_near_its_reference_state():
    # the bench's refine spec: the states stay packed from projection to error
    # and the stencil probe's step makes few temporaries, so the traced peak
    # stays under 5 packed states of the 1024-cell reference (6.1 of them
    # when each run was unpacked and restacked)
    spec = ExperimentSpec(mode="converge", model="slab", nv=32, degree=2,
                          cells=(64, 128, 256), eps=(1e-2,), tmax=0.1)
    harness.run(spec)  # the caches of the basis and the velocity space fill once
    tracemalloc.start()
    try:
        harness.run(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    reference_state = 8 * 1024 * (1 + 32) * 3
    assert peak < 5 * reference_state, peak / reference_state


def test_ap_limit_takes_no_kinetic_norm(monkeypatch):
    # ap-limit forms no energy, so it takes no |||g|||
    calls = _count_calls(monkeypatch, KineticField, ("triple_norm",))
    spec = ExperimentSpec(mode="ap-limit", degree=1, cells=(16,), eps=(1e-2, 0.0), tmax=0.01)
    assert len(run_ap_limit(spec).rows) == 2
    assert calls["triple_norm"] == 0


@pytest.mark.parametrize("states", [None, 10], ids=["one-chunk", "last-state-alone"])
def test_solve_checkpoint_lag_is_the_previous_rows_g_norm(monkeypatch, tmp_path, states):
    # ten steps to tmax; with ten states per chunk the last state opens a
    # chunk of its own, so its lag comes from the chunk before
    out = tmp_path / "solve.csv"
    spec = ExperimentSpec(mode="solve", degree=1, cells=(16,), eps=(0.5,), dt=1e-3, tmax=0.01,
                          ic="bump", out=str(out))
    if states:
        _chunk_states(monkeypatch, spec, states)
    result = run_solve(spec)
    assert len(result.rows) == 11
    _, _, _, lag = scheme.load_state(str(out) + ".state.csv")
    assert lag == result.rows[-2]["g_norm"]


def test_solve_requires_single_case():
    spec = ExperimentSpec(mode="solve", cells=(16, 32), eps=(1.0,))
    with pytest.raises(ValueError):
        run_solve(spec)


def test_deterministic_output(tmp_path):
    # same spec (including the output path) gives byte-identical CSV
    out = tmp_path / "run.csv"
    spec = ExperimentSpec(
        mode="solve", degree=1, cells=(16,), eps=(0.1,), tmax=0.02, out=str(out)
    )
    run_solve(spec)
    first = out.read_bytes()
    run_solve(spec)
    assert out.read_bytes() == first


def test_convergence_diffusive_orders(tmp_path):
    out = tmp_path / "conv.csv"
    spec = ExperimentSpec(
        mode="converge", degree=1, cells=(16, 32, 64), eps=(1e-8,), tmax=0.5,
        out=str(out),
    )
    result = run_convergence(spec)
    assert [r["n_cells"] for r in result.rows] == [16, 32, 64]
    assert math.isnan(result.rows[0]["order_rho"])
    for row in result.rows[1:]:
        assert row["order_rho"] > 1.7
        assert row["flag"] == ""
    assert out.exists()


def test_convergence_kinetic_self_reference():
    spec = ExperimentSpec(
        mode="converge", degree=1, cells=(8, 16, 32), eps=(1.0,), tmax=0.25
    )
    result = run_convergence(spec)
    assert result.rows[-1]["order_rho"] > 1.6


@pytest.mark.parametrize("flux", ["alt-lr", "central"])
def test_convergence_first_order_at_degree_zero(flux):
    spec = ExperimentSpec(
        mode="converge", degree=0, cells=(16, 32, 64), eps=(1e-8,), flux=flux,
        tmax=0.5,
    )
    result = run_convergence(spec)
    assert result.rows[-1]["order_rho"] >= 0.7


@pytest.mark.parametrize(
    "argv",
    [
        dict(degree=1, cells=(8, 16, 32), eps=(0.1,), tmax=0.002),  # tmax below the first step
        dict(degree=1, cells=(1, 2, 4), eps=(1e-6,), tmax=0.01),
        dict(degree=2, cells=(8, 16, 32), eps=(0.1,), tmax=0.05, ic="ill-prepared"),
        dict(model="slab", nv=4, degree=2, cells=(4, 8, 16), eps=(0.1,), tmax=0.01, ic="bump"),
    ],
    ids=["short-tmax", "one-cell", "ill-prepared", "slab-bump"],
)
def test_converge_step_counts_scale_like_h_to_the_order(argv):
    # the finer levels scale the first level's landed step, so where no cap
    # binds each doubling multiplies the step count by exactly 2^(k+1)
    spec = ExperimentSpec(mode="converge", **argv)
    levels, _ = harness._convergence_levels(spec, spec.eps[0], spec.cells)
    (first, n_first), *finer = levels
    ratio = 2 ** (spec.degree + 1)
    for j, (config, n_steps) in enumerate(finer, start=1):
        assert config.dt < spec.safety * scheme.stable_dt(config)  # no cap binds
        assert n_steps == n_first * ratio**j
        assert config.dt == first.dt / ratio**j


def test_convergence_needs_doubling_cells():
    spec = ExperimentSpec(mode="converge", cells=(8, 24, 48), eps=(1.0,))
    with pytest.raises(ValueError):
        run_convergence(spec)
    spec = ExperimentSpec(mode="converge", cells=(8, 16), eps=(1.0,))
    with pytest.raises(ValueError):
        run_convergence(spec)


def test_stability_scan_rows(tmp_path):
    out = tmp_path / "scan.csv"
    spec = ExperimentSpec(
        mode="stability-scan", degree=0, cells=(16,), eps=(1e-6, 1.0), tmax=1.0,
        out=str(out),
    )
    result = run_stability_scan(spec)
    h = 2 * np.pi / 16
    for row in result.rows:
        assert row["flag"] == ""
        assert row["dt_stab"] == pytest.approx(0.25 * h * h + 0.5 * row["eps"] * h, rel=1e-15)
        assert row["dt_empirical"] >= row["dt_stab"]
        assert row["ratio"] == pytest.approx(row["dt_empirical"] / row["dt_stab"])
    assert out.exists()


@pytest.mark.parametrize(
    "stable, flag, empirical",
    [(False, "unstable-at-theory", math.nan), (True, "no-upper-bracket", 2.0**60)],
    ids=["unstable-at-theory", "no-upper-bracket"],
)
def test_stability_scan_flags(monkeypatch, stable, flag, empirical):
    # a probe that fails at the provable step, or never fails, ends the scan
    # for that row with its flag and no bisection
    monkeypatch.setattr("mmdg.harness.is_stable", lambda config, state, tmax: stable)
    spec = ExperimentSpec(mode="stability-scan", degree=0, cells=(8,), eps=(1.0,))
    (row,) = run_stability_scan(spec).rows
    assert row["flag"] == flag
    assert row["ratio"] == pytest.approx(empirical, nan_ok=True)
    assert row["dt_empirical"] == pytest.approx(empirical * row["dt_stab"], nan_ok=True)


@pytest.mark.parametrize("boundary", [1.0, 1.3, 5.3, 100.0])
def test_stability_scan_bisects_to_two_percent(monkeypatch, boundary):
    # probes are stable up to boundary * dt_stab; the row's step is the last
    # stable one, within 2% below the boundary
    spec = ExperimentSpec(mode="stability-scan", degree=0, cells=(8,), eps=(1.0,))
    dt_stab = scheme.stable_dt(build_config(spec, 8, 1.0, dt=1.0))
    monkeypatch.setattr("mmdg.harness.is_stable",
                        lambda config, state, tmax: config.dt <= boundary * dt_stab)
    (row,) = run_stability_scan(spec).rows
    assert row["flag"] == "" and row["dt_stab"] == dt_stab
    assert boundary / 1.02 <= row["ratio"] <= boundary


def test_no_bh_empirical_boundary_scales_like_h():
    # without the mean-free streaming term (telegraph, k=0, eps=1) the
    # measured blow-up boundary sits near the transport limit dt ~ h, far
    # above the guaranteed h^2/2 and also above the with-term guarantee
    # h^2/4 + h/2 (about 0.52 h here); below it the march does not blow up,
    # though its energy need not decay (see C5b)
    spec = ExperimentSpec(
        mode="stability-scan", degree=0, cells=(64,), eps=(1.0,), tmax=1.0,
        include_bh=False,
    )
    row = run_stability_scan(spec).rows[0]
    h = 2 * np.pi / 64
    assert row["dt_stab"] == pytest.approx(h * h / 2, rel=1e-15)
    assert 0.9 * h <= row["dt_empirical"] <= 1.3 * h


def test_ap_limit_sweep():
    spec = ExperimentSpec(
        mode="ap-limit", degree=1, cells=(16,), eps=(0.0, 1e-3, 1e-6), tmax=0.02
    )
    result = run_ap_limit(spec)
    dists = [r["rho_distance"] for r in result.rows]
    assert dists[0] == 0.0
    assert dists[1] > dists[2]
    assert result.rows[0]["q_distance"] == 0.0
    # automatic step applies both the safety factor and the c0 margin, then
    # shrinks to land on tmax
    config = build_config(spec, 16, 0.0, dt=1.0)
    bound = 0.9 * 0.95 * scheme.stable_dt(config)
    steps, dt = result.rows[0]["steps"], result.header["dt_used"]
    assert dt <= bound
    assert steps == math.ceil(0.02 / bound)
    assert steps * dt == pytest.approx(0.02, rel=1e-12)


def test_ap_limit_follows_dt_policy(tmp_path):
    # a user dt beyond the bound is clamped as in solve; force_dt runs it as given
    spec = ExperimentSpec(
        mode="ap-limit", degree=1, cells=(16,), eps=(1e-2, 0.0), tmax=0.02
    )
    config = build_config(spec, 16, 0.0, dt=1.0)
    bound = 0.9 * 0.95 * scheme.stable_dt(config)
    spec.dt = 10 * bound
    result = run_ap_limit(spec)
    assert result.header["dt_used"] <= bound
    assert not result.header["dt_override"]
    assert result.rows[0]["steps"] == math.ceil(0.02 / bound)
    assert result.rows[0]["steps"] * result.header["dt_used"] == pytest.approx(0.02, rel=1e-12)
    assert result.rows[0]["rho_distance"] < 1e-2
    spec.force_dt = True
    spec.out = str(tmp_path / "ap.csv")
    result = run_ap_limit(spec)
    assert result.header["dt_used"] == 10 * bound and result.header["dt_override"]
    assert result.rows[0]["steps"] == max(1, math.ceil(0.02 / (10 * bound)))
    assert "dt_override=1" in (tmp_path / "ap.csv").read_text().splitlines()[0]


AP_LITERAL_RTOL = 1e-4  # joint path against literal stepping, relative
AP_LITERAL_ATOL = 1e-15  # per step: literal stepping's cancellation of O(1) states


@settings(max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    space=st.sampled_from([("telegraph", 2), ("slab", 4), ("slab", 8)]),
    k=st.integers(0, 2),
    n=st.integers(4, 12),
    flux=st.sampled_from(["alt-lr", "alt-rl", "central"]),
    ic=st.sampled_from(sorted(IC_REGISTRY)),
    eps=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=3),
    steps=st.integers(1, 40),
)
@example(space=("slab", 8), k=0, n=10, flux="alt-lr", ic="ill-prepared", eps=[2.4e-6], steps=2)
def test_ap_limit_rows_match_literal_stepping(monkeypatch, space, k, n, flux, ic, eps, steps):
    # one scheme.step and one step_limit per eps, both inside the joint probe,
    # and each row within AP_LITERAL_RTOL of stepping its eps and the limit
    # scheme one step at a time, above literal stepping's own roundoff
    model, nv = space
    spec = ExperimentSpec(mode="ap-limit", model=model, nv=nv, degree=k, cells=(n,),
                          eps=tuple(eps), flux=flux, ic=ic)
    config = build_config(spec, n, 0.0, dt=1.0)
    spec.tmax = steps * 0.9 * 0.95 * scheme.stable_dt(config)
    real_step = scheme.step
    steps_taken = _count_calls(monkeypatch, scheme, ("step",))
    limit_steps_taken = _count_calls(monkeypatch, harness, ("step_limit",))
    result = run_ap_limit(spec)
    assert (steps_taken["step"], limit_steps_taken["step_limit"]) == (len(eps), len(eps))
    n_steps, dt = result.rows[0]["steps"], result.header["dt_used"]
    config = replace(config, dt=dt)
    m2 = config.space.moments().m2
    state0 = scheme.init_state(IC_REGISTRY[ic].rho0, IC_REGISTRY[ic].g0, config)
    lim = LimitState(rho=state0.rho, q=state0.g.bracket_v())
    for _ in range(n_steps):
        lim = step_limit(lim, dt, flux, m2)
    for row, e in zip(result.rows, eps):
        kinetic = replace(build_config(spec, n, e, dt=1.0), dt=dt)
        state = state0
        for _ in range(n_steps):
            state = real_step(state, kinetic)
        literal = {"rho_distance": (state.rho - lim.rho).norm(),
                   "q_distance": (state.g.bracket_v() - lim.q).norm()}
        for key, value in literal.items():
            assert row[key] == pytest.approx(
                value, rel=AP_LITERAL_RTOL, abs=AP_LITERAL_ATOL * n_steps), (key, e)


def test_one_step_ap_limit_rows_share_their_first_density():
    # the limit run starts from the first moment <v g0> of the kinetic runs'
    # own projected data, so the first density update is the same on both sides
    spec = ExperimentSpec(mode="ap-limit", model="slab", nv=8, degree=1, cells=(16,),
                          eps=(1e-2, 1e-8, 0.0), tmax=0.001)
    rows = run_ap_limit(spec).rows
    assert [(row["steps"], row["rho_distance"]) for row in rows] == [(1, 0.0)] * 3


def test_run_dispatch():
    spec = ExperimentSpec(mode="ap-limit", degree=0, cells=(8,), eps=(0.0,), tmax=0.01)
    result = run(spec)
    assert result.rows[0]["rho_distance"] == 0.0


def test_is_stable_probe():
    spec = ExperimentSpec(mode="solve", degree=0, cells=(16,), eps=(1e-6,))
    config = build_config(spec, 16, 1e-6, dt=1.0)
    ic = IC_REGISTRY["sin"]
    theory = scheme.stable_dt(config)
    cfg = replace(config, dt=theory)
    assert is_stable(cfg, scheme.init_state(ic.rho0, ic.g0, cfg), 1.0)
    cfg = replace(config, dt=50 * theory)
    assert not is_stable(cfg, scheme.init_state(ic.rho0, ic.g0, cfg), 1.0)
