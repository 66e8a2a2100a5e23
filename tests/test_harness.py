import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdg import harness, scheme, stencil
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
from mmdg.limit import init_limit_state, step_limit
from mmdg.velocity import TWO_POINT, make_velocity_space


def test_registry_entries():
    assert set(IC_REGISTRY) == {"sin", "ill-prepared", "bump"}
    space = make_velocity_space(TWO_POINT)
    x = np.linspace(0, 2 * np.pi, 7)
    for name in ("sin", "bump"):
        ic = IC_REGISTRY[name]
        mean = sum(0.5 * ic.g0(x, v) for v in (-1.0, 1.0))
        assert np.max(np.abs(mean)) < 1e-14  # well prepared
        assert np.max(np.abs(ic.q0(x, 1.0) - 0.5 * (ic.g0(x, 1.0) - ic.g0(x, -1.0)))) < 1e-13
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


def test_step_budget_refuses_only_a_small_user_dt():
    # the budget applies to a user dt below the bound, never to the step
    # the policy picks itself, however many steps that plans
    spec = ExperimentSpec(mode="solve", degree=0, cells=(16,), eps=(1.0,))
    config = build_config(spec, 16, 1.0, dt=1.0)
    bound = 0.9 * scheme.stable_dt(config)
    spec.tmax = 10 * MAX_STEPS * bound
    dt, _ = resolve_dt(spec, config)
    assert dt == bound
    assert _steps_for(spec.tmax, dt, exact_dt=False)[0] > MAX_STEPS
    spec.dt = 10 * bound  # clamped to the bound: the policy's plan again
    assert resolve_dt(spec, config) == (bound, False)
    spec.dt = bound / 2
    with pytest.raises(ValueError, match="over the budget 1000000"):
        resolve_dt(spec, config)
    # a subnormal dt overflows the planned count to inf and is refused too
    spec.tmax, spec.dt = 1.0, 1e-310
    with pytest.raises(ValueError, match="plans inf steps"):
        resolve_dt(spec, config)
    # the policy's step at a safety below the default one is held to the
    # budget as a small user dt is; above the default it plans fewer steps
    spec.dt, spec.tmax = None, 10 * MAX_STEPS * bound
    spec.safety = 0.5
    with pytest.raises(ValueError, match="over the budget 1000000"):
        resolve_dt(spec, config)
    spec.safety = 0.95
    assert resolve_dt(spec, config)[0] > bound


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
    fast = run_fixed_steps(config, state, n_steps)
    assert np.max(np.abs(ref.rho.coeff - fast.rho.coeff)) < 1e-11
    assert np.max(np.abs(ref.g.coeff - fast.g.coeff)) < 1e-11
    assert fast.n == n_steps
    assert fast.g_norm_lag == pytest.approx(ref.g_norm_lag, abs=1e-11)


def test_energy_history_matches_scheme_energy():
    spec = ExperimentSpec(mode="solve", degree=1, cells=(16,), eps=(0.5,))
    config = build_config(spec, 16, 0.5, dt=1e-3)
    ic = IC_REGISTRY["sin"]
    state = scheme.init_state(ic.rho0, ic.g0, config)
    energies, ok = energy_history(config, state, 10)
    assert ok and len(energies) == 11
    ref = state
    expected = [scheme.energy(ref, config)]
    for _ in range(10):
        ref = scheme.step(ref, config)
        expected.append(scheme.energy(ref, config))
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
    loaded, _ = scheme.load_state(str(out) + ".state.csv")
    assert np.array_equal(loaded.rho.coeff, result.final_state.rho.coeff)
    assert loaded.n == result.rows[-1]["n"]


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
    state = scheme.init_state(ic.rho0, ic.g0, config)
    e0 = scheme.energy(state, config)
    rows = []
    for n in range(n_steps + 1):
        if n:
            state = scheme.step(state, config)
        en = scheme.energy(state, config)
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
    # roundoff seeds the growth, so the stencil rows differ from a literal
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
    # the stencil march of solve reproduces a literal scheme.step loop row by row
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
    assert final.g_norm_lag == pytest.approx(ref_state.g_norm_lag, abs=1e-11)
    assert not result.diverged and ref_diverge is None


def _chunk_states(monkeypatch, spec, states):
    # size the march's chunks to hold this many packed states of the spec
    nodes = 2 if spec.model == "telegraph" else spec.nv
    packed_bytes = 8 * spec.cells[0] * (1 + nodes) * (spec.degree + 1)
    monkeypatch.setattr("mmdg.stencil.CHUNK_BYTES", states * packed_bytes)


@pytest.mark.parametrize("states", [2, 3])
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
    # matches the literal scheme.step march
    spec = ExperimentSpec(mode="solve", **case)
    _chunk_states(monkeypatch, spec, states)
    _assert_solve_matches_reference(spec)


@pytest.mark.parametrize("states", [2, 3])
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
        np.roll(packed, off, axis=0) @ stepper._mblocks[off + stepper.REACH].T
        for off in range(-stepper.REACH, stepper.REACH + 1)
    )
    stepped = pack_state(scheme.step(unpack_state(packed, config), config))
    out = stepper.apply(packed)
    for ref in (rolled, stepped):
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


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
    # at the policy's step: apply is one scheme.step, propagate(n) is n applies
    spec = ExperimentSpec(mode="solve", model=model, nv=4, degree=k, cells=(n_cells,), eps=(eps,))
    config = build_config(spec, n_cells, eps, dt=1.0)
    config = scheme.with_dt(config, resolve_dt(spec, config)[0])
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
    applied = packed
    for _ in range(n_steps):
        applied = stepper.apply(applied)
    assert _rel_diff(stepper.propagate(packed, n_steps), applied) <= 1e-12


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
    power = np.linalg.matrix_power(stepper.symbol(), n_steps)
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


@pytest.mark.parametrize("n_cells", [1, 2, 7, 16])
@pytest.mark.parametrize("model", ["slab", "telegraph"])
def test_propagate_bytes_do_not_depend_on_the_worker_count(monkeypatch, model, n_cells):
    stepper, packed = _propagate_case(model, n_cells)
    n_freqs = n_cells // 2 + 1
    slabs, _ = _record_powered(monkeypatch)
    for n_steps in (0, 1, 2**20 - 1):
        outs = []
        for workers in (1, 2, 3, n_freqs + 1):
            monkeypatch.setattr(stencil, "_cpu_count", lambda w=workers: w)
            slabs.clear()
            outs.append(stepper.propagate(packed, n_steps))
            # one nonempty slab per worker, at most one per frequency, covering them all
            assert len(slabs) == min(workers, n_freqs) and min(slabs) >= 1
            assert sum(slabs) == n_freqs
        assert all(np.array_equal(out, outs[0]) for out in outs[1:])


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
                spectrum = power(stepper.symbol(), n_steps, np.fft.rfft(packed, axis=0))
                full = np.fft.irfft(spectrum, n=config.mesh.n_cells, axis=0)
                assert np.max(np.abs(out - full)) <= 2e-15 * np.max(np.abs(packed)), (eps, ic)


def test_propagate_powers_every_frequency_above_the_stable_step(monkeypatch):
    # Beyond dt_stab the energy theorem does not hold: at 1.3 dt_stab mode
    # j = 16 has spectral radius 1.43, and its roundoff grows from 1e-16 to
    # about 6e14 in 200 steps.  Dropping it would report a decayed sine.
    spec = ExperimentSpec(mode="solve", degree=0, cells=(32,), eps=(1.0,))
    config = build_config(spec, 32, 1.0, dt=1.0)
    config = scheme.with_dt(config, 1.3 * scheme.stable_dt(config))
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
    # no frequency is live, and the pool still gets one worker
    stepper, packed = _propagate_case("slab", 16)
    assert np.array_equal(stepper.propagate(np.zeros_like(packed), 1000), np.zeros_like(packed))


def test_propagate_keeps_every_frequency_of_a_nan_state(monkeypatch):
    # the NaN spreads over the whole spectrum, and no comparison with it drops a frequency
    stepper, packed = _propagate_case("slab", 16)
    packed[3, 2] = np.nan
    powered, _ = _record_powered(monkeypatch)
    out = stepper.propagate(packed, 1000)
    assert sum(powered) == 9 and np.isnan(out).all()


def test_propagate_refuses_negative_steps_before_any_thread(monkeypatch):
    stepper, packed = _propagate_case("telegraph", 7)

    def refuse(thread):
        raise RuntimeError("a thread started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    with pytest.raises(RuntimeError, match="a thread started"):
        stepper.propagate(packed, 1)
    with pytest.raises(ValueError, match="n_steps must be >= 0"):
        stepper.propagate(packed, -1)


def test_import_loads_no_thread_pool():
    # propagate imports the pool on its first call, so importing mmdg stays as cheap
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
    out = run_fixed_steps(config, state, 0)
    assert (out.n, out.t, out.g_norm_lag) == (state.n, state.t, state.g_norm_lag)
    assert np.array_equal(out.rho.coeff, state.rho.coeff)
    assert np.array_equal(out.g.coeff, state.g.coeff)


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


def test_ap_limit_steps_the_stack_once_per_step(monkeypatch):
    # one scheme.step per step advances every eps, and each row keeps the
    # bytes of stepping its eps alone; a forced large step keeps the roundoff
    # of the operators visible in the distances
    spec = ExperimentSpec(
        mode="ap-limit", model="slab", nv=4, degree=2, cells=(5,), eps=(1e-2, 0.0, 1.0),
        flux="central", dt=0.2, force_dt=True, tmax=0.6,
    )
    calls = []
    real_step = scheme.step

    def counting_step(state, config):
        calls.append(np.shape(config.eps))
        return real_step(state, config)

    monkeypatch.setattr("mmdg.scheme.step", counting_step)
    result = run_ap_limit(spec)
    n_steps, dt = result.rows[0]["steps"], result.header["dt_used"]
    assert calls == [(3,)] * n_steps
    ic = IC_REGISTRY["sin"]
    config0 = build_config(spec, 5, 0.0, dt)
    m2 = config0.space.moments().m2
    lim = init_limit_state(ic.rho0, lambda x: ic.q0(x, m2), config0.mesh, 2)
    for _ in range(n_steps):
        lim = step_limit(lim, dt, spec.flux, m2)
    for row, eps in zip(result.rows, spec.eps):
        config = build_config(spec, 5, eps, dt)
        state = scheme.init_state(ic.rho0, ic.g0, config)
        for _ in range(n_steps):
            state = real_step(state, config)
        assert row["rho_distance"] == (state.rho - lim.rho).norm()
        assert row["q_distance"] == (state.g.bracket_v() - lim.q).norm()


def test_run_dispatch():
    spec = ExperimentSpec(mode="ap-limit", degree=0, cells=(8,), eps=(0.0,), tmax=0.01)
    result = run(spec)
    assert result.rows[0]["rho_distance"] == 0.0


def test_is_stable_probe():
    spec = ExperimentSpec(mode="solve", degree=0, cells=(16,), eps=(1e-6,))
    config = build_config(spec, 16, 1e-6, dt=1.0)
    ic = IC_REGISTRY["sin"]
    theory = scheme.stable_dt(config)
    cfg = scheme.with_dt(config, theory)
    assert is_stable(cfg, scheme.init_state(ic.rho0, ic.g0, cfg), 1.0)
    cfg = scheme.with_dt(config, 50 * theory)
    assert not is_stable(cfg, scheme.init_state(ic.rho0, ic.g0, cfg), 1.0)
