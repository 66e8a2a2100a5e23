import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dg_tools import eval_from_right, write_table_by_cell
from mmdg import scheme
from mmdg.fields import DGField, KineticField, Mesh1D
from mmdg.limit import init_limit_state, step_limit
from mmdg.operators import ALT_LR, CENTRAL, FLUXES
from mmdg.scheme import (
    SchemeConfig,
    energy,
    init_state,
    load_state,
    save_state,
    stable_dt,
    step,
)
from mmdg.velocity import GAUSS_ORDINATES, TWO_POINT, make_velocity_space

TELEGRAPH = make_velocity_space(TWO_POINT)
SLAB = make_velocity_space(GAUSS_ORDINATES, 8)


def _config(space=TELEGRAPH, eps=1e-2, dt=1e-4, k=1, flux=ALT_LR, n=16, **kw):
    return SchemeConfig(
        eps=eps, dt=dt, degree=k, flux=flux, space=space, mesh=Mesh1D(0.0, 2 * np.pi, n), **kw
    )


def _well_prepared(config):
    return init_state(np.sin, lambda x, v: -v * np.cos(x), config)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(eps=-1.0)
    with pytest.raises(ValueError):
        _config(dt=0.0)
    with pytest.raises(ValueError):
        _config(flux="weird")
    # eps^2 overflows; RuntimeWarnings fail the suite
    with pytest.raises(ValueError, match="eps=1e[+]200 is too large: eps.2/dt overflows"):
        _config(eps=1e200)


@pytest.mark.parametrize("space", [TELEGRAPH, SLAB], ids=["telegraph", "slab"])
def test_well_prepared_init_has_zero_mean(space):
    state = _well_prepared(_config(space=space))
    assert state.g.bracket().norm() < 1e-14


def test_init_exact_on_broken_polynomial_data():
    config = _config(k=2)
    rng = np.random.default_rng(1)
    target = DGField(config.mesh, 2, rng.standard_normal((16, 3)))
    state = init_state(lambda x: eval_from_right(target, x), lambda x, v: 0.0 * x, config)
    assert np.max(np.abs(state.rho.coeff - target.coeff)) < 1e-11


def test_ill_prepared_init_mean_is_projected_one():
    config = _config()
    state = init_state(np.sin, lambda x, v: np.ones_like(x), config)
    mean = state.g.bracket()
    assert abs(mean.norm() - math.sqrt(2 * np.pi)) < 1e-12


@pytest.mark.parametrize("flux", FLUXES)
def test_constant_state_is_fixed_point(flux):
    config = _config(flux=flux)
    state = init_state(lambda x: 2.0 + 0 * x, lambda x, v: 0.0 * x, config)
    after = step(state, config)
    assert np.max(np.abs(after.rho.coeff - state.rho.coeff)) < 1e-15
    assert np.max(np.abs(after.g.coeff)) < 1e-15
    assert energy(after.rho, state.g, config) == pytest.approx(
        energy(state.rho, state.g, config), rel=1e-14
    )


@pytest.mark.parametrize("space,tol", [(TELEGRAPH, 0.0), (SLAB, 1e-15)],
                         ids=["telegraph", "slab"])
def test_zero_eps_step_equals_limit_step(space, tol):
    # at eps = 0 one kinetic step reduces algebraically to the limit update
    config = _config(space=space, eps=0.0, dt=2e-4, k=1)
    state = _well_prepared(config)
    m2 = space.moments().m2
    lim = init_limit_state(np.sin, lambda x: -m2 * np.cos(x), config.mesh, 1)
    for _ in range(3):
        state = step(state, config)
        lim = step_limit(lim, config.dt, config.flux, m2)
    assert (state.rho - lim.rho).norm() <= tol
    assert (state.g.bracket_v() - lim.q).norm() <= tol


def test_mass_conservation():
    config = _config(eps=0.3, dt=5e-4, k=2, n=24)
    state = _well_prepared(config)
    mass0 = state.rho.integral()
    for _ in range(50):
        state = step(state, config)
    assert abs(state.rho.integral() - mass0) < 1e-13


@pytest.mark.parametrize("eps", [1e-3, 1.0])
def test_mean_decay_factor_telegraph(eps):
    # the mean contracts by eps^2/(eps^2 + dt) every step, exactly
    config = _config(space=TELEGRAPH, eps=eps, dt=1e-3, k=1)
    state = init_state(np.sin, lambda x, v: np.ones_like(x), config)
    factor = eps * eps / (eps * eps + config.dt)
    prev = state.g.bracket()
    for _ in range(20):
        state = step(state, config)
        cur = state.g.bracket()
        assert np.max(np.abs(cur.coeff - factor * prev.coeff)) < 1e-12 * max(
            1.0, np.max(np.abs(prev.coeff))
        )
        prev = cur


def test_mean_decay_factor_slab_gated():
    # same contraction on gauss ordinates, checked while the signal is
    # large enough that roundoff injection stays below 1e-12 relative
    eps = 1.0
    config = _config(space=SLAB, eps=eps, dt=1e-3, k=1)
    state = init_state(np.sin, lambda x, v: np.ones_like(x), config)
    factor = eps * eps / (eps * eps + config.dt)
    prev_norm = state.g.bracket().norm()
    for _ in range(50):
        state = step(state, config)
        norm = state.g.bracket().norm()
        assert norm / prev_norm == pytest.approx(factor, rel=1e-12)
        prev_norm = norm


def test_well_prepared_mean_stays_zero():
    for space in (TELEGRAPH, SLAB):
        config = _config(space=space, eps=1e-2, dt=2e-4, k=1)
        state = _well_prepared(config)
        for _ in range(100):
            state = step(state, config)
        assert state.g.bracket().norm() < 1e-13


def test_stable_dt_telegraph_k0_formula():
    for eps in (0.0, 1e-4, 0.5, 1.0):
        config = _config(space=TELEGRAPH, eps=eps, k=0, n=32)
        h = config.mesh.h
        expected = 0.25 * h * h + 0.5 * eps * h
        assert stable_dt(config) == pytest.approx(expected, rel=1e-15)


def test_stable_dt_slab_k0_continuum_formula():
    for eps in (0.0, 1e-3, 1.0):
        config = _config(space=SLAB, eps=eps, k=0, n=24, continuum_moments=True)
        h = config.mesh.h
        expected = h * h / 3.0 + 2.0 * eps * h / 3.0
        assert stable_dt(config) == pytest.approx(expected, rel=1e-15)


def test_stable_dt_telegraph_k1_transcription():
    # independent one-line transcription with c_inv = 4, c_hat = 12
    c, chat = 4.0, 12.0
    a1, a2, a3 = 2.0 * chat, 4.0 * c, 2.0 * c
    for eps in (1e-6, 1e-2, 1.0):
        config = _config(space=TELEGRAPH, eps=eps, k=1, n=32)
        h = config.mesh.h
        expected = h / (a1 + a2 * a3) * (h + min(eps, a2 * h / a1) * a3)
        assert stable_dt(config) == pytest.approx(expected, rel=1e-12)


def test_stable_dt_without_bh():
    config = _config(space=TELEGRAPH, eps=1.0, k=0, n=32, include_bh=False)
    h = config.mesh.h
    assert stable_dt(config) == pytest.approx(h * h / 2.0, rel=1e-15)
    config = _config(space=TELEGRAPH, eps=1.0, k=2, n=32, include_bh=False)
    inv_c, inv_hat = 9.0, 60.0
    assert stable_dt(config) == pytest.approx(
        h * h / (inv_hat + 4 * inv_c**2), rel=1e-12
    )
    with pytest.raises(ValueError):
        stable_dt(_config(space=SLAB, include_bh=False))


def test_stable_dt_monotone_in_eps():
    values = [
        stable_dt(_config(space=TELEGRAPH, eps=e, k=1))
        for e in (0.0, 1e-4, 1e-2, 1.0)
    ]
    assert values == sorted(values)


@pytest.mark.parametrize("space", [TELEGRAPH, SLAB], ids=["telegraph", "slab"])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("flux", [ALT_LR, CENTRAL])
@pytest.mark.parametrize("eps", [1e-6, 1.0])
def test_energy_monotone_on_random_data(space, k, flux, eps):
    # shifted energy never increases once n >= 1 when dt <= dt_stab
    rng = np.random.default_rng(abs(hash((space.kind, k, flux, eps))) % 2**32)
    config = _config(space=space, eps=eps, dt=1.0, k=k, flux=flux, n=16)
    config = dataclasses.replace(config, dt=stable_dt(config))
    for _ in range(3):
        state = init_state(lambda x: 0 * x, lambda x, v: 0.0 * x, config)
        state.rho.coeff[:] = rng.standard_normal(state.rho.coeff.shape)
        state.g.coeff[:] = rng.standard_normal(state.g.coeff.shape)
        # admissible microscopic data carry no velocity mean; the scheme
        # preserves that property and the energy bound relies on it
        state.g.coeff -= space.bracket(state.g.coeff)[None]
        e0 = energy(state.rho, state.g, config)
        prev, state = state, step(state, config)
        prev_energy = energy(state.rho, prev.g, config)
        for _ in range(120):
            prev, state = state, step(state, config)
            e = energy(state.rho, prev.g, config)
            assert e <= prev_energy + 1e-12 * e0
            prev_energy = e


def test_energy_uses_lagged_g_norm():
    config = _config(eps=0.7)
    state = _well_prepared(config)
    e0 = energy(state.rho, state.g, config)
    assert e0 == pytest.approx(
        state.rho.norm() ** 2 + 0.49 * state.g.triple_norm() ** 2, rel=1e-14
    )
    after = step(state, config)
    assert energy(after.rho, state.g, config) == pytest.approx(
        after.rho.norm() ** 2 + 0.49 * state.g.triple_norm() ** 2, rel=1e-14
    )


def test_unconditional_solvability():
    # the implicit division is well defined for eps = 0 and for huge dt
    for eps, dt in ((0.0, 1e-12), (0.0, 1e3), (1e-10, 1.0), (10.0, 1e-8)):
        config = _config(eps=eps, dt=dt)
        state = step(_well_prepared(config), config)
        assert np.all(np.isfinite(state.rho.coeff))
        assert np.all(np.isfinite(state.g.coeff))


def test_checkpoint_roundtrip(tmp_path):
    config = _config(
        space=SLAB, eps=0.05, dt=3e-4, k=2, flux=CENTRAL, n=8,
        include_bh=False, continuum_moments=True,
    )
    prev = step(_well_prepared(config), config)
    state = step(prev, config)
    path = tmp_path / "state.csv"
    save_state(state, config, path, 2, prev.g.triple_norm())
    loaded, loaded_config, n, loaded_lag = load_state(path)
    assert n == 2
    assert loaded_lag == prev.g.triple_norm()
    assert np.array_equal(loaded.rho.coeff, state.rho.coeff)
    assert np.array_equal(loaded.g.coeff, state.g.coeff)
    for f in dataclasses.fields(SchemeConfig):
        ours, theirs = getattr(config, f.name), getattr(loaded_config, f.name)
        if f.name == "space":
            assert theirs.kind == ours.kind
            assert np.array_equal(theirs.nodes, ours.nodes)
            assert np.array_equal(theirs.weights, ours.weights)
        else:
            assert theirs == ours, f.name
    # resuming from the checkpoint continues the same trajectory
    a = step(state, config)
    b = step(loaded, loaded_config)
    assert np.array_equal(a.rho.coeff, b.rho.coeff)


@pytest.mark.parametrize("n", [0, 28])
def test_checkpoint_returns_its_step(tmp_path, n):
    # the caller passes the step; the header writes it and t = n dt
    config = _config(space=SLAB, dt=3e-4, k=1, n=8)
    path = tmp_path / "state.csv"
    save_state(_well_prepared(config), config, path, n, 1.0)
    with open(path) as fh:
        assert fh.readline().startswith(f"# n={n};t={scheme.format_value(n * config.dt)};eps=")
    assert load_state(path)[2:] == (n, 1.0)


def test_checkpoint_rejects_truncated_file(tmp_path):
    config = _config(space=SLAB, k=1, n=8)
    path = tmp_path / "state.csv"
    save_state(_well_prepared(config), config, path, 0, 1.0)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-5]))
    with pytest.raises(ValueError, match="coefficient rows"):
        load_state(path)


def test_checkpoint_rejects_an_extra_row(tmp_path):
    config = _config(space=SLAB, k=1, n=8)
    path = tmp_path / "state.csv"
    save_state(_well_prepared(config), config, path, 0, 1.0)
    with open(path, "a") as fh:
        fh.write("0.5\n")
    with pytest.raises(ValueError, match="145 coefficient rows for its 144 coefficients"):
        load_state(path)


def test_checkpoint_refuses_the_six_column_format(tmp_path):
    # rows that carried (field, node, cell, x_left, mode) beside the coefficient
    config = _config(k=0, n=2)
    path = tmp_path / "state.csv"
    save_state(_well_prepared(config), config, path, 0, 1.0)
    header = path.read_text().splitlines(keepends=True)[0]
    path.write_text(header + "field,node,cell,x_left,mode,coefficient\nrho,-1,0,0,0,0.5\n")
    with pytest.raises(ValueError, match="columns are 'field,node,cell,x_left,mode,coefficient'"):
        load_state(path)


@pytest.mark.parametrize("degree", [0, -1])
def test_checkpoint_refuses_a_probe_over_the_budget_before_the_space(degree, tmp_path):
    # nv = 6000 would build a 6000-point Gauss rule, cubic in nv, before any
    # check; a negative degree, which SchemeConfig refuses later, must not hide it
    path = tmp_path / "state.csv"
    header = (f"# n=0;t=0;eps=1;dt=0.001;degree={degree};n_cells=1;x_min=0;x_max=1;"
              "flux=alt-lr;model=gauss-ordinates;nv=6000;include_bh=1;continuum_moments=0;"
              "g_norm_lag=0\n")
    path.write_text(header + "coefficient\n" + "0\n" * 6001)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="the stencil probe of 32768 cells takes 1573126144 "
                                         "bytes, over the budget"):
        load_state(path)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "model, k, n_cells",
    [(model, k, n) for model in ("telegraph", "slab") for k in range(5) for n in (1, 64)]
    + [("slab", 2, 4096)],
)
def test_checkpoint_roundtrip_is_bit_for_bit(model, k, n_cells, tmp_path):
    # every coefficient and every config field come back with their bits;
    # -0, a subnormal and the largest float among the coefficients
    space = {"telegraph": TELEGRAPH, "slab": SLAB}[model]
    rng = np.random.default_rng(100 * k + n_cells + space.n_nodes)
    mesh = Mesh1D(-rng.uniform(), rng.uniform(1, 9), n_cells)
    config = SchemeConfig(
        eps=rng.uniform(0, 2), dt=rng.uniform(1e-5, 1e-2), degree=k, flux=FLUXES[k % 3],
        space=space, mesh=mesh, include_bh=k % 2 == 0, continuum_moments=n_cells > 1,
    )
    shape = (1 + space.n_nodes, n_cells, k + 1)
    coeff = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    coeff.flat[:3] = -0.0, 5e-324, np.finfo(float).max
    state = scheme.State(DGField(mesh, k, coeff[0]), KineticField(space, mesh, k, coeff[1:]))
    lag = rng.uniform()
    save_state(state, config, tmp_path / "state.csv", 7, lag)
    loaded, loaded_config, n, loaded_lag = load_state(tmp_path / "state.csv")
    assert (n, loaded_lag) == (7, lag)
    assert np.concatenate([loaded.rho.coeff[None], loaded.g.coeff]).tobytes() == coeff.tobytes()
    assert dataclasses.replace(loaded_config, space=space) == config
    assert loaded_config.space.kind == space.kind
    assert loaded_config.space.nodes.tobytes() == space.nodes.tobytes()
    assert loaded_config.space.weights.tobytes() == space.weights.tobytes()


# cells of every type a table row may hold; -0.0, nan, +-inf and ints past
# 2^53 included, and the numpy scalars that indexing an array gives
_NUMBER_CELLS = {
    "float": st.floats(),
    "float64": st.floats().map(np.float64),
    "int": st.integers(-(10**20), 10**20),
    "int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "bool": st.booleans(),
    "status": st.sampled_from(["ok", "diverged", "non-monotone", "rho", "g", ""]),
}
_ANY_CELL = st.one_of(
    *_NUMBER_CELLS.values(),
    st.floats(width=32).map(np.float32),
    st.text(alphabet="a ;\x00-", max_size=4),  # no comma, quote or line break
    st.none(),
)


def _unquoted(cells):
    """csv quotes a lone empty cell; write_table's cells need no quoting."""
    return list(cells) != [""]


@st.composite
def _tables(draw):
    """Column names and rows: mostly one type per column, as the drivers write,
    sometimes any scalar cell anywhere."""
    n_cols = draw(st.integers(1, 8))
    if draw(st.booleans()):
        kinds = draw(st.lists(st.sampled_from(list(_NUMBER_CELLS)), min_size=n_cols, max_size=n_cols))
        row = st.tuples(*(_NUMBER_CELLS[kind] for kind in kinds))
    else:
        row = st.lists(_ANY_CELL, min_size=n_cols, max_size=n_cols)
    columns = draw(st.lists(st.sampled_from(["n", "t", "energy", "status", ""]), min_size=n_cols,
                            max_size=n_cols).filter(_unquoted))
    return columns, draw(st.lists(row.filter(_unquoted), max_size=6))


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_tables())
# the empty flag of converge and the scan, and every cell type in one row
@example(table=(["n", "flag"], [(1, ""), (2, "non-monotone")]))
@example(table=(["n"] * 8, [(1, 0.1, np.float64(-0.0), True, None, np.int64(7), np.float32(0.1),
                              "ok")]))
def test_write_table_matches_the_cell_by_cell_writer(tmp_path, table):
    columns, rows = table
    header = {"mode": "solve", "eps": 0.1, "cells": (4, 8)}
    scheme.write_table(tmp_path / "fast.csv", header, columns, rows)
    write_table_by_cell(tmp_path / "oracle.csv", header, columns, rows)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_checkpoint_bytes_match_the_cell_by_cell_writer(tmp_path, monkeypatch):
    # checkpoint rows are 1-tuples of Python floats
    config = _config(space=SLAB, eps=0.05, dt=3e-4, k=2, n=5)
    prev = _well_prepared(config)
    state, lag = step(prev, config), prev.g.triple_norm()
    save_state(state, config, tmp_path / "fast.csv", 1, lag)
    monkeypatch.setattr(scheme, "write_table", write_table_by_cell)
    save_state(state, config, tmp_path / "oracle.csv", 1, lag)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
