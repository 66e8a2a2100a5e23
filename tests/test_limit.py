import math

import numpy as np
import pytest

from mmdg.fields import Mesh1D, l2_error, project, project_kinetic
from mmdg.limit import init_limit_state, step_limit
from mmdg.operators import ALT_LR, ALT_RL
from mmdg.scheme import SchemeConfig, stable_dt
from mmdg.velocity import GAUSS_ORDINATES, TWO_POINT, make_velocity_space


def _mesh(n):
    return Mesh1D(0.0, 2 * np.pi, n)


def test_init_projects_both_fields():
    mesh = _mesh(12)
    state = init_limit_state(np.sin, lambda x: -np.cos(x), mesh, 2)
    assert np.max(np.abs(state.rho.coeff - project(np.sin, mesh, 2).coeff)) == 0.0


@pytest.mark.parametrize("space", [make_velocity_space(TWO_POINT),
                                   make_velocity_space(GAUSS_ORDINATES, 8)],
                         ids=["telegraph", "slab"])
def test_flux_init_matches_kinetic_bracket(space):
    # q0 = <v g0> pointwise projects to the bracket of the projected g0
    mesh = _mesh(16)
    m2 = space.moments().m2
    g = project_kinetic(lambda x, v: -v * np.cos(x), mesh, 1, space)
    state = init_limit_state(np.sin, lambda x: -m2 * np.cos(x), mesh, 1)
    assert np.max(np.abs(state.q.coeff - g.bracket_v().coeff)) < 1e-14


def test_polynomial_data_exact():
    mesh = Mesh1D(0.0, 1.0, 5)
    state = init_limit_state(lambda x: 2 * x + 1, lambda x: 3 * x, mesh, 1)
    assert l2_error(state.rho, lambda x: 2 * x + 1) < 1e-13
    assert l2_error(state.q, lambda x: 3 * x) < 1e-13


def test_constant_is_fixed_point():
    mesh = _mesh(8)
    state = init_limit_state(lambda x: 1.5 + 0 * x, lambda x: 0 * x, mesh, 1)
    after = step_limit(state, 1e-3, ALT_LR, 1.0)
    assert np.max(np.abs(after.rho.coeff - state.rho.coeff)) < 1e-15
    assert np.max(np.abs(after.q.coeff)) < 1e-15


def test_step_validates_inputs():
    state = init_limit_state(np.sin, lambda x: -np.cos(x), _mesh(8), 1)
    with pytest.raises(ValueError):
        step_limit(state, 1e-3, "sideways", 1.0)
    with pytest.raises(ValueError):
        step_limit(state, 1e-3, ALT_LR, 0.0)


def _heat_dt(mesh, k, space):
    config = SchemeConfig(
        eps=0.0, dt=1.0, degree=k, flux=ALT_LR, space=space, mesh=mesh
    )
    return 0.9 * stable_dt(config)


def _run_heat(n, k, flux, tmax, m2=1.0):
    mesh = _mesh(n)
    space = make_velocity_space(TWO_POINT)
    dt = _heat_dt(mesh, k, space)
    n_steps = math.ceil(tmax / dt)
    dt = tmax / n_steps
    state = init_limit_state(np.sin, lambda x: -m2 * np.cos(x), mesh, k)
    norms = [state.rho.norm()]
    for _ in range(n_steps):
        state = step_limit(state, dt, flux, m2)
        norms.append(state.rho.norm())
    return state, norms


@pytest.mark.parametrize("flux", [ALT_LR, ALT_RL])
def test_heat_decay_convergence(flux):
    # exact solution e^(-m2 t) sin x; second order under mesh doubling at k=1
    tmax = 0.5
    errs = []
    for n in (16, 32, 64):
        state, _ = _run_heat(n, 1, flux, tmax)
        decay = math.exp(-tmax)
        errs.append(l2_error(state.rho, lambda x: decay * np.sin(x)))
    assert math.log2(errs[0] / errs[1]) > 1.7
    assert math.log2(errs[1] / errs[2]) > 1.7


def test_heat_mass_and_l2_decay():
    state, norms = _run_heat(32, 1, ALT_LR, 0.2)
    assert abs(state.rho.integral()) < 1e-13
    assert all(b <= a + 1e-13 for a, b in zip(norms, norms[1:]))


@pytest.mark.parametrize("k", [1, 2])
def test_flux_recovery_rate(k):
    # after one step q approximates -m2 drho/dx at order k (one-sided
    # gradient of L2 data); absolute errors stay small and halve with h
    errs = []
    for n in (32, 64):
        mesh = _mesh(n)
        state = init_limit_state(np.sin, lambda x: -np.cos(x), mesh, k)
        dt = _heat_dt(mesh, k, make_velocity_space(TWO_POINT))
        after = step_limit(state, dt, ALT_LR, 1.0)
        errs.append(l2_error(after.q, lambda x: -np.cos(x)))
    assert math.log2(errs[0] / errs[1]) > k - 0.15

