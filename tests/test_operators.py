import math
from functools import partial

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from dg_tools import (
    RADAU_MINUS,
    RADAU_PLUS,
    inner,
    jumps,
    project_in_mode,
    project_kinetic_in_mode,
)
from mmdg.basis import legendre_basis, mass_diagonal
from mmdg.fields import (
    DGField,
    KineticField,
    Mesh1D,
    interface_traces,
    l2_error,
    project,
    project_kinetic,
)
from mmdg.operators import (
    ALT_LR,
    ALT_RL,
    CENTRAL,
    FLUXES,
    check_flux,
    flux_divergence,
    minus_gradient,
    moment_flux_divergence,
    streaming_fluctuation,
    upwind_streaming,
)
from mmdg.velocity import GAUSS_ORDINATES, TWO_POINT, make_velocity_space

TELEGRAPH = make_velocity_space(TWO_POINT)
SLAB = make_velocity_space(GAUSS_ORDINATES, 6)


def _mesh(n):
    return Mesh1D(0.0, 2 * np.pi, n)


def _random_field(rng, mesh, k):
    return DGField(mesh, k, rng.standard_normal((mesh.n_cells, k + 1)))


def _random_kinetic(rng, space, mesh, k):
    return KineticField(space, mesh, k, rng.standard_normal((space.n_nodes, mesh.n_cells, k + 1)))


def test_check_flux():
    for flux in FLUXES:
        assert check_flux(flux) == flux
    with pytest.raises(ValueError):
        check_flux("upwind")


# ---------------------------------------------------------------------------
# brute-force weak-form oracle: assemble every form by quadrature and traces,
# then mass-invert; fully independent of the vectorized operator internals
# ---------------------------------------------------------------------------


def _cell_values(field, nodes):
    vand = legendre_basis(field.degree).vandermonde(nodes)
    return field.coeff @ vand.T


def _oracle_divergence(u, flux):
    mesh, k = u.mesh, u.degree
    n = mesh.n_cells
    nodes, weights = npleg.leggauss(k + 3)
    vals = _cell_values(u, nodes)
    minus, plus = interface_traces(u)
    if flux == ALT_LR:
        fhat = minus
    elif flux == ALT_RL:
        fhat = plus
    else:
        fhat = 0.5 * (minus + plus)
    md = mass_diagonal(k, mesh.h)
    out = np.zeros((n, k + 1))
    for i in range(n):
        for m in range(k + 1):
            dtest = npleg.legval(nodes, npleg.legder(_unit(m, k)))
            volume = np.dot(weights, vals[i] * dtest)  # int u dphi/dx dx, mapped
            left = fhat[i] * (-1.0) ** m
            right = fhat[(i + 1) % n]
            out[i, m] = (-volume - left + right) / md[m]
    return out


def _oracle_gradient(rho, flux):
    mesh, k = rho.mesh, rho.degree
    n = mesh.n_cells
    nodes, weights = npleg.leggauss(k + 3)
    vals = _cell_values(rho, nodes)
    minus, plus = interface_traces(rho)
    if flux == ALT_LR:
        rhat = plus
    elif flux == ALT_RL:
        rhat = minus
    else:
        rhat = 0.5 * (minus + plus)
    md = mass_diagonal(k, mesh.h)
    out = np.zeros((n, k + 1))
    for i in range(n):
        for m in range(k + 1):
            dtest = npleg.legval(nodes, npleg.legder(_unit(m, k)))
            volume = np.dot(weights, vals[i] * dtest)
            out[i, m] = (volume + rhat[i] * (-1.0) ** m - rhat[(i + 1) % n]) / md[m]
    return out


def _oracle_upwind(g):
    mesh, k = g.mesh, g.degree
    n = mesh.n_cells
    nodes, weights = npleg.leggauss(k + 3)
    md = mass_diagonal(k, mesh.h)
    out = np.zeros_like(g.coeff)
    for q, v in enumerate(g.space.nodes):
        fld = DGField(g.mesh, g.degree, g.coeff[q])
        vals = _cell_values(fld, nodes)
        minus, plus = interface_traces(fld)
        tilde = np.where(v > 0, v * minus, v * plus)
        for i in range(n):
            for m in range(k + 1):
                dtest = npleg.legval(nodes, npleg.legder(_unit(m, k)))
                volume = v * np.dot(weights, vals[i] * dtest)
                out[q, i, m] = (-volume - tilde[i] * (-1.0) ** m + tilde[(i + 1) % n]) / md[m]
    return out


def _unit(m, k):
    c = np.zeros(k + 1)
    c[m] = 1.0
    return c


@pytest.mark.parametrize("space", [TELEGRAPH, SLAB], ids=["telegraph", "slab"])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("flux", FLUXES)
def test_operators_match_weak_form_oracle(space, k, flux):
    rng = np.random.default_rng(100 * k + len(flux))
    mesh = _mesh(7)
    g = _random_kinetic(rng, space, mesh, k)
    rho = _random_field(rng, mesh, k)

    u = g.bracket_v()
    assert np.max(np.abs(flux_divergence(u, flux).coeff - _oracle_divergence(u, flux))) < 1e-12
    assert np.max(np.abs(minus_gradient(rho, flux).coeff - _oracle_gradient(rho, flux))) < 1e-12
    streamed = upwind_streaming(g)
    oracle_stream = _oracle_upwind(g)
    assert np.max(np.abs(streamed.coeff - oracle_stream)) < 1e-12
    fluct = streaming_fluctuation(g)
    oracle_fluct = oracle_stream - space.bracket(oracle_stream)[None]
    assert np.max(np.abs(fluct.coeff - oracle_fluct)) < 1e-12


@pytest.mark.parametrize("flux", FLUXES)
def test_constant_states_are_fixed_points(flux):
    mesh = _mesh(6)
    for space in (TELEGRAPH, SLAB):
        g = KineticField(space, mesh, 2)
        g.coeff[:, :, 0] = 1.0 + space.nodes[:, None]  # constant in x per node
        assert np.max(np.abs(moment_flux_divergence(g, flux).coeff)) < 1e-13
        assert np.max(np.abs(upwind_streaming(g).coeff)) < 1e-13
        assert np.max(np.abs(streaming_fluctuation(g).coeff)) < 1e-13
    rho = DGField(mesh, 2)
    rho.coeff[:, 0] = -4.0
    assert np.max(np.abs(minus_gradient(rho, flux).coeff)) < 1e-13


@pytest.mark.parametrize("flux", FLUXES)
def test_divergence_conserves_cell_means(flux):
    rng = np.random.default_rng(42)
    g = _random_kinetic(rng, TELEGRAPH, _mesh(9), 2)
    out = moment_flux_divergence(g, flux)
    assert abs(out.integral()) < 1e-13


def test_operator_linearity():
    rng = np.random.default_rng(8)
    mesh = _mesh(6)
    a, b = 0.7, -2.3
    g1 = _random_kinetic(rng, SLAB, mesh, 2).coeff
    g2 = _random_kinetic(rng, SLAB, mesh, 2).coeff
    r1 = _random_field(rng, mesh, 2).coeff
    r2 = _random_field(rng, mesh, 2).coeff
    kinetic, scalar = partial(KineticField, SLAB, mesh, 2), partial(DGField, mesh, 2)
    for op, field, x, y in (
        (lambda f: moment_flux_divergence(f, ALT_LR), kinetic, g1, g2),
        (upwind_streaming, kinetic, g1, g2),
        (streaming_fluctuation, kinetic, g1, g2),
        (lambda f: minus_gradient(f, CENTRAL), scalar, r1, r2),
    ):
        lhs = op(field(a * x + b * y)).coeff
        rhs = a * op(field(x)).coeff + b * op(field(y)).coeff
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_upwind_takes_one_sided_trace():
    # v = 1 with left trace 2 and right trace 0 uses the left value: tilde = 2
    mesh = _mesh(2)
    g = KineticField(TELEGRAPH, mesh, 0)
    g.coeff[1] = [[2.0], [0.0]]  # node v=+1: cell values (2, 0)
    g.coeff[0] = [[0.0], [2.0]]  # node v=-1: mirror
    out = upwind_streaming(g)
    h = mesh.h
    # v=+1 in cell 1: upwind difference (0 - 2)/h; in cell 0 the wrap gives +2/h
    assert out.coeff[1, 1, 0] == pytest.approx(-2.0 / h, abs=1e-14)
    assert out.coeff[1, 0, 0] == pytest.approx(2.0 / h, abs=1e-14)
    # v=-1 in cell 0: upwind difference from the right, -(2 - 0)/h
    assert out.coeff[0, 0, 0] == pytest.approx(-2.0 / h, abs=1e-14)
    assert out.coeff[0, 1, 0] == pytest.approx(2.0 / h, abs=1e-14)


@pytest.mark.parametrize("flux", FLUXES)
def test_flux_pair_cancellation_identity(flux):
    # [rho psi] - rho_hat [psi] - psi_hat [rho] = 0 for the paired sides
    rng = np.random.default_rng(21)
    rm, rp = rng.standard_normal(10), rng.standard_normal(10)
    pm, pp = rng.standard_normal(10), rng.standard_normal(10)
    if flux == ALT_LR:
        rhat, phat = rp, pm
    elif flux == ALT_RL:
        rhat, phat = rm, pp
    else:
        rhat, phat = 0.5 * (rm + rp), 0.5 * (pm + pp)
    lhs = (rp * pp - rm * pm) - rhat * (pp - pm) - phat * (rp - rm)
    assert np.max(np.abs(lhs)) < 1e-13


@pytest.mark.parametrize("space", [TELEGRAPH, SLAB], ids=["telegraph", "slab"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("flux", FLUXES)
def test_skew_structure(space, k, flux):
    # the divergence and gradient forms are adjoint through the v-average
    rng = np.random.default_rng(13 + k)
    mesh = _mesh(8)
    phi = _random_field(rng, mesh, k)
    psi = _random_kinetic(rng, space, mesh, k)
    a_form = inner(moment_flux_divergence(psi, flux), phi)
    grad_phi = minus_gradient(phi, flux)
    v_d_form = sum(
        space.weights[q] * space.nodes[q] * inner(grad_phi, DGField(mesh, k, psi.coeff[q]))
        for q in range(space.n_nodes)
    )
    assert a_form - v_d_form == pytest.approx(0.0, abs=1e-11 * max(1.0, abs(a_form)))


@pytest.mark.parametrize("space", [TELEGRAPH, SLAB], ids=["telegraph", "slab"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_upwind_dissipation_identity(space, k):
    # per node: (streaming residual, g) equals the half-weighted jump sum
    rng = np.random.default_rng(31 + k)
    mesh = _mesh(8)
    g = _random_kinetic(rng, space, mesh, k)
    streamed = upwind_streaming(g)
    for q, v in enumerate(space.nodes):
        g_q = DGField(mesh, k, g.coeff[q])
        lhs = inner(DGField(mesh, k, streamed.coeff[q]), g_q)
        rhs = 0.5 * abs(v) * np.sum(jumps(g_q) ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-11 * max(1.0, rhs))


def test_fluctuation_is_mean_free():
    rng = np.random.default_rng(77)
    for space in (TELEGRAPH, SLAB):
        g = _random_kinetic(rng, space, _mesh(6), 2)
        fluct = streaming_fluctuation(g)
        assert fluct.bracket().norm() < 1e-13
    zero = KineticField(TELEGRAPH, _mesh(6), 2)
    assert np.max(np.abs(streaming_fluctuation(zero).coeff)) == 0.0


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("flux", FLUXES)
def test_gradient_consistency_rate(k, flux):
    # on L2-projected data the one-sided gradient converges at order k
    # (central gains a full order for even k); the optimal k+1 behavior
    # needs the matched Radau data, tested separately below
    errs = []
    for n in (32, 64):
        mesh = _mesh(n)
        grad = minus_gradient(project(np.sin, mesh, k), flux)
        errs.append(l2_error(grad, lambda x: -np.cos(x)))
    expected = k + 1 if (flux == CENTRAL and k % 2 == 0) else k
    assert math.log2(errs[0] / errs[1]) > expected - 0.15


@pytest.mark.parametrize("k", [1, 2])
def test_gradient_exact_on_matched_radau_data(k):
    # radau-plus data with the rho(+) interface value reproduces the
    # projected exact derivative up to the projection quadrature error
    mesh = _mesh(32)
    grad = minus_gradient(project_in_mode(np.sin, mesh, k, RADAU_PLUS), ALT_LR)
    target = project(lambda x: -np.cos(x), mesh, k)
    assert np.max(np.abs(grad.coeff - target.coeff)) < 1e-7


@pytest.mark.parametrize("k", [1, 2])
def test_divergence_exact_on_matched_radau_data(k):
    mesh = _mesh(32)
    g = project_kinetic_in_mode(lambda x, v: v * np.sin(x), mesh, k, TELEGRAPH, RADAU_MINUS)
    out = moment_flux_divergence(g, ALT_LR)
    target = project(np.cos, mesh, k)
    assert np.max(np.abs(out.coeff - target.coeff)) < 1e-7


def test_divergence_exact_on_continuous_broken_moment():
    # a continuous piecewise-linear moment has no jumps, so every flux
    # choice reduces to exact integration by parts: the residual IS the
    # elementwise derivative
    mesh = _mesh(24)
    edges = np.linspace(mesh.x_min, mesh.x_max, mesh.n_cells + 1)
    left, right = np.sin(edges[:-1]), np.sin(edges[1:])
    interp = DGField(mesh, 1, np.column_stack([(left + right) / 2, (right - left) / 2]))
    g = KineticField(TELEGRAPH, mesh, 1)
    g.coeff[:] = TELEGRAPH.nodes[:, None, None] * interp.coeff[None]
    exact = np.zeros_like(interp.coeff)
    exact[:, 0] = interp.coeff[:, 1] * 2.0 / mesh.h  # d/dx of the linear mode
    for flux in FLUXES:
        out = moment_flux_divergence(g, flux)
        assert np.max(np.abs(out.coeff - exact)) < 1e-12
    assert l2_error(moment_flux_divergence(g, ALT_LR), np.cos) < 1.5 * mesh.h


@pytest.mark.parametrize("k", [1, 2])
def test_upwind_streaming_consistency_rate(k):
    # smooth g = v sin: streaming residual approaches v^2 cos at order k
    errs = []
    for n in (32, 64):
        mesh = _mesh(n)
        g = project_kinetic(lambda x, v: v * np.sin(x), mesh, k, SLAB)
        out = upwind_streaming(g)
        err_sq = 0.0
        for q, v in enumerate(SLAB.nodes):
            e = l2_error(DGField(mesh, k, out.coeff[q]), lambda x, v=v: v * v * np.cos(x))
            err_sq += SLAB.weights[q] * e * e
        errs.append(math.sqrt(err_sq))
    assert math.log2(errs[0] / errs[1]) > k - 0.15
