"""DG spatial operators of the micro-macro transport system.

Weak forms against every test mode are assembled exactly (volume terms via
the Legendre derivative expansion, no quadrature) and returned mass-inverted,
so each operator maps fields to strong-form residual fields.

Interface flux pairs, always applied together:
    alt-lr    moment flux from the left trace, density from the right.
    alt-rl    moment flux from the right trace, density from the left.
    central   arithmetic averages for both.
Mixing the moment side of one pair with the density side of another is
expressible by calling the two operators with different flux tags, but no
such combination is exercised or claimed stable here.
"""

from functools import lru_cache

import numpy as np

from .basis import legendre_basis, mass_diagonal
from .fields import DGField, KineticField, interface_traces, periodic_shift

ALT_LR = "alt-lr"
ALT_RL = "alt-rl"
CENTRAL = "central"
FLUXES = (ALT_LR, ALT_RL, CENTRAL)

# side of the interface each flux takes, for the moment/<vg> slot and the
# density slot respectively
_MOMENT_SIDE = {ALT_LR: "minus", ALT_RL: "plus", CENTRAL: "central"}
_DENSITY_SIDE = {ALT_LR: "plus", ALT_RL: "minus", CENTRAL: "central"}


def check_flux(flux):
    if flux not in FLUXES:
        raise ValueError(f"flux must be one of {FLUXES}, got {flux!r}")
    return flux


@lru_cache(maxsize=None)
def _grad_matrix(degree):
    # Q[m, j] = int_{-1}^{1} P_j P_m' dxi = 2 when j < m and m - j is odd
    q = np.zeros((degree + 1, degree + 1))
    for m in range(1, degree + 1):
        q[m, m - 1 :: -2] = 2.0  # start index is >= 0, so no wraparound
    q.flags.writeable = False
    return q


def _pick_side(minus, plus, side):
    if side == "minus":
        return minus
    if side == "plus":
        return plus
    return 0.5 * (minus + plus)


def _weak_form(vol, uhat, degree, h):
    """Mass-inverted -int u phi_x - u_hat [phi] for every test mode phi.

    vol holds int u phi_x (cells on axis -2), uhat the interface values
    (interfaces on the last axis).
    """
    at_left = legendre_basis(degree).at_left
    form = -vol - uhat[..., None] * at_left + periodic_shift(uhat, -1)[..., None]
    return form / mass_diagonal(degree, h)


def flux_divergence(u, flux):
    """Residual of d/dx u with the chosen interface value for u.

    Returns r with (r, phi) equal to the upwind-free divergence form
    -sum_i int u phi_x - sum_i u_hat [phi] for every test mode phi.
    """
    check_flux(flux)
    fhat = _pick_side(*interface_traces(u), _MOMENT_SIDE[flux])
    vol = u.coeff @ _grad_matrix(u.degree).T
    return DGField(u.mesh, u.degree, _weak_form(vol, fhat, u.degree, u.mesh.h))


def moment_flux_divergence(g, flux):
    """Residual of d/dx <v g>; drives the density update."""
    return flux_divergence(g.bracket_v(), flux)


def minus_gradient(rho, flux):
    """Residual of -d/dx rho with the paired density interface value.

    Returns D with (D, psi) = sum_i int rho psi_x + sum_i rho_hat [psi]: the
    weak form of -rho, whose negated inputs keep the sign of every zero.
    """
    check_flux(flux)
    rhat = _pick_side(*interface_traces(rho), _DENSITY_SIDE[flux])
    vol = rho.coeff @ _grad_matrix(rho.degree).T
    return DGField(rho.mesh, rho.degree, _weak_form(-vol, -rhat, rho.degree, rho.mesh.h))


def upwind_streaming(g):
    """Per-node upwind residual of v d/dx g.

    The interface value is the upwind trace, v{g} - (|v|/2)[g].
    """
    v = g.space.nodes[:, None]
    minus, plus = interface_traces(g)
    tilde = v * 0.5 * (minus + plus) - 0.5 * np.abs(v) * (plus - minus)
    vol = v[:, None] * (g.coeff @ _grad_matrix(g.degree).T)
    return KineticField(g.space, g.mesh, g.degree, _weak_form(vol, tilde, g.degree, g.mesh.h))


def streaming_fluctuation(g):
    """Mean-free part of the upwind streaming residual.

    Subtracts the velocity average coefficient-wise, so the bracket of the
    result vanishes identically.
    """
    streamed = upwind_streaming(g)
    mean = g.space.bracket(streamed.coeff)
    return KineticField(g.space, g.mesh, g.degree, streamed.coeff - mean)
