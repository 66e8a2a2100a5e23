"""DG spatial operators of the micro-macro transport system.

Weak forms against every test mode are assembled exactly (volume terms via
basis.grad_matrix, the Legendre derivative expansion, no quadrature) and
returned mass-inverted, so each operator maps fields to strong-form residual
fields.  minus_gradient is flux_divergence's residual of -rho, density side.

Interface flux pairs, always applied together:
    alt-lr    moment flux from the left trace, density from the right.
    alt-rl    moment flux from the right trace, density from the left.
    central   arithmetic averages for both.
Mixing the moment side of one pair with the density side of another is
expressible by calling the two operators with different flux tags, but no
such combination is exercised or claimed stable here.
"""

import numpy as np

from .basis import grad_matrix, legendre_basis, mass_diagonal
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


def _pick_side(minus, plus, side):
    if side == "minus":
        return minus
    if side == "plus":
        return plus
    return 0.5 * (minus + plus)


def _weak_form(vol, uhat, degree, h):
    """Mass-inverted -int u phi_x - u_hat [phi] for every test mode phi.

    vol holds int u phi_x (cells on axis -2), uhat the interface values
    (interfaces on the last axis).  The form is built in vol, which the
    caller hands over, by the operations of -vol - uhat P(-1) + shift(uhat),
    then / mass, in that order; mode by mode for the middle term, so no
    temporary is larger than uhat.
    """
    form = np.negative(vol, out=vol)
    for j, at_left in enumerate(legendre_basis(degree).at_left):
        form[..., j] -= uhat * at_left
    form += periodic_shift(uhat, -1)[..., None]
    form /= mass_diagonal(degree, h)
    return form


def _residual(u, side):
    """_weak_form of u with u_hat its interface trace from side."""
    uhat = _pick_side(*interface_traces(u), side)
    vol = u.coeff @ grad_matrix(u.degree).T
    return DGField(u.mesh, u.degree, _weak_form(vol, uhat, u.degree, u.mesh.h))


def flux_divergence(u, flux):
    """Residual of d/dx u with the chosen interface value for u.

    Returns r with (r, phi) equal to the upwind-free divergence form
    -sum_i int u phi_x - sum_i u_hat [phi] for every test mode phi.
    """
    check_flux(flux)
    return _residual(u, _MOMENT_SIDE[flux])


def moment_flux_divergence(g, flux):
    """Residual of d/dx <v g>; drives the density update."""
    return flux_divergence(g.bracket_v(), flux)


def minus_gradient(rho, flux):
    """Residual of -d/dx rho with the paired density interface value.

    Returns D with (D, psi) = sum_i int rho psi_x + sum_i rho_hat [psi]: the
    residual of -rho, negated exactly before any sum.
    """
    check_flux(flux)
    return _residual(-1.0 * rho, _DENSITY_SIDE[flux])


def upwind_streaming(g):
    """Per-node upwind residual of v d/dx g.

    The interface value is the upwind trace, v{g} - (|v|/2)[g].
    """
    v = g.space.nodes[:, None]
    minus, plus = interface_traces(g)
    # (v/2) (minus + plus) - (|v|/2) (plus - minus), in the traces' fresh arrays
    tilde = minus + plus
    tilde *= v * 0.5
    jump = np.subtract(plus, minus, out=minus)
    jump *= 0.5 * np.abs(v)
    tilde -= jump
    vol = g.coeff @ grad_matrix(g.degree).T
    vol *= v[:, None]
    return KineticField(g.space, g.mesh, g.degree, _weak_form(vol, tilde, g.degree, g.mesh.h))


def streaming_fluctuation(g):
    """Mean-free part of the upwind streaming residual.

    Subtracts the velocity average coefficient-wise, so the bracket of the
    result vanishes identically.
    """
    streamed = upwind_streaming(g)
    streamed.coeff -= g.space.bracket(streamed.coeff)
    return streamed
