"""Explicit local-DG stepper for the limiting heat equation.

The vanishing-relaxation limit of the kinetic stepper solves
    rho_t + q_x = 0,    q = -m2 rho_x,    m2 = <v^2>,
in first-order form: advance rho explicitly with the moment-side interface
value, then recover q from the gradient residual of the new rho.  The flux
variable q is stored, not recomputed from a kinetic field, so the scheme is
self-contained and explicit.
"""

from dataclasses import dataclass

from .fields import DGField, project
from .operators import check_flux, flux_divergence, minus_gradient


@dataclass
class LimitState:
    """Density and flux fields on a shared discretization."""

    rho: DGField
    q: DGField


def init_limit_state(rho0, q0, mesh, degree):
    """L2-project the initial density and flux."""
    return LimitState(rho=project(rho0, mesh, degree), q=project(q0, mesh, degree))


def step_limit(state, dt, flux, m2):
    """One explicit step of the first-order-form heat discretization."""
    check_flux(flux)
    if m2 <= 0:
        raise ValueError("m2 must be positive")
    rho_new = state.rho - dt * flux_divergence(state.q, flux)
    q_new = m2 * minus_gradient(rho_new, flux)
    return LimitState(rho=rho_new, q=q_new)
