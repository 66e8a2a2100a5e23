"""First-order IMEX time stepper for the micro-macro system.

One step advances (rho, g) by
    rho_new = rho - dt * R(g),                R = residual of d/dx <v g>
    g_new   = ((eps^2/dt) g - eps * B(g) + v * D(rho_new)) / (eps^2/dt + 1)
with B the mean-free upwind streaming residual (dropped when include_bh is
off) and D the residual of -d/dx rho.  The stiff relaxation and gradient
terms are folded into the division, which is scaled by eps^2 so eps = 0 is a
valid input: the step then degenerates to the explicit limit update
g_new = v * D(rho_new).
"""

import csv
import math
from dataclasses import dataclass, replace

from . import velocity
from .basis import inverse_constants
from .fields import DGField, KineticField, Mesh1D, project, project_kinetic
from .operators import (
    check_flux,
    minus_gradient,
    moment_flux_divergence,
    streaming_fluctuation,
)


@dataclass
class SchemeConfig:
    """Everything a run needs: physics scale, discretization, and options.

    include_bh toggles the explicit mean-free streaming term; turning it
    off reproduces the degraded two-point variant whose provable,
    energy-decay step is O(h^2) in every regime (h^2/2 at k = 0), while
    its von Neumann boundary stays near h at eps = 1, k = 0.
    continuum_moments replaces node moments by the exact continuum values
    (||v||_inf = 1, <|v|> = 1/2) in the stability constants of the
    gauss-ordinates model.
    """

    eps: float
    dt: float
    degree: int
    flux: str
    space: velocity.VelocitySpace
    mesh: Mesh1D
    include_bh: bool = True
    continuum_moments: bool = False

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not math.isfinite(self.eps * self.eps / self.dt):
            raise ValueError(
                f"eps={self.eps:.6g} is too large: eps^2/dt overflows at dt={self.dt:.6g}"
            )
        if not 0 <= self.degree:
            raise ValueError("degree must be >= 0")
        check_flux(self.flux)


@dataclass
class State:
    """Solution pair at step n, plus the lagged g-norm the energy uses."""

    rho: DGField
    g: KineticField
    n: int = 0
    t: float = 0.0
    g_norm_lag: float = 0.0


def init_state(rho0, g0, config):
    """L2-project the initial data; g0 is a callable of (x, v)."""
    rho = project(rho0, config.mesh, config.degree)
    g = project_kinetic(g0, config.mesh, config.degree, config.space)
    return State(rho=rho, g=g, n=0, t=0.0, g_norm_lag=g.triple_norm())


def step(state, config):
    """Advance one step; pure function of (state, config)."""
    eps = config.eps
    dt = config.dt
    rho_new = state.rho - dt * moment_flux_divergence(state.g, config.flux)
    grad = minus_gradient(rho_new, config.flux)
    v = config.space.nodes
    c1 = eps * eps / dt
    new_coeff = c1 * state.g.coeff + v[:, None, None] * grad.coeff[None]
    if config.include_bh and eps > 0.0:
        new_coeff -= eps * streaming_fluctuation(state.g).coeff
    new_coeff /= c1 + 1.0
    g_new = KineticField(config.space, config.mesh, config.degree, new_coeff)
    return State(
        rho=rho_new,
        g=g_new,
        n=state.n + 1,
        t=state.t + dt,
        g_norm_lag=state.g.triple_norm(),
    )


def stable_dt(config):
    """The provable stable step dt_stab for this config.

    From the inverse constants c, c_hat and the velocity moments,
    a1 = (||v||_inf^2 + <v^2>) c_hat, a2 = 2 (||v||_inf + <|v|>) c and
    a3 = 2 ||v||_inf c.  For k >= 1 the bound is
    h (h + min(eps, a2 h / a1) a3) / (a1 + a2 a3); for k = 0 it is
    2h (h + a3 eps) / (a2 a3).  Without the mean-free streaming term the
    two-point model obeys the eps-independent bound h^2/(c_hat + 4 c^2) for
    k >= 1 and h^2/(2 c^2) for k = 0.
    """
    inv = inverse_constants(config.degree)
    if config.continuum_moments and config.space.kind == velocity.GAUSS_ORDINATES:
        moments = velocity.VelocityMoments(
            velocity.CONTINUUM_V_MAX, velocity.CONTINUUM_M2, velocity.CONTINUUM_M1_ABS
        )
    else:
        moments = config.space.moments()
    a1 = (moments.v_max**2 + moments.m2) * inv.c_inv_hat
    a2 = 2.0 * (moments.v_max + moments.m1_abs) * inv.c_inv
    a3 = 2.0 * moments.v_max * inv.c_inv
    h = config.mesh.h
    if not config.include_bh:
        if config.space.kind != velocity.TWO_POINT:
            raise ValueError(
                "the include_bh=False stability bound only exists for the "
                "two-point velocity model"
            )
        if config.degree >= 1:
            return h * h / (inv.c_inv_hat + 4.0 * inv.c_inv**2)
        return h * h / (2.0 * inv.c_inv**2)
    if config.degree >= 1:
        eps_cap = min(config.eps, a2 * h / a1) if a1 > 0 else config.eps
        return h / (a1 + a2 * a3) * (h + eps_cap * a3)
    return 2.0 * h / (a2 * a3) * (h + a3 * config.eps)


def energy(state, config):
    """Discrete energy ||rho^n||^2 + eps^2 |||g^{n-1}|||^2 (shifted pairing)."""
    return state.rho.norm() ** 2 + config.eps**2 * state.g_norm_lag**2


def format_value(value):
    """One header or CSV value: floats to 17 digits, tuples comma-joined."""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    return str(value)


def header_line(items):
    """The '# key=value;...' first line of every output file, in the dict's order."""
    return "# " + ";".join(f"{key}={format_value(v)}" for key, v in items.items()) + "\n"


def save_state(state, config, path):
    """Checkpoint: header with run metadata, then one row per coefficient."""
    mesh, space = config.mesh, config.space
    meta = dict(
        n=state.n, t=state.t, eps=config.eps, dt=config.dt, degree=config.degree,
        n_cells=mesh.n_cells, x_min=mesh.x_min, x_max=mesh.x_max, flux=config.flux,
        model=space.kind, nv=space.n_nodes, include_bh=int(config.include_bh),
        continuum_moments=int(config.continuum_moments), g_norm_lag=state.g_norm_lag,
    )
    with open(path, "w", newline="") as fh:
        fh.write(header_line(meta))
        writer = csv.writer(fh)
        writer.writerow(["field", "node", "cell", "x_left", "mode", "coefficient"])
        edges = config.mesh.edges()
        for i in range(config.mesh.n_cells):
            for j in range(config.degree + 1):
                writer.writerow(
                    ["rho", -1, i, f"{edges[i]:.17g}", j, f"{state.rho.coeff[i, j]:.17g}"]
                )
        for q in range(config.space.n_nodes):
            for i in range(config.mesh.n_cells):
                for j in range(config.degree + 1):
                    writer.writerow(
                        ["g", q, i, f"{edges[i]:.17g}", j, f"{state.g.coeff[q, i, j]:.17g}"]
                    )


def load_state(path):
    """Rebuild (state, config) from a checkpoint file."""
    with open(path, newline="") as fh:
        header = fh.readline().strip().lstrip("# ")
        meta = dict(item.split("=", 1) for item in header.split(";"))
        mesh = Mesh1D(float(meta["x_min"]), float(meta["x_max"]), int(meta["n_cells"]))
        space = velocity.make_velocity_space(meta["model"], int(meta["nv"]))
        config = SchemeConfig(
            eps=float(meta["eps"]),
            dt=float(meta["dt"]),
            degree=int(meta["degree"]),
            flux=meta["flux"],
            space=space,
            mesh=mesh,
            include_bh=bool(int(meta["include_bh"])),
            continuum_moments=bool(int(meta["continuum_moments"])),
        )
        rho = DGField(mesh, config.degree)
        g = KineticField(space, mesh, config.degree)
        rows = list(csv.reader(fh))[1:]  # after the column names
        expected = (1 + space.n_nodes) * mesh.n_cells * (config.degree + 1)
        if len(rows) != expected:
            raise ValueError(
                f"checkpoint {path} holds {len(rows)} coefficient rows, expected {expected}"
            )
        for which, q, i, _, j, val in rows:
            if which == "rho":
                rho.coeff[int(i), int(j)] = float(val)
            else:
                g.coeff[int(q), int(i), int(j)] = float(val)
    state = State(
        rho=rho,
        g=g,
        n=int(meta["n"]),
        t=float(meta["t"]),
        g_norm_lag=float(meta["g_norm_lag"]),
    )
    return state, config


def with_dt(config, dt):
    """Copy of the config with a different time step."""
    return replace(config, dt=dt)
