"""First-order IMEX time stepper for the micro-macro system.

One step advances (rho, g) by its halves _transport, then _relax:
    rho_new = rho - dt * R(g),                R = residual of d/dx <v g>
    g_new   = ((eps^2/dt) g - eps * B(g) + v * D(rho_new)) / (eps^2/dt + 1)
with B the mean-free upwind streaming residual (dropped when include_bh is
off) and D the residual of -d/dx rho.  The stiff relaxation and gradient
terms are folded into the division, which is scaled by eps^2 so eps = 0 is a
valid input: the step then degenerates to the explicit limit update
g_new = v * D(rho_new).
"""

import math
from dataclasses import dataclass

import numpy as np

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
        eps = float(self.eps)  # a Python float: overflow is inf, not a warning
        if not math.isfinite(eps * eps / self.dt):
            raise ValueError(
                f"eps={eps:.6g} is too large: eps^2/dt overflows at dt={self.dt:.6g}"
            )
        if not 0 <= self.degree:
            raise ValueError("degree must be >= 0")
        check_flux(self.flux)


@dataclass
class State:
    """The solution pair (rho, g); the drivers count steps and time."""

    rho: DGField
    g: KineticField


def init_state(rho0, g0, config):
    """L2-project the initial data; g0(x, v) takes v as one (nv, 1, 1) array and must broadcast."""
    rho = project(rho0, config.mesh, config.degree)
    g = project_kinetic(g0, config.mesh, config.degree, config.space)
    return State(rho=rho, g=g)


def _transport(rho, g, config):
    """step's explicit half, rho - dt R(g)."""
    return rho - config.dt * moment_flux_divergence(g, config.flux)


def _relax(g, rho, config):
    """step's implicit half: g's update from g and the new density rho."""
    eps, dt = config.eps, config.dt
    grad = minus_gradient(rho, config.flux)
    v = config.space.nodes
    c1 = eps * eps / dt
    new_coeff = c1 * g.coeff + v[:, None, None] * grad.coeff
    if config.include_bh and eps > 0.0:
        new_coeff -= eps * streaming_fluctuation(g).coeff
    new_coeff /= c1 + 1.0
    return KineticField(config.space, config.mesh, config.degree, new_coeff)


def step(state, config):
    """Advance one step, _transport then _relax; pure function of (state, config)."""
    rho_new = _transport(state.rho, state.g, config)
    return State(rho=rho_new, g=_relax(state.g, rho_new, config))


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
    eps = config.eps
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
        eps_cap = min(eps, a2 * h / a1)
        return h / (a1 + a2 * a3) * (h + eps_cap * a3)
    return 2.0 * h / (a2 * a3) * (h + a3 * eps)


def energy(rho, g_lag, config):
    """Discrete energy ||rho^n||^2 + eps^2 |||g^{n-1}|||^2; g_lag is g^{n-1}, g^0 at n = 0."""
    return rho.norm() ** 2 + config.eps**2 * g_lag.triple_norm() ** 2


def _format_of(kind):
    """The %-format of a scalar of type kind: floats to 17 digits, the rest by str."""
    return "%.17g" if issubclass(kind, float) else "%s"


def format_value(value):
    """One header or CSV value by _format_of; tuples comma-joined."""
    if isinstance(value, tuple):
        return ",".join(map(format_value, value))
    return _format_of(type(value)) % value


def header_line(items):
    """The '# key=value;...' first line of every output file, in the dict's order."""
    return "# " + ";".join(f"{key}={format_value(v)}" for key, v in items.items()) + "\n"


def write_table(path, header, columns, rows):
    """Every output file: header line, column names, then rows, every line ending in \\n.

    Each row is one % operation, by a template of _format_of's formats kept
    per tuple of cell types, so a cell reads as format_value gives it.  Cells
    are scalars; no cell holds a comma, a quote or a line break.
    """
    templates, lines = {}, [header_line(header)]
    for row in [tuple(columns), *map(tuple, rows)]:
        types = tuple(map(type, row))
        if types not in templates:
            templates[types] = ",".join(map(_format_of, types)) + "\n"
        lines.append(templates[types] % row)
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def save_state(state, config, path, n, g_norm_lag):
    """Checkpoint of the state at step n: header with run metadata, t = n dt and
    |||g^{n-1}|||, then one coefficient per row, the (1 + nv, N, k + 1) stack of
    rho and g's nodes in C order."""
    mesh, space = config.mesh, config.space
    meta = dict(
        n=n, t=n * config.dt, eps=config.eps, dt=config.dt, degree=config.degree,
        n_cells=mesh.n_cells, x_min=mesh.x_min, x_max=mesh.x_max, flux=config.flux,
        model=space.kind, nv=space.n_nodes, include_bh=int(config.include_bh),
        continuum_moments=int(config.continuum_moments), g_norm_lag=g_norm_lag,
    )
    coeff = np.concatenate([state.rho.coeff.ravel(), state.g.coeff.ravel()])
    write_table(path, meta, ["coefficient"], zip(coeff.tolist()))


def load_state(path):
    """Rebuild (state, config, n, g_norm_lag) from a checkpoint file.  The header's
    packed state and stencil probe pass check_layout before the space is built."""
    from .stencil import check_layout  # stencil imports this module

    with open(path, newline="") as fh:
        header = fh.readline().strip().lstrip("# ")
        meta = dict(item.split("=", 1) for item in header.split(";"))
        mesh = Mesh1D(float(meta["x_min"]), float(meta["x_max"]), int(meta["n_cells"]))
        k1 = max(1, int(meta["degree"]) + 1)  # SchemeConfig refuses a negative degree
        check_layout(mesh.n_cells, (1 + int(meta["nv"])) * k1)
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
        columns = fh.readline().strip()
        if columns != "coefficient":
            raise ValueError(f"checkpoint {path}: its columns are {columns!r}, not the one "
                             "column 'coefficient'")
        values = np.loadtxt(fh, ndmin=1)
    shape = (1 + space.n_nodes, mesh.n_cells, config.degree + 1)
    if values.size != math.prod(shape):
        raise ValueError(f"checkpoint {path}: {values.size} coefficient rows for its "
                         f"{math.prod(shape)} coefficients")
    coeff = values.reshape(shape)
    rho = DGField(mesh, config.degree, coeff[0])
    g = KineticField(space, mesh, config.degree, coeff[1:])
    return State(rho=rho, g=g), config, int(meta["n"]), float(meta["g_norm_lag"])
