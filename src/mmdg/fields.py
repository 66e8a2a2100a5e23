"""Periodic 1D mesh, piecewise-polynomial fields, projections, and norms.

A DGField stores modal Legendre coefficients per cell, shape (n_cells,
degree+1).  A KineticField stacks one such coefficient table per velocity
node, shape (n_nodes, n_cells, degree+1).  The mesh is uniform and periodic;
interface i-1/2 sits between cells i-1 and i with index arithmetic mod N.

Projections:
    l2            cell moments 0..k match the target.
    radau-minus   moments 0..k-1 match, right endpoint value matches.
    radau-plus    moments 0..k-1 match, left endpoint value matches.
For k = 0 the Radau modes reduce to endpoint interpolation.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

from .basis import legendre_basis, mass_diagonal

L2 = "l2"
RADAU_MINUS = "radau-minus"
RADAU_PLUS = "radau-plus"


@dataclass(frozen=True)
class Mesh1D:
    """Uniform periodic partition of [x_min, x_max] into n_cells cells."""

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if self.x_max <= self.x_min:
            raise ValueError("empty domain")
        if self.n_cells < 1:
            raise ValueError("need at least one cell")

    @property
    def h(self):
        return (self.x_max - self.x_min) / self.n_cells

    def edges(self):
        return np.linspace(self.x_min, self.x_max, self.n_cells + 1)

    def centers(self):
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.h

    def quad_points(self, n_points):
        """Gauss points per cell: physical x (n_cells, n_points), ref nodes, weights."""
        nodes, weights = npleg.leggauss(n_points)
        x = self.centers()[:, None] + 0.5 * self.h * nodes[None, :]
        return x, nodes, weights


class DGField:
    """Piecewise P^k function on a periodic mesh, modal coefficients per cell."""

    def __init__(self, mesh, degree, coeff=None):
        self.mesh = mesh
        self.degree = degree
        if coeff is None:
            coeff = np.zeros((mesh.n_cells, degree + 1))
        self.coeff = np.asarray(coeff, dtype=float)
        if self.coeff.shape != (mesh.n_cells, degree + 1):
            raise ValueError(f"coefficient shape {self.coeff.shape} does not match mesh")

    def eval(self, x, side="+"):
        """Point values, periodic fold into [x_min, x_max); any input shape.

        Points landing exactly on a cell edge belong to the right cell by
        default; side='-' assigns them to the left cell instead (the
        one-sided limit from below, needed when projecting broken data).
        """
        x = np.asarray(x, dtype=float)
        shape = x.shape
        flat = x.ravel()
        length = self.mesh.x_max - self.mesh.x_min
        rel = np.mod(flat - self.mesh.x_min, length)
        scaled = rel / self.mesh.h
        if side == "+":
            idx = np.minimum(scaled.astype(int), self.mesh.n_cells - 1)
        elif side == "-":
            idx = np.mod(np.ceil(scaled).astype(int) - 1, self.mesh.n_cells)
            rel = np.where(np.ceil(scaled) == 0, rel + length, rel)
        else:
            raise ValueError(f"side must be '+' or '-', got {side!r}")
        xi = 2.0 * (rel - (idx + 0.5) * self.mesh.h) / self.mesh.h
        vand = legendre_basis(self.degree).vandermonde(np.clip(xi, -1.0, 1.0))
        vals = np.einsum("pj,pj->p", vand, self.coeff[idx])
        return vals.reshape(shape) if shape else float(vals[0])

    def norm(self):
        """L2 norm from coefficients (exact, diagonal mass)."""
        md = mass_diagonal(self.degree, self.mesh.h)
        return float(np.sqrt(np.einsum("ij,j->", self.coeff**2, md)))

    def integral(self):
        """Integral over the domain (mass)."""
        return float(self.coeff[:, 0].sum() * self.mesh.h)

    def _check_compatible(self, other):
        if self.mesh != other.mesh or self.degree != other.degree:
            raise ValueError("fields live on different discretizations")

    def __add__(self, other):
        self._check_compatible(other)
        return DGField(self.mesh, self.degree, self.coeff + other.coeff)

    def __sub__(self, other):
        self._check_compatible(other)
        return DGField(self.mesh, self.degree, self.coeff - other.coeff)

    def __mul__(self, scalar):
        return DGField(self.mesh, self.degree, self.coeff * float(scalar))

    __rmul__ = __mul__


class KineticField:
    """One DGField per velocity node, sharing mesh and degree."""

    def __init__(self, space, mesh, degree, coeff=None):
        self.space = space
        self.mesh = mesh
        self.degree = degree
        if coeff is None:
            coeff = np.zeros((space.n_nodes, mesh.n_cells, degree + 1))
        self.coeff = np.asarray(coeff, dtype=float)
        expected = (space.n_nodes, mesh.n_cells, degree + 1)
        if self.coeff.shape != expected:
            raise ValueError(f"coefficient shape {self.coeff.shape}, expected {expected}")

    def node(self, q):
        """Per-node field (shares storage with this object)."""
        return DGField(self.mesh, self.degree, self.coeff[q])

    def bracket(self):
        """Velocity average <g> as a DGField (coefficient-wise)."""
        return DGField(self.mesh, self.degree, self.space.bracket(self.coeff))

    def bracket_v(self):
        """First moment <v g> as a DGField."""
        return DGField(self.mesh, self.degree, self.space.bracket_v(self.coeff))

    def triple_norm(self):
        """(sum_q w_q ||g_q||^2)^(1/2)."""
        md = mass_diagonal(self.degree, self.mesh.h)
        per_node = np.einsum("qij,j->q", self.coeff**2, md)
        return float(np.sqrt(np.dot(self.space.weights, per_node)))

    def __add__(self, other):
        return KineticField(self.space, self.mesh, self.degree, self.coeff + other.coeff)

    def __sub__(self, other):
        return KineticField(self.space, self.mesh, self.degree, self.coeff - other.coeff)

    def __mul__(self, scalar):
        return KineticField(self.space, self.mesh, self.degree, self.coeff * float(scalar))

    __rmul__ = __mul__


def project(f, mesh, degree, mode=L2):
    """Project a pointwise function onto the broken P^degree space.

    Args:
        f: vectorized callable of x.
        mode: one of l2, radau-minus, radau-plus.
    """
    basis = legendre_basis(degree)
    x, nodes, weights = mesh.quad_points(degree + 2)
    vand = basis.vandermonde(nodes)
    fx = np.asarray(f(x), dtype=float)
    if fx.shape != x.shape:
        fx = np.broadcast_to(fx, x.shape)
    # reference-cell moments int f P_m dxi, all cells at once
    moments = fx @ (vand * weights[:, None])
    if mode == L2:
        coeff = moments / basis.ref_mass
        return DGField(mesh, degree, coeff)
    if mode not in (RADAU_MINUS, RADAU_PLUS):
        raise ValueError(f"unknown projection mode {mode!r}")
    edges = mesh.edges()
    if mode == RADAU_MINUS:
        endpoint_row = basis.at_right
        endpoint_val = np.asarray(f(edges[1:]), dtype=float)
    else:
        endpoint_row = basis.at_left
        endpoint_val = np.asarray(f(edges[:-1]), dtype=float)
    # k moment equations plus one endpoint equation per cell, shared matrix
    n = degree + 1
    system = np.zeros((n, n))
    system[: degree, : degree] = np.diag(basis.ref_mass[:degree])
    system[degree] = endpoint_row
    rhs = np.empty((n, mesh.n_cells))
    rhs[:degree] = moments[:, :degree].T
    rhs[degree] = np.broadcast_to(endpoint_val, (mesh.n_cells,))
    return DGField(mesh, degree, np.linalg.solve(system, rhs).T)


def project_kinetic(g, mesh, degree, space, mode=L2):
    """Project g(x, v) node by node onto the broken space."""
    out = KineticField(space, mesh, degree)
    for q, v in enumerate(space.nodes):
        out.coeff[q] = project(lambda x: g(x, v), mesh, degree, mode).coeff
    return out


def interface_traces(field):
    """One-sided values at every interface i-1/2, i = 0..N-1 (periodic).

    Returns (minus, plus): minus[..., i] is the left-cell value, plus[..., i]
    the right-cell value at interface i-1/2.  A KineticField gives one row
    of traces per velocity node.
    """
    basis = legendre_basis(field.degree)
    right_of_cell = field.coeff @ basis.at_right
    left_of_cell = field.coeff @ basis.at_left
    return np.roll(right_of_cell, 1, axis=-1), left_of_cell


def jumps(field):
    """[u] = u(+) - u(-) at every interface."""
    minus, plus = interface_traces(field)
    return plus - minus


def averages(field):
    """{u} = (u(+) + u(-))/2 at every interface."""
    minus, plus = interface_traces(field)
    return 0.5 * (plus + minus)


def inner(a, b):
    """L2 inner product of two fields on the same discretization."""
    a._check_compatible(b)
    md = mass_diagonal(a.degree, a.mesh.h)
    return float(np.einsum("ij,ij,j->", a.coeff, b.coeff, md))


def l2_error(field, exact, n_points=None):
    """Quadrature L2 distance between a field and a pointwise function."""
    if n_points is None:
        n_points = field.degree + 3
    x, nodes, weights = field.mesh.quad_points(n_points)
    vand = legendre_basis(field.degree).vandermonde(nodes)
    vals = field.coeff @ vand.T
    diff = vals - np.asarray(exact(x), dtype=float)
    return float(np.sqrt(0.5 * field.mesh.h * np.einsum("ip,p->", diff**2, weights)))


def l2_distance(coarse, fine, n_points=None):
    """Quadrature L2 distance between fields on nested meshes.

    The second field's mesh must refine the first's (same domain, cell
    count an integer multiple).
    """
    if fine.mesh.n_cells % coarse.mesh.n_cells != 0:
        raise ValueError("meshes do not nest")
    if n_points is None:
        n_points = max(coarse.degree, fine.degree) + 3
    return l2_error(fine, coarse.eval, n_points)
