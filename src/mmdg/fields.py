"""Periodic 1D mesh, piecewise-polynomial fields, projections, and norms.

A DGField stores modal Legendre coefficients per cell, shape (n_cells,
degree+1).  A KineticField stacks one such coefficient table per velocity
node, shape (n_nodes, n_cells, degree+1).  Either may carry leading axes that
stack independent runs on one discretization (scheme.step advances such a
stack); DGField's norm, evaluation and integral read single fields only.  The
mesh is uniform and periodic; interface i-1/2 sits between cells i-1 and i
with index arithmetic mod N.  Initial data enter through the L2 projection:
cell moments 0..k match the target.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

from .basis import legendre_basis, mass_diagonal


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
        if self.coeff.shape[-2:] != (mesh.n_cells, degree + 1):
            raise ValueError(f"coefficient shape {self.coeff.shape} does not match mesh")

    def eval(self, x):
        """Point values, periodic fold into [x_min, x_max); any input shape.

        Points landing exactly on a cell edge belong to the right cell.
        """
        x = np.asarray(x, dtype=float)
        shape = x.shape
        rel = np.mod(x.ravel() - self.mesh.x_min, self.mesh.x_max - self.mesh.x_min)
        idx = np.minimum((rel / self.mesh.h).astype(int), self.mesh.n_cells - 1)
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
        if self.coeff.shape[-3:] != expected:
            raise ValueError(f"coefficient shape {self.coeff.shape}, expected {expected}")

    def node(self, q):
        """Per-node field (shares storage with this object)."""
        return DGField(self.mesh, self.degree, self.coeff[q])

    def bracket(self):
        """Velocity average <g> as a DGField (coefficient-wise)."""
        return DGField(self.mesh, self.degree, self.space.bracket(self.coeff, axis=-3))

    def bracket_v(self):
        """First moment <v g> as a DGField."""
        return DGField(self.mesh, self.degree, self.space.bracket_v(self.coeff, axis=-3))

    def triple_norm(self):
        """(sum_q w_q ||g_q||^2)^(1/2), a float, or an array of one per stacked run."""
        md = mass_diagonal(self.degree, self.mesh.h)
        per_node = np.einsum("...qij,j->...q", self.coeff**2, md)
        # a (1, nv) @ (nv,) product per run: the same dot a single run takes
        norm = np.sqrt((per_node[..., None, :] @ self.space.weights)[..., 0])
        return float(norm) if norm.ndim == 0 else norm


def project(f, mesh, degree):
    """L2-project a vectorized callable of x onto the broken P^degree space."""
    basis = legendre_basis(degree)
    x, nodes, weights = mesh.quad_points(degree + 2)
    vand = basis.vandermonde(nodes)
    fx = np.asarray(f(x), dtype=float)
    if fx.shape != x.shape:
        fx = np.broadcast_to(fx, x.shape)
    # reference-cell moments int f P_m dxi, all cells at once
    moments = fx @ (vand * weights[:, None])
    return DGField(mesh, degree, moments / basis.ref_mass)


def project_kinetic(g, mesh, degree, space):
    """Project g(x, v) node by node onto the broken space."""
    out = KineticField(space, mesh, degree)
    for q, v in enumerate(space.nodes):
        out.coeff[q] = project(lambda x: g(x, v), mesh, degree).coeff
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
    return periodic_shift(right_of_cell, 1), left_of_cell


def periodic_shift(values, shift):
    """np.roll(values, shift, axis=-1) as two slices and one concatenation."""
    cut = values.shape[-1] - shift % values.shape[-1]
    return np.concatenate((values[..., cut:], values[..., :cut]), axis=-1)


def l2_error(field, exact):
    """Quadrature L2 distance between a field and a pointwise function."""
    x, nodes, weights = field.mesh.quad_points(field.degree + 3)
    vand = legendre_basis(field.degree).vandermonde(nodes)
    vals = field.coeff @ vand.T
    diff = vals - np.asarray(exact(x), dtype=float)
    return float(np.sqrt(0.5 * field.mesh.h * np.einsum("ip,p->", diff**2, weights)))


def l2_distance(coarse, fine):
    """Quadrature L2 distance between fields on nested meshes.

    The second field's mesh must refine the first's (same domain, cell
    count an integer multiple), and both fields must share one degree.
    """
    if fine.mesh.n_cells % coarse.mesh.n_cells != 0:
        raise ValueError("meshes do not nest")
    if fine.degree != coarse.degree:
        raise ValueError("fields have different degrees")
    return l2_error(fine, coarse.eval)
