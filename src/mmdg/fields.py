"""Periodic 1D mesh, piecewise-polynomial fields, projections, and norms.

A DGField stores modal Legendre coefficients per cell, shape (n_cells,
degree+1).  A KineticField stacks one such coefficient table per velocity
node, shape (n_nodes, n_cells, degree+1).  A DGField may carry leading axes
that stack fields on one discretization: the L2 errors give one distance per
field; its norm and integral read single fields only.  The mesh is uniform
and periodic; interface i-1/2 sits between cells i-1 and i with index
arithmetic mod N.  Initial data enter through the L2 projection: cell
moments 0..k match the target.
"""

from dataclasses import dataclass

import numpy as np

from .basis import gauss_rule, legendre_basis, mass_diagonal


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

    def centers(self):
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.h

    def quad_points(self, n_points):
        """Gauss points per cell: physical x (n_cells, n_points), ref nodes, weights."""
        nodes, weights = gauss_rule(n_points)
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
        return float(np.sqrt(per_node @ self.space.weights))


def project(f, mesh, degree):
    """L2-project a vectorized callable of x, or a stack of them, onto broken P^degree."""
    basis = legendre_basis(degree)
    x, nodes, weights = mesh.quad_points(degree + 2)
    vand = basis.vandermonde(nodes)
    fx = np.asarray(f(x), dtype=float)
    fx = np.broadcast_to(fx, fx.shape[:-2] + x.shape)
    # reference-cell moments int f P_m dxi, all cells at once
    moments = fx @ (vand * weights[:, None])
    return DGField(mesh, degree, moments / basis.ref_mass)


def project_kinetic(g, mesh, degree, space):
    """Project g(x, v) onto the broken space at every velocity node at once:
    g is called once, with v as an (nv, 1, 1) array, and must broadcast."""
    nodes = space.nodes[:, None, None]
    field = project(lambda x: np.broadcast_to(g(x, nodes), (len(nodes),) + x.shape), mesh, degree)
    return KineticField(space, mesh, degree, field.coeff)


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
    """Quadrature L2 distance between a field and a pointwise function.

    A stacked field gives one distance per field; exact(x) may be stacked too.
    """
    x, nodes, weights = field.mesh.quad_points(field.degree + 3)
    vand = legendre_basis(field.degree).vandermonde(nodes)
    diff = field.coeff @ vand.T - np.asarray(exact(x), dtype=float)
    dist = np.sqrt(0.5 * field.mesh.h * np.einsum("...ip,p->...", diff**2, weights))
    return float(dist) if dist.ndim == 0 else dist


def l2_distance(coarse, fine):
    """Exact L2 distance between fields on nested meshes, without quadrature.

    The second field's mesh must refine the first's r-fold on one domain, at
    one degree k.  On subcell s, coarse mode j prolongs to sum_m sub[s, j, m]
    P_m, sub[s, j, m] = (2m+1)/2 int P_j((xi + 2s + 1 - r) / r) P_m(xi) dxi,
    exact on k + 1 Gauss points.  Fields stacked alike give one distance each.
    """
    mesh, k = coarse.mesh, coarse.degree
    domain = (mesh.x_min, mesh.x_max)
    if (fine.mesh.x_min, fine.mesh.x_max) != domain or fine.mesh.n_cells % mesh.n_cells:
        raise ValueError("meshes do not nest")
    if fine.degree != k:
        raise ValueError("fields have different degrees")
    r = fine.mesh.n_cells // mesh.n_cells
    basis, (nodes, weights) = legendre_basis(k), gauss_rule(k + 1)
    inner = basis.vandermonde((nodes + 2 * np.arange(r)[:, None] + 1 - r) / r)  # [s, p, j]
    modes = basis.vandermonde(nodes) / basis.ref_mass
    # row j: mode j's fine modes, subcell by subcell; np.tri: none above degree j
    sub = np.einsum("spj,p,pm,jm->jsm", inner, weights, modes, np.tri(k + 1)).reshape(k + 1, -1)
    # einsum, not BLAS, so no field's bits depend on the stack; in place, one big array
    diff = np.einsum("...ij,jn->...in", coarse.coeff, sub).reshape(fine.coeff.shape)
    diff -= fine.coeff
    diff *= diff
    diff *= mass_diagonal(k, fine.mesh.h)
    dist = np.sqrt(diff.reshape(diff.shape[:-2] + (-1,)).sum(axis=-1))
    return float(dist) if dist.ndim == 0 else dist
