"""Modal Legendre machinery on the reference cell [-1, 1].

Every mesh cell carries the local space P^k spanned by the unnormalized
Legendre polynomials P_0..P_k.  With this choice the cell mass matrix is
diagonal (h/(2j+1)) and endpoint traces are plain sign sums, which keeps
the implicit relaxation solve and all projections factorization-free.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg


class LegendreBasis:
    """Legendre modes P_0..P_degree with endpoint tables and mass weights.

    Attributes:
        degree: polynomial degree k.
        at_right: P_j(+1) for j = 0..k (all ones).
        at_left: P_j(-1) for j = 0..k (alternating signs).
        ref_mass: reference mass weights 2/(2j+1).
    """

    def __init__(self, degree):
        if degree < 0 or int(degree) != degree:
            raise ValueError(f"degree must be a non-negative integer, got {degree}")
        self.degree = int(degree)
        js = np.arange(self.degree + 1)
        self.at_right = np.ones(self.degree + 1)
        self.at_left = (-1.0) ** js
        self.ref_mass = 2.0 / (2.0 * js + 1.0)
        for arr in (self.at_right, self.at_left, self.ref_mass):
            arr.flags.writeable = False

    def vandermonde(self, xi):
        """Values of all modes at the points xi, shape (len(xi), degree+1)."""
        return npleg.legvander(np.asarray(xi, dtype=float), self.degree)

    def deriv_vandermonde(self, xi):
        """Derivatives P_j'(xi), same shape as vandermonde."""
        xi = np.asarray(xi, dtype=float)
        cols = []
        for j in range(self.degree + 1):
            c = np.zeros(j + 1)
            c[j] = 1.0
            cols.append(npleg.legval(xi, npleg.legder(c)) if j else np.zeros_like(xi))
        return np.stack(cols, axis=-1)


@lru_cache(maxsize=None)
def legendre_basis(degree):
    """Shared immutable basis instance for the given degree."""
    return LegendreBasis(degree)


@lru_cache(maxsize=None)
def gauss_rule(n_points):
    """Gauss-Legendre (nodes, weights) on [-1, 1], read-only and shared."""
    rule = npleg.leggauss(n_points)
    for arr in rule:
        arr.flags.writeable = False
    return rule


@lru_cache(maxsize=None)
def mass_diagonal(degree, h):
    """Diagonal of the cell mass matrix for a cell of width h, read-only and shared.

    Entry j is h/(2j+1), from the affine map x = x_c + (h/2) xi.
    """
    if h <= 0:
        raise ValueError(f"cell width must be positive, got {h}")
    weights = h / (2.0 * np.arange(degree + 1) + 1.0)
    weights.flags.writeable = False
    return weights


@dataclass(frozen=True)
class InverseConstants:
    """Sharp constants of the two reference-cell inverse inequalities.

    For any w in P^k([a, b]):
        |w(a or b)|^2 (b - a)   <= c_inv     * int w^2
        (b - a)^2 int |w'|^2    <= c_inv_hat * int w^2
    Both are pure functions of the degree.
    """

    degree: int
    c_inv: float
    c_inv_hat: float


def _max_generalized_eig(form, mass):
    # max of (c' form c)/(c' M c) with M = diag(mass); exact symmetric reduction
    sym = form / np.sqrt(np.outer(mass, mass))
    return float(np.linalg.eigvalsh(sym)[-1])


@lru_cache(maxsize=None)
def inverse_constants(degree):
    """Compute the sharp inverse-inequality constants for P^degree.

    Both constants come from small generalized eigenproblems on the
    reference cell: the boundary-value quadratic form (respectively the
    scaled stiffness form) against the diagonal mass form.  On [-1, 1]
    the inequalities read 2|w(+-1)|^2 <= c_inv int w^2 and
    4 int w'^2 <= c_inv_hat int w^2.
    """
    basis = legendre_basis(degree)
    mass = basis.ref_mass
    c_right = _max_generalized_eig(2.0 * np.outer(basis.at_right, basis.at_right), mass)
    c_left = _max_generalized_eig(2.0 * np.outer(basis.at_left, basis.at_left), mass)
    c_inv = max(c_right, c_left)
    if degree == 0:
        c_hat = 0.0
    else:
        # stiffness entries are polynomial; degree+2 Gauss points are exact
        nodes, weights = gauss_rule(degree + 2)
        dv = basis.deriv_vandermonde(nodes)
        stiff = 4.0 * (dv * weights[:, None]).T @ dv
        c_hat = _max_generalized_eig(stiff, mass)
    return InverseConstants(degree=degree, c_inv=c_inv, c_inv_hat=c_hat)
