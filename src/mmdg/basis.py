"""Modal Legendre machinery on the reference cell [-1, 1].

Every mesh cell carries the local space P^k spanned by the unnormalized
Legendre polynomials P_0..P_k.  With this choice the cell mass matrix is
diagonal (h/(2j+1)) and endpoint traces are plain sign sums, which keeps
the implicit relaxation solve and all projections factorization-free.  The
exact derivative expansion, grad_matrix, is the one table that the operator
residuals and the inverse constants share.
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


@lru_cache(maxsize=None)
def grad_matrix(degree):
    """The exact Legendre derivative table, read-only and shared.

    Q[m, j] = int_{-1}^{1} P_j P_m' dxi, which is 2 when j < m and m - j is
    odd and 0 otherwise; P_m' expands as sum_j Q[m, j] P_j / ref_mass[j].
    """
    q = np.zeros((degree + 1, degree + 1))
    for m in range(1, degree + 1):
        q[m, m - 1 :: -2] = 2.0  # start index is >= 0, so no wraparound
    q.flags.writeable = False
    return q


@dataclass(frozen=True)
class InverseConstants:
    """Sharp constants of the two reference-cell inverse inequalities.

    For any w in P^k([a, b]):
        |w(a or b)|^2 (b - a)   <= c_inv     * int w^2
        (b - a)^2 int |w'|^2    <= c_inv_hat * int w^2
    Both are pure functions of the degree.  c_inv = (k + 1)^2 exactly;
    c_inv_hat is exact at k <= 2 (0, 12, 60) and an eigenvalue above.
    """

    degree: int
    c_inv: float
    c_inv_hat: float


@lru_cache(maxsize=None)
def inverse_constants(degree):
    """Compute the sharp inverse-inequality constants for P^degree.

    On [-1, 1] the inequalities read 2|w(+-1)|^2 <= c_inv int w^2 and
    4 int w'^2 <= c_inv_hat int w^2.  With w = sum_j c_j P_j, w(+-1) =
    sum_j c_j (+-1)^j and int w^2 = sum_j 2 c_j^2/(2j+1), so Cauchy-Schwarz
    gives c_inv = (k + 1)^2 in closed form.  c_inv_hat is the largest
    generalized eigenvalue of the stiffness 4 Q diag(1/ref_mass) Q^T, Q the
    grad_matrix, against the diagonal mass; the stiffness is an integer matrix.
    """
    mass = legendre_basis(degree).ref_mass
    q = grad_matrix(degree)
    stiff = 4.0 * (q / mass) @ q.T
    # max of (c' S c)/(c' M c) with M = diag(mass); exact symmetric reduction
    c_hat = float(np.linalg.eigvalsh(stiff / np.sqrt(np.outer(mass, mass)))[-1])
    return InverseConstants(degree=degree, c_inv=float((degree + 1) ** 2), c_inv_hat=c_hat)
