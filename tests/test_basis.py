import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from dg_tools import derivative_integrals
from mmdg.basis import (
    LegendreBasis,
    gauss_rule,
    grad_matrix,
    inverse_constants,
    legendre_basis,
    mass_diagonal,
)


def test_endpoint_tables():
    basis = LegendreBasis(4)
    assert np.array_equal(basis.at_right, np.ones(5))
    assert np.array_equal(basis.at_left, [1, -1, 1, -1, 1])


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_orthogonality(k):
    # Gauss quadrature with k+1 nodes integrates P_i P_j (degree <= 2k) exactly
    nodes, weights = npleg.leggauss(k + 1)
    vand = legendre_basis(k).vandermonde(nodes)
    gram = (vand * weights[:, None]).T @ vand
    expected = np.diag(2.0 / (2.0 * np.arange(k + 1) + 1.0))
    assert np.max(np.abs(gram - expected)) < 1e-13


def test_mass_diagonal_examples():
    assert np.allclose(mass_diagonal(0, 3.0), [3.0])
    assert np.allclose(mass_diagonal(1, 2.0), [2.0, 2.0 / 3.0])
    assert np.allclose(mass_diagonal(2, 1.0), [1.0, 1.0 / 3.0, 1.0 /  5.0])
    with pytest.raises(ValueError):
        mass_diagonal(1, 0.0)
    # the weights are cached and shared, so no caller may write to them, and
    # a refused width stays refused on the next call
    with pytest.raises(ValueError):
        mass_diagonal(1, 2.0)[0] = 1.0
    assert mass_diagonal(1, 2.0) is mass_diagonal(1, 2.0)
    for _ in range(2):
        with pytest.raises(ValueError):
            mass_diagonal(1, -1.0)


@pytest.mark.parametrize("n_points", [1, 2, 5, 32])
def test_gauss_rule_is_shared_and_read_only(n_points):
    nodes, weights = gauss_rule(n_points)
    expected_nodes, expected_weights = npleg.leggauss(n_points)
    assert np.array_equal(nodes, expected_nodes)
    assert np.array_equal(weights, expected_weights)
    assert gauss_rule(n_points) is gauss_rule(n_points)
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_grad_matrix_is_shared_and_read_only(k):
    # the derivative table the operators and the inverse constants share,
    # against int P_j P_m' by quadrature of npleg.legder's derivatives
    table = grad_matrix(k)
    assert np.max(np.abs(table - derivative_integrals(k)[0])) < 1e-13
    assert set(table.ravel()) <= {0.0, 2.0}
    assert grad_matrix(k) is table
    with pytest.raises(ValueError):
        table[-1, 0] = 0.0


def test_inverse_constants_k0():
    inv = inverse_constants(0)
    assert inv.c_inv == 1.0  # exact: constants saturate the trace inequality
    assert inv.c_inv_hat == 0.0


def test_inverse_constants_k1():
    # closed form of the 2x2 generalized eigenproblems over w = a + b*xi:
    # trace quotient 2 w(1)^2 / int w^2 maximizes to 4 at a = b/3,
    # derivative quotient 4 int w'^2 / int w^2 maximizes to 12 at a = 0
    inv = inverse_constants(1)
    assert inv.c_inv == 4.0
    assert inv.c_inv_hat == 12.0


def _trace_quotient(coeffs):
    # independent route: endpoint values and integral via plain quadrature,
    # one quotient per row of coeffs
    nodes, weights = npleg.leggauss(coeffs.shape[1])
    wsq = npleg.legval(nodes, coeffs.T) ** 2 @ weights
    end = np.maximum(npleg.legval(1.0, coeffs.T) ** 2, npleg.legval(-1.0, coeffs.T) ** 2)
    return 2.0 * end / wsq


def _deriv_quotient(coeffs):
    if coeffs.shape[1] == 1:
        return np.zeros(len(coeffs))
    nodes, weights = npleg.leggauss(coeffs.shape[1])
    wsq = npleg.legval(nodes, coeffs.T) ** 2 @ weights
    dsq = npleg.legval(nodes, npleg.legder(coeffs.T)) ** 2 @ weights
    return 4.0 * dsq / wsq


def _sharpness_samples(k, extremal, rng, count):
    # random coefficients plus shrinking perturbations of the extremal vector
    samples = rng.standard_normal((count // 2, k + 1))
    scales = np.geomspace(1.0, 1e-8, count - count // 2)
    perturbed = extremal[None, :] + scales[:, None] * rng.standard_normal(
        (count - count // 2, k + 1)
    )
    return np.vstack([samples, perturbed])


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_sharpness_randomized(k):
    rng = np.random.default_rng(2024 + k)
    inv = inverse_constants(k)
    # c_inv = (k + 1)^2 by Cauchy-Schwarz on the endpoint sum; c_inv_hat is
    # the integer stiffness's top eigenvalue, exact where it is an integer
    assert inv.c_inv == (k + 1) ** 2
    assert k > 2 or inv.c_inv_hat == (0.0, 12.0, 60.0)[k]
    basis = legendre_basis(k)
    # extremal vectors of the two quadratic forms, from the same reduction
    scale = 1.0 / np.sqrt(basis.ref_mass)
    trace_sym = 2.0 * np.outer(basis.at_right, basis.at_right) / np.sqrt(
        np.outer(basis.ref_mass, basis.ref_mass)
    )
    vec = np.linalg.eigh(trace_sym)[1][:, -1] * scale
    best = _trace_quotient(_sharpness_samples(k, vec, rng, 10_000)).max()
    assert best <= inv.c_inv + 1e-10
    assert best >= inv.c_inv - 1e-6

    if k >= 1:
        stiff = derivative_integrals(k)[1] / np.sqrt(np.outer(basis.ref_mass, basis.ref_mass))
        dvec = np.linalg.eigh(stiff)[1][:, -1] * scale
    else:
        dvec = np.ones(1)
    best = _deriv_quotient(_sharpness_samples(k, dvec, rng, 10_000)).max()
    assert best <= inv.c_inv_hat + 1e-10
    assert best >= inv.c_inv_hat - 1e-6


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_inequalities_on_physical_cells(k):
    # the constants are affine-invariant: check the inequalities on random [a, b]
    rng = np.random.default_rng(7 * k + 1)
    inv = inverse_constants(k)
    for _ in range(200):
        a = rng.uniform(-5, 5)
        b = a + rng.uniform(0.01, 10)
        coeffs = rng.standard_normal(k + 1)
        nodes, weights = npleg.leggauss(k + 1)
        x = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        xi = lambda t: (2 * t - a - b) / (b - a)
        vals = npleg.legval(xi(x), coeffs)
        integral = 0.5 * (b - a) * np.dot(weights, vals**2)
        for y in (a, b):
            assert npleg.legval(xi(y), coeffs) ** 2 * (b - a) <= inv.c_inv * integral * (
                1 + 1e-12
            )
        if k >= 1:
            dvals = npleg.legval(xi(x), npleg.legder(coeffs)) * 2 / (b - a)
            dintegral = 0.5 * (b - a) * np.dot(weights, dvals**2)
            assert (b - a) ** 2 * dintegral <= inv.c_inv_hat * integral * (1 + 1e-12)


def test_pure_function_of_degree():
    assert inverse_constants(2) is inverse_constants(2)
    first = inverse_constants(3)
    assert (first.c_inv, first.c_inv_hat) == (
        inverse_constants(3).c_inv,
        inverse_constants(3).c_inv_hat,
    )
