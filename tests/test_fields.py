import math

import numpy as np
import pytest

from dg_tools import (
    L2,
    RADAU_MINUS,
    RADAU_PLUS,
    averages,
    eval_from_left,
    eval_from_right,
    inner,
    jumps,
    project_in_mode,
)
from mmdg.basis import legendre_basis
from mmdg.fields import (
    DGField,
    KineticField,
    Mesh1D,
    interface_traces,
    l2_distance,
    l2_error,
    periodic_shift,
    project,
    project_kinetic,
)
from mmdg.harness import IC_REGISTRY
from mmdg.velocity import GAUSS_ORDINATES, TWO_POINT, make_velocity_space

MODES = (L2, RADAU_MINUS, RADAU_PLUS)


def _mesh(n, length=2 * np.pi):
    return Mesh1D(0.0, length, n)


def test_mesh_basics():
    mesh = Mesh1D(0.0, 1.0, 4)
    assert mesh.h == 0.25
    assert np.allclose(mesh.centers(), [0.125, 0.375, 0.625, 0.875])
    with pytest.raises(ValueError):
        Mesh1D(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        Mesh1D(0.0, 1.0, 0)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_projection_reproduces_broken_polynomials(mode, k):
    # any member of the broken space is reproduced exactly, all modes;
    # radau-minus takes its endpoint data from the left, so broken targets
    # must be sampled with the matching one-sided convention
    rng = np.random.default_rng(5 * k + len(mode))
    mesh = _mesh(6)
    target = DGField(mesh, k, rng.standard_normal((6, k + 1)))
    sample = eval_from_left if mode == RADAU_MINUS else eval_from_right
    projected = project_in_mode(lambda x: sample(target, x), mesh, k, mode)
    assert np.max(np.abs(projected.coeff - target.coeff)) < 1e-11


def test_radau_endpoint_constraints():
    mesh = _mesh(10)
    minus = project_in_mode(np.sin, mesh, 2, RADAU_MINUS)
    plus = project_in_mode(np.sin, mesh, 2, RADAU_PLUS)
    edges = np.linspace(mesh.x_min, mesh.x_max, mesh.n_cells + 1)
    tr_minus, tr_plus = interface_traces(minus)
    # right endpoint of cell i is the minus trace at interface i+1/2
    assert np.max(np.abs(np.roll(tr_minus, -1) - np.sin(edges[1:]))) < 1e-13
    tr_minus, tr_plus = interface_traces(plus)
    assert np.max(np.abs(tr_plus - np.sin(edges[:-1]))) < 1e-13


def test_l2_error_halving_rate():
    # refining 16 -> 32 at k = 1 should shrink the error by about 2^(k+1) = 4
    e16 = l2_error(project(np.sin, _mesh(16), 1), np.sin)
    e32 = l2_error(project(np.sin, _mesh(32), 1), np.sin)
    assert e16 / e32 == pytest.approx(4.0, rel=0.1)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [1, 2])
def test_projection_error_rates(mode, k):
    # squared L2 error and h * (squared endpoint error) both scale as h^(2k+2)
    data = []
    for n in (16, 32, 64):
        mesh = _mesh(n)
        field = project_in_mode(np.sin, mesh, k, mode)
        err_sq = l2_error(field, np.sin) ** 2
        minus, plus = interface_traces(field)
        edge_vals = np.sin(np.linspace(mesh.x_min, mesh.x_max, mesh.n_cells + 1)[:-1])
        trace_sq = mesh.h * np.sum((plus - edge_vals) ** 2 + (minus - edge_vals) ** 2)
        data.append((err_sq, trace_sq))
    for idx in (0, 1):
        order = math.log2(data[0][idx] / data[1][idx])
        assert abs(order - (2 * k + 2)) < 0.6
        order = math.log2(data[1][idx] / data[2][idx])
        assert abs(order - (2 * k + 2)) < 0.6


def test_parseval_consistency():
    rng = np.random.default_rng(3)
    mesh = _mesh(8)
    field = DGField(mesh, 2, rng.standard_normal((8, 3)))
    x, nodes, weights = mesh.quad_points(4)
    vand = legendre_basis(2).vandermonde(nodes)
    quad_norm = np.sqrt(0.5 * mesh.h * np.sum((field.coeff @ vand.T) ** 2 * weights))
    assert abs(field.norm() - quad_norm) < 1e-13


def test_projection_optimality():
    rng = np.random.default_rng(17)
    mesh = _mesh(12)
    for _ in range(20):
        amps = rng.standard_normal(3)
        phases = rng.uniform(0, 2 * np.pi, 3)

        def f(x):
            return sum(a * np.sin((m + 1) * x + p) for m, (a, p) in enumerate(zip(amps, phases)))

        best = project(f, mesh, 2)
        err_best = l2_error(best, f)
        for _ in range(5):
            competitor = DGField(mesh, 2, best.coeff + 1e-3 * rng.standard_normal((12, 3)))
            assert err_best <= l2_error(competitor, f) + 1e-12


def test_jumps_of_smooth_projection_shrink():
    k = 2
    j16 = np.max(np.abs(jumps(project(np.sin, _mesh(16), k))))
    j32 = np.max(np.abs(jumps(project(np.sin, _mesh(32), k))))
    # interface jumps of a smooth projection behave like h^(k+1)
    assert j16 / j32 == pytest.approx(2 ** (k + 1), rel=0.25)


def test_constant_field_traces():
    mesh = _mesh(5)
    field = DGField(mesh, 1)
    field.coeff[:, 0] = 3.5
    assert np.max(np.abs(jumps(field))) == 0.0
    assert np.allclose(averages(field), 3.5)


def test_wraparound_jump_single_cell():
    mesh = Mesh1D(0.0, 2.0, 1)
    field = project(lambda x: x, mesh, 1)
    assert jumps(field)[0] == pytest.approx(-2.0, abs=1e-13)
    minus, plus = interface_traces(field)
    assert minus[0] == pytest.approx(2.0, abs=1e-13)
    assert plus[0] == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_periodic_shift_is_roll_on_last_axis(n):
    values = np.arange(3.0 * n).reshape(3, n)
    for shift in (-n - 1, -1, 0, 1, n, 2 * n + 3):
        shifted = periodic_shift(values, shift)
        assert shifted.tobytes() == np.roll(values, shift, axis=-1).tobytes()


def test_kinetic_traces_are_per_node():
    # the periodic roll runs along cells only, never across velocity nodes
    rng = np.random.default_rng(4)
    space = make_velocity_space(GAUSS_ORDINATES, 6)
    g = KineticField(space, _mesh(7), 2, rng.standard_normal((6, 7, 3)))
    minus, plus = interface_traces(g)
    for q in range(space.n_nodes):
        node_minus, node_plus = interface_traces(g.node(q))
        assert np.array_equal(minus[q], node_minus)
        assert np.array_equal(plus[q], node_plus)


def test_norm_examples():
    mesh = Mesh1D(0.0, 3.0, 6)
    field = DGField(mesh, 2)
    field.coeff[:, 0] = -2.0
    assert field.norm() == pytest.approx(2.0 * np.sqrt(3.0), abs=1e-14)

    space = make_velocity_space(TWO_POINT)
    mesh = _mesh(8)
    g = project_kinetic(lambda x, v: np.sin(x), mesh, 1, space)
    assert g.triple_norm() == pytest.approx(g.node(0).norm(), abs=1e-14)
    g_v = project_kinetic(lambda x, v: v * np.ones_like(x), mesh, 1, space)
    assert g_v.triple_norm() == pytest.approx(np.sqrt(2 * np.pi), abs=1e-13)


def _project_kinetic_node_by_node(g, mesh, degree, space):
    # the projection as it was taken before: one project per velocity node
    out = KineticField(space, mesh, degree)
    for q, v in enumerate(space.nodes):
        out.coeff[q] = project(lambda x: g(x, v), mesh, degree).coeff
    return out


@pytest.mark.parametrize("ic", ["sin", "ill-prepared", "bump"])
@pytest.mark.parametrize(
    "kind, nv", [(TWO_POINT, 2)] + [(GAUSS_ORDINATES, nv) for nv in (2, 4, 8, 16, 32)]
)
@pytest.mark.parametrize("k", [0, 2, 4])
def test_project_kinetic_matches_node_by_node(ic, kind, nv, k):
    # one call of g0 on all nodes gives, bit for bit, the per-node projections:
    # a v-dependent g0 (sin, bump) and one that ignores v (ill-prepared)
    space = make_velocity_space(kind, nv)
    mesh = _mesh(7)
    g0 = IC_REGISTRY[ic].g0
    stacked = project_kinetic(g0, mesh, k, space).coeff
    assert stacked.tobytes() == _project_kinetic_node_by_node(g0, mesh, k, space).coeff.tobytes()


def test_inner_matches_quadrature():
    rng = np.random.default_rng(9)
    mesh = _mesh(4)
    a = DGField(mesh, 2, rng.standard_normal((4, 3)))
    b = DGField(mesh, 2, rng.standard_normal((4, 3)))
    x, nodes, weights = mesh.quad_points(5)
    vand = legendre_basis(2).vandermonde(nodes)
    quad = 0.5 * mesh.h * np.sum((a.coeff @ vand.T) * (b.coeff @ vand.T) * weights)
    assert inner(a, b) == pytest.approx(quad, abs=1e-13)


def test_field_eval_periodic_fold():
    mesh = _mesh(8)
    field = project(np.sin, mesh, 2)
    folded = eval_from_right(field, 2 * np.pi + 0.3)
    assert folded == pytest.approx(eval_from_right(field, 0.3), abs=1e-14)


def test_l2_distance_nested():
    coarse = project(np.sin, _mesh(8), 1)
    fine = project(np.sin, _mesh(32), 1)
    d = l2_distance(coarse, fine)
    e = l2_error(coarse, np.sin)
    assert d == pytest.approx(e, rel=1e-2)
    with pytest.raises(ValueError):
        l2_distance(project(np.sin, _mesh(12), 1), project(np.sin, _mesh(8), 1))
    with pytest.raises(ValueError, match="different degrees"):
        l2_distance(project(np.sin, _mesh(8), 1), project(np.sin, _mesh(16), 2))
    # a fine mesh on another domain does not nest, whatever its cell count
    with pytest.raises(ValueError, match="do not nest"):
        l2_distance(project(np.sin, _mesh(8), 1), project(np.sin, _mesh(16, 1.0), 1))
    with pytest.raises(ValueError, match="do not nest"):
        l2_distance(project(np.sin, _mesh(8), 1), project(np.sin, Mesh1D(-1.0, 2 * np.pi, 16), 1))


def _l2_distance_one_by_one(coarse, fine):
    # the distance of one pair of fields as it was taken before stacking: the
    # fine mesh's quadrature against point values of the coarse field
    x, nodes, weights = fine.mesh.quad_points(fine.degree + 3)
    vand = legendre_basis(fine.degree).vandermonde(nodes)
    diff = fine.coeff @ vand.T - eval_from_right(coarse, x)
    return float(np.sqrt(0.5 * fine.mesh.h * np.einsum("ip,p->", diff**2, weights)))


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("coarse_cells, ratio", [(5, 1), (4, 2), (6, 3), (3, 4), (2, 8)])
def test_stacked_l2_distance_matches_one_by_one(k, coarse_cells, ratio):
    # one call on a stack gives, bit for bit, the distance of each pair alone;
    # the exact prolongation agrees with the quadrature oracle at roundoff
    # (worst 5.9e-16 relative over these cases)
    rng = np.random.default_rng(100 * k + 10 * coarse_cells + ratio)
    n_fields = 7
    coarse_mesh, fine_mesh = _mesh(coarse_cells), _mesh(ratio * coarse_cells)
    coarse = DGField(coarse_mesh, k, rng.standard_normal((n_fields, coarse_cells, k + 1)))
    fine = DGField(fine_mesh, k, rng.standard_normal((n_fields, ratio * coarse_cells, k + 1)))
    stacked = l2_distance(coarse, fine)
    assert stacked.shape == (n_fields,)
    for s in range(n_fields):
        one = _l2_distance_one_by_one(DGField(coarse_mesh, k, coarse.coeff[s]),
                                      DGField(fine_mesh, k, fine.coeff[s]))
        alone = l2_distance(DGField(coarse_mesh, k, coarse.coeff[s]),
                            DGField(fine_mesh, k, fine.coeff[s]))
        assert stacked[s] == alone
        assert alone == pytest.approx(one, rel=2e-15, abs=0)


def _exact_l2_distance(coarse, fine, mpmath):
    # the distance of the same float fields at 40 digits: on each subcell s,
    # P_j((xi + 2s + 1 - r) / r) is expanded in P_m by a Legendre-Vandermonde
    # solve at k + 1 points, exact for these degree-k polynomials
    k, r = coarse.degree, fine.mesh.n_cells // coarse.mesh.n_cells
    points = [mpmath.mpf(i + 1) / (k + 2) * 2 - 1 for i in range(k + 1)]
    vand = mpmath.matrix([[mpmath.legendre(m, x) for m in range(k + 1)] for x in points])
    mass = [mpmath.mpf(fine.mesh.h) / (2 * m + 1) for m in range(k + 1)]
    total = mpmath.mpf(0)
    for s in range(r):
        values = mpmath.matrix([[mpmath.legendre(j, (x + 2 * s + 1 - r) / r) for j in range(k + 1)]
                                for x in points])
        sub = vand**-1 * values  # column j: the P_m coefficients of mode j
        for i in range(coarse.mesh.n_cells):
            c = [mpmath.mpf(v) for v in coarse.coeff[i]]
            f = fine.coeff[i * r + s]
            for m in range(k + 1):
                prolonged = mpmath.fsum(sub[m, j] * c[j] for j in range(k + 1))
                total += mass[m] * (prolonged - mpmath.mpf(f[m])) ** 2
    return mpmath.sqrt(total)


def test_l2_distance_beats_quadrature_against_extended_precision():
    # fields that agree to about 1e-7 lose most digits to cancellation; the
    # exact prolongation loses fewer than the quadrature oracle
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    worst = {"prolongation": 0.0, "quadrature": 0.0}
    with mpmath.workdps(40):
        for k in range(5):
            for ratio in range(1, 9):
                coarse_mesh, fine_mesh = _mesh(3), _mesh(3 * ratio)
                coarse = DGField(coarse_mesh, k, rng.standard_normal((3, k + 1)))
                fine = project(lambda x: eval_from_right(coarse, x), fine_mesh, k)
                fine.coeff += 1e-7 * rng.standard_normal(fine.coeff.shape)
                exact = _exact_l2_distance(coarse, fine, mpmath)
                for name, dist in (("prolongation", l2_distance(coarse, fine)),
                                   ("quadrature", _l2_distance_one_by_one(coarse, fine))):
                    error = float(abs(mpmath.mpf(dist) - exact) / exact)
                    worst[name] = max(worst[name], error)
    assert worst["prolongation"] < worst["quadrature"], worst


def test_stacked_l2_error_matches_one_by_one():
    rng = np.random.default_rng(3)
    field = DGField(_mesh(12), 2, rng.standard_normal((4, 12, 3)))
    amplitudes = np.array([1.0, -0.5, 2.0, 0.0])
    stacked = l2_error(field, lambda x: amplitudes[:, None, None] * np.sin(x))
    for s, a in enumerate(amplitudes):
        alone = DGField(field.mesh, 2, field.coeff[s])
        assert stacked[s] == l2_error(alone, lambda x: a * np.sin(x))


def test_kinetic_bracket_fields():
    space = make_velocity_space(TWO_POINT)
    mesh = _mesh(6)
    g = project_kinetic(lambda x, v: v * np.cos(x) + np.sin(x), mesh, 2, space)
    # brackets commute with projection: <v cos + sin> = sin, <v(...)> = cos
    sin_proj = project(np.sin, mesh, 2)
    cos_proj = project(np.cos, mesh, 2)
    assert np.max(np.abs(g.bracket().coeff - sin_proj.coeff)) < 1e-13
    assert np.max(np.abs(g.bracket_v().coeff - cos_proj.coeff)) < 1e-13


def test_field_arithmetic_and_compat():
    mesh = _mesh(4)
    a = project(np.sin, mesh, 1)
    b = project(np.cos, mesh, 1)
    combo = 2.0 * a - b * 0.5
    assert np.allclose(combo.coeff, 2 * a.coeff - 0.5 * b.coeff)
    other = project(np.sin, _mesh(8), 1)
    with pytest.raises(ValueError):
        _ = a - other
