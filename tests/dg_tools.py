"""DG tools the field and operator tests use beside the library's own, and
the cell-by-cell table writer that the fast one is tested against.

Projection modes of project_in_mode:
    l2            cell moments 0..k match the target (mmdg.fields.project).
    radau-minus   moments 0..k-1 match, right endpoint value matches.
    radau-plus    moments 0..k-1 match, left endpoint value matches.
For k = 0 the Radau modes reduce to endpoint interpolation.  Radau data
make the one-sided operators exact, and jumps, averages and the L2 inner
product state their weak-form identities.
"""

import csv

import numpy as np

from mmdg.basis import legendre_basis, mass_diagonal
from mmdg.fields import DGField, KineticField, interface_traces, project
from mmdg.scheme import format_value, header_line

L2 = "l2"
RADAU_MINUS = "radau-minus"
RADAU_PLUS = "radau-plus"


def project_in_mode(f, mesh, degree, mode):
    """Project a vectorized callable of x onto the broken P^degree space."""
    field = project(f, mesh, degree)
    if mode == L2:
        return field
    if mode not in (RADAU_MINUS, RADAU_PLUS):
        raise ValueError(f"unknown projection mode {mode!r}")
    basis = legendre_basis(degree)
    edges = np.linspace(mesh.x_min, mesh.x_max, mesh.n_cells + 1)
    if mode == RADAU_MINUS:
        endpoint_row, endpoint_x = basis.at_right, edges[1:]
    else:
        endpoint_row, endpoint_x = basis.at_left, edges[:-1]
    endpoint_val = np.broadcast_to(np.asarray(f(endpoint_x), dtype=float), (mesh.n_cells,))
    # modes 0..k-1 keep their L2 moments (the mass matrix is diagonal); the
    # top mode takes up the endpoint value, its basis value there being +-1
    coeff = field.coeff.copy()
    below = coeff[:, :degree] @ endpoint_row[:degree]
    coeff[:, degree] = (endpoint_val - below) / endpoint_row[degree]
    return DGField(mesh, degree, coeff)


def project_kinetic_in_mode(g, mesh, degree, space, mode):
    """Project g(x, v) node by node in the given mode."""
    out = KineticField(space, mesh, degree)
    for q, v in enumerate(space.nodes):
        out.coeff[q] = project_in_mode(lambda x: g(x, v), mesh, degree, mode).coeff
    return out


def eval_from_right(field, x):
    """Point values, periodic fold into [x_min, x_max); any input shape.

    Points landing exactly on a cell edge belong to the right cell.
    """
    mesh = field.mesh
    x = np.asarray(x, dtype=float)
    shape = x.shape
    rel = np.mod(x.ravel() - mesh.x_min, mesh.x_max - mesh.x_min)
    idx = np.minimum((rel / mesh.h).astype(int), mesh.n_cells - 1)
    xi = 2.0 * (rel - (idx + 0.5) * mesh.h) / mesh.h
    vand = legendre_basis(field.degree).vandermonde(np.clip(xi, -1.0, 1.0))
    vals = np.einsum("pj,pj->p", vand, field.coeff[idx])
    return vals.reshape(shape) if shape else float(vals[0])


def eval_from_left(field, x):
    """Point values, with points on a cell edge taken from the cell to their left.

    This is the one-sided limit from below that radau-minus samples broken
    data with; eval_from_right takes edge points from the right.
    """
    mesh = field.mesh
    x = np.asarray(x, dtype=float)
    rel = np.mod(x.ravel() - mesh.x_min, mesh.x_max - mesh.x_min)
    # cell -1 at rel == 0: the periodic domain's last cell, at its right end
    idx = np.ceil(rel / mesh.h).astype(int) - 1
    xi = 2.0 * (rel - (idx + 0.5) * mesh.h) / mesh.h
    vand = legendre_basis(field.degree).vandermonde(np.clip(xi, -1.0, 1.0))
    vals = np.einsum("pj,pj->p", vand, field.coeff[idx % mesh.n_cells])
    return vals.reshape(x.shape) if x.shape else float(vals[0])


def jumps(field):
    """[u] = u(+) - u(-) at every interface."""
    minus, plus = interface_traces(field)
    return plus - minus


def averages(field):
    """{u} = (u(+) + u(-))/2 at every interface."""
    minus, plus = interface_traces(field)
    return 0.5 * (plus + minus)


def write_table_by_cell(path, header, columns, rows):
    """The csv-module writer that mmdg.scheme.write_table must match byte for byte:
    header line, column names, then rows, each value through format_value, on
    cells that csv need not quote; every line ends in \n."""
    with open(path, "w", newline="") as fh:
        fh.write(header_line(header))
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([format_value(v) for v in row] for row in rows)


def inner(a, b):
    """L2 inner product of two fields on the same discretization."""
    a._check_compatible(b)
    md = mass_diagonal(a.degree, a.mesh.h)
    return float(np.einsum("ij,ij,j->", a.coeff, b.coeff, md))
