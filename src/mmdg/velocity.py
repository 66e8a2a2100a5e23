"""Velocity-space models and the probability-measure average <.>.

Two models are supported: the discrete two-point space {-1, +1} with equal
weights, and Gauss-Legendre ordinates on [-1, 1] with weights halved so the
measure integrates to one.  Nodes are kept exactly symmetric about zero so
odd moments vanish identically.
"""

from dataclasses import dataclass

import numpy as np

from .basis import gauss_rule

TWO_POINT = "discrete-two-point"
GAUSS_ORDINATES = "gauss-ordinates"

# continuum moments of the Lebesgue measure dv/2 on [-1, 1]
CONTINUUM_V_MAX = 1.0
CONTINUUM_M2 = 1.0 / 3.0
CONTINUUM_M1_ABS = 0.5


@dataclass(frozen=True)
class VelocityMoments:
    """Moments feeding the stability constants: ||v||_inf, <v^2>, <|v|>."""

    v_max: float
    m2: float
    m1_abs: float


class VelocitySpace:
    """Discrete velocity nodes with measure weights summing to one."""

    def __init__(self, kind, nodes, weights):
        self.kind = kind
        self.nodes = np.asarray(nodes, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False

    @property
    def n_nodes(self):
        return len(self.nodes)

    def bracket(self, values, axis=0):
        """Velocity average sum_q w_q values_q along the given axis.

        Summation folds mirror-image node pairs first, so averages of odd
        functions of v cancel exactly instead of leaving roundoff residue.
        Axes before the given one index separate averages, each computed
        exactly as it would be alone (one matvec per slice).
        """
        return self._fold(self.weights, np.add, values, axis)

    def bracket_v(self, values, axis=0):
        """First moment sum_q w_q v_q values_q, exact for even integrands."""
        return self._fold(self.weights * self.nodes, np.subtract, values, axis)

    def _fold(self, weights, combine, values, axis):
        values = np.asarray(values)
        axis %= values.ndim
        if values.shape[axis] != self.n_nodes:
            raise ValueError(f"expected {self.n_nodes} velocity entries, got {values.shape[axis]}")
        half = self.n_nodes // 2
        lead = (slice(None),) * axis
        upper, lower = lead + (slice(half, None),), lead + (slice(half - 1, None, -1),)
        folded = combine(values[upper], values[lower])
        # the trailing size spelled out, which -1 cannot infer when a leading axis is empty
        flat = folded.reshape(*folded.shape[: axis + 1], int(np.prod(folded.shape[axis + 1 :])))
        return (weights[half:] @ flat).reshape(folded.shape[:axis] + folded.shape[axis + 1 :])

    def moments(self):
        v = self.nodes
        return VelocityMoments(
            v_max=float(np.max(np.abs(v))),
            m2=float(self.bracket(v * v)),
            m1_abs=float(self.bracket(np.abs(v))),
        )

    def __repr__(self):
        return f"VelocitySpace({self.kind!r}, n_nodes={self.n_nodes})"


def make_velocity_space(kind, n_nodes=None):
    """Build a velocity space of the requested kind.

    The two-point model ignores n_nodes.  Gauss ordinates require an even
    n_nodes >= 2 (keeps |v| smooth per half-interval and avoids a node at
    v = 0).
    """
    if kind == TWO_POINT:
        return VelocitySpace(kind, [-1.0, 1.0], [0.5, 0.5])
    if kind == GAUSS_ORDINATES:
        if not n_nodes or n_nodes < 2 or n_nodes % 2 != 0:
            raise ValueError(
                f"gauss-ordinates needs an even node count >= 2, got {n_nodes}"
            )
        nodes, weights = gauss_rule(int(n_nodes))
        # enforce exact +- symmetry so odd moments cancel in floating point
        nodes = 0.5 * (nodes - nodes[::-1])
        weights = 0.5 * (weights + weights[::-1])
        weights = weights / weights.sum()
        return VelocitySpace(kind, nodes, weights)
    raise ValueError(f"unknown velocity model {kind!r}")
