"""Micro-macro DG solver for linear kinetic transport in a diffusive scaling.

The top level is README's library contract: the mesh, the velocity space, the
config and its stable step, and the reference stepper with its checkpoint.
The layers and drivers live in the submodules.
"""

from .fields import Mesh1D
from .scheme import SchemeConfig, init_state, load_state, stable_dt, step
from .velocity import TWO_POINT, make_velocity_space

__version__ = "0.1.0"
