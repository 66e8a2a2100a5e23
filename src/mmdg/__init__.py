"""Micro-macro DG solver for linear kinetic transport in a diffusive scaling.

Core objects: velocity spaces with the measure average, modal DG fields on a
periodic mesh, the four spatial operators, a first-order IMEX stepper whose
vanishing-relaxation limit is an explicit local-DG heat scheme, and the
experiment drivers that reproduce the stability, accuracy, and limit claims.
"""

from .basis import InverseConstants, LegendreBasis, inverse_constants, mass_diagonal
from .fields import (
    DGField,
    KineticField,
    Mesh1D,
    interface_traces,
    l2_distance,
    l2_error,
    project,
    project_kinetic,
)
from .harness import (
    IC_REGISTRY,
    ExperimentSpec,
    run,
    run_ap_limit,
    run_convergence,
    run_solve,
    run_stability_scan,
)
from .limit import LimitState, init_limit_state, step_limit
from .operators import (
    ALT_LR,
    ALT_RL,
    CENTRAL,
    FLUXES,
    flux_divergence,
    minus_gradient,
    moment_flux_divergence,
    streaming_fluctuation,
    upwind_streaming,
)
from .scheme import (
    SchemeConfig,
    StabilityConstants,
    State,
    energy,
    init_state,
    load_state,
    save_state,
    stable_dt,
    step,
)
from .velocity import (
    GAUSS_ORDINATES,
    TWO_POINT,
    VelocityMoments,
    VelocitySpace,
    make_velocity_space,
)

__version__ = "0.1.0"
