"""Experiment drivers: solve runs, convergence tables, stability scans,
and kinetic-vs-limit distance sweeps.

Every driver takes an ExperimentSpec, returns the rows it computed, and
optionally writes them as CSV: one comment line echoing the full spec and
the run's header facts, one column-name line, then data rows.  Output is
deterministic for a fixed spec (fixed evaluation order, no time-based seeds,
17-digit float formatting).
"""

import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import scheme, velocity
from .fields import DGField, KineticField, Mesh1D, l2_distance, l2_error
from .limit import init_limit_state, step_limit
from .operators import check_flux
# the drivers call these by their names here, which the benchmark's counters wrap
from .stencil import StencilStepper, _stencil_march, energy_history, pack_state
from .stencil import run_fixed_steps, unpack_state

MODELS = {"telegraph": velocity.TWO_POINT, "slab": velocity.GAUSS_ORDINATES}
DEFAULT_NV = {"telegraph": 2, "slab": 8}  # telegraph has exactly its two nodes

GROWTH_LIMIT = 10.0  # instability criterion: energy beyond this multiple of E_0
MAX_STEPS = 10**6  # step budget of solve, ap-limit and the scan's probes

# Periodic domain of every experiment; the sin and bump data and converge's
# exact heat solution are periodic on it.
DOMAIN = (0.0, 2.0 * np.pi)


@dataclass(frozen=True)
class InitialCondition:
    """Registered initial data; q0 takes (x, m2) for the limit scheme."""

    rho0: callable
    g0: callable
    q0: callable


def _well_prepared(rho0, drho0):
    """Data on the limit's manifold: g0 = -v rho0' and the limit flux q0 = -m2 rho0'."""
    return InitialCondition(rho0, lambda x, v: -v * drho0(x), lambda x, m2: -m2 * drho0(x))


def _ill_g(x, v):
    return np.ones_like(np.asarray(x, dtype=float))


def _ill_q(x, m2):
    return np.zeros_like(np.asarray(x, dtype=float))


_BUMP_WIDTH = 8.0


def _bump_rho(x):
    return np.exp(-_BUMP_WIDTH * (np.asarray(x, dtype=float) - np.pi) ** 2)


def _bump_drho(x):
    x = np.asarray(x, dtype=float)
    return -2.0 * _BUMP_WIDTH * (x - np.pi) * _bump_rho(x)


IC_REGISTRY = {
    "sin": _well_prepared(np.sin, np.cos),
    "ill-prepared": InitialCondition(np.sin, _ill_g, _ill_q),
    "bump": _well_prepared(_bump_rho, _bump_drho),
}


_UNREAD_OPTIONS = {  # step options a mode never reads: only their defaults pass
    "solve": ("c0",),
    "converge": ("c0",),
    "stability-scan": ("dt", "force_dt", "safety", "c0"),
}


@dataclass
class ExperimentSpec:
    """One experiment: what to run and where to put the rows."""

    mode: str
    model: str = "telegraph"
    nv: int = None  # None means the model's DEFAULT_NV
    degree: int = 1
    cells: tuple = (32,)
    eps: tuple = (1e-6,)
    dt: float = None  # None means auto: safety * stable step
    flux: str = "alt-lr"
    include_bh: bool = True
    safety: float = 0.9
    c0: float = 0.05
    tmax: float = 1.0
    ic: str = "sin"
    out: str = None
    force_dt: bool = False  # run the user dt even beyond the stable step
    continuum_moments: bool = False

    def __post_init__(self):
        if self.nv is None:
            self.nv = DEFAULT_NV.get(self.model)

    def validate(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {tuple(MODES)}, got {self.mode!r}")
        for name in _UNREAD_OPTIONS.get(self.mode, ()):
            if getattr(self, name) != getattr(ExperimentSpec, name):
                raise ValueError(f"{self.mode} does not read --{name.replace('_', '-')}")
        if self.model not in MODELS:
            raise ValueError(f"model must be telegraph or slab, got {self.model!r}")
        if self.model == "telegraph" and self.nv != DEFAULT_NV["telegraph"]:
            raise ValueError(f"the telegraph model has 2 velocity nodes, got --nv {self.nv}")
        check_flux(self.flux)
        if not self.cells or not all(int(n) > 0 for n in self.cells):
            raise ValueError("cells must be a non-empty list of positive ints")
        if len(self.eps) == 0:
            raise ValueError("eps list must be non-empty")
        if not all(math.isfinite(e) and e >= 0 for e in self.eps):
            raise ValueError("eps values must be finite and >= 0")
        if not (math.isfinite(self.tmax) and self.tmax > 0):
            raise ValueError("tmax must be positive and finite")
        if not 0 < self.safety < 1:
            raise ValueError("safety factor must be in (0, 1)")
        if not 0 < self.c0 < 1:
            raise ValueError("c0 must be in (0, 1)")
        if self.ic not in IC_REGISTRY:
            raise ValueError(f"unknown initial condition {self.ic!r}")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        if self.continuum_moments and self.model != "slab":
            raise ValueError("--continuum-moments only applies to the slab model")
        if self.out and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise ValueError(f"output directory of {self.out!r} does not exist")
        if self.out and os.path.isdir(self.out):
            raise ValueError(f"output path {self.out!r} is a directory")
        return self


def build_space(spec):
    return velocity.make_velocity_space(MODELS[spec.model], spec.nv)


def build_config(spec, n_cells, eps, dt):
    return scheme.SchemeConfig(
        eps=eps,
        dt=dt,
        degree=spec.degree,
        flux=spec.flux,
        space=build_space(spec),
        mesh=Mesh1D(*DOMAIN, int(n_cells)),
        include_bh=spec.include_bh,
        continuum_moments=spec.continuum_moments,
    )


def resolve_dt(spec, config, margin=1.0):
    """Apply the dt policy: auto, clamped user value, or forced override.

    The bound is safety * margin * dt_stab; returns (dt, dt_override).  A dt
    below the default policy's step, the bound at the default safety, may
    plan at most MAX_STEPS steps to tmax; that step itself is never refused.
    """
    dt_stab = scheme.stable_dt(config)
    bound = spec.safety * margin * dt_stab
    if spec.dt is None or (spec.dt > bound and not spec.force_dt):
        dt, overrode = bound, False
    else:
        dt, overrode = spec.dt, spec.dt > bound
    if dt < ExperimentSpec.safety * margin * dt_stab:
        _check_budget(spec.tmax, dt)
    return dt, overrode


def _check_budget(tmax, dt):
    """Refuse a dt that plans more than MAX_STEPS steps to tmax."""
    planned = tmax / dt if dt > 0 else math.inf  # a subnormal dt plans inf steps
    if not planned <= MAX_STEPS:
        raise ValueError(
            f"dt={dt:.6g} is too small to step to tmax={tmax:.6g}: "
            f"it plans {planned:.7g} steps, over the budget {MAX_STEPS}"
        )


def _steps_for(tmax, dt, exact_dt):
    """Step count covering tmax; without exact_dt the step shrinks to land on T.

    A step that underflowed to zero or makes tmax / dt overflow is refused.
    """
    if not (dt > 0 and math.isfinite(tmax / dt)):
        raise ValueError(f"dt={dt:.6g} is too small to step to tmax={tmax:.6g}")
    n = max(1, math.ceil(tmax / dt - 1e-12))
    return (n, dt) if exact_dt else (n, tmax / n)


MIN_PROBE_STEPS = 50


def is_stable(config, state, tmax):
    """Empirical stability probe: energy stays within GROWTH_LIMIT * E_0 up to tmax.

    Runs at least MIN_PROBE_STEPS steps so that candidate steps larger than
    tmax still get a chance to exhibit growth; since the guaranteed decay
    holds for every n, the extra steps can never flip a provably stable run.
    """
    n_steps = max(MIN_PROBE_STEPS, _steps_for(tmax, config.dt, exact_dt=True)[0])
    _, ok = energy_history(config, state, n_steps, stop_factor=GROWTH_LIMIT)
    return ok


def _initial_state(spec, config):
    """The spec's initial data projected on config; refuses an E_0 that overflows."""
    ic = IC_REGISTRY[spec.ic]
    state = scheme.init_state(ic.rho0, ic.g0, config)
    if not math.isfinite(scheme.energy(state, config)):
        raise ValueError(f"eps={config.eps:.6g} is too large: the energy E_0 overflows")
    return state


def write_csv(path, spec, rows, header):
    """Rows under one '# key=value;...' line: the spec's fields, then the header's.
    Every row is built from one dict literal, so the first row's keys name the columns."""
    table = (row.values() for row in rows)
    scheme.write_table(path, {**asdict(spec), **header}, list(rows[0]), table)


@dataclass
class RunResult:
    """A driver's rows, plus the run facts its CSV echoes after the spec, in
    header's order: dt_used and dt_override (solve, ap-limit), growth_limit
    (solve, stability-scan)."""

    spec: ExperimentSpec
    rows: list
    diverged: bool = False
    diverge_step: int = None
    final_state: object = None
    header: dict = field(default_factory=dict)

    def write(self):
        if self.spec.out:
            write_csv(self.spec.out, self.spec, self.rows, self.header)


def run_solve(spec):
    """Time-march a single (N, eps) case on the stencil, logging monitors every step."""
    spec.validate()
    if len(spec.cells) != 1 or len(spec.eps) != 1:
        raise ValueError("solve mode needs exactly one cell count and one eps")
    config = build_config(spec, spec.cells[0], spec.eps[0], dt=1.0)
    dt, overrode = resolve_dt(spec, config)
    n_steps, dt = _steps_for(spec.tmax, dt, spec.force_dt)
    config = scheme.with_dt(config, dt)
    state = _initial_state(spec, config)

    stepper = StencilStepper(config)
    rows = []
    for states, energies, ok, rho_sq, g_sq, lag_sq in _stencil_march(
        stepper, pack_state(state), n_steps, GROWTH_LIMIT
    ):
        mean_g = config.space.bracket(np.moveaxis(stepper.g_nodes(states), -2, 0))
        monitors = zip(
            energies.tolist(),
            np.sqrt(rho_sq).tolist(),
            np.sqrt(g_sq).tolist(),
            np.sqrt(stepper.rho_norm_sq(mean_g)).tolist(),
            (states[..., 0].sum(axis=-1) * config.mesh.h).tolist(),
        )
        for en, rho_norm, g_norm, mean_g_norm, mass in monitors:
            n = len(rows)
            rows.append(
                {
                    "n": n,
                    "t": n * dt,
                    "energy": en,
                    "rho_norm": rho_norm,
                    "g_norm": g_norm,
                    "mean_g_norm": mean_g_norm,
                    "mass": mass,
                    "status": "ok",
                }
            )
    if not ok:
        rows[-1]["status"] = "diverged"
    state = unpack_state(states[-1], config, n, n * dt, math.sqrt(lag_sq[-1]))

    result = RunResult(
        spec=spec,
        rows=rows,
        diverged=not ok,
        diverge_step=None if ok else n,
        final_state=state,
        header={"dt_used": dt, "dt_override": int(overrode), "growth_limit": GROWTH_LIMIT},
    )
    result.write()
    if spec.out:
        scheme.save_state(state, config, spec.out + ".state.csv")
    return result


_DIFFUSIVE_EPS = 1e-6  # below this, compare against the exact limit solution
REF_FACTOR_X = 4  # reference run: this many times the finest cell count
REF_FACTOR_T = 16  # and the finest dt divided by this


def _convergence_levels(spec, eps, cells):
    """(config, n_steps) of each level, and of the reference run or None.

    The first level's dt is resolve_dt's; each finer level's is proportional
    to h^(k+1), capped by safety * dt_stab.  Every level, a forced one too,
    shrinks its step to land on tmax, where the errors are measured.  The
    reference is None where the exact limit solution serves instead.
    """
    levels = []
    for n in cells:
        config = build_config(spec, n, eps, dt=1.0)
        h_power = config.mesh.h ** (spec.degree + 1)
        if not levels:
            dt, _ = resolve_dt(spec, config)
            anchor = dt / h_power
        else:
            dt = min(anchor * h_power, spec.safety * scheme.stable_dt(config))
        n_steps, dt = _steps_for(spec.tmax, dt, exact_dt=False)
        levels.append((scheme.with_dt(config, dt), n_steps))
    if eps <= _DIFFUSIVE_EPS and spec.ic == "sin":
        return levels, None
    n_steps, dt = _steps_for(spec.tmax, levels[-1][0].dt / REF_FACTOR_T, exact_dt=False)
    return levels, (build_config(spec, REF_FACTOR_X * cells[-1], eps, dt), n_steps)


def run_convergence(spec):
    """Error table under mesh refinement, one block per eps value.

    In the near-limit regime (eps <= 1e-6, sin data) errors are measured
    against the exact decayed-sine solution of the limiting heat equation;
    otherwise against a reference run on a REF_FACTOR_X finer mesh with the
    finest dt / REF_FACTOR_T.  Each run is one run_fixed_steps, which powers
    the step's Fourier symbol.  Every run's config is built at its own dt
    before the first step, so a bad eps is refused before any work.
    """
    spec.validate()
    cells = sorted(int(n) for n in spec.cells)
    if len(cells) < 3:
        raise ValueError("convergence mode needs at least three cell counts")
    for a, b in zip(cells, cells[1:]):
        if b != 2 * a:
            raise ValueError("cell counts must double between levels")
    space = build_space(spec)
    m2 = space.moments().m2
    blocks = [(eps, *_convergence_levels(spec, eps, cells)) for eps in spec.eps]
    rows = []
    for eps, levels, ref in blocks:
        if ref is None:
            decay = math.exp(-m2 * spec.tmax)
            distance = l2_error
            targets = [lambda x: decay * np.sin(x)]
            targets += [lambda x, v=v: -v * decay * np.cos(x) for v in space.nodes]
        else:
            ref_state = run_fixed_steps(ref[0], _initial_state(spec, ref[0]), ref[1])
            distance = l2_distance
            targets = [ref_state.rho] + [ref_state.g.node(q) for q in range(space.n_nodes)]
        prev = None
        for config, n_steps in levels:
            final = run_fixed_steps(config, _initial_state(spec, config), n_steps)
            computed = [final.rho] + [final.g.node(q) for q in range(space.n_nodes)]
            err_rho, *err_nodes = [distance(f, t) for f, t in zip(computed, targets)]
            err_g = eps * math.sqrt(sum(w * e * e for w, e in zip(space.weights, err_nodes)))
            row = {
                "eps": eps,
                "n_cells": config.mesh.n_cells,
                "dt": config.dt,
                "err_rho": err_rho,
                "order_rho": float("nan"),
                "err_g": err_g,
                "order_g": float("nan"),
                "flag": "",
            }
            if prev is not None:
                if err_rho > 0 and prev["err_rho"] > 0:
                    row["order_rho"] = math.log2(prev["err_rho"] / err_rho)
                if err_g > 0 and prev["err_g"] > 0:
                    row["order_g"] = math.log2(prev["err_g"] / err_g)
                if err_rho > prev["err_rho"]:
                    row["flag"] = "non-monotone"
            rows.append(row)
            prev = row
    result = RunResult(spec=spec, rows=rows)
    result.write()
    return result


MAX_DOUBLINGS = 60


def run_stability_scan(spec):
    """Bisect the empirical maximal stable dt for each (eps, N) pair.

    A run counts as stable when the discrete energy never exceeds
    GROWTH_LIMIT times its starting value up to tmax.  From the provable
    stable step as the lower end, the step doubles until a run is unstable;
    if none is within MAX_DOUBLINGS doublings the row is flagged
    no-upper-bracket.  Bisection then narrows the boundary to 2% relative
    width.  Each case's config, initial data and MAX_STEPS budget are
    checked at dt_stab, the smallest probe step, before the first probe.
    """
    spec.validate()
    cases = []
    for n_cells in spec.cells:
        for eps in spec.eps:
            config = build_config(spec, n_cells, eps, dt=1.0)
            config = scheme.with_dt(config, scheme.stable_dt(config))
            _check_budget(spec.tmax, config.dt)
            cases.append((config, _initial_state(spec, config)))
    rows = []
    for config, state in cases:

        def probe(dt):
            return is_stable(scheme.with_dt(config, dt), state, spec.tmax)

        lo, flag = config.dt, ""
        if not probe(lo):
            lo, flag = float("nan"), "unstable-at-theory"
        else:
            for _ in range(MAX_DOUBLINGS):
                hi = 2.0 * lo
                if not probe(hi):
                    break
                lo = hi
            else:
                flag = "no-upper-bracket"
        while not flag and hi - lo > 0.02 * lo:
            mid = 0.5 * (lo + hi)
            if probe(mid):
                lo = mid
            else:
                hi = mid
        rows.append(
            {
                "eps": config.eps,
                "n_cells": config.mesh.n_cells,
                "dt_stab": config.dt,
                "dt_empirical": lo,
                "ratio": lo / config.dt,
                "flag": flag,
            }
        )
    result = RunResult(spec=spec, rows=rows, header={"growth_limit": GROWTH_LIMIT})
    result.write()
    return result


def run_ap_limit(spec):
    """Run kinetic and limit schemes side by side, one row per eps.

    All runs share (N, degree, dt, flux) and well-prepared data; distances
    are coefficient-space L2 norms on the shared mesh.  The step follows
    solve's dt policy, landing on tmax, with the zero-eps stable step shrunk
    by the margin c0, the strict-inequality gap the limit analysis asks for.
    The kinetic runs advance as one stack, one scheme.step per step, each run
    with the operations it takes alone: at eps = 0 telegraph matches the limit
    bit for bit, slab at roundoff (its <v g> sums w_q v_q^2 where the limit has m2).
    """
    spec.validate()
    if len(spec.cells) != 1:
        raise ValueError("ap-limit mode needs exactly one cell count")
    ic = IC_REGISTRY[spec.ic]
    config0 = build_config(spec, spec.cells[0], 0.0, dt=1.0)
    dt, overrode = resolve_dt(spec, config0, margin=1.0 - spec.c0)
    n_steps, dt = _steps_for(spec.tmax, dt, spec.force_dt)
    config = replace(config0, eps=np.array(spec.eps, dtype=float), dt=dt)  # checks every eps
    space, mesh, degree = config.space, config.mesh, config.degree
    m2 = space.moments().m2
    lim = init_limit_state(ic.rho0, lambda x: ic.q0(x, m2), mesh, degree)
    for _ in range(n_steps):
        lim = step_limit(lim, dt, spec.flux, m2)
    state0 = scheme.init_state(ic.rho0, ic.g0, config0)  # eps-free: one copy per run
    runs = len(spec.eps)
    state = scheme.State(
        rho=DGField(mesh, degree, np.repeat(state0.rho.coeff[None], runs, axis=0)),
        g=KineticField(space, mesh, degree, np.repeat(state0.g.coeff[None], runs, axis=0)),
    )
    for _ in range(n_steps):
        state = scheme.step(state, config)
    rows = []
    for i, eps in enumerate(spec.eps):
        rho = DGField(mesh, degree, state.rho.coeff[i])
        g = KineticField(space, mesh, degree, state.g.coeff[i])
        rows.append(
            {
                "eps": eps,
                "steps": n_steps,
                "rho_distance": (rho - lim.rho).norm(),
                "q_distance": (g.bracket_v() - lim.q).norm(),
            }
        )
    header = {"dt_used": dt, "dt_override": int(overrode)}
    result = RunResult(spec=spec, rows=rows, header=header)
    result.write()
    return result


MODES = {
    "solve": run_solve,
    "converge": run_convergence,
    "stability-scan": run_stability_scan,
    "ap-limit": run_ap_limit,
}


def run(spec):
    """Dispatch on spec.mode."""
    return MODES[spec.mode](spec)
