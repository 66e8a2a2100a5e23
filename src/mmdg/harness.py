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
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import scheme, velocity
from .fields import DGField, Mesh1D, l2_distance, l2_error
from .limit import LimitState, step_limit
from .operators import check_flux
# the drivers call these by their names here, which the benchmark's counters wrap
from .stencil import LiveSpectrum, StencilStepper, cut_applies, energy_history, pack_state
from .stencil import check_bytes, check_layout, run_fixed_steps, unpack_state

MODELS = {"telegraph": velocity.TWO_POINT, "slab": velocity.GAUSS_ORDINATES}
DEFAULT_NV = {"telegraph": 2, "slab": 8}  # telegraph has exactly its two nodes

GROWTH_LIMIT = 10.0  # instability criterion: energy beyond this multiple of E_0
MAX_STEPS = 10**6  # step budget of a marched run, and of a powered one at a fine step

# Periodic domain of every experiment; the sin and bump data and converge's
# exact heat solution are periodic on it.
DOMAIN = (0.0, 2.0 * np.pi)


@dataclass(frozen=True)
class InitialCondition:
    """Registered initial data: rho0 of x and g0 of (x, v).  The limit scheme
    starts from the projected rho0 and the first moment <v g0> of the projected g0."""

    rho0: callable
    g0: callable


def _well_prepared(rho0, drho0):
    """Data on the limit's manifold: g0 = -v rho0', so <v g0> = -m2 rho0'."""
    return InitialCondition(rho0, lambda x, v: -v * drho0(x))


def _ill_g(x, v):
    return np.ones_like(np.asarray(x, dtype=float))


_BUMP_WIDTH = 8.0


def _bump_rho(x):
    return np.exp(-_BUMP_WIDTH * (np.asarray(x, dtype=float) - np.pi) ** 2)


def _bump_drho(x):
    x = np.asarray(x, dtype=float)
    return -2.0 * _BUMP_WIDTH * (x - np.pi) * _bump_rho(x)


IC_REGISTRY = {
    "sin": _well_prepared(np.sin, np.cos),
    "ill-prepared": InitialCondition(np.sin, _ill_g),
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


def build_config(spec, n_cells, eps, dt, block=None):
    """The config of one run.  Its packed state, of block columns per cell
    (default (1 + nv)(k + 1)), and StencilStepper's probe of that width pass
    check_layout before the velocity space is built."""
    n_cells = int(n_cells)
    check_layout(n_cells, block or (1 + spec.nv) * (spec.degree + 1))
    return scheme.SchemeConfig(
        eps=eps,
        dt=dt,
        degree=spec.degree,
        flux=spec.flux,
        space=velocity.make_velocity_space(MODELS[spec.model], spec.nv),
        mesh=Mesh1D(*DOMAIN, n_cells),
        include_bh=spec.include_bh,
        continuum_moments=spec.continuum_moments,
    )


def resolve_dt(spec, config, margin=1.0):
    """Apply the dt policy: auto, clamped user value, or forced override.

    The bound is safety * margin * dt_stab; returns (dt, dt_override).
    """
    bound = spec.safety * margin * scheme.stable_dt(config)
    if spec.dt is None or (spec.dt > bound and not spec.force_dt):
        return bound, False
    return spec.dt, spec.dt > bound


def _steps_for(tmax, dt, exact_dt=False, budget=MAX_STEPS):
    """(n_steps, dt) covering tmax; without exact_dt the step shrinks to land on tmax.

    Refused in this order: a tmax / dt that overflows at a normal dt (tmax
    is too large), a plan of more than budget steps, and a step that is zero
    or subnormal, where eps^2/dt would overflow for a sound eps (dt is too
    small).
    """
    planned = tmax / dt if dt > 0 else math.inf  # so may a subnormal dt
    if planned == math.inf and dt >= sys.float_info.min:
        raise ValueError(f"tmax={tmax:.6g} is too large for dt={dt:.6g}: tmax / dt overflows")
    over = "" if planned <= budget else f": it plans {planned:.7g} steps, over the budget {budget}"
    if not over and planned < math.inf:
        n = max(1, math.ceil(planned - 1e-12))
        dt = dt if exact_dt else tmax / n
        if dt >= sys.float_info.min:
            return n, dt
    raise ValueError(f"dt={dt:.6g} is too small to step to tmax={tmax:.6g}{over}")


def _plan(spec, n_cells, eps, margin=1.0, block=None, powered=False):
    """(config, n_steps, header) of a run at resolve_dt's step: solve's, ap-limit's or
    converge's first level.  The step lands on tmax unless forced in solve or ap-limit
    (converge measures its errors at tmax); the header holds dt_used and dt_override.

    Two budgets refuse a plan before any step.  MAX_STEPS holds a marched run at
    any step, and a powered one, whose cost grows as log n_steps, only at a step
    finer than every mode's default: so fine a step's symbol may round to the
    identity.  Above dt_stab the live cut keeps all N // 2 + 1 frequencies; their
    (block, block) complex symbols, block the packed width as in build_config, and
    a powered run's spare of their size are held to MAX_STATE_BYTES."""
    config = build_config(spec, n_cells, eps, dt=1.0, block=block)
    dt, overrode = resolve_dt(spec, config, margin)
    finest = ExperimentSpec.safety * (1.0 - ExperimentSpec.c0) * scheme.stable_dt(config)
    budget = math.inf if powered and dt >= finest else MAX_STEPS
    n_steps, dt = _steps_for(spec.tmax, dt, spec.force_dt and spec.mode != "converge", budget)
    config = replace(config, dt=dt)
    if not cut_applies(config):
        n_freqs, block = config.mesh.n_cells // 2 + 1, block or (1 + spec.nv) * (spec.degree + 1)
        what = f"at dt={dt:.6g}, above dt_stab, the symbol of all {n_freqs} frequencies"
        check_bytes((1 + powered) * 16 * n_freqs * block**2, what + ", with its spare," * powered)
    return config, n_steps, {"dt_used": dt, "dt_override": int(overrode)}


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
    if not math.isfinite(scheme.energy(state.rho, state.g, config)):
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
    """Time-march a single (N, eps) case on its live spectrum, logging monitors every step."""
    spec.validate()
    if len(spec.cells) != 1 or len(spec.eps) != 1:
        raise ValueError("solve mode needs exactly one cell count and one eps")
    config, n_steps, header = _plan(spec, spec.cells[0], spec.eps[0])
    state = _initial_state(spec, config)

    live = LiveSpectrum(StencilStepper(config), pack_state(state))
    rows = []
    for spectra, energies, ok, rho_sq, g_sq, lag_sq in live.march(n_steps, GROWTH_LIMIT):
        monitors = zip(
            energies.tolist(),
            np.sqrt(rho_sq).tolist(),
            np.sqrt(g_sq).tolist(),
            np.sqrt(live.mean_g_norm_sq(spectra)).tolist(),
            live.mass(spectra).tolist(),
        )
        for en, rho_norm, g_norm, mean_g_norm, mass in monitors:
            n = len(rows)
            rows.append(
                {
                    "n": n,
                    "t": n * config.dt,
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
    state = unpack_state(live.packed(spectra[-1]), config)

    result = RunResult(
        spec=spec,
        rows=rows,
        diverged=not ok,
        diverge_step=None if ok else n,
        final_state=state,
        header={**header, "growth_limit": GROWTH_LIMIT},
    )
    result.write()
    if spec.out:
        scheme.save_state(state, config, spec.out + ".state.csv", n, math.sqrt(lag_sq[-1]))
    return result


_DIFFUSIVE_EPS = 1e-6  # below this, compare against the exact limit solution
REF_FACTOR_X = 4  # reference run: this many times the finest cell count
REF_FACTOR_T = 16  # and the finest dt divided by this


def _convergence_levels(spec, eps, cells):
    """(config, n_steps) of each level, and of the reference run or None.

    The first level is _plan's powered run.  Each finer level's step is the
    first level's landed step scaled by h^(k+1), capped by safety * dt_stab,
    and every level lands on tmax, where the errors are measured.  No finer
    step needs a budget: it is powered, and the live cut applies at it.  The
    reference is None where the exact limit solution serves instead; its step,
    1/16 of the finest level's, stays below its dt_stab, which shrinks at most as h^2.
    """
    first, n_steps, _ = _plan(spec, cells[0], eps, powered=True)
    levels = [(first, n_steps)]
    anchor = first.dt / first.mesh.h ** (spec.degree + 1)
    for n in cells[1:]:
        config = build_config(spec, n, eps, dt=1.0)
        h_power = config.mesh.h ** (spec.degree + 1)
        dt = min(anchor * h_power, spec.safety * scheme.stable_dt(config))
        n_steps, dt = _steps_for(spec.tmax, dt, budget=math.inf)
        levels.append((replace(config, dt=dt), n_steps))
    if eps <= _DIFFUSIVE_EPS and spec.ic == "sin":
        return levels, None
    n_steps, dt = _steps_for(spec.tmax, levels[-1][0].dt / REF_FACTOR_T, budget=math.inf)
    return levels, (build_config(spec, REF_FACTOR_X * cells[-1], eps, dt), n_steps)


def _stack_view(packed, config):
    """A packed state as one stacked DGField, rho then g at every velocity node:
    its (1 + nv, N, k + 1) transposed view, no copy."""
    n, k1 = config.mesh.n_cells, config.degree + 1
    return DGField(config.mesh, config.degree, packed.reshape(n, -1, k1).swapaxes(0, 1))


def _final_packed(spec, config, n_steps):
    """The packed state after n_steps from the spec's initial data, one run_fixed_steps."""
    return run_fixed_steps(config, pack_state(_initial_state(spec, config)), n_steps)


def run_convergence(spec):
    """Error table under mesh refinement, one block per eps value.

    In the near-limit regime (eps <= 1e-6, sin data) errors are measured
    against the exact decayed-sine solution of the limiting heat equation;
    otherwise against a reference run on a REF_FACTOR_X finer mesh with the
    finest dt / REF_FACTOR_T.  Each run is one run_fixed_steps, which powers
    the step's Fourier symbol, on a packed state; the distances read its
    transposed view.  Every run's config is built at its own dt
    before the first step, so a bad eps is refused before any work.  A level
    whose err_rho is exactly 0 measures nothing: its solutions decayed to 0
    by tmax, which is refused before any row is written.  A non-finite error,
    from a forced step beyond the stable one, flags its row and the run as
    diverged, as in ap-limit.
    """
    spec.validate()
    cells = sorted(int(n) for n in spec.cells)
    if len(cells) < 3:
        raise ValueError("convergence mode needs at least three cell counts")
    for a, b in zip(cells, cells[1:]):
        if b != 2 * a:
            raise ValueError("cell counts must double between levels")
    blocks = [(eps, *_convergence_levels(spec, eps, cells)) for eps in spec.eps]
    rows = []
    for eps, levels, ref in blocks:
        space = levels[0][0].space
        if ref is None:
            decay = math.exp(-space.moments().m2 * spec.tmax)
            distance = l2_error
            target = lambda x: np.stack(  # rho, then g at every node
                [decay * np.sin(x)] + [-v * decay * np.cos(x) for v in space.nodes])
        else:
            distance = l2_distance
            target = _stack_view(_final_packed(spec, *ref), ref[0])
        prev = None
        for config, n_steps in levels:
            # a forced unstable step overflows; its errors come out non-finite
            with np.errstate(over="ignore", invalid="ignore"):
                final = _stack_view(_final_packed(spec, config, n_steps), config)
                err_rho, *err_nodes = distance(final, target).tolist()
            if err_rho == 0.0:
                raise ValueError(f"tmax={spec.tmax:.6g} is too large: the solutions decay to 0, "
                                 f"so err_rho is 0 at N={config.mesh.n_cells}")
            err_g = eps * math.sqrt(sum(w * e * e for w, e in zip(space.weights, err_nodes)))
            diverged = not math.isfinite(err_rho + err_g)
            row = {
                "eps": eps,
                "n_cells": config.mesh.n_cells,
                "dt": config.dt,
                "err_rho": err_rho,
                "order_rho": float("nan"),
                "err_g": err_g,
                "order_g": float("nan"),
                "flag": "diverged" if diverged else "",
            }
            if prev is not None and not diverged:
                row["order_rho"] = math.log2(prev["err_rho"] / err_rho)
                if err_g > 0 and prev["err_g"] > 0:
                    row["order_g"] = math.log2(prev["err_g"] / err_g)
                if err_rho > prev["err_rho"]:
                    row["flag"] = "non-monotone"
            rows.append(row)
            prev = row
    result = RunResult(spec=spec, rows=rows, diverged=any(r["flag"] == "diverged" for r in rows))
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
    width.  Both run on the ratio r, probing at r * dt_stab, so every ratio
    is a dyadic rational, written exactly.  Each case's config, initial data
    and MAX_STEPS budget are checked at dt_stab, the smallest probe step,
    before the first probe.
    """
    spec.validate()
    cases = []
    for n_cells in spec.cells:
        for eps in spec.eps:
            config = build_config(spec, n_cells, eps, dt=1.0)
            config = replace(config, dt=scheme.stable_dt(config))
            _steps_for(spec.tmax, config.dt, exact_dt=True)
            cases.append((config, _initial_state(spec, config)))
    rows = []
    for config, state in cases:

        def probe(ratio):
            return is_stable(replace(config, dt=ratio * config.dt), state, spec.tmax)

        lo, flag = 1.0, ""
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
                "dt_empirical": lo * config.dt,
                "ratio": lo,
                "flag": flag,
            }
        )
    result = RunResult(spec=spec, rows=rows, header={"growth_limit": GROWTH_LIMIT})
    result.write()
    return result


def _defect(packed, config):
    """(d_rho, d_q), the last 2(k + 1) columns of a joint packed state, as DGFields."""
    halves = np.split(packed[:, -2 * (config.degree + 1) :], 2, axis=1)
    return [DGField(config.mesh, config.degree, half) for half in halves]


def _joint_step(kinetic, m2):
    """ap-limit's step on (rho, g, d_rho, d_q), d_rho = rho - rho_lim and
    d_q = <v g> - q_lim, packed: one scheme.step on the kinetic config and one
    step_limit from the limit state (rho - d_rho, <v g> - d_q)."""

    def step(packed, config):
        state = unpack_state(packed[:, : -2 * config.degree - 2], config)
        d_rho, d_q = _defect(packed, config)
        lim = LimitState(rho=state.rho - d_rho, q=state.g.bracket_v() - d_q)
        state = scheme.step(state, replace(kinetic, mesh=config.mesh))
        lim = step_limit(lim, config.dt, config.flux, m2)
        defect = (state.rho - lim.rho, state.g.bracket_v() - lim.q)
        return np.concatenate([pack_state(state), *(d.coeff for d in defect)], axis=1)

    return step


def run_ap_limit(spec):
    """Run kinetic and limit schemes side by side, one row per eps.

    All runs share (N, degree, dt, flux) and the spec's initial data, well-
    or ill-prepared: the limit run starts from the kinetic runs' projected
    rho0 and <v g0>, so the defect (rho - rho_lim, <v g> - q_lim) starts at
    exactly 0.  Per eps, one propagate powers the probed _joint_step, and the
    distances are the L2 norms of the final defect.  The stepper holds the
    eps = 0 config, whose dt_stab, the smallest over eps, guards the live
    cut.  The step follows solve's dt policy, landing on tmax, with the
    zero-eps stable step shrunk by the margin c0, the strict-inequality gap
    the limit analysis asks for.  At eps = 0 telegraph matches the limit bit
    for bit, slab at roundoff (its <v g> sums w_q v_q^2 where the limit has
    m2).  A non-finite distance, from a forced step beyond the stable one,
    flags the run as diverged.  A kinetic run that decayed to exactly 0 by tmax
    measures nothing and is refused, as in converge.
    """
    spec.validate()
    if len(spec.cells) != 1:
        raise ValueError("ap-limit mode needs exactly one cell count")
    ic = IC_REGISTRY[spec.ic]
    joint = (3 + spec.nv) * (spec.degree + 1)  # the kinetic block, then the defect's 2(k + 1)
    config, n_steps, header = _plan(spec, spec.cells[0], 0.0, margin=1.0 - spec.c0, block=joint,
                                    powered=True)
    kinetic_configs = [replace(config, eps=eps) for eps in spec.eps]  # refuses a bad eps up front
    state0 = pack_state(scheme.init_state(ic.rho0, ic.g0, config))  # eps-free: shared by every run
    packed = np.pad(state0, ((0, 0), (0, 2 * config.degree + 2)))  # the defect starts at 0
    m2 = config.space.moments().m2
    rows = []
    # a forced unstable step overflows; its distances come out non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        for kinetic in kinetic_configs:
            stepper = StencilStepper(config, _joint_step(kinetic, m2), packed.shape[1])
            final = stepper.propagate(packed, n_steps)
            if not final[:, : -2 * config.degree - 2].any():
                raise ValueError(f"tmax={spec.tmax:.6g} is too large: the solutions decay to 0, "
                                 f"so the distances measure nothing at eps={kinetic.eps:.6g}")
            d_rho, d_q = _defect(final, config)
            rows.append(
                {
                    "eps": kinetic.eps,
                    "steps": n_steps,
                    "rho_distance": d_rho.norm(),
                    "q_distance": d_q.norm(),
                }
            )
    diverged = not all(math.isfinite(row[key]) for row in rows
                       for key in ("rho_distance", "q_distance"))
    result = RunResult(spec=spec, rows=rows, diverged=diverged, header=header)
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
