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
from .basis import mass_diagonal
from .fields import DGField, KineticField, Mesh1D, l2_distance, l2_error
from .limit import init_limit_state, step_limit
from .operators import check_flux

MODELS = {"telegraph": velocity.TWO_POINT, "slab": velocity.GAUSS_ORDINATES}
DEFAULT_NV = {"telegraph": 2, "slab": 8}  # telegraph has exactly its two nodes

GROWTH_LIMIT = 10.0  # instability criterion: energy beyond this multiple of E_0
MAX_STEPS = 10**6  # step budget of solve, ap-limit and the scan's probes
LIVE_TOL = 1e-15  # propagate's roundoff floor, relative to the largest spectral coefficient

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


def pack_state(state):
    """State as one (n_cells, (1 + nv)(k + 1)) array: rho modes, then g per node."""
    n = state.rho.coeff.shape[0]
    flat_g = np.swapaxes(state.g.coeff, 0, 1).reshape(n, -1)
    return np.concatenate([state.rho.coeff, flat_g], axis=1)


def unpack_state(packed, config, n=0, t=0.0, g_norm_lag=0.0):
    """Inverse of pack_state on the config's mesh."""
    k1 = config.degree + 1
    rho = DGField(config.mesh, config.degree, packed[:, :k1].copy())
    g_part = packed[:, k1:].reshape(config.mesh.n_cells, config.space.n_nodes, k1)
    g = KineticField(
        config.space, config.mesh, config.degree, np.ascontiguousarray(np.swapaxes(g_part, 0, 1))
    )
    return scheme.State(rho=rho, g=g, n=n, t=t, g_norm_lag=g_norm_lag)


class StencilStepper:
    """Compiled form of the linear one-step map as a banded block stencil.

    The step couples each cell to at most two neighbors on each side, so the
    whole update is five (block x block) matrices applied to the packed state
    (n_cells, block).  Blocks are probed from scheme.step itself, which keeps
    this a pure acceleration of the reference stepper.  The step is
    translation-invariant on the uniform periodic mesh, so the blocks depend
    only on h: one step on 2^j >= 5 block cells of width exactly h probes one
    unit impulse per column, each alone in its five-cell response window, and
    folding the offsets mod N makes them exact for every N >= 1.  apply
    gathers each cell's five neighbors (offsets folded mod N) into one
    (n_cells, 5 block) array and multiplies it by the five transposed blocks
    stacked into one (5 block, block) matrix.
    """

    REACH = 2

    def __init__(self, config):
        self.config = config
        k1 = config.degree + 1
        block = self.block = (1 + config.space.n_nodes) * k1
        self._k1 = k1
        self._mass = mass_diagonal(config.degree, config.mesh.h)
        width = 2 * self.REACH + 1
        n_probe = 1 << (width * block - 1).bit_length()
        probe = replace(config, mesh=Mesh1D(0.0, n_probe * config.mesh.h, n_probe))
        # column b: one impulse mid-window in cells b * stride + 0..4, which hold its response
        window = np.arange(width)[:, None] + (n_probe // block) * np.arange(block)
        packed = np.zeros((n_probe, block))
        packed[window[self.REACH], np.arange(block)] = 1.0
        out = pack_state(scheme.step(unpack_state(packed, probe), probe))
        self._mblocks = np.swapaxes(out[window], 1, 2)  # [off][:, b] is cell window[off, b]
        # row i of the gather holds cells i + REACH - j, the source of block j
        n = config.mesh.n_cells
        self._gather = (np.arange(n)[:, None] + self.REACH - np.arange(width)) % n
        self._stacked = np.swapaxes(self._mblocks, 1, 2).reshape(width * block, block)

    def apply(self, packed):
        return np.take(packed, self._gather, axis=0).reshape(len(packed), -1) @ self._stacked

    def symbol(self, freqs=None):
        """Fourier symbol of the step: per frequency j in freqs (default 0..N//2),
        the (block, block) matrix that maps rfft(packed)[j] to rfft(apply(packed))[j]."""
        n = self.config.mesh.n_cells
        freqs = np.arange(n // 2 + 1) if freqs is None else freqs
        phase = np.exp(-2j * np.pi * np.outer(freqs, np.arange(-self.REACH, self.REACH + 1)) / n)
        return np.tensordot(phase, self._mblocks, axes=1)

    def propagate(self, packed, n_steps):
        """Apply the step map n_steps times via its Fourier diagonalization.

        The mesh is uniform and periodic, so the step is block-circulant.  Per
        frequency, squarings of the symbol are batched matrix products and each
        set bit of n_steps applies the current square to the spectrum as a
        batched matvec, so the cost grows as log n_steps.  Every step count,
        zero included, takes this path, and differs from literal stepping only
        at roundoff.  Only live frequencies, whose largest coefficient exceeds
        LIVE_TOL times the spectrum's largest, are powered; the rest come out as
        exact zeros.  The cut needs dt <= dt_stab, where the energy theorem keeps
        dropped roundoff from growing; otherwise, or with no dt_stab, all are
        powered.  One thread per CPU builds and powers the symbol of a contiguous
        slab of live frequencies with the same calls per frequency, so bytes do
        not depend on the split.
        """
        if n_steps < 0:
            raise ValueError("n_steps must be >= 0")
        from concurrent.futures import ThreadPoolExecutor  # kept out of `import mmdg`
        spectrum = np.fft.rfft(packed, axis=0)
        try:  # slab without b_h has no dt_stab
            cut = self.config.dt <= scheme.stable_dt(self.config)
        except ValueError:
            cut = False
        size = np.abs(spectrum).max(axis=1)
        dead = cut & (size <= LIVE_TOL * size.max())  # all False if a NaN makes the max NaN
        spectrum[dead], live = 0.0, np.flatnonzero(~dead)
        workers = max(1, min(_cpu_count(), len(live)))  # an all-zero state has no live one

        def power_slab(slab):  # numpy's matmul and einsum release the GIL
            spectrum[slab] = _apply_matrix_power(self.symbol(slab), n_steps, spectrum[slab])

        with ThreadPoolExecutor(workers) as pool:  # map re-raises a worker's error
            list(pool.map(power_slab, np.array_split(live, workers)))
        return np.fft.irfft(spectrum, n=self.config.mesh.n_cells, axis=0)

    def g_nodes(self, packed):
        """The g part of a packed state, or of a stack of them, as (..., n_cells, nv, k + 1)."""
        return packed[..., self._k1 :].reshape(*packed.shape[:-1], -1, self._k1)

    def rho_norm_sq(self, packed):
        """||rho||^2 of a packed state, or one per state of a stack.  It reads only the
        first k + 1 columns, so it also gives ||.||^2 of any stack of scalar fields."""
        return np.einsum("...ij,j->...", packed[..., : self._k1] ** 2, self._mass)

    def g_norm_sq(self, packed):
        """|||g|||^2 of a packed state, or one per state of a stack."""
        weights = self.config.space.weights
        return np.einsum("...iqj,q,j->...", self.g_nodes(packed) ** 2, weights, self._mass)


def _cpu_count():
    """CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _apply_matrix_power(mats, exponent, vecs):
    """mats[f]^exponent @ vecs[f] for each f; overwrites mats.  Powers of one
    matrix commute, so only the squarings need matrix products."""
    spare = np.empty_like(mats)
    while True:
        if exponent & 1:
            vecs = np.einsum("fab,fb->fa", mats, vecs)
        exponent >>= 1
        if not exponent:
            return vecs
        np.matmul(mats, mats, out=spare)
        mats, spare = spare, mats


def run_fixed_steps(config, state, n_steps):
    """Advance n_steps with the compiled propagator; zero steps return state.

    The stencil is probed at the mesh's h and folded mod N, so this one path
    serves every mesh, N >= 1.
    """
    if n_steps == 0:
        return state
    stepper = StencilStepper(config)
    prev = stepper.propagate(pack_state(state), n_steps - 1)
    return unpack_state(
        stepper.apply(prev),
        config,
        n=state.n + n_steps,
        t=state.t + n_steps * config.dt,
        g_norm_lag=math.sqrt(stepper.g_norm_sq(prev)),
    )


CHUNK_BYTES = 2**18  # states the march stacks per monitor pass, capped in bytes


def _stencil_march(stepper, packed, n_steps, stop_factor=None):
    """Yield the stencil march for n = 0..n_steps as chunks (states, E, ok, rho_sq, g_sq, lag_sq).

    states stacks consecutive packed states; per state, rho_sq = ||rho^n||^2,
    g_sq = |||g^n|||^2, lag_sq = |||g^{n-1}|||^2 (|||g^0|||^2 at n = 0) and
    E = rho_sq + eps^2 lag_sq.  The march ends at the first E_n that is
    non-finite or beyond stop_factor * E_0: that chunk is cut after it and
    yielded with ok False; no stop_factor means no limit.  A chunk holds at
    most CHUNK_BYTES of states, and its stack is overwritten by the next one.
    """
    eps_sq = stepper.config.eps**2
    buffer = np.empty((max(1, CHUNK_BYTES // packed.nbytes),) + packed.shape)
    g_last = np.array([stepper.g_norm_sq(packed)])  # E_0 pairs rho^0 with g^0
    limit = math.inf
    first = 0  # step number of the chunk's first state
    while first <= n_steps:
        states = buffer[: n_steps + 1 - first]
        # steps past a divergence are thrown away, so their overflow is moot
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(len(states)):
                if first + i:
                    packed = stepper.apply(packed)
                states[i] = packed
            rho_sq, g_sq = stepper.rho_norm_sq(states), stepper.g_norm_sq(states)
            lag_sq = np.concatenate([g_last, g_sq[:-1]])
            energies = rho_sq + eps_sq * lag_sq
            if first == 0 and stop_factor:
                limit = stop_factor * energies[0]
            good = np.isfinite(energies) & (energies <= limit)
        if not good.all():
            cut = np.argmin(good) + 1
            yield states[:cut], energies[:cut], False, rho_sq[:cut], g_sq[:cut], lag_sq[:cut]
            return
        yield states, energies, True, rho_sq, g_sq, lag_sq
        g_last, first = g_sq[-1:], first + len(states)


def energy_history(config, state, n_steps, stop_factor=None):
    """Energies E_n = ||rho^n||^2 + eps^2 |||g^{n-1}|||^2 for n = 0..n_steps.

    E_0 pairs the initial density with the initial g (full starting energy).
    Returns (energies, ok): ok is False if a value went non-finite or beyond
    stop_factor * E_0, in which case the history is truncated at the bad step.
    """
    march = _stencil_march(StencilStepper(config), pack_state(state), n_steps, stop_factor)
    energies = []
    for _, chunk, ok, *_ in march:
        energies.append(chunk)
    return np.concatenate(energies), ok


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


def _march(spec, config, n_steps):
    ic = IC_REGISTRY[spec.ic]
    return run_fixed_steps(config, scheme.init_state(ic.rho0, ic.g0, config), n_steps)


def run_convergence(spec):
    """Error table under mesh refinement, one block per eps value.

    In the near-limit regime (eps <= 1e-6, sin data) errors are measured
    against the exact decayed-sine solution of the limiting heat equation;
    otherwise against a reference run on a REF_FACTOR_X finer mesh with the
    finest dt / REF_FACTOR_T.  Each run goes through propagate: at dt <= dt_stab
    it powers only the frequencies whose data exceed LIVE_TOL = 1e-15 of the
    largest, and every frequency otherwise.  Every run's config is built at
    its own dt before the first step, so a bad eps is refused before any work.
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
            ref_state = _march(spec, *ref)
            distance = l2_distance
            targets = [ref_state.rho] + [ref_state.g.node(q) for q in range(space.n_nodes)]
        prev = None
        for config, n_steps in levels:
            final = _march(spec, config, n_steps)
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
