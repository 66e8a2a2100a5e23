"""The compiled one-step map on the packed layout, one (n_cells, (1 + nv)(k + 1))
array per state: per cell, the k + 1 modes of rho, then those of g at each velocity
node in turn.  StencilStepper compiles scheme.step on it, and run_fixed_steps and
energy_history march with it."""

import math
import os
from dataclasses import replace

import numpy as np

from . import scheme
from .basis import mass_diagonal
from .fields import DGField, KineticField, Mesh1D

LIVE_TOL = 1e-15  # propagate's roundoff floor, relative to the largest spectral coefficient


def pack_state(state):
    """State as one array in the packed layout."""
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
