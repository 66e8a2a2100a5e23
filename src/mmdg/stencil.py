"""The compiled one-step map on the packed layout, one (n_cells, (1 + nv)(k + 1))
array per state: per cell, the k + 1 modes of rho, then those of g at each velocity
node in turn.  StencilStepper compiles scheme.step on it (or ap-limit's joint step on a
wider block), and run_fixed_steps is one propagate; LiveSpectrum marches its Fourier
symbol on the frequencies a state holds, for solve and for energy_history wherever the
cut drops one, and certified tells whether the step provably keeps the energy from rising."""

import math
from dataclasses import replace
from functools import cached_property

import numpy as np

from . import scheme
from .basis import mass_diagonal
from .fields import DGField, KineticField, Mesh1D

LIVE_TOL = 1e-15  # the live cut's roundoff floor, relative to the largest spectral coefficient
CERT_TOL = 1e-14  # the energy certificate's allowance for roundoff in the probed map's norm
CERT_BYTES = 2**16  # bytes of the symbols the certificate holds at once, which bound its memory
MAX_STATE_BYTES = 2**28  # size budget of one packed state or symbol stack, 256 MiB


def check_bytes(n_bytes, what):
    """Refuse what, an array of n_bytes bytes, over MAX_STATE_BYTES."""
    if n_bytes > MAX_STATE_BYTES:
        raise ValueError(f"{what} takes {n_bytes} bytes, over the budget {MAX_STATE_BYTES}")


def check_layout(n_cells, block):
    """Refuse a packed state of n_cells x block, or StencilStepper's probe of that width,
    over MAX_STATE_BYTES; the probe bounds the nv x nv nodes and one frequency's symbol."""
    for cells, what in ((n_cells, "a packed state"), (probe_cells(block), "the stencil probe")):
        check_bytes(8 * cells * block, f"{what} of {cells} cells")


def pack_state(state):
    """State as one array in the packed layout."""
    n = state.rho.coeff.shape[0]
    flat_g = np.swapaxes(state.g.coeff, 0, 1).reshape(n, -1)
    return np.concatenate([state.rho.coeff, flat_g], axis=1)


def unpack_state(packed, config):
    """Inverse of pack_state on the config's mesh."""
    k1 = config.degree + 1
    rho = DGField(config.mesh, config.degree, packed[:, :k1].copy())
    g_part = packed[:, k1:].reshape(config.mesh.n_cells, config.space.n_nodes, k1)
    g = KineticField(
        config.space, config.mesh, config.degree, np.ascontiguousarray(np.swapaxes(g_part, 0, 1))
    )
    return scheme.State(rho=rho, g=g)


def _packed_step(packed, config):
    """scheme.step on the packed layout."""
    return pack_state(scheme.step(unpack_state(packed, config), config))


def _lagged_step(packed, config):
    """scheme.step's halves in swapped order on the packed layout, its lagged map
    (rho^n, g^{n-1}) -> (rho^{n+1}, g^n): g^n = _relax(g^{n-1}, rho^n), then
    rho^{n+1} = _transport(rho^n, g^n)."""
    state = unpack_state(packed, config)
    g = scheme._relax(state.g, state.rho, config)
    return pack_state(scheme.State(rho=scheme._transport(state.rho, g, config), g=g))


class StencilStepper:
    """Compiled form of a linear one-step map as a banded block stencil.

    The map is packed_step(packed, config) on (n_cells, block) states, scheme.step
    by default.  It couples each cell to at most two neighbors on each side, so
    the whole update is at most five (block x block) matrices applied to the
    packed state.  Blocks are probed from the map itself, which keeps
    this a pure acceleration of the reference stepper.  The step is
    translation-invariant on the uniform periodic mesh, so the blocks depend
    only on h: one step on 2^j >= 5 block cells of width exactly h probes one
    unit impulse per column, each alone in its five-cell response window, and
    folding the offsets mod N makes them exact for every N >= 1.  Only the
    offsets the step reaches are kept, those whose probed block is not all
    exact zeros: all five for the central flux, -1..1 for the alternating
    ones.  apply gathers each cell's sources at the kept offsets (folded
    mod N) into one (n_cells, offsets block) array and multiplies it by
    their transposed blocks stacked into one (offsets block, block) matrix.
    """

    REACH = 2

    def __init__(self, config, packed_step=_packed_step, block=None):
        self.config = config
        k1 = config.degree + 1
        block = self.block = block or (1 + config.space.n_nodes) * k1
        self._k1 = k1
        self._mass = mass_diagonal(config.degree, config.mesh.h)
        self._g_weights = np.multiply.outer(config.space.weights, self._mass).ravel()
        width = 2 * self.REACH + 1
        n_probe = probe_cells(block)
        probe = replace(config, mesh=Mesh1D(0.0, n_probe * config.mesh.h, n_probe))
        # column b: one impulse mid-window in cells b * stride + 0..4, which hold its response
        window = np.arange(width)[:, None] + (n_probe // block) * np.arange(block)
        packed = np.zeros((n_probe, block))
        packed[window[self.REACH], np.arange(block)] = 1.0
        out = packed_step(packed, probe)
        blocks = np.swapaxes(out[window], 1, 2)  # [j][:, b] is cell window[j, b]
        reached = blocks.any(axis=(1, 2))
        self._offsets = np.flatnonzero(reached) - self.REACH  # target cell minus source cell
        self._mblocks = blocks[reached]
        # row i of the gather holds cells i - offset, the sources of the kept blocks
        n = config.mesh.n_cells
        self._gather = (np.arange(n)[:, None] - self._offsets) % n
        self._stacked = np.swapaxes(self._mblocks, 1, 2).reshape(-1, block)

    def apply(self, packed, out=None):
        gathered = packed.take(self._gather, axis=0).reshape(len(packed), -1)
        return np.dot(gathered, self._stacked, out=out)

    def symbol(self, freqs):
        """Fourier symbol of the step: per frequency j in freqs (of 0..N//2),
        the (block, block) matrix that maps rfft(packed)[j] to rfft(apply(packed))[j]."""
        n = self.config.mesh.n_cells
        phase = np.exp(-2j * np.pi * np.outer(freqs, self._offsets) / n)
        return np.tensordot(phase, self._mblocks, axes=1)

    @cached_property
    def _lagged(self):
        """The stencil of _lagged_step, probed as this one is from scheme.step."""
        return StencilStepper(self.config, _lagged_step)

    def lagged_energy_map(self, freqs):
        """Per frequency in freqs (of 0..N//2), scheme.step's lagged map in the
        energy's norm: S P, where S is the symbol of _lagged_step in the variables
        scaled by the energy's weights and P = I - M M^T projects g onto its
        mean-free part (M's column j: the scaled unit velocity mean of g's mode j).

        E_n = ||rho^n||^2 + eps^2 |||g^{n-1}|||^2 pairs rho^n with g^{n-1}, so the
        energy of mean-free data never rises where every S P has 2-norm <= 1.
        At eps = 0 the g weights are 0 and the probed g^{n-1} columns exact zeros,
        so S divides only by the nonzero weights: it is the mass-weighted rho
        block, the limit scheme's step.
        """
        config, k1 = self.config, self._k1
        scale = np.concatenate([np.sqrt(self._mass), config.eps * np.sqrt(self._g_weights)])
        lagged = scale[:, None] * self._lagged.symbol(freqs) / np.where(scale > 0, scale, 1.0)
        means = np.zeros((self.block, k1))
        means[k1:] = (np.sqrt(config.space.weights)[:, None, None] * np.eye(k1)).reshape(-1, k1)
        return lagged - lagged @ means @ means.T

    @cached_property
    def certified(self):
        """Whether every frequency's lagged_energy_map has 2-norm <= 1 + CERT_TOL:
        one batched Cholesky of (1 + CERT_TOL)^2 I - (S P)^H (S P) per block of
        frequencies whose symbols fill CERT_BYTES, from the Nyquist end, where a
        step too large tends to fail first.
        Refused where there is no dt_stab (slab without b_h)."""
        config = self.config
        if math.isnan(_dt_stab(config)):
            return False
        per_block = max(1, CERT_BYTES // (16 * self.block**2))
        bound = (1.0 + CERT_TOL) ** 2 * np.eye(self.block)
        for stop in range(config.mesh.n_cells // 2 + 1, 0, -per_block):
            lagged = self.lagged_energy_map(np.arange(max(0, stop - per_block), stop))
            try:
                np.linalg.cholesky(bound - np.swapaxes(lagged.conj(), 1, 2) @ lagged)
            except np.linalg.LinAlgError:
                return False
        return True

    def propagate(self, packed, n_steps):
        """Apply the step map n_steps times via its Fourier diagonalization.

        The mesh is uniform and periodic, so the step is block-circulant.  Per
        live frequency (see LiveSpectrum), squarings of the symbol are batched
        matrix products and each set bit of n_steps applies the current square
        to the spectrum as a batched matvec, so the cost grows as log n_steps.
        Every step count, zero included, takes this path, and differs from
        literal stepping only at roundoff.
        """
        if n_steps < 0:
            raise ValueError("n_steps must be >= 0")
        live = LiveSpectrum(self, packed)
        return live.packed(_apply_matrix_power(live.symbol(spare=True), n_steps, live.start))

    def g_nodes(self, packed):
        """The g part of a packed state, or of a stack of them, as (..., n_cells, nv, k + 1)."""
        nv = self.config.space.n_nodes
        return packed[..., self._k1 :].reshape(*packed.shape[:-1], nv, self._k1)

    def rho_norm_sq(self, packed):
        """||rho||^2 of a packed state, or one per state of a stack."""
        return np.einsum("...ij,j->...", (packed**2)[..., : self._k1], self._mass)

    def g_norm_sq(self, packed):
        """|||g|||^2 of a packed state, or one per state of a stack."""
        return np.einsum("...ij,j->...", (packed**2)[..., self._k1 :], self._g_weights)


def probe_cells(block):
    """Cells of StencilStepper's probe mesh at a packed width block: the least 2^j >= 5 block."""
    return 1 << ((2 * StencilStepper.REACH + 1) * block - 1).bit_length()


def _dt_stab(config):
    """scheme.stable_dt, or NaN where there is none (slab without b_h)."""
    try:
        return scheme.stable_dt(config)
    except ValueError:
        return math.nan


def cut_applies(config):
    """Whether the live cut may drop frequencies in every run: only at dt <= dt_stab."""
    return config.dt <= _dt_stab(config)


class LiveSpectrum:
    """A packed state's rfft along the cells, kept only at its live frequencies.

    Live are the frequencies whose largest coefficient exceeds LIVE_TOL times
    the spectrum's largest.  The cut needs a step that keeps the dropped
    roundoff from growing.  By default it is cut_applies(stepper.config): only
    at dt <= dt_stab, where the energy theorem holds; cut=True cuts at any dt,
    and energy_history marches such a spectrum above dt_stab only where
    StencilStepper.certified holds.  Without a cut, or with a NaN in the
    data, every frequency is live.  A state here is a (live, block) spectrum; the
    dropped frequencies are exact zeros.  Norms follow by Parseval: a column's
    sum of squares over the cells is sum_j weights_j |X_j|^2, with weight 1/N
    at j = 0 and at the Nyquist frequency and 2/N elsewhere.
    """

    def __init__(self, stepper, packed, cut=None):
        config = self.config = stepper.config
        self.stepper = stepper
        spectrum = np.fft.rfft(packed, axis=0)
        size = np.abs(spectrum).max(axis=1)
        cut = cut_applies(config) if cut is None else cut
        dead = cut & (size <= LIVE_TOL * size.max())  # all False if a NaN makes the max NaN
        self.freqs = np.flatnonzero(~dead)
        self.start = spectrum[self.freqs]
        n = config.mesh.n_cells
        self.weights = np.where((self.freqs == 0) | (2 * self.freqs == n), 1.0, 2.0) / n

    def symbol(self, spare=False):
        """The step's symbol at the live frequencies.  It is held to MAX_STATE_BYTES
        before it is built, with a spare of its size where the caller powers it."""
        n_freqs = self.freqs.size
        what = f"the symbol of {n_freqs} live frequencies" + ", with its spare," * spare
        check_bytes((1 + spare) * 16 * n_freqs * self.stepper.block**2, what)
        return self.stepper.symbol(self.freqs)

    @cached_property
    def _symbol(self):
        """The symbol that step applies, built on first use."""
        return self.symbol()

    def step(self, spectrum, out=None):
        """One step: per live frequency, one BLAS gemv of the symbol with the
        spectrum, so no value depends on the other frequencies stacked beside it.
        OpenBLAS 0.3.31 gave each gemv the same bits at one and two threads at
        every block from 1 to 891."""
        return np.matvec(self._symbol, spectrum, out=out)

    def packed(self, spectrum):
        """The packed state of a live spectrum."""
        n = self.config.mesh.n_cells
        full = np.zeros((n // 2 + 1, self.stepper.block), complex)
        full[self.freqs] = spectrum
        return np.fft.irfft(full, n=n, axis=0)

    def _weighted_sum_sq(self, spectra, column_weights):
        """Per state of a (states, live, columns) stack, the column_weights-weighted
        sum of squares over cells and columns: one contiguous sum per state, so no
        state's value depends on the stack around it."""
        weights = np.multiply.outer(self.weights, column_weights)
        terms = np.ascontiguousarray((spectra.real**2 + spectra.imag**2) * weights)
        return terms.reshape(len(spectra), -1).sum(axis=-1)

    def norms_sq(self, spectra):
        """(||rho||^2, |||g|||^2), one each per state of a stack of live spectra."""
        stepper = self.stepper
        rho_sq = self._weighted_sum_sq(spectra[..., : stepper._k1], stepper._mass)
        return rho_sq, self._weighted_sum_sq(spectra[..., stepper._k1 :], stepper._g_weights)

    def mean_g_norm_sq(self, spectra):
        """||<g>||^2 per state of a stack of live spectra."""
        # one small product per state and frequency: one over the stack would
        # round by the BLAS thread count and the stack's length
        mean = self.config.space.bracket(self.stepper.g_nodes(spectra), axis=2)
        return self._weighted_sum_sq(mean, self.stepper._mass)

    def mass(self, spectra):
        """The integral of rho per state of a stack, from the zero frequency."""
        if not self.freqs.size or self.freqs[0]:
            return np.zeros(len(spectra))
        return spectra[:, 0, 0].real * self.config.mesh.h

    def march(self, n_steps, stop_factor=None):
        """The march of the live spectrum for n = 0..n_steps; see _march."""
        eps_sq = self.config.eps**2
        return _march(self.step, self.norms_sq, self.start, n_steps, eps_sq, stop_factor)


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
    return unpack_state(StencilStepper(config).propagate(pack_state(state), n_steps), config)


CHUNK_BYTES = 2**18  # states the march stacks per monitor pass, capped in bytes


def _march(advance, norms_sq, state, n_steps, eps_sq, stop_factor=None):
    """Yield the march from state for n = 0..n_steps as chunks (states, E, ok, rho_sq, g_sq, lag_sq).

    advance(state, out) writes the next state into out and returns it, and
    norms_sq maps a stack of states to their (||rho||^2, |||g|||^2).  states
    stacks consecutive states; per state, rho_sq = ||rho^n||^2, g_sq =
    |||g^n|||^2, lag_sq = |||g^{n-1}|||^2 (|||g^0|||^2 at n = 0) and
    E = rho_sq + eps^2 lag_sq.  The march ends at the first E_n that is
    non-finite or beyond stop_factor * E_0: that chunk is cut after it and
    yielded with ok False; no stop_factor means no limit.  A chunk holds at
    most CHUNK_BYTES of states, each step is written straight into its slot,
    and the stack is overwritten by the next chunk.
    """
    buffer = np.empty((max(1, CHUNK_BYTES // max(1, state.nbytes)),) + state.shape, state.dtype)
    limit = math.inf
    first = 0  # step number of the chunk's first state
    while first <= n_steps:
        states = buffer[: n_steps + 1 - first]
        # steps past a divergence are thrown away, so their overflow is moot
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(len(states)):
                if first + i:
                    state = advance(state, states[i])
                else:
                    states[i] = state
            rho_sq, g_sq = norms_sq(states)
            # E_0 pairs rho^0 with g^0
            lag_sq = np.concatenate([g_sq[:1] if first == 0 else g_last, g_sq[:-1]])
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


def _stencil_march(stepper, packed, n_steps, stop_factor=None):
    """_march of packed states, one StencilStepper.apply per step."""

    def norms_sq(states):
        return stepper.rho_norm_sq(states), stepper.g_norm_sq(states)

    eps_sq = stepper.config.eps**2
    return _march(stepper.apply, norms_sq, packed, n_steps, eps_sq, stop_factor)


CERT_STEPS = 16  # steps per packed column from which a probe repays the certificate


def energy_history(config, state, n_steps, stop_factor=None):
    """Energies E_n = ||rho^n||^2 + eps^2 |||g^{n-1}|||^2 for n = 0..n_steps.

    E_0 pairs the initial density with the initial g (full starting energy).
    Returns (energies, ok): ok is False if a value went non-finite or beyond
    stop_factor * E_0, in which case the history is truncated at the bad step.
    The march steps the live spectrum, one gemv per live frequency,
    where the cut drops a frequency and may: at dt <= dt_stab, or above it on
    a probe of n_steps >= CERT_STEPS * block whose step is certified (see
    StencilStepper.certified).  Everywhere else it steps StencilStepper.apply.
    The rfft is taken only at dt <= dt_stab and on such long probes.
    """
    stepper, packed, cut = StencilStepper(config), pack_state(state), cut_applies(config)
    live = None
    if cut or n_steps >= CERT_STEPS * stepper.block:
        live = LiveSpectrum(stepper, packed, cut=True)
    drops = live and live.freqs.size < config.mesh.n_cells // 2 + 1
    if drops and (cut or stepper.certified):
        march = live.march(n_steps, stop_factor)
    else:
        march = _stencil_march(stepper, packed, n_steps, stop_factor)
    energies = []
    for _, chunk, ok, *_ in march:
        energies.append(chunk)
    return np.concatenate(energies), ok
