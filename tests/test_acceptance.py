"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <id>: PASS|FAIL` line (run pytest with -s
to see them on success).  Budgets are asserted against the wall clock.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from dg_tools import derivative_integrals
from mmdg import scheme, stencil
from mmdg.basis import inverse_constants, legendre_basis, mass_diagonal
from mmdg.fields import DGField, KineticField, Mesh1D, l2_error
from mmdg.harness import (
    IC_REGISTRY,
    ExperimentSpec,
    StencilStepper,
    build_config,
    energy_history,
    run_ap_limit,
    run_convergence,
    run_fixed_steps,
    run_stability_scan,
)
from mmdg.limit import init_limit_state, step_limit
from mmdg.operators import ALT_LR, ALT_RL, CENTRAL
from mmdg.velocity import TWO_POINT, make_velocity_space


def _report(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name} failed{suffix}"


# -- 1: inverse-constant ground truth ---------------------------------------


def test_c1_inverse_constants():
    start = time.perf_counter()
    # c_inv = (k + 1)^2 in closed form; c_inv_hat = 0, 12, 60 at k <= 2, bit for bit
    exact = all(inverse_constants(k).c_inv == (k + 1) ** 2 for k in range(5))
    exact &= [inverse_constants(k).c_inv_hat for k in range(3)] == [0.0, 12.0, 60.0]
    never_violated = True
    reached = True
    for k in range(5):
        rng = np.random.default_rng(k)
        inv = inverse_constants(k)
        basis = legendre_basis(k)
        scale = 1.0 / np.sqrt(basis.ref_mass)
        mass_outer = np.sqrt(np.outer(basis.ref_mass, basis.ref_mass))
        tvec = np.linalg.eigh(2.0 * np.outer(basis.at_right, basis.at_right) / mass_outer)[1][
            :, -1
        ] * scale
        nodes, weights = npleg.leggauss(k + 1)
        coeffs = _samples(k, tvec, rng)  # (10000, k+1)
        vals = npleg.legval(nodes, coeffs.T)  # (10000, k+1 nodes)
        wsq = vals**2 @ weights
        quotients = 2.0 * np.maximum(coeffs.sum(axis=1) ** 2,
                                     (coeffs @ basis.at_left) ** 2) / wsq
        never_violated &= bool(np.all(quotients <= inv.c_inv + 1e-10))
        reached &= bool(quotients.max() >= inv.c_inv - 1e-6)
        if k >= 1:
            dn, dw = npleg.leggauss(k + 2)
            dvec = np.linalg.eigh(derivative_integrals(k)[1] / mass_outer)[1][:, -1] * scale
            coeffs = _samples(k, dvec, rng)
            vals = npleg.legval(dn, coeffs.T)
            dvals = npleg.legval(dn, npleg.legder(coeffs.T, axis=0))
            quotients = 4.0 * (dvals**2 @ dw) / (vals**2 @ dw)
            never_violated &= bool(np.all(quotients <= inv.c_inv_hat + 1e-10))
            reached &= bool(quotients.max() >= inv.c_inv_hat - 1e-6)
    elapsed = time.perf_counter() - start
    _report(
        "C1 inverse constants",
        exact and never_violated and reached and elapsed < 1.0,
        f"c_inv(0)={inverse_constants(0).c_inv}, {elapsed:.2f}s",
    )


def _samples(k, extremal, rng, count=10_000):
    random_part = rng.standard_normal((count // 2, k + 1))
    scales = np.geomspace(1.0, 1e-8, count - count // 2)
    guided = extremal[None, :] + scales[:, None] * rng.standard_normal(
        (count - count // 2, k + 1)
    )
    return np.vstack([random_part, guided])


# -- 2: zero-mean preservation and mean contraction -------------------------


def test_c2_mean_evolution():
    start = time.perf_counter()
    ok = True
    detail = []
    for model in ("telegraph", "slab"):
        for k in (0, 1, 2):
            spec = ExperimentSpec(mode="solve", model=model, degree=k, cells=(16,),
                                  eps=(1e-2,))
            config = build_config(spec, 16, 1e-2, dt=1.0)
            config = replace(config, dt=0.9 * scheme.stable_dt(config))
            ic = IC_REGISTRY["sin"]
            state = scheme.init_state(ic.rho0, ic.g0, config)
            worst = 0.0
            for _ in range(1000):
                state = scheme.step(state, config)
                worst = max(worst, state.g.bracket().norm())
            ok &= worst <= 1e-12
            detail.append(f"{model}/k{k}:{worst:.1e}")
    # ill-prepared contraction factor, checked while the signal dominates
    for eps in (1e-3, 1.0):
        spec = ExperimentSpec(mode="solve", degree=1, cells=(16,), eps=(eps,))
        config = build_config(spec, 16, eps, dt=1.0)
        config = replace(config, dt=0.9 * scheme.stable_dt(config))
        ic = IC_REGISTRY["ill-prepared"]
        state = scheme.init_state(ic.rho0, ic.g0, config)
        factor = eps * eps / (eps * eps + config.dt)
        norm = state.g.bracket().norm()
        floor = 1e-4 * norm
        checked = 0
        for _ in range(200):
            state = scheme.step(state, config)
            new_norm = state.g.bracket().norm()
            if norm < floor or new_norm < floor:
                break
            ok &= abs(new_norm / norm - factor) <= 1e-12 * factor
            checked += 1
            norm = new_norm
        ok &= checked >= 1
    elapsed = time.perf_counter() - start
    _report("C2 mean evolution", ok and elapsed < 10.0, f"{'; '.join(detail)}, {elapsed:.1f}s")


# -- 3: energy decay at 0.99 dt_stab over the parameter grid ----------------


def test_c3_energy_monotone_grid():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    ic = IC_REGISTRY["sin"]
    for model, nv in (("telegraph", None), ("slab", 8)):
        for k in (0, 1, 2):
            for eps in (1e-6, 1e-2, 1.0):
                for flux in (ALT_LR, ALT_RL, CENTRAL):
                    spec = ExperimentSpec(mode="solve", model=model, nv=nv or 8,
                                          degree=k, cells=(32,), eps=(eps,), flux=flux)
                    config = build_config(spec, 32, eps, dt=1.0)
                    dt = 0.99 * scheme.stable_dt(config)
                    config = replace(config, dt=dt)
                    state = scheme.init_state(ic.rho0, ic.g0, config)
                    n_steps = math.ceil(1.0 / dt)
                    energies, finite = energy_history(config, state, n_steps)
                    rises = np.diff(energies[1:])
                    margin = 1e-12 * energies[0]
                    ok &= finite and (rises.size == 0 or rises.max() <= margin)
                    if rises.size:
                        worst = max(worst, rises.max() / energies[0])
    elapsed = time.perf_counter() - start
    _report(
        "C3 energy monotonicity (3x3x3 grid, both models)",
        ok and elapsed < 120.0,
        f"worst rise {worst:.1e} of E0, {elapsed:.0f}s",
    )


# -- 4: closed-form stable-step cross-checks --------------------------------


def test_c4_cfl_formulas():
    # dt_stab in closed form per degree: the telegraph model and the slab
    # model with continuum moments, c_inv = (k + 1)^2 and c_inv_hat = 0, 12, 60
    telegraph = {
        0: lambda h, eps: 0.25 * h * h + 0.5 * eps * h,
        1: lambda h, eps: h * (h + 8 * min(eps, 2 * h / 3)) / 152,
        2: lambda h, eps: h * (h + 18 * min(eps, 3 * h / 10)) / 768,
    }
    slab = {
        0: lambda h, eps: h * h / 3.0 + 2.0 * eps * h / 3.0,
        1: lambda h, eps: h * (h + 8 * min(eps, 3 * h / 4)) / 112,
        2: lambda h, eps: h * (h + 18 * min(eps, 27 * h / 80)) / 566,
    }
    ok = True
    for k in (0, 1, 2):
        for n in (16, 32, 64):
            for eps in (0.0, 1e-6, 1e-2, 0.3, 1.0):
                spec = ExperimentSpec(mode="solve", model="telegraph", degree=k,
                                      cells=(n,), eps=(eps,))
                config = build_config(spec, n, eps, dt=1.0)
                h = config.mesh.h
                want = telegraph[k](h, eps)
                ok &= abs(scheme.stable_dt(config) - want) <= 1e-15 * want
                spec = ExperimentSpec(mode="solve", model="slab", nv=8, degree=k,
                                      cells=(n,), eps=(eps,), continuum_moments=True)
                config = build_config(spec, n, eps, dt=1.0)
                want = slab[k](h, eps)
                ok &= abs(scheme.stable_dt(config) - want) <= 1e-15 * want
    _report("C4 stable-step formulas", ok)


# -- 5: empirical stability ordering and the no-b term demo -----------------


def test_c5a_scan_ordering():
    start = time.perf_counter()
    spec = ExperimentSpec(
        mode="stability-scan", model="telegraph", degree=0, cells=(32,),
        eps=(1e-6, 1e-4, 1e-2, 1e-1, 1.0), tmax=1.0,
    )
    result = run_stability_scan(spec)
    h = 2 * np.pi / 32
    ok = True
    for row in result.rows:
        ok &= row["flag"] == ""
        ok &= row["dt_empirical"] >= row["dt_stab"]
        want = 0.25 * h * h + 0.5 * row["eps"] * h
        ok &= abs(row["dt_stab"] - want) <= 1e-15 * want
    elapsed = time.perf_counter() - start
    _report("C5a stability-scan ordering", ok and elapsed < 300.0, f"{elapsed:.0f}s")


def _checkerboard_worst_rise(n, include_bh, dt, n_steps=200):
    """Largest one-step energy rise, per E0, from grid-scale telegraph data.

    The data are cell averages rho_i = (-1)^i with g = 0: the highest mode
    the mesh holds, which is the one the energy estimate has to control.
    Rises are counted from E_1 on, as in C3.
    """
    spec = ExperimentSpec(mode="solve", model="telegraph", degree=0, cells=(n,),
                          eps=(1.0,), include_bh=include_bh)
    config = build_config(spec, n, 1.0, dt=dt)
    rho = DGField(config.mesh, 0, (-1.0) ** np.arange(n)[:, None])
    state = scheme.State(rho=rho, g=KineticField(config.space, config.mesh, 0))
    energies, _ = energy_history(config, state, n_steps)
    return np.diff(energies[1:]).max() / energies[0]


def test_c5b_no_bh_instability_at_point_four_h():
    # Stated criterion: dropping the mean-free streaming term costs the
    # two-point model its stability at dt = 0.4 h once h <= 1/8.  Stability
    # here is the paper's: decay of E_n = ||rho^n||^2 + eps^2 |||g^{n-1}|||^2.
    # With b_h the guaranteed step at eps = 1, k = 0 is h^2/4 + h/2 > 0.4 h;
    # without it the guarantee drops to h^2/2, and at 0.4 h the energy of
    # grid-scale data does rise.  The march does not blow up there (the
    # von Neumann boundary of the no-b_h step sits near h, see
    # test_no_bh_empirical_boundary_scales_like_h); what is lost is decay.
    n = 64  # h = 2 pi / 64 < 1/8
    h = 2 * np.pi / n
    spec = ExperimentSpec(mode="solve", model="telegraph", degree=0, cells=(n,),
                          eps=(1.0,), include_bh=False)
    dt_stab_no_bh = scheme.stable_dt(build_config(spec, n, 1.0, dt=1.0))
    with_bh = _checkerboard_worst_rise(n, True, 0.4 * h)
    without_bh = _checkerboard_worst_rise(n, False, 0.4 * h)
    without_bh_at_bound = _checkerboard_worst_rise(n, False, 0.99 * dt_stab_no_bh)
    margin = 1e-12  # C3's "no rise", per E0
    unstable = (
        with_bh <= margin  # (a) b_h keeps the energy monotone at 0.4 h
        and without_bh >= 0.1  # (b) without it the energy rises
        and without_bh_at_bound <= margin  # (c) ... but not below h^2/2
    )
    _report(
        "C5b no-b-term instability at dt=0.4h",
        unstable,
        f"largest rise/E0: with b_h {with_bh:.2g}, without {without_bh:.2g}, "
        f"without at 0.99 dt_stab {without_bh_at_bound:.2g}",
    )


# -- 6: convergence orders at desk scale ------------------------------------


def _last_order(result):
    return result.rows[-1]["order_rho"]


def test_c6_convergence_orders():
    start = time.perf_counter()
    ok = True
    details = []
    cells = (16, 32, 64, 128)
    for k in (1, 2):
        for flux in (ALT_LR, ALT_RL, CENTRAL):
            spec = ExperimentSpec(mode="converge", model="telegraph", degree=k,
                                  cells=cells, eps=(1e-8,), flux=flux, tmax=0.5)
            order = _last_order(run_convergence(spec))
            bound = k + 0.7 if flux != CENTRAL else k - 0.3
            ok &= order >= bound
            details.append(f"dif k{k} {flux}:{order:.2f}")
        for flux in (ALT_LR, CENTRAL):
            spec = ExperimentSpec(mode="converge", model="telegraph", degree=k,
                                  cells=cells, eps=(1.0,), flux=flux, tmax=0.5)
            order = _last_order(run_convergence(spec))
            # kinetic-regime targets carry the criterion's extra 0.3 slack
            bound = k + 0.4 if flux != CENTRAL else k - 0.6
            ok &= order >= bound
            details.append(f"kin k{k} {flux}:{order:.2f}")
    elapsed = time.perf_counter() - start
    _report(
        "C6 convergence orders", ok and elapsed < 600.0,
        "; ".join(details) + f", {elapsed:.0f}s",
    )


# -- 7: first-order accuracy in time ----------------------------------------


def test_c7_temporal_order():
    start = time.perf_counter()
    tmax = 0.5
    spec = ExperimentSpec(mode="solve", model="telegraph", degree=2, cells=(128,),
                          eps=(1.0,))
    config = build_config(spec, 128, 1.0, dt=1.0)
    base = 0.9 * scheme.stable_dt(config)
    n0 = math.ceil(tmax / base)
    dt0 = tmax / n0
    ic = IC_REGISTRY["sin"]

    def rho_after(dt, n_steps):
        cfg = replace(config, dt=dt)
        packed = stencil.pack_state(scheme.init_state(ic.rho0, ic.g0, cfg))
        return stencil.unpack_state(run_fixed_steps(cfg, packed, n_steps), cfg).rho

    reference = rho_after(dt0 / 128, n0 * 128)  # finest step / 16
    errors = [(rho_after(dt0 / 2**j, n0 * 2**j) - reference).norm() for j in range(4)]
    orders = [math.log2(errors[j] / errors[j + 1]) for j in range(3)]
    ok = all(abs(order - 1.0) <= 0.2 for order in orders)
    elapsed = time.perf_counter() - start
    _report(
        "C7 temporal order",
        ok and elapsed < 120.0,
        "orders " + ", ".join(f"{o:.3f}" for o in orders) + f", {elapsed:.0f}s",
    )


# -- 8: vanishing-relaxation limit ------------------------------------------


def test_c8_ap_limit():
    start = time.perf_counter()
    space = make_velocity_space(TWO_POINT)
    mesh = Mesh1D(0.0, 2 * np.pi, 32)
    config = scheme.SchemeConfig(eps=0.0, dt=1.0, degree=1, flux=ALT_LR,
                                 space=space, mesh=mesh)
    dt = 0.9 * scheme.stable_dt(config)
    config = replace(config, dt=dt)
    ic = IC_REGISTRY["sin"]
    # (a) the eps = 0 stepper is the limit stepper
    state = scheme.init_state(ic.rho0, ic.g0, config)
    lim = init_limit_state(ic.rho0, lambda x: -np.cos(x), mesh, 1)  # q0 = -m2 rho0', m2 = 1
    exact_reduction = True
    for _ in range(20):
        state = scheme.step(state, config)
        lim = step_limit(lim, dt, ALT_LR, 1.0)
        exact_reduction &= (state.rho - lim.rho).norm() <= 1e-13
        exact_reduction &= (state.g.bracket_v() - lim.q).norm() <= 1e-13

    # (b) distances fall monotonically along the eps sweep, 100 steps
    spec = ExperimentSpec(
        mode="ap-limit", model="telegraph", degree=1, cells=(32,),
        eps=(1e-2, 1e-4, 1e-6, 1e-8, 1e-10), dt=dt, tmax=100 * dt,
    )
    rows = run_ap_limit(spec).rows
    dists = [row["rho_distance"] for row in rows]
    monotone = all(a > b for a, b in zip(dists, dists[1:]))
    tiny = dists[-1] <= 1e-8

    # (c) the limit scheme alone converges at k+0.7 to the decayed sine
    rate_ok = True
    tmax = 0.5
    for k, cell_list in ((1, (16, 32, 64)), (2, (8, 16, 32))):
        errors = []
        anchor = None
        for n in cell_list:
            m = Mesh1D(0.0, 2 * np.pi, n)
            cfg = scheme.SchemeConfig(eps=0.0, dt=1.0, degree=k, flux=ALT_LR,
                                      space=space, mesh=m)
            cap = 0.9 * scheme.stable_dt(cfg)
            if anchor is None:
                anchor = cap / m.h ** (k + 1)
            step_dt = min(cap, anchor * m.h ** (k + 1))
            n_steps = math.ceil(tmax / step_dt)
            step_dt = tmax / n_steps
            st = init_limit_state(ic.rho0, lambda x: -np.cos(x), m, k)
            for _ in range(n_steps):
                st = step_limit(st, step_dt, ALT_LR, 1.0)
            decay = math.exp(-tmax)
            errors.append(l2_error(st.rho, lambda x: decay * np.sin(x)))
        rate = math.log2(errors[-2] / errors[-1])
        rate_ok &= rate >= k + 0.7
    elapsed = time.perf_counter() - start
    _report(
        "C8 vanishing-relaxation limit",
        exact_reduction and monotone and tiny and rate_ok and elapsed < 120.0,
        f"eps=1e-10 distance {dists[-1]:.2e} (regression baseline), {elapsed:.0f}s",
    )


# -- 9: dense one-step oracle on the 4-cell two-point instance --------------


def _oracle_step_matrix(n, h, eps, dt, flux):
    """Assemble the full one-step update matrix with explicit index loops.

    State layout: rho_0..rho_{n-1}, then g at v=-1, then g at v=+1.
    Built straight from the k = 0 weak forms: every volume term vanishes
    and each residual is a difference of interface values over h.
    """
    size = 3 * n
    matrix = np.zeros((size, size))
    for col in range(size):
        state = np.zeros(size)
        state[col] = 1.0
        rho = state[:n].copy()
        gm = state[n : 2 * n].copy()
        gp = state[2 * n :].copy()
        u = 0.5 * (gp - gm)  # <v g> per cell

        def at(arr, j):
            return arr[j % n]

        # density update: interface value of u per flux, divergence over h
        rho_new = np.empty(n)
        for i in range(n):
            if flux == ALT_LR:
                left, right = at(u, i - 1), at(u, i)
            elif flux == ALT_RL:
                left, right = at(u, i), at(u, i + 1)
            else:
                left = 0.5 * (at(u, i - 1) + at(u, i))
                right = 0.5 * (at(u, i) + at(u, i + 1))
            rho_new[i] = rho[i] - dt / h * (right - left)

        # gradient residual of the new density
        grad = np.empty(n)
        for i in range(n):
            if flux == ALT_LR:
                left, right = at(rho_new, i), at(rho_new, i + 1)
            elif flux == ALT_RL:
                left, right = at(rho_new, i - 1), at(rho_new, i)
            else:
                left = 0.5 * (at(rho_new, i - 1) + at(rho_new, i))
                right = 0.5 * (at(rho_new, i) + at(rho_new, i + 1))
            grad[i] = (left - right) / h

        # upwind streaming per node and its mean-free part
        stream_m = np.empty(n)
        stream_p = np.empty(n)
        for i in range(n):
            stream_p[i] = (at(gp, i) - at(gp, i - 1)) / h
            stream_m[i] = (at(gm, i) - at(gm, i + 1)) / h
        mean = 0.5 * (stream_m + stream_p)
        fluct_m = stream_m - mean
        fluct_p = stream_p - mean

        c1 = eps * eps / dt
        gm_new = (c1 * gm - eps * fluct_m + (-1.0) * grad) / (c1 + 1.0)
        gp_new = (c1 * gp - eps * fluct_p + (+1.0) * grad) / (c1 + 1.0)
        matrix[:, col] = np.concatenate([rho_new, gm_new, gp_new])
    return matrix


def _probe_scheme_matrix(config):
    size = 3 * config.mesh.n_cells
    matrix = np.empty((size, size))
    n = config.mesh.n_cells
    for col in range(size):
        state = scheme.State(
            rho=DGField(config.mesh, 0),
            g=KineticField(config.space, config.mesh, 0),
        )
        flat = np.zeros(size)
        flat[col] = 1.0
        state.rho.coeff[:, 0] = flat[:n]
        state.g.coeff[0, :, 0] = flat[n : 2 * n]
        state.g.coeff[1, :, 0] = flat[2 * n :]
        out = scheme.step(state, config)
        matrix[:, col] = np.concatenate(
            [out.rho.coeff[:, 0], out.g.coeff[0, :, 0], out.g.coeff[1, :, 0]]
        )
    return matrix


def test_c9_dense_step_oracle():
    rng = np.random.default_rng(99)
    space = make_velocity_space(TWO_POINT)
    mesh = Mesh1D(0.0, 2 * np.pi, 4)
    ok = True
    for flux in (ALT_LR, ALT_RL, CENTRAL):
        for eps, dt in ((1.0, 0.02), (0.3, 0.005), (0.0, 0.01)):
            config = scheme.SchemeConfig(eps=eps, dt=dt, degree=0, flux=flux,
                                         space=space, mesh=mesh)
            oracle = _oracle_step_matrix(4, mesh.h, eps, dt, flux)
            probed = _probe_scheme_matrix(config)
            ok &= np.max(np.abs(oracle - probed)) <= 1e-13
            for _ in range(20):
                flat = rng.standard_normal(12)
                state = scheme.State(
                    rho=DGField(mesh, 0),
                    g=KineticField(space, mesh, 0),
                )
                state.rho.coeff[:, 0] = flat[:4]
                state.g.coeff[0, :, 0] = flat[4:8]
                state.g.coeff[1, :, 0] = flat[8:]
                out = scheme.step(state, config)
                got = np.concatenate(
                    [out.rho.coeff[:, 0], out.g.coeff[0, :, 0], out.g.coeff[1, :, 0]]
                )
                ok &= np.max(np.abs(got - oracle @ flat)) <= 1e-13
    _report("C9 dense one-step oracle", ok)


# -- 10: the energy theorem, certified on the Fourier symbol ----------------


def _lagged_energy_norm(stepper):
    """Largest 2-norm over frequencies, by SVD, of the lagged one-step map in
    the energy's weights on mean-free g (StencilStepper.lagged_energy_map):
    the oracle of the Cholesky certificate StencilStepper.certified.

    The energy E_n = ||rho^n||^2 + eps^2 |||g^{n-1}|||^2 pairs rho^n with
    g^{n-1}, so decay for all data means the map (rho^n, g^{n-1}) ->
    (rho^{n+1}, g^n) has norm <= 1 in the energy's weights on mean-free g.
    """
    freqs = np.arange(stepper.config.mesh.n_cells // 2 + 1)
    return np.linalg.norm(stepper.lagged_energy_map(freqs), ord=2, axis=(1, 2)).max()


def _telegraph_k0(n, eps, include_bh=True):
    spec = ExperimentSpec(mode="solve", model="telegraph", degree=0, cells=(n,),
                          eps=(eps,), include_bh=include_bh)
    return build_config(spec, n, eps, dt=1.0)


def test_c10_energy_theorem_certificate():
    # The paper's main theorem: E_{n+1} <= E_n for every datum once
    # dt <= dt_stab, uniformly in eps.  Checked on the symbol of the step,
    # frequency by frequency, rather than through marches of chosen data.
    # The lagged map is probed, not assembled, so its norm keeps its digits
    # at every eps: the worst excess measured was 1.1e-15, 5 ulp of 1.
    start = time.perf_counter()
    tolerance = 1e-14
    variants = {
        "telegraph": dict(model="telegraph"),
        "telegraph no-bh": dict(model="telegraph", include_bh=False),
        "slab nv=4": dict(model="slab", nv=4),
        "slab nv=8": dict(model="slab", nv=8),
        "slab nv=4 continuum": dict(model="slab", nv=4, continuum_moments=True),
        "slab nv=8 continuum": dict(model="slab", nv=8, continuum_moments=True),
    }
    # eps -> 0 on two variants only keeps the suite's time: 450 configs more
    small_eps = (0.0, 1e-8, 1e-10, 1e-12, 1e-14)
    worst, where, cases, disagree = 0.0, "", 0, []
    for label, options in variants.items():
        for k in range(5):
            for flux in (ALT_LR, ALT_RL, CENTRAL):
                small = small_eps if label in ("telegraph", "slab nv=8") else ()
                for eps in (1e-6, 1e-2, 1.0, 10.0) + small:
                    for n in (5, 16, 64):
                        spec = ExperimentSpec(mode="solve", degree=k, cells=(n,), eps=(eps,),
                                              flux=flux, **options)
                        config = build_config(spec, n, eps, dt=1.0)
                        stepper = StencilStepper(replace(config, dt=scheme.stable_dt(config)))
                        excess = _lagged_energy_norm(stepper) - 1.0
                        where_now = f"{label} k={k} {flux} eps={eps:g} N={n}"
                        cases += 1
                        # src's Cholesky certificate passes exactly where the SVD norm does
                        if stepper.certified != (excess <= tolerance):
                            disagree.append(where_now)
                        if excess > worst:
                            worst, where = excess, where_now
    # negative controls: past the stable step (sharp at telegraph k = 0 for
    # eps > 0; at eps = 0 the limit step holds to 2 dt_stab), and C5b's
    # dt = 0.4h without b_h, the same norm must exceed one clearly and the
    # certificate must refuse
    controls = []
    for eps, factor in ((1e-6, 1.05), (1.0, 1.05), (1e-12, 1.05), (0.0, 2.05)):
        config = _telegraph_k0(16, eps)
        controls.append(StencilStepper(replace(config, dt=factor * scheme.stable_dt(config))))
    config = _telegraph_k0(64, 1.0, include_bh=False)
    controls.append(StencilStepper(replace(config, dt=0.4 * config.mesh.h)))
    control_norms = [_lagged_energy_norm(stepper) for stepper in controls]
    refused = not any(stepper.certified for stepper in controls)
    elapsed = time.perf_counter() - start
    _report(
        "C10 energy-norm certificate at dt_stab",
        worst <= tolerance and min(control_norms) > 1.01 and elapsed < 60.0
        and not disagree and refused and stencil.CERT_TOL == tolerance,
        f"{cases} configs, worst excess {worst:.1e} ({where}); certificate disagrees on "
        f"{len(disagree)} {disagree[:3]}; controls "
        + ", ".join(f"{x:.3f}" for x in control_norms)
        + f", certified {[stepper.certified for stepper in controls]}; {elapsed:.1f}s",
    )


def test_eps_to_zero_certificate_is_stricter_than_the_limit_step():
    # A measured regression bound, not the paper's claim.  At eps = 0 the
    # certificate is the limit scheme's own step, which holds well past
    # dt_stab; at eps = 1e-12 the same configs fail far sooner.  So the
    # bound's eps -> 0+ limit is stricter than the limit scheme.
    def lagged_norm(config, factor):
        stepper = StencilStepper(replace(config, dt=factor * scheme.stable_dt(config)))
        return _lagged_energy_norm(stepper), stepper.certified

    for n in (16, 64):
        zero, small = _telegraph_k0(n, 0.0), _telegraph_k0(n, 1e-12)
        for factor in (1.0, 2.0):
            norm, certified = lagged_norm(zero, factor)
            assert abs(norm - 1.0) <= stencil.CERT_TOL and certified
        norm, certified = lagged_norm(zero, 2.05)
        assert abs(norm - 1.05) <= 1e-12 and not certified
        norm, certified = lagged_norm(small, 1.05)
        assert abs(norm - 1.0512) <= 1e-4 and not certified
    spec = ExperimentSpec(mode="solve", model="slab", nv=8, degree=1, cells=(128,))
    for eps, holds, fails in ((0.0, 17.4, 17.6), (1e-12, 6.25, 6.5)):
        config = build_config(spec, 128, eps, dt=1.0)
        assert lagged_norm(config, holds)[1] and not lagged_norm(config, fails)[1]


# -- 12: rate of the asymptotic limit ----------------------------------------


def test_c12_ap_limit_rate():
    # rho_distance / eps is constant as eps -> 0 at fixed h and dt: the kinetic
    # run tends to the limit scheme at first order in eps.  The paper states no
    # rate, so this is a measured regression bound, not the paper's claim: the
    # ratio holds within 1% from eps = 1e-6 down to 1e-12 (within 1e-5 when
    # measured), where differencing two O(1) runs loses it to cancellation
    start = time.perf_counter()
    tolerance = 0.01
    eps = (1e-6, 1e-8, 1e-10, 1e-11, 1e-12)
    worst, ratios = 0.0, []
    for model, nv in (("telegraph", 2), ("slab", 8)):
        spec = ExperimentSpec(mode="ap-limit", model=model, nv=nv, degree=1, cells=(64,),
                              eps=eps, tmax=0.05)
        ratio = [row["rho_distance"] / row["eps"] for row in run_ap_limit(spec).rows]
        worst = max(worst, max(abs(r / ratio[0] - 1.0) for r in ratio))
        ratios.append(ratio[0])
    elapsed = time.perf_counter() - start
    _report(
        "C12 first-order rate of the limit in eps",
        worst <= tolerance and elapsed < 60.0,
        "rho_distance/eps " + ", ".join(f"{r:.4e}" for r in ratios)
        + f", worst spread {worst:.1e}; {elapsed:.1f}s",
    )


def test_c12b_ap_limit_rate_in_h():
    # C12's first-order constant is the discretisation's: on sin data at
    # tmax 0.05, rho_distance is about a eps h^p + b eps^2.  b, read from
    # eps = 1e-2 on the finest mesh, is 0.084 (telegraph) and 0.0019 (slab)
    # at k = 1 and 2, whatever h.  The paper states no rate, so p is a
    # measured regression bound.  Fitted over N = 64..4096 on the points clear
    # of the eps^2 floor (b eps^2 at most 1% of rho_distance), p measured
    # 0.991 and 0.988 at k = 0 (telegraph, slab), 2.000 at k = 1 and 3.000 at
    # k = 2: p = k + 1 within 0.1 is pinned.  At k = 2 only N = 64 and 256 are
    # clear: on finer meshes a eps h^3 sinks under the floor at every eps the
    # defect's roundoff allows
    start = time.perf_counter()
    eps = np.array([1e-2, 1e-4, 1e-6, 1e-8])
    cells = np.array([64, 256, 1024, 4096])
    h = np.broadcast_to(2 * np.pi / cells[:, None], (len(cells), len(eps)))
    worst, fits = 0.0, []
    for model, nv in (("telegraph", 2), ("slab", 8)):
        for k in (0, 1, 2):
            ratio = []  # rho_distance / eps, [N, eps]
            for n in cells:
                spec = ExperimentSpec(mode="ap-limit", model=model, nv=nv, degree=k, cells=(n,),
                                      eps=tuple(eps), tmax=0.05)
                ratio.append([row["rho_distance"] / row["eps"] for row in run_ap_limit(spec).rows])
            ratio = np.array(ratio)
            b = ratio[-1, 0] / eps[0]
            clear = (b * eps <= 0.01 * ratio) & (eps < eps[0])
            assert np.count_nonzero(clear.any(axis=1)) >= 2, (model, k)  # two meshes at least
            p, log_a = np.polyfit(np.log(h[clear]), np.log(ratio[clear]), 1)
            worst = max(worst, abs(p - (k + 1)))
            fits.append(f"{model} k={k}: p={p:.3f} a={math.exp(log_a):.3g} b={b:.3g}")
    elapsed = time.perf_counter() - start
    _report(
        "C12b rate in h of the limit's first-order constant",
        worst <= 0.1 and elapsed < 60.0,
        "; ".join(fits) + f"; worst |p - (k + 1)| {worst:.3f}; {elapsed:.1f}s",
    )
