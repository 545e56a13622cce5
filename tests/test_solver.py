import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dptsv
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ns1d.constitutive
import ns1d.solver
from ns1d.constitutive import GasModel, HProfile, transport
from ns1d.diagnostics import DiagnosticsCollector, dissipation_rate
from ns1d.errors import ArgumentError, NewtonDivergenceError, PositivityError
from ns1d.grid import Grid, State, apply_farfield, build_grid
from ns1d.harness import RunConfig, make_initial_data, make_model
from ns1d.solver import (
    BACKWARD_ERROR_TOL,
    POSITIVITY_FLOOR,
    SolverConfig,
    Stage,
    _implicit_diffusion,
    _landing_times,
    advance,
    advective_dt,
    backward_euler_theta,
    backward_euler_velocity,
    make_stage,
    rhs,
    stable_dt,
    step_explicit,
    step_imex,
    step_size,
)
from ns1d.verification import default_case, exact_state, make_source_fn

CFG = SolverConfig()


def gauss_state(grid, a=0.3, w=1.0, with_u=False):
    x = grid.all_cell_centers()
    xn = grid.all_node_positions()
    s = State(0.0,
              1.0 + a * np.exp(-((x / w) ** 2)),
              a * (xn / w) * np.exp(-((xn / w) ** 2)) if with_u else np.zeros(grid.nnodes),
              1.0 + a * np.exp(-((x / w) ** 2)))
    return apply_farfield(s, grid)


class TestRhs:
    def test_equilibrium_is_fixed_point(self):
        g = build_grid(4.0, 64)
        m = GasModel(5 / 3, alpha=0.3, h=HProfile.power_sum(1, 1))
        dv, du, dth = rhs(State.equilibrium(g), m, g)
        assert np.all(dv == 0.0) and np.all(du == 0.0) and np.all(dth == 0.0)

    def test_linear_velocity_gives_constant_dvdt(self):
        g = build_grid(4.0, 64)
        m = GasModel(5 / 3, h=HProfile.constant(1.0))
        sigma = 0.25
        s = State.equilibrium(g)
        s.u = sigma * g.all_node_positions()
        dv, _, _ = rhs(s, m, g)
        assert np.allclose(dv, sigma, rtol=0, atol=1e-14)

    def test_positivity_error(self):
        g = build_grid(4.0, 64)
        s = State.equilibrium(g)
        s.v[g.ghost_depth + 3] = -0.1
        with pytest.raises(PositivityError):
            rhs(s, GasModel(5 / 3), g)


class TestStableDt:
    @pytest.mark.parametrize("config, want", [(SolverConfig(cfl_parabolic=0.4), 2e-5),
                                              (SolverConfig(), 3.5e-5)],
                             ids=["cfl_parabolic=0.4", "default"])
    def test_reference_value(self, config, want):
        # equilibrium, gamma=5/3, mu=kappa=1, dx=0.01, cfl_advective=0.4: the parabolic
        # bound cfl_parabolic*dx^2/(2*max(1, 1/cv)), 2e-5 at 0.4 and 3.5e-5 at 0.7, dominates
        g = build_grid(1.0, 200)
        m = GasModel(5 / 3, h=HProfile.constant(1.0))
        dt = stable_dt(State.equilibrium(g), m, g, config)
        assert dt == pytest.approx(want, rel=1e-12)

    def test_parabolic_scales_with_dx_squared(self):
        m = GasModel(5 / 3, h=HProfile.constant(1.0))
        g1, g2 = build_grid(1.0, 400), build_grid(1.0, 200)
        dt1 = stable_dt(State.equilibrium(g1), m, g1, CFG)
        dt2 = stable_dt(State.equilibrium(g2), m, g2, CFG)
        assert dt2 == pytest.approx(4.0 * dt1, rel=1e-12)

    def test_scales_inversely_with_transport(self):
        g = build_grid(1.0, 200)
        m1 = GasModel(5 / 3, h=HProfile.constant(1.0))
        m10 = GasModel(5 / 3, mu_tilde=10.0, kappa_tilde=10.0, h=HProfile.constant(1.0))
        dt1 = stable_dt(State.equilibrium(g), m1, g, CFG)
        dt10 = stable_dt(State.equilibrium(g), m10, g, CFG)
        assert dt1 == pytest.approx(10.0 * dt10, rel=1e-12)


def interior_jacobian(state, model, grid, eps=1e-7):
    """Central-difference Jacobian of the interior entries of rhs's flat rates
    [dv | dtheta | du] with respect to the same entries of [v | theta | u]."""
    nc = grid.ncells
    cells = np.arange(nc)[grid.cell_interior]
    idx = np.r_[cells, nc + cells, 2 * nc + np.arange(grid.nnodes)[grid.node_interior]]
    y0 = np.concatenate((state.v, state.theta, state.u))

    def rates(y):
        s = State(state.t, y[:nc], y[2 * nc:], y[nc:2 * nc])
        return rhs(s, model, grid)[0].base[idx]

    jac = np.empty((idx.size, idx.size))
    for k, i in enumerate(idx):
        up, down = y0.copy(), y0.copy()
        up[i] += eps
        down[i] -= eps
        jac[:, k] = (rates(up) - rates(down)) / (2.0 * eps)
    return jac


def large_start(N, alpha, a=5.0):
    """(model, grid, state) of large multiplicative data, positive at any amplitude a:
    v = exp(a*G(x+2)), theta = exp(-a*G(x-2)), u = a*x*G(x), G = exp(-x^2), on
    |x| <= 24, gamma = 5/3, h power-sum(1, 1).  v spans [1, 148], theta [0.0067, 1]."""
    g = build_grid(24.0, N)
    x, xn = g.all_cell_centers(), g.all_node_positions()
    s = State(0.0, np.exp(a * np.exp(-(x + 2) ** 2)), a * xn * np.exp(-xn ** 2),
              np.exp(-a * np.exp(-(x - 2) ** 2)))
    return GasModel(5 / 3, alpha=alpha, h=HProfile.power_sum(1, 1)), g, apply_farfield(s, g)


@pytest.mark.parametrize("preset, alpha, N", [
    pytest.param(preset, alpha, N, id=f"{preset}-{alpha}" + (f"-N{N}" if preset == "large" else ""))
    for preset, alpha, N in [("gauss-pulse", 0.0, 64), ("gauss-pulse", 0.1, 64),
                             ("two-bump", 0.0, 64), ("large", -2.0, 64), ("large", -2.0, 128),
                             ("large", -0.5, 64), ("large", -0.5, 128)]])
def test_default_step_is_inside_heuns_stability_region(preset, alpha, N):
    # Heun's amplification R(z) = 1 + z + z^2/2 at z = lambda*dt, for every decaying mode;
    # the large data also have growing modes, which no step size removes.  At alpha < 0
    # the heating's theta-rate is a decay that the diffusion bound alone does not see
    if preset == "large":
        model, g, s = large_start(N, alpha)
    else:
        rc = dataclasses.replace(RunConfig(), preset=preset, gas_alpha=alpha, grid_N=N)
        model, g = make_model(rc), build_grid(rc.grid_L, rc.grid_N, rc.grid_ghost_depth)
        s = make_initial_data(rc, g)
    lam = np.linalg.eigvals(interior_jacobian(s, model, g))
    z = lam[lam.real <= 0.0] * stable_dt(s, model, g, SolverConfig())
    assert np.abs(1.0 + z + 0.5 * z * z).max() <= 1.0 + 1e-8
    assert z.real.min() >= -2.0


def test_imex_first_step_is_inside_the_heating_limit():
    # IMEX takes the heating explicitly: on the large data at alpha = -2 its theta-rate
    # -alpha*mu/v*u_x^2/(cv*theta) sizes the step, far below the advective limit
    config = SolverConfig(integrator="imex")
    model, g, s = large_start(64, -2.0)
    mu, _ = transport(model, s.v, s.theta)
    rate = -model.alpha * mu / s.v * (np.diff(s.u) / g.dx) ** 2 / (model.cv * s.theta)
    limit = 2.0 * config.cfl_parabolic / rate.max()
    advective = config.cfl_advective * g.dx / np.max(np.sqrt(model.gamma * s.theta) / s.v)
    assert limit < 1e-3 * advective
    assert step_size(s, model, g, config) == pytest.approx(limit, rel=1e-12)
    taken = []
    advance(s, model, g, config, 3.0 * limit,
            on_step=lambda state, stats: taken.append(stats.dt_used))
    assert len(taken) >= 2 and taken[0] <= limit * (1.0 + 1e-12)


class TestExplicitStep:
    def test_equilibrium_unchanged(self):
        g = build_grid(2.0, 64)
        m = GasModel(5 / 3, h=HProfile.power_sum(1, 1))
        s, stats = step_explicit(State.equilibrium(g), m, g, 1e-3)
        assert np.all(s.v == 1.0) and np.all(s.u == 0.0) and np.all(s.theta == 1.0)
        assert stats.rejected_substeps == 0

    def test_momentum_conserved_per_step(self):
        g = build_grid(8.0, 256)
        m = GasModel(5 / 3, alpha=0.1, h=HProfile.power_sum(1, 1))
        s = gauss_state(g, with_u=True)
        p0 = np.sum(s.u[g.node_interior]) * g.dx
        dt = stable_dt(s, m, g, CFG)
        s, _ = step_explicit(s, m, g, dt)
        p1 = np.sum(s.u[g.node_interior]) * g.dx
        assert abs(p1 - p0) <= 1e-13 * max(1.0, abs(p0))

    def test_single_step_second_order_in_dt(self):
        # Richardson: error vs a tiny-dt reference drops at order ~2
        g = build_grid(8.0, 64)
        m = GasModel(5 / 3, alpha=0.1, h=HProfile.power_sum(1, 1))
        s0 = gauss_state(g, a=0.2)
        t_end = 4e-3

        def integrate(nsteps):
            s = s0.copy()
            for _ in range(nsteps):
                s, _ = step_explicit(s, m, g, t_end / nsteps)
            return s

        ref = integrate(64)
        errs = []
        for n in (1, 2, 4):
            s = integrate(n)
            errs.append(np.max(np.abs(s.theta - ref.theta)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.8 <= o <= 2.2 for o in orders), orders

    def test_sources_at_t_n_once_per_step_across_rejections(self):
        # k0 holds sources(t_n), formed once per step; an attempt whose predictor
        # is accepted calls sources(t_n + h) once, for rhs at that predictor
        g = build_grid(4.0, 64)
        m = GasModel(5 / 3, alpha=0.1, h=HProfile.power_sum(1, 1))
        s0 = make_stage(gauss_state(g, a=0.3, with_u=True), m, g)
        times = []

        def sources(t):
            times.append(t)
            return np.zeros(g.ncells), np.zeros(g.nnodes), np.zeros(g.ncells)

        _, stats = step_explicit(s0, m, g, 20.0, sources)
        k0, accepted = rhs(s0, m, g), []
        for k in range(stats.rejected_substeps + 1):
            h = 20.0 * 0.5 ** k
            pred = apply_farfield(State(h, s0.v + h * k0[0], s0.u + h * k0[1],
                                        s0.theta + h * k0[2]), g)
            try:
                Stage(pred.t, pred.y, m, g, POSITIVITY_FLOOR)
            except PositivityError:
                continue
            accepted.append(h)
        # some attempts fail at the predictor, and one at least after it
        assert 2 <= len(accepted) < stats.rejected_substeps + 1
        assert times == [0.0] + accepted

    def test_rejection_then_exhaustion(self, monkeypatch):
        g = build_grid(2.0, 32)
        m = GasModel(5 / 3, h=HProfile.constant(1.0))
        s = gauss_state(g, a=0.5)
        s.theta[:] = 1.0
        s.theta[g.ghost_depth + 5] = 1e-7  # near-floor cell collapses under any dt
        monkeypatch.setattr(ns1d.solver, "POSITIVITY_FLOOR", 0.5)
        monkeypatch.setattr(ns1d.solver, "MAX_DT_HALVINGS", 3)
        from ns1d.errors import PositivityExhaustedError
        with pytest.raises(PositivityExhaustedError, match="after 3 dt halvings"):
            step_explicit(s, m, g, 1e-2)


def reference_h(h, v):
    """The power-sum h as its k-th derivative formula at k = 0: unit
    coefficients, exponents minus 0."""
    return 1 * v ** (h.ell1 - 0) + 1 * v ** (-h.ell2 - 0)


def reference_transport(model, v, theta):
    """(mu, kappa) = (mu_tilde, kappa_tilde) * h(v) * theta^alpha."""
    hv = reference_h(model.h, v)
    ta = np.exp(model.alpha * np.log(theta))
    return model.mu_tilde * hv * ta, model.kappa_tilde * hv * ta


def reference_stress(s, model, grid):
    """(u_x, mu/v, kappa/v, P, sigma): the stress sigma = mu/v*u_x - P on cells."""
    mu, kappa = reference_transport(model, s.v, s.theta)
    ux, mu_v, kappa_v, P = grid.cell_diff(s.u), mu / s.v, kappa / s.v, s.theta / s.v
    return ux, mu_v, kappa_v, P, mu_v * ux - P


def reference_rhs(s, model, grid):
    """The semidiscrete rates in energy form: node_diff(sigma) drives u, and
    sigma*u_x is the theta rate's compression work plus viscous heating."""
    ux, _, kappa_v, _, sigma = reference_stress(s, model, grid)
    heat_flux = grid.face_average(kappa_v) * grid.node_diff(s.theta)
    return (ux.copy(), grid.node_diff(sigma),
            (grid.cell_diff(heat_flux) + sigma * ux) / model.cv)


def termwise_rhs(s, model, grid):
    """The semidiscrete rates with every product formed where it is used: the
    pressure work -theta*u_x/v and the heating mu*u_x^2/v as separate terms."""
    v, theta = s.v, s.theta
    mu, kappa = reference_transport(model, v, theta)
    ux = grid.cell_diff(s.u)
    P = theta / v
    du_dt = grid.node_diff(-P + mu * ux / v)
    heat_flux = grid.face_average(kappa / v) * grid.node_diff(theta)
    dtheta_dt = (-theta * ux / v + grid.cell_diff(heat_flux) + mu * ux * ux / v) / model.cv
    return ux.copy(), du_dt, dtheta_dt


def reference_stable_dt(s, model, grid, config):
    _, mu_v, kappa_v, _, _ = reference_stress(s, model, grid)
    c = np.sqrt(model.gamma * s.theta) / s.v
    dt = config.cfl_advective * grid.dx / float(c.max())
    diff_rate = np.maximum(mu_v, kappa_v / model.cv)
    return min(dt, config.cfl_parabolic * grid.dx ** 2 / (2.0 * float(diff_rate.max())))


def reference_explicit_step(s0, model, grid, dt):
    """One SSP-RK2 step without rejection: predictor, then the average."""
    k1 = reference_rhs(s0, model, grid)
    s1 = apply_farfield(State(s0.t + dt, s0.v + dt * k1[0], s0.u + dt * k1[1],
                              s0.theta + dt * k1[2]), grid)
    k2 = reference_rhs(s1, model, grid)
    return apply_farfield(State(s0.t + dt,
                                s0.v + 0.5 * dt * (k1[0] + k2[0]),
                                s0.u + 0.5 * dt * (k1[1] + k2[1]),
                                s0.theta + 0.5 * dt * (k1[2] + k2[2])), grid)


def reference_implicit_solve(x_star, grad_star, a, c, dt, grid):
    """x = x* + d on the interior unknowns, where (c - dt*D_a) d = dt*D_a x*:
    D_a differences a times the divided differences across each unknown, over
    dx, so the matrix has c + r*(a_k + a_k+1) on its diagonal and -r*a_k+1
    beside it, r = dt/dx^2.  Symmetric positive definite: solved by LAPACK dptsv."""
    lo, r = grid.ghost_depth, dt / grid.dx ** 2
    flux = a * grad_star
    d, info = dptsv(c + r * (a[:-1] + a[1:]), -r * a[1:-1],
                    dt * ((flux[1:] - flux[:-1]) / grid.dx))[2:]
    assert info == 0
    x = x_star.copy()
    x[lo:lo + len(a) - 1] += d
    return x


def reference_imex_rates(s, model, grid):
    """The IMEX explicit rates: u_x, the pressure gradient and sigma*u_x/cv."""
    ux, _, _, P, sigma = reference_stress(s, model, grid)
    return [ux, grid.node_diff(-P), sigma * ux / model.cv]


def termwise_imex_rates(s, model, grid):
    """The IMEX explicit rates with the pressure work and the heating as separate terms."""
    v, theta = s.v, s.theta
    mu, _ = reference_transport(model, v, theta)
    ux = grid.cell_diff(s.u)
    return [ux, grid.node_diff(-theta / v), (-theta * ux / v + mu * ux * ux / v) / model.cv]


def reference_imex_step(s0, model, grid, dt, sources=None):
    """One IMEX step without rejection: the predictor s0 + dt*k0 on the explicit
    rates, then backward-Euler diffusion of u and theta with mu/v and kappa/v
    frozen at the predictor."""
    cv = model.cv
    k0 = reference_imex_rates(s0, model, grid)
    if sources is not None:
        sv, su, sth = sources(s0.t)
        k0 = [k0[0] + sv, k0[1] + su, k0[2] + sth / cv]
    pred = apply_farfield(State(s0.t + dt, s0.v + dt * k0[0], s0.u + dt * k0[1],
                                s0.theta + dt * k0[2]), grid)
    ux, mu_v, kappa_v, _, _ = reference_stress(pred, model, grid)
    g = grid.ghost_depth
    cells = slice(g - 1, g + grid.N + 1)         # the cells beside the interior nodes
    u = reference_implicit_solve(pred.u, ux[cells], mu_v[cells], 1.0, dt, grid)
    nodes = grid.node_interior                   # the nodes beside the interior cells
    theta = reference_implicit_solve(pred.theta, grid.node_diff(pred.theta)[nodes],
                                     grid.face_average(kappa_v)[nodes], cv, dt, grid)
    return apply_farfield(State(s0.t + dt, pred.v, u, theta), grid)


def reference_dissipation_rate(s, model, grid):
    ux, mu_v, kappa_v, _, _ = reference_stress(s, model, grid)
    theta = s.theta
    thx = grid.cell_average_of_nodes(grid.node_diff(theta))
    integrand = (mu_v * ux * ux + kappa_v * thx * thx / theta) / theta
    return float(np.sum(integrand[grid.cell_interior]) * grid.dx)


BITS_MODELS = [GasModel(1.4, mu_tilde=1.3, kappa_tilde=0.7, alpha=alpha,
                        h=HProfile.power_sum(ell1, ell2))
               for alpha in (0.0, 0.05) for ell1, ell2 in ((1, 1), (0.5, 2.0))]


class TestExplicitStepBits:
    """stable_dt, step_explicit and dissipation_rate keep the arithmetic of the
    reference step above to the last bit."""

    @pytest.mark.parametrize("model", BITS_MODELS,
                             ids=lambda m: f"alpha={m.alpha}-ell=({m.h.ell1},{m.h.ell2})")
    def test_twenty_steps_bitwise_equal_to_reference(self, model):
        g = build_grid(8.0, 128)
        got = gauss_state(g, a=0.3, with_u=True)
        got.theta = gauss_state(g, a=0.3, w=0.5).theta   # so that P = theta/v is not constant
        want = got.copy()
        for _ in range(20):
            dt = stable_dt(got, model, g, CFG)
            assert dt == reference_stable_dt(want, model, g, CFG)
            got, stats = step_explicit(got, model, g, dt)
            want = reference_explicit_step(want, model, g, dt)
            assert stats.rejected_substeps == 0
            for name in ("v", "u", "theta"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert got.t == want.t
            assert dissipation_rate(got, model, g) == reference_dissipation_rate(want, model, g)
        assert np.max(np.abs(got.theta - 1.0)) > 0.1    # the pulse is still there
        assert model.h(1.7) == reference_h(model.h, 1.7)  # scalars, as kanel_potential passes


class TestImexStepBits:
    """step_imex keeps the arithmetic of the reference IMEX step above to the last bit."""

    @pytest.mark.parametrize("sourced", [False, True], ids=["plain", "mms"])
    @pytest.mark.parametrize("model", BITS_MODELS,
                             ids=lambda m: f"alpha={m.alpha}-ell=({m.h.ell1},{m.h.ell2})")
    def test_twenty_steps_bitwise_equal_to_reference(self, model, sourced):
        g = build_grid(8.0, 128)
        if sourced:
            case = default_case()
            got, sources = exact_state(case, g, 0.0), make_source_fn(case, model, g)
        else:
            got, sources = gauss_state(g, a=0.3, with_u=True), None
            got.theta = gauss_state(g, a=0.3, w=0.5).theta   # so that P = theta/v is not constant
        want = got.copy()
        for _ in range(20):
            dt = advective_dt(got, model, g, CFG)
            got, stats = step_imex(got, model, g, dt, sources)
            want = reference_imex_step(want, model, g, dt, sources)
            assert stats.rejected_substeps == 0
            for name in ("v", "u", "theta"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert got.t == want.t
        assert dt > 10.0 * stable_dt(got, model, g, CFG)   # beyond the explicit limit
        assert np.max(np.abs(got.theta - 1.0)) > 1e-3      # the data are still there


class TestEnergyForm:
    """rhs and step_imex's explicit rates regroup the term-by-term rates: the
    stress sigma = mu/v*u_x - P drives u, and sigma*u_x stands for the pressure
    work -theta*u_x/v plus the heating mu*u_x^2/v.  Equal to round-off, so the
    scheme is the same."""

    @pytest.mark.parametrize("a", [0.3, 0.9])
    @pytest.mark.parametrize("model", BITS_MODELS,
                             ids=lambda m: f"alpha={m.alpha}-ell=({m.h.ell1},{m.h.ell2})")
    def test_rates_equal_termwise_rates_to_round_off(self, model, a, monkeypatch):
        g = build_grid(8.0, 128)
        s = gauss_state(g, a=a, with_u=True)
        s.theta = gauss_state(g, a=a, w=0.5).theta     # so that P = theta/v is not constant
        real_step, imex_k0, C = ns1d.solver._step, [], g.ncells

        def recorded(s0, dt, k0, correct):
            # k0 is flat, laid out [v | theta | u] like the stage's y
            imex_k0.append((k0[:C], k0[2 * C:], k0[C:2 * C]))
            return real_step(s0, dt, k0, correct)

        monkeypatch.setattr(ns1d.solver, "_step", recorded)
        step_imex(s, model, g, advective_dt(s, model, g, CFG))
        for got, want in ((rhs(s, model, g), termwise_rhs(s, model, g)),
                          (imex_k0[0], termwise_imex_rates(s, model, g))):
            for name, x, y in zip(("v", "u", "theta"), got, want):
                assert np.max(np.abs(x - y)) <= 1e-14 * np.max(np.abs(y)), name

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_entropy_rate_of_rhs_is_minus_the_discrete_dissipation(self, alpha):
        # <eta', rhs> with eta = phi(v) + u^2/2 + cv*phi(theta), the edge nodes at
        # half weight as in eta_total; by summation by parts it is -D_m, the
        # dissipation read from the stage, while the edges sit at the far field
        rc = dataclasses.replace(RunConfig(), preset="gauss-pulse", perturb="v,u,theta",
                                 grid_N=512, gas_alpha=alpha)
        model, g = make_model(rc), build_grid(rc.grid_L, rc.grid_N, rc.grid_ghost_depth)
        s = make_stage(make_initial_data(rc, g), model, g)
        v_t, u_t, theta_t = rhs(s, model, g)
        ci, ni = g.cell_interior, g.node_interior
        w = np.ones(g.N + 1)
        w[[0, -1]] = 0.5
        v, u, theta = s.v[ci], s.u[ni], s.theta[ci]
        entropy_rate = g.dx * (np.sum((1.0 - 1.0 / v) * v_t[ci]) + np.sum(w * u * u_t[ni])
                               + model.cv * np.sum((1.0 - 1.0 / theta) * theta_t[ci]))
        lo, hi, th_x = g.ghost_depth, g.ghost_depth + g.N + 1, s.theta_x[ni]
        beside = s.theta[lo:hi] * s.theta[lo - 1:hi - 1]     # theta_j*theta_(j-1) at node j
        d_m = g.dx * (np.sum(s.mu_v[ci] * s.ux[ci] ** 2 / theta)
                      + np.sum(g.face_average(s.kappa_v)[ni] * th_x * th_x / beside))
        assert d_m > 0.0
        assert abs(entropy_rate + d_m) <= 1e-14 * d_m


FLOORS = [0.0, 1e-8, 0.5, 0.95]
# NaN, signed zeros, infinities, each floor and its neighbours
EDGE_VALUES = ([math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1.0]
               + [np.nextafter(f, d) for f in FLOORS for d in (-math.inf, math.inf)]
               + FLOORS)
edge_floats = st.one_of(st.sampled_from(EDGE_VALUES),
                        st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def cell_field_pairs(draw):
    """(v, theta) of one length, empty included."""
    n = draw(st.integers(0, 8))
    return tuple(draw(hnp.arrays(np.float64, n, elements=edge_floats)) for _ in range(2))


class TestStatePositivityCheck:
    """The stage's check, transport's floor, refuses exactly the states
    np.all(x > floor) refused: NaN fails like a value at or below the floor."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(fields=cell_field_pairs(), floor=st.sampled_from(FLOORS))
    @example(fields=(np.array([1.0, math.nan]), np.array([1.0, 1.0])), floor=0.0)
    @example(fields=(np.array([1.0]), np.array([0.5])), floor=0.5)
    @example(fields=(np.array([1.0]), np.array([-0.0])), floor=0.0)
    @example(fields=(np.array([]), np.array([])), floor=0.5)
    def test_refuses_what_np_all_refused(self, fields, floor):
        v, theta = fields
        refused = not (np.all(v > floor) and np.all(theta > floor))
        with np.errstate(all="ignore"):     # an inf entry passes, and theta**0 of it is NaN
            if refused:
                with pytest.raises(PositivityError):
                    transport(GasModel(5 / 3), v, theta, floor)
            else:
                transport(GasModel(5 / 3), v, theta, floor)


class TestImexStep:
    def test_equilibrium_one_newton_iteration(self):
        g = build_grid(2.0, 64)
        m = GasModel(5 / 3, alpha=0.2, h=HProfile.power_sum(1, 1))
        s, stats = step_imex(State.equilibrium(g), m, g, 1e-2)
        assert np.all(s.v == 1.0) and np.all(s.u == 0.0) and np.all(s.theta == 1.0)
        assert stats.max_residual == 0.0

    def test_max_residual_is_the_larger_backward_error(self, monkeypatch):
        g = build_grid(8.0, 128)
        m = GasModel(5 / 3, alpha=0.1, h=HProfile.power_sum(1, 1))
        s = gauss_state(g, with_u=True)
        errors = []
        for name in SOLVES.values():
            def recorded(*args, solve=name):
                out = solve(*args)
                errors.append(out[2])
                return out
            monkeypatch.setattr(ns1d.solver, name.__name__, recorded)
        _, stats = step_imex(s, m, g, 50.0 * stable_dt(s, m, g, CFG))
        assert stats.rejected_substeps == 0 and len(errors) == 2
        assert stats.max_residual == max(errors)
        assert 0.0 < stats.max_residual <= 1e-15

    def test_new_state_keeps_the_predictors_v(self, monkeypatch):
        # the new state is one copy of the predictor's y, whose u and theta the solves
        # correct in place: v has no implicit part, so its block keeps the predictor's bits
        g = build_grid(8.0, 64)
        m = GasModel(5 / 3, alpha=0.1, h=HProfile.power_sum(1, 1))
        s0 = make_stage(gauss_state(g, a=0.4, with_u=True), m, g)
        real, trials = ns1d.solver._trial, []

        def recorded(*args):
            trials.append(real(*args))
            return trials[-1]

        monkeypatch.setattr(ns1d.solver, "_trial", recorded)
        new, stats = step_imex(s0, m, g, 50.0 * stable_dt(s0, m, g, CFG))
        predictor = trials[0]
        assert stats.rejected_substeps == 0 and len(trials) == 2 and new is trials[1]
        assert new.v.tobytes() == predictor.v.tobytes()
        assert not np.shares_memory(new.y, predictor.y)
        assert not np.array_equal(new.u, predictor.u)
        assert not np.array_equal(new.theta, predictor.theta)

    def test_sources_evaluated_once_per_step_across_rejections(self):
        g = build_grid(4.0, 64)
        m = GasModel(5 / 3, alpha=0.1, h=HProfile.power_sum(1, 1))
        times = []

        def sources(t):
            times.append(t)
            return np.zeros(g.ncells), np.zeros(g.nnodes), np.zeros(g.ncells)

        _, stats = step_imex(gauss_state(g, a=0.3, with_u=True), m, g, 20.0, sources)
        assert stats.rejected_substeps >= 1
        assert times == [0.0]

    def test_pure_heat_decay_matches_fine_explicit(self):
        # theta diffusion subsolve alone (u frozen at 0, v frozen at 1,
        # alpha=0, kappa=1) against an explicit heat-equation oracle
        g = build_grid(8.0, 128)
        m = GasModel(5 / 3, h=HProfile.constant(1.0))
        x = g.all_cell_centers()
        theta0 = 1.0 + 0.4 * np.exp(-(x ** 2))
        v = np.ones(g.ncells)
        t_end = 0.1

        theta = theta0.copy()
        nsteps = 50
        for _ in range(nsteps):
            half = make_stage(State(0.0, v, np.zeros(g.nnodes), theta), m, g)
            theta, _, _ = backward_euler_theta(half, t_end / nsteps, half.theta.copy())

        # oracle: fine-dt forward Euler for cv*theta_t = theta_xx
        fine = build_grid(8.0, 512)
        xf = fine.all_cell_centers()
        th = 1.0 + 0.4 * np.exp(-(xf ** 2))
        dt = 0.2 * fine.dx ** 2 * m.cv
        t = 0.0
        while t < t_end - 1e-12:
            step = min(dt, t_end - t)
            lap = fine.cell_diff(fine.node_diff(th))
            th = th + step / m.cv * lap
            th[:2] = 1.0
            th[-2:] = 1.0
            t += step
        oracle = th[fine.cell_interior].reshape(-1, 4).mean(axis=1)  # 512 -> 128 cells
        got = theta[g.cell_interior]
        assert np.max(np.abs(got - oracle)) <= 1e-3 * np.max(np.abs(oracle))

    def test_stable_beyond_explicit_limit(self):
        g = build_grid(8.0, 128)
        m = GasModel(5 / 3, alpha=0.1, h=HProfile.power_sum(1, 1))
        s = gauss_state(g)
        dt = 100.0 * stable_dt(s, m, g, CFG)
        s, stats = step_imex(s, m, g, dt)
        assert np.all(s.v > 0) and np.all(s.theta > 0)
        assert np.all(np.isfinite(s.v)) and np.all(np.isfinite(s.theta))
        assert stats.rejected_substeps == 0


class TestBackwardEulerVelocity:
    """The velocity system is linear in u: one tridiagonal solve, no loop."""

    MODEL = GasModel(5 / 3, alpha=0.2, h=HProfile.power_sum(1, 1))

    def setup_method(self):
        self.g = build_grid(8.0, 64)
        self.s = gauss_state(self.g, with_u=True)
        self.dt = 50.0 * stable_dt(self.s, self.MODEL, self.g, CFG)

    def solve(self):
        half = make_stage(self.s, self.MODEL, self.g)
        return backward_euler_velocity(half, self.dt, half.u.copy())

    def test_one_solve_one_iteration(self, monkeypatch):
        real, calls = ns1d.solver.solve_banded, []

        def counted(*args, **flags):
            calls.append(1)
            return real(*args, **flags)

        monkeypatch.setattr(ns1d.solver, "solve_banded", counted)
        u, iters, residual = self.solve()
        assert iters == 1 and len(calls) == 1
        assert residual <= 1e-12
        assert np.array_equal(u[:self.g.ghost_depth], self.s.u[:self.g.ghost_depth])
        assert np.array_equal(u[-self.g.ghost_depth:], self.s.u[-self.g.ghost_depth:])

    def test_matches_one_newton_correction_from_u_exp(self):
        # reference: one Newton correction from u_exp, by a dense solve
        g, s, dt = self.g, self.s, self.dt
        mu, _ = ns1d.solver.transport(self.MODEL, s.v, s.theta)
        a = mu / s.v
        lo, hi = g.ghost_depth, g.ghost_depth + g.N + 1
        r = dt / g.dx ** 2
        jac = (np.diag(1.0 + r * (a[lo:hi] + a[lo - 1:hi - 1]))
               - np.diag(r * a[lo:hi - 1], 1) - np.diag(r * a[lo:hi - 1], -1))
        flux_div = g.node_diff(a * g.cell_diff(s.u))
        want = s.u.copy()
        want[lo:hi] += np.linalg.solve(jac, dt * flux_div[lo:hi])
        got, _, _ = self.solve()
        assert got == pytest.approx(want, rel=1e-12)

    def test_residual_above_tol_raises(self, monkeypatch):
        # a correction off by one part in 1e9 leaves a backward error far above the bound
        real = ns1d.solver.solve_banded

        def perturbed(*args, **flags):
            out = real(*args, **flags)
            return out[:2] + (out[2] * (1.0 + 1e-9),) + out[3:]

        monkeypatch.setattr(ns1d.solver, "solve_banded", perturbed)
        with pytest.raises(NewtonDivergenceError, match="residual .* backward error above 1e-12"):
            self.solve()


def tridiag_system(n, case, seed=0):
    """(d, e, b) as ptsv takes them: the diagonal, the one off-diagonal of a
    symmetric matrix and the right side, lengths n, n - 1 and n."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)
    if case == "dominant":
        return 4.0 + rng.random(n), rng.uniform(-1, 1, n - 1), b
    if case == "pivoting":
        # the off-diagonal outweighs the diagonal: not positive definite
        return rng.uniform(-1, 1, n), rng.uniform(2, 3, n - 1), b
    # the velocity shape: 1 + r*(a_k + a_k+1) and -r*a_k+1 for a positive a
    a, r = rng.uniform(0.5, 2.0, n + 1), 10.0
    return 1.0 + r * (a[:-1] + a[1:]), -r * a[1:-1], b


def velocity_system(n=65):
    """(x*, grad*, a) of a velocity solve with n unknowns: a random positive
    coefficient, x* with two ghosts a side and grad* its divided differences."""
    rng = np.random.default_rng(3)
    x_star = rng.standard_normal(n + 4)
    return x_star, np.diff(x_star[1:-1]) / 0.1, rng.uniform(0.5, 2.0, n + 1)


def diffuse(x_star, grad_star, a, c=1.0, dt=0.5):
    """_implicit_diffusion on a grid of ghost depth 2 and dx = 0.1, into a copy of x*."""
    grid = build_grid(0.05 * (len(x_star) - 5), len(x_star) - 5)
    return _implicit_diffusion(x_star.copy(), x_star, grad_star, a, c, dt, grid, "velocity")


class TestSolveTridiag:
    """The tridiagonal solve of _implicit_diffusion: one call of the module's ptsv
    binding, whose result the backward-error check judges."""

    @pytest.mark.parametrize("case", ["dominant", "pivoting", "velocity"])
    @pytest.mark.parametrize("n", [2, 65, 513, 4097])
    def test_bitwise_equal_to_solve_banded(self, n, case):
        # the binding, called as _implicit_diffusion calls it, on copies that it may
        # overwrite, gives the bits of scipy's dptsv and leaves the caller's arrays alone
        d, e, b = tridiag_system(n, case)
        before = [x.copy() for x in (d, e, b)]
        got, info = ns1d.solver.solve_banded(d.copy(), e.copy(), b.copy(), overwrite_d=1,
                                             overwrite_e=1, overwrite_b=1)[2:]
        want, want_info = dptsv(d, e, b)[2:]
        for old, new in zip(before, (d, e, b)):
            assert old.tobytes() == new.tobytes()
        if case == "pivoting":              # not positive definite: refused, not solved
            assert info > 0 and want_info == info
            return
        assert info == 0 and got.shape == (n,) and got.tobytes() == want.tobytes()
        if n <= 513:
            ref = np.linalg.solve(np.diag(d) + np.diag(e, 1) + np.diag(e, -1), b)
        else:                               # a dense n = 4097 matrix is 134 MB: banded LU
            ref = scipy.linalg.solve_banded((1, 1), np.array([np.r_[0.0, e], d, np.r_[e, 0.0]]), b)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name,index", [("e", 1), ("e", -1), ("d", 0), ("d", 32),
                                            ("e", 0), ("e", -2), ("b", 0), ("b", -1)])
    def test_non_finite_entry_refused(self, name, index, value, monkeypatch):
        # whichever entry of the system ptsv is handed goes bad, the check,
        # which recomputes the residual from the solve's own inputs, refuses x
        real = ns1d.solver.solve_banded

        def poisoned(*arrays, **flags):
            arrays = dict(zip(("d", "e", "b"), (a.copy() for a in arrays)))
            arrays[name][index] = value
            return real(*arrays.values(), **flags)

        monkeypatch.setattr(ns1d.solver, "solve_banded", poisoned)
        with np.errstate(all="ignore"), pytest.raises(NewtonDivergenceError):
            diffuse(*velocity_system(65))

    def test_singular_system_refused(self):
        # c = 0 and a = 0: a zero diagonal, so ptsv meets a non-positive pivot in row 1
        x_star, grad_star, a = velocity_system(9)
        with pytest.raises(NewtonDivergenceError, match="not positive definite: pivot 1$"):
            diffuse(x_star, grad_star, np.zeros_like(a), c=0.0)

    def test_non_finite_velocity_system_refused(self):
        g = build_grid(8.0, 64)
        s = gauss_state(g, with_u=True)
        model = GasModel(5 / 3, alpha=0.2, h=HProfile.power_sum(1, 1))
        s.u[g.ghost_depth + 10] = np.nan
        with np.errstate(invalid="ignore"), \
                pytest.raises(NewtonDivergenceError, match="residual nan"):
            half = make_stage(s, model, g)
            backward_euler_velocity(half, 1e-2, half.u.copy())

    def test_non_finite_theta_system_refused(self):
        g = build_grid(8.0, 64)
        s = gauss_state(g)
        model = GasModel(5 / 3, alpha=0.2, h=HProfile.power_sum(1, 1))
        s.theta[g.ghost_depth + 10] = np.inf
        with np.errstate(invalid="ignore"), \
                pytest.raises(NewtonDivergenceError, match="residual nan"):
            half = make_stage(s, model, g)
            backward_euler_theta(half, 1e-2, half.theta.copy())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", ["first", "interior", "last"])
    @pytest.mark.parametrize("field", ["a", "x_star", "grad_star"])
    def test_non_finite_input_refused(self, field, position, value):
        inputs = dict(zip(("x_star", "grad_star", "a"), velocity_system(65)))
        array = inputs[field]
        array[{"first": 0, "interior": len(array) // 2, "last": -1}[position]] = value
        with np.errstate(all="ignore"), pytest.raises(NewtonDivergenceError):
            diffuse(**inputs)

    def test_writes_only_the_unknowns_of_its_destination(self):
        # the correction is added into x[lo:hi]; x*, grad*, a and the ghosts keep their bits
        x_star, grad_star, a = velocity_system(65)
        inputs = [array.tobytes() for array in (x_star, grad_star, a)]
        grid = build_grid(0.05 * (len(x_star) - 5), len(x_star) - 5)
        x = x_star.copy()
        out, iters, _ = _implicit_diffusion(x, x_star, grad_star, a, 1.0, 0.5, grid, "velocity")
        assert out is x and iters == 1
        assert [array.tobytes() for array in (x_star, grad_star, a)] == inputs
        lo, hi = grid.ghost_depth, len(x) - grid.ghost_depth
        assert x[:lo].tobytes() == x_star[:lo].tobytes()
        assert x[hi:].tobytes() == x_star[hi:].tobytes()
        assert np.all(x[lo:hi] != x_star[lo:hi])
        assert x.tobytes() == diffuse(x_star, grad_star, a)[0].tobytes()

    def test_half_stage_unwritten(self):
        g, model = build_grid(8.0, 64), GasModel(5 / 3, alpha=0.2, h=HProfile.power_sum(1, 1))
        half = make_stage(gauss_state(g, a=0.4, with_u=True), model, g)
        names = ("v", "u", "theta", "ux", "mu_v", "kappa_v", "theta_x")
        before = {name: getattr(half, name).copy() for name in names}
        for solve, x in ((backward_euler_velocity, half.u), (backward_euler_theta, half.theta)):
            solve(half, 50.0 * stable_dt(half, model, g, CFG), x.copy())
        for name in names:
            assert getattr(half, name).tobytes() == before[name].tobytes(), name

    @pytest.mark.parametrize("step", [step_explicit, step_imex], ids=["explicit", "imex"])
    def test_whole_step_leaves_its_input_and_rates_unwritten(self, step, monkeypatch):
        # the step's sums are formed in place, on fresh vectors: one forced dt halving
        # later, no array of s0 or of rhs(s0), and no rate the step formed, has moved
        g, model = build_grid(8.0, 64), GasModel(5 / 3, alpha=0.2, h=HProfile.power_sum(1, 1))
        s0 = make_stage(gauss_state(g, a=0.4, with_u=True), model, g)
        names = ("v", "u", "theta", "ux", "mu_v", "kappa_v", "theta_x", "y")
        before = {name: getattr(s0, name).tobytes() for name in names}
        rates_before = [r.tobytes() for r in rhs(s0, model, g)]
        real_rates, real_trial = ns1d.solver._rates, ns1d.solver._trial
        formed, trials = [], []

        def recorded(*args):
            rates = real_rates(*args)
            formed.append((rates, rates.tobytes()))
            return rates

        def refuse_second(*args):           # the first attempt fails at its new state
            out = real_trial(*args)
            trials.append(1)
            if len(trials) == 2:
                raise PositivityError("on purpose")
            return out

        monkeypatch.setattr(ns1d.solver, "_rates", recorded)
        monkeypatch.setattr(ns1d.solver, "_trial", refuse_second)
        _, stats = step(s0, model, g, 0.5 * stable_dt(s0, model, g, CFG))
        assert stats.rejected_substeps == 1 and len(formed) == (3 if step is step_explicit else 1)
        for rates, bits in formed:
            assert rates.tobytes() == bits
        for name in names:
            assert getattr(s0, name).tobytes() == before[name], name
        assert [r.tobytes() for r in rhs(s0, model, g)] == rates_before

    def test_stage_of_a_state_is_its_copy(self):
        # a stage built from a plain State holds its own flat copy of the arrays
        g, model = build_grid(8.0, 64), GasModel(5 / 3, alpha=0.2, h=HProfile.power_sum(1, 1))
        state = gauss_state(g, a=0.4, with_u=True)
        stage = make_stage(state, model, g)
        names = ("v", "u", "theta", "ux", "mu_v", "kappa_v", "theta_x", "y")
        before = {name: getattr(stage, name).tobytes() for name in names}
        for name in ("v", "u", "theta"):
            getattr(state, name)[:] = 7.0
        for name in names:
            assert getattr(stage, name).tobytes() == before[name], name
        assert stage.y.tobytes() == np.concatenate((stage.v, stage.theta, stage.u)).tobytes()
        assert stage.v.base is stage.y and stage.u.base is stage.y

    def test_imex_step_solves_once_per_theta_pass_plus_velocity(self, monkeypatch):
        # what the trace reports as solver.tridiag.solves_per_step
        g = build_grid(8.0, 64)
        s = gauss_state(g, a=0.4, with_u=True)
        model = GasModel(5 / 3, alpha=0.2, h=HProfile.power_sum(1, 1))
        real_solve, real_theta = ns1d.solver.solve_banded, ns1d.solver.backward_euler_theta
        solves, theta_iters = [], []

        def counted_solve(*args, **flags):
            solves.append(1)
            return real_solve(*args, **flags)

        def recorded_theta(*args):
            out = real_theta(*args)
            theta_iters.append(out[1])
            return out

        monkeypatch.setattr(ns1d.solver, "solve_banded", counted_solve)
        monkeypatch.setattr(ns1d.solver, "backward_euler_theta", recorded_theta)
        _, stats = step_imex(s, model, g, 50.0 * stable_dt(s, model, g, CFG))
        # the temperature solve is linear: one pass, one solve, like the velocity's
        assert stats.rejected_substeps == 0 and theta_iters == [1]
        assert len(solves) == 2


TRANSPORT_MODELS = [GasModel(5 / 3, mu_tilde=1.3, kappa_tilde=0.7, alpha=alpha, h=h)
                    for alpha in (0.0, 0.1, -0.2)
                    for h in (HProfile.power_sum(1, 1), HProfile.constant(1.7))]


class TestBackwardEulerTheta:
    """kappa is frozen at the half stage: no h(v), theta^alpha or transport call in the solve."""

    def setup_method(self):
        self.g = build_grid(8.0, 64)
        self.s = gauss_state(self.g, a=0.4, with_u=True)

    def dt(self, model):
        return 50.0 * stable_dt(self.s, model, self.g, CFG)

    def test_first_pass_reads_the_stage(self, monkeypatch):
        # kappa/v and theta_x of the half state are the stage's: the one pass
        # takes no theta^alpha and writes no array of the stage
        model = TRANSPORT_MODELS[2]
        half, dt = make_stage(self.s, model, self.g), self.dt(model)
        before = {name: getattr(half, name).copy() for name in ("v", "u", "theta", "kappa_v")}
        real, calls = ns1d.constitutive._theta_pow, []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(ns1d.constitutive, "_theta_pow", counted)
        _, iters, _ = backward_euler_theta(half, dt, half.theta.copy())
        assert iters == 1 and calls == []
        for name, old in before.items():
            assert np.array_equal(getattr(half, name), old), name

    def test_imex_step_evaluates_h_at_most_three_times(self, monkeypatch):
        profile, arrays = HProfile.power_sum(1, 1), []

        def counted_h(v):
            arrays.append(np.ndim(v) > 0)
            return profile.h(v)

        def refused(*args):
            raise AssertionError("transport_derivatives called from the solver")

        model = GasModel(5 / 3, alpha=0.1, h=dataclasses.replace(profile, h=counted_h))
        s0, dt = make_stage(self.s, model, self.g), self.dt(model)
        monkeypatch.setattr(ns1d.solver, "transport_derivatives", refused)
        arrays.clear()
        _, stats = step_imex(s0, model, self.g, dt)
        assert stats.rejected_substeps == 0
        assert sum(arrays) <= 3             # half stage, new stage


def dense_correction(half, dt, name):
    """(x*, x - x*) for the implicit solve c*(x - x*) = dt*D x: the correction
    is np.linalg.solve of c - dt*D applied to dt*D(x*), where D is the solve's
    diffusion operator written with the grid's stencils, and its matrix is
    assembled column by column on the interior unknowns."""
    g = half.grid
    if name == "velocity":
        a = half.mu_v
        c, x_star, interior = 1.0, half.u, g.node_interior

        def D(x):
            return g.node_diff(a * g.cell_diff(x))
    else:
        b = g.face_average(half.kappa_v)
        c, x_star, interior = half.model.cv, half.theta, g.cell_interior

        def D(x):
            return g.cell_diff(b * g.node_diff(x))
    columns = []
    for k in np.arange(x_star.size)[interior]:
        e = np.zeros_like(x_star)
        e[k] = 1.0
        columns.append(D(e)[interior])
    matrix = c * np.eye(len(columns)) - dt * np.array(columns).T
    correction = np.zeros_like(x_star)
    correction[interior] = np.linalg.solve(matrix, dt * D(x_star)[interior])
    return x_star, correction


SOLVES = {"velocity": backward_euler_velocity, "theta": backward_euler_theta}


class TestImplicitSolves:
    """Both implicit solves: one linear tridiagonal system each, coefficients
    frozen at the half stage."""

    MODEL = GasModel(5 / 3, mu_tilde=1.3, kappa_tilde=0.7, alpha=0.3,
                     h=HProfile.power_sum(1, 1))

    @pytest.mark.parametrize("name", sorted(SOLVES))
    @pytest.mark.parametrize("r", [1e-2, 1.0, 1e2, 1e4])
    def test_equals_dense_solve(self, name, r):
        g = build_grid(8.0, 64)
        rng = np.random.default_rng(7)
        for _ in range(3):                  # random positive coefficients
            s = apply_farfield(State(0.0, rng.uniform(0.5, 2.0, g.ncells),
                                     rng.standard_normal(g.nnodes),
                                     rng.uniform(0.5, 2.0, g.ncells)), g)
            half = make_stage(s, self.MODEL, g)
            x = half.u.copy() if name == "velocity" else half.theta.copy()
            got, iters, residual = SOLVES[name](half, r * g.dx ** 2, x)
            x_star, want = dense_correction(half, r * g.dx ** 2, name)
            assert iters == 1 and residual <= BACKWARD_ERROR_TOL
            assert np.max(np.abs(got - x_star - want)) <= 1e-12 * np.max(np.abs(want))

    def dip_stage(self):
        """An interior minimum of 1e-6 beside values of 10 (alpha = 1, so kappa
        up to 14), and the dt of r = dt/dx^2 = 1e4."""
        g = build_grid(8.0, 64)
        model = dataclasses.replace(self.MODEL, alpha=1.0)
        interior = np.arange(g.ncells)[g.cell_interior]
        theta = np.ones(g.ncells)
        theta[interior] = 10.0
        theta[interior[20]] = 1e-6
        u = np.zeros(g.nnodes)
        u[g.node_interior] = 10.0 * np.sin(np.arange(g.N + 1))
        u[g.ghost_depth + 20] = -1e-6
        half = make_stage(apply_farfield(State(0.0, np.ones(g.ncells), u, theta), g), model, g)
        return half, 1e4 * g.dx ** 2

    def test_maximum_principle(self):
        # each result stays between the extremes of its x* and the far field
        half, dt = self.dip_stage()
        theta, u = half.theta, half.u
        theta_new, _, _ = backward_euler_theta(half, dt, theta.copy())
        u_new, _, _ = backward_euler_velocity(half, dt, u.copy())
        assert min(theta.min(), 1.0) <= theta_new.min() and theta_new.max() <= max(theta.max(), 1.0)
        assert min(u.min(), 0.0) <= u_new.min() and u_new.max() <= max(u.max(), 0.0)
        assert theta_new[half.grid.ghost_depth + 20] > 1.0    # the dip is filled from its neighbours

    def test_large_r_exact_solve_accepted(self):
        # terms of dt*D(theta) reach 1e6 here, so round-off alone leaves an absolute
        # residual near 5e-10; relative to ||A||*||x|| it is round-off
        half, dt = self.dip_stage()
        for name, solve in SOLVES.items():
            x = half.u.copy() if name == "velocity" else half.theta.copy()
            got, _, backward_error = solve(half, dt, x)
            x_star, want = dense_correction(half, dt, name)
            assert 0.0 < backward_error <= BACKWARD_ERROR_TOL
            assert np.max(np.abs(got - x_star - want)) <= 1e-12 * np.max(np.abs(want))

    def test_counts_per_attempt(self, monkeypatch):
        # the first attempt is refused at its new state, so the step makes two;
        # each makes 2 solves, 2 transport calls and 2 array evaluations of h,
        # and neither solve evaluates h or theta^alpha
        profile, events, inside = HProfile.power_sum(1, 1), [], []

        def counted_h(v):
            if np.ndim(v):
                events.append(("h", bool(inside)))
            return profile.h(v)

        def counted(name, fn):
            def wrapped(*args, **flags):
                events.append((name, bool(inside)))
                return fn(*args, **flags)
            return wrapped

        def marked(fn):
            def wrapped(*args):
                inside.append(1)
                try:
                    return fn(*args)
                finally:
                    inside.pop()
            return wrapped

        real_trial, trials = ns1d.solver._trial, []

        def refuse_second(*args):           # the first attempt's new state
            out = real_trial(*args)
            trials.append(1)
            if len(trials) == 2:
                events.append(("refused", False))
                raise PositivityError("on purpose")
            return out

        g = build_grid(8.0, 64)
        model = GasModel(5 / 3, alpha=0.1, h=dataclasses.replace(profile, h=counted_h))
        s0 = make_stage(gauss_state(g, a=0.4, with_u=True), model, g)
        dt = 50.0 * stable_dt(s0, model, g, CFG)
        events.clear()
        for name in ("solve_banded", "transport"):
            monkeypatch.setattr(ns1d.solver, name, counted(name, getattr(ns1d.solver, name)))
        monkeypatch.setattr(ns1d.constitutive, "_theta_pow",
                            counted("theta_pow", ns1d.constitutive._theta_pow))
        for name in SOLVES.values():
            monkeypatch.setattr(ns1d.solver, name.__name__, marked(name))
        monkeypatch.setattr(ns1d.solver, "_trial", refuse_second)
        _, stats = step_imex(s0, model, g, dt)
        assert stats.rejected_substeps == 1
        names = [name for name, _ in events]
        assert {name: names.count(name) for name in set(names)} == {
            "solve_banded": 4, "transport": 4, "h": 4, "theta_pow": 4, "refused": 1}
        assert not any(in_solve for name, in_solve in events
                       if name in ("h", "theta_pow", "transport"))


def longhand_implicit_diffusion(x, x_star, grad_star, a, c, dt, grid, name):
    """_implicit_diffusion with its backward-error check written the long way: the
    residual's r = dt/dx**2 applied as /dx, /dx and *dt, and max|x*| over an |x*|
    temporary.  The same system and solve; the reference for the check."""
    dx, lo = grid.dx, grid.ghost_depth
    hi = lo + len(a) - 1
    r = dt / dx ** 2
    flux = np.multiply(a, grad_star)
    b = np.subtract(flux[1:], flux[:-1])
    b /= dx
    b *= dt
    d = np.add(a[:-1], a[1:])
    d *= r
    d += c
    correction, info = ns1d.solver.solve_banded(d, np.multiply(a[1:-1], -r), b, overwrite_d=1,
                                                overwrite_e=1, overwrite_b=1)[2:]
    if info > 0:
        raise NewtonDivergenceError(f"{name} system is not positive definite: pivot {info}")
    x[lo:hi] += correction
    np.subtract(x[lo:hi + 1], x[lo - 1:hi], out=flux)
    flux /= dx
    flux *= a
    np.subtract(flux[1:], flux[:-1], out=d)
    d /= dx
    d *= dt
    np.subtract(x[lo:hi], x_star[lo:hi], out=b)
    b *= c
    b -= d
    res = float(np.maximum.reduce(np.abs(b, out=b)))
    bound = (c + 4.0 * r * float(np.maximum.reduce(a))) * float(np.maximum.reduce(np.abs(x_star)))
    if not res <= BACKWARD_ERROR_TOL * bound < np.inf:
        raise NewtonDivergenceError(f"{name} diffusion solve left residual {res:.3e}: backward "
                                    f"error above {BACKWARD_ERROR_TOL:.0e} (B = {bound:.3e})")
    return x, 1, res / bound if res else 0.0


def diffusion_outcome(solve, x, *args):
    """('accepted', bits of x, backward error) or ('refused', exception type, message
    with its residual masked, B kept) of solve(x, *args), run on a copy of x."""
    try:
        out, _, backward_error = solve(x.copy(), *args)
    except NewtonDivergenceError as error:
        return "refused", type(error), re.sub(r"residual \S+:", "residual #:", str(error))
    return "accepted", out.tobytes(), backward_error


class TestLeanBackwardErrorCheck:
    """The backward error of _implicit_diffusion, with the residual scaled by r once and
    max|x*| taken as two signed reductions, against the check written the long way:
    the same bits of x, the same verdicts and the backward error to a few ulp."""

    MODEL = TestImplicitSolves.MODEL

    @staticmethod
    def captured_calls(half, dt, monkeypatch):
        """The arguments of the _implicit_diffusion calls the two solves make on half."""
        calls = []
        monkeypatch.setattr(ns1d.solver, "_implicit_diffusion",
                            lambda *args: calls.append(args) or (args[0], 1, 0.0))
        for name, solve in SOLVES.items():
            solve(half, dt, (half.u if name == "velocity" else half.theta).copy())
        monkeypatch.undo()
        return calls

    def assert_same_outcome(self, args):
        got = diffusion_outcome(_implicit_diffusion, *args)
        want = diffusion_outcome(longhand_implicit_diffusion, *args)
        assert got[:2] == want[:2]
        if got[0] == "refused":
            assert got[2] == want[2]
        else:
            # both are residuals over the same B, so this is 4 ulp of B
            assert abs(got[2] - want[2]) <= 4 * np.finfo(float).eps
        return got[0]

    def seeded_stages(self, alpha):
        g = build_grid(7.3, 61)             # dx = 0.2393...: dividing by it is not exact
        rng = np.random.default_rng(7)
        model = dataclasses.replace(self.MODEL, alpha=alpha)
        for _ in range(3):
            # u reaches further below 0 than above it, so max|u*| is -min u*
            s = apply_farfield(State(0.0, rng.uniform(0.5, 2.0, g.ncells),
                                     rng.uniform(-2.0, 1.0, g.nnodes),
                                     rng.uniform(0.5, 2.0, g.ncells)), g)
            yield make_stage(s, model, g)

    @pytest.mark.parametrize("alpha", [-0.2, 0.0, 0.3])
    @pytest.mark.parametrize("r", [1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4])
    def test_agrees_with_the_longhand_check(self, alpha, r, monkeypatch):
        # both solves, so c = 1 (velocity) and c = cv (theta)
        for half in self.seeded_stages(alpha):
            calls = self.captured_calls(half, r * half.grid.dx ** 2, monkeypatch)
            assert [args[4] for args in calls] == [1.0, half.model.cv]
            for args in calls:
                assert self.assert_same_outcome(args) == "accepted"

    @pytest.mark.parametrize("alpha", [-0.2, 0.0, 0.3])
    def test_same_verdict_on_perturbed_solves(self, alpha, monkeypatch):
        # the solve's correction scaled by 1 + delta: backward errors from round-off up to
        # far above the tolerance, accepted and refused alike by both checks
        real, half = ns1d.solver.solve_banded, next(self.seeded_stages(alpha))
        verdicts = set()
        for r in [1e-2, 1.0, 1e4]:
            calls = self.captured_calls(half, r * half.grid.dx ** 2, monkeypatch)
            for delta in np.logspace(-16, -6, 21):

                def scaled(*arrays, **flags):
                    out = real(*arrays, **flags)
                    return (*out[:2], out[2] * (1.0 + delta), out[3])

                monkeypatch.setattr(ns1d.solver, "solve_banded", scaled)
                verdicts |= {self.assert_same_outcome(args) for args in calls}
                monkeypatch.undo()
        assert verdicts == {"accepted", "refused"}

    def test_large_r_exact_solve(self, monkeypatch):
        # test_large_r_exact_solve_accepted's dip at r = 1e4, where round-off alone
        # leaves an absolute residual near 5e-10
        half, dt = TestImplicitSolves().dip_stage()
        for args in self.captured_calls(half, dt, monkeypatch):
            assert self.assert_same_outcome(args) == "accepted"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", [1, 2, 3])     # x*, grad*, a
    def test_non_finite_system(self, field, value, monkeypatch):
        half = next(self.seeded_stages(0.3))
        for args in self.captured_calls(half, half.grid.dx ** 2, monkeypatch):
            args = [arg.copy() if isinstance(arg, np.ndarray) else arg for arg in args]
            args[field][len(args[field]) // 2] = value
            with np.errstate(all="ignore"):
                assert self.assert_same_outcome(args) == "refused"

    def test_singular_system(self):
        # c = 0 and a = 0: both refuse at the first pivot, before the check
        x_star, grad_star, a = velocity_system(9)
        grid = build_grid(0.05 * (len(x_star) - 5), len(x_star) - 5)
        args = (x_star, x_star, grad_star, np.zeros_like(a), 0.0, 0.5, grid, "velocity")
        assert self.assert_same_outcome(args) == "refused"


class TestSolverConfig:
    @pytest.mark.parametrize("field,value", [("dt_max", math.nan)])
    def test_refused(self, field, value):
        with pytest.raises(ArgumentError, match=field):
            SolverConfig(**{field: value})


class TestAdvance:
    def test_tiny_interval_takes_a_step(self):
        g = build_grid(2.0, 32)
        m = GasModel(5 / 3)
        for t0, t_end in ((0.0, 1e-300), (0.0, 1e-13), (1.0, 1.0 + 1e-13)):
            s0 = gauss_state(g, a=0.1)
            s0.t = t0
            s, stats = advance(s0, m, g, CFG, t_end)
            assert stats.steps == 1 and s.t == t_end

    def test_failure_carries_the_accepted_steps(self):
        g = build_grid(4.0, 64)
        m = GasModel(5 / 3)

        def fail_fourth(state, stats):
            seen.append(state.t)
            if len(seen) == 4:
                raise PositivityError("on purpose")

        seen = []
        with pytest.raises(PositivityError) as info:
            advance(gauss_state(g, a=0.1), m, g, CFG, 0.05, on_step=fail_fourth)
        assert info.value.steps == 4
        with pytest.raises(PositivityError) as info:  # refused before any step
            advance(State(0.0, -State.equilibrium(g).v, np.zeros(g.nnodes),
                          State.equilibrium(g).theta), m, g, CFG, 0.05)
        assert info.value.steps == 0

    @pytest.mark.parametrize("integrator, limit", [("explicit", stable_dt),
                                                   ("imex", advective_dt)])
    def test_first_step_is_step_size(self, integrator, limit):
        # the step a harness checks before a run is the one advance takes
        g = build_grid(4.0, 64)
        m = GasModel(5 / 3)
        cfg = SolverConfig(integrator=integrator)
        s0 = gauss_state(g, a=0.1)
        taken = []
        advance(s0, m, g, cfg, 0.1, on_step=lambda s, stats: taken.append(stats.dt_used))
        assert taken[0] == step_size(s0, m, g, cfg) == limit(s0, m, g, cfg) < 0.1

    def test_t_end_before_the_state_refused(self):
        g = build_grid(2.0, 32)
        s0 = gauss_state(g, a=0.1)
        s0.t = 1.0
        with pytest.raises(ArgumentError, match="precedes state time"):
            advance(s0, GasModel(5 / 3), g, CFG, 0.5)

    def test_zero_interval(self):
        g = build_grid(2.0, 32)
        m = GasModel(5 / 3)
        s0 = gauss_state(g, a=0.1)
        s, stats = advance(s0.copy(), m, g, CFG, s0.t)
        assert stats.steps == 0
        assert np.array_equal(s.v, s0.v)

    def test_landing_times_made_one_at_a_time(self):
        # a cadence of 1e-300 over [0, 1] has 1e300 landing times; none is built ahead
        first = list(itertools.islice(_landing_times(0.0, 1.0, 1e-300, 1e-12), 3))
        assert first == [1e-300, 2e-300, 3e-300]
        t0, t_end, every = 0.3, 2.0, 0.1
        want = []
        k = 1
        while t0 + k * every < t_end - 1e-12 * t_end:
            want.append(t0 + k * every)
            k += 1
        assert list(_landing_times(t0, t_end, every, 1e-12 * t_end)) == want + [t_end]
        assert list(_landing_times(t0, t_end, None, 0.0)) == [t_end]
        assert list(_landing_times(t0, t0, every, 0.0)) == []

    def test_equilibrium_many_steps(self):
        g = build_grid(2.0, 64)
        m = GasModel(5 / 3, h=HProfile.power_sum(1, 1))
        cfg = dataclasses.replace(CFG, dt_max=1e-4)
        s, stats = advance(State.equilibrium(g), m, g, cfg, 0.1)
        assert stats.steps == 1000
        assert np.max(np.abs(s.v - 1.0)) <= 1e-13
        assert np.max(np.abs(s.u)) <= 1e-13
        assert np.max(np.abs(s.theta - 1.0)) <= 1e-13

    def test_observer_cadence(self):
        g = build_grid(4.0, 64)
        m = GasModel(5 / 3)
        times = []
        advance(gauss_state(g, a=0.1), m, g, CFG, 0.05,
                observer=lambda s: times.append(s.t), output_every=0.01)
        assert times == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04, 0.05], abs=1e-14)

    def test_poisoned_first_new_state_refused_and_the_run_finishes(self, monkeypatch):
        # an inf in theta would make the next stable_dt 0 and burn every dt halving
        g, m = build_grid(4.0, 64), GasModel(5 / 3)
        real, seen = ns1d.solver.apply_farfield, []

        def poison_first_new_state(state, grid):
            if len(seen) == 1:              # the first step pins its predictor, then this
                state.theta[grid.ghost_depth + 3] = np.inf
            seen.append(state.t)
            return real(state, grid)

        monkeypatch.setattr(ns1d.solver, "apply_farfield", poison_first_new_state)
        s, stats = advance(gauss_state(g, a=0.1), m, g, CFG, 0.05)
        assert s.t == 0.05 and stats.rejected_substeps == 1
        assert all(np.isfinite(getattr(s, name)).all() for name in ("v", "u", "theta"))

    @pytest.mark.parametrize("integrator", ["explicit", "imex"])
    def test_ghost_depth_changes_no_output(self, integrator):
        # the stencils reach one ghost deep, so a deeper halo is only more far field
        m, cfg = GasModel(5 / 3, alpha=0.05), SolverConfig(integrator=integrator)
        got = []
        for depth in (2, 3):
            g = build_grid(8.0, 64, depth)
            coll = DiagnosticsCollector(m, g)
            s, _ = advance(gauss_state(g, with_u=True), m, g, cfg, 0.1, observer=coll.observe,
                           on_step=coll.on_step, output_every=0.05)
            got.append((s.v[g.cell_interior].tobytes(), s.u[g.node_interior].tobytes(),
                        s.theta[g.cell_interior].tobytes(),
                        np.array([r.csv_row() for r in coll.records]).tobytes()))
        assert got[0] == got[1]

    def test_bitwise_determinism(self):
        g = build_grid(8.0, 128)
        m = GasModel(5 / 3, alpha=0.05, h=HProfile.power_sum(1, 1))
        outs = []
        for _ in range(2):
            s, _ = advance(gauss_state(g), m, g, CFG, 0.2)
            outs.append(s)
        assert np.array_equal(outs[0].v, outs[1].v)
        assert np.array_equal(outs[0].u, outs[1].u)
        assert np.array_equal(outs[0].theta, outs[1].theta)


class TestConservationAndStructure:
    def test_mass_momentum_conserved_over_run(self):
        g = build_grid(20.0, 256)
        m = GasModel(5 / 3, alpha=0.1, h=HProfile.power_sum(1, 1))
        s = gauss_state(g, with_u=True)
        ci, ni = g.cell_interior, g.node_interior
        mass0 = np.sum(s.v[ci] - 1.0) * g.dx
        mom0 = np.sum(s.u[ni]) * g.dx
        s, _ = advance(s, m, g, CFG, 0.5)
        assert abs(np.sum(s.v[ci] - 1.0) * g.dx - mass0) <= 1e-12 * abs(mass0)
        assert abs(np.sum(s.u[ni]) * g.dx - mom0) <= 1e-12 * max(abs(mom0), 1.0)

    def test_galilean_invariance_alpha0_constant_h(self):
        # adding a constant to u leaves the v, theta evolution unchanged in
        # mass coordinates; compare a central window before boundary
        # influence arrives (stencil widens 2 cells per step)
        g = build_grid(16.0, 256)
        m = GasModel(5 / 3, alpha=0.0, h=HProfile.constant(1.0))
        nsteps = 20
        dt = stable_dt(gauss_state(g), m, g, CFG)

        def evolve(shift):
            s = gauss_state(g, a=0.2)
            s.u = s.u + shift
            for _ in range(nsteps):
                s, _ = step_explicit(s, m, g, dt)
            return s

        s0, s1 = evolve(0.0), evolve(0.35)
        c = g.ncells // 2
        win = slice(c - 40, c + 40)
        assert np.allclose(s0.v[win], s1.v[win], rtol=0, atol=5e-14)
        assert np.allclose(s0.theta[win], s1.theta[win], rtol=0, atol=5e-14)

    def test_total_entropy_functional_nonincreasing(self):
        from ns1d.diagnostics import eta_total
        g = build_grid(16.0, 256)
        m = GasModel(5 / 3, alpha=0.05, h=HProfile.power_sum(1, 1))
        s = gauss_state(g)
        vals = [eta_total(s, m, g)]
        for _ in range(40):
            s, _ = advance(s, m, g, CFG, s.t + 0.05)
            vals.append(eta_total(s, m, g))
        slack = 1e-8  # O(dt^2 + dx^2) identity residual
        assert all(b <= a + slack for a, b in zip(vals, vals[1:]))


# (field, pinned): an inf written into the first attempt's predictor (0) or new state (1)
POISONED = [pytest.param(field, 0, id=field) for field in ("v", "u", "theta")] + [
    pytest.param(field, 1, id=f"{field}-new-state") for field in ("v", "u", "theta")]


class TestStage:
    """One stage per state: advance reuses it for dt, k1 and the dissipation."""

    MODEL = GasModel(5 / 3, alpha=0.05, h=HProfile.power_sum(1, 1))

    def test_advance_equals_hand_loop_of_public_calls(self):
        g, m = build_grid(8.0, 64), self.MODEL
        s0, t_end = gauss_state(g, with_u=True), 0.1
        cfg = SolverConfig(cfl_parabolic=0.4)   # more than 10 steps to t_end
        coll = DiagnosticsCollector(m, g)
        got, stats = advance(s0.copy(), m, g, cfg, t_end,
                             observer=coll.observe, on_step=coll.on_step)

        # plain States, so that every public call builds its own stage
        s = s0.copy()
        rate, accum = dissipation_rate(s, m, g), 0.0
        while s.t < t_end - 1e-12:
            dt = min(stable_dt(s, m, g, cfg), t_end - s.t)
            t_prev = s.t
            out, _ = step_explicit(s, m, g, dt)
            s = State(out.t, out.v, out.u, out.theta)
            new_rate = dissipation_rate(s, m, g)
            accum += 0.5 * (new_rate + rate) * (s.t - t_prev)
            rate = new_rate
        s.t = t_end

        assert stats.steps > 10
        assert got.t == s.t
        assert np.array_equal(got.v, s.v)
        assert np.array_equal(got.u, s.u)
        assert np.array_equal(got.theta, s.theta)
        assert coll.records[-1].dissipation_accum == accum

    @pytest.mark.parametrize("observed", [False, True], ids=["unobserved", "observed"])
    def test_two_transport_calls_per_accepted_step(self, observed, monkeypatch):
        # observed: the records read the stage advance built, so the t0 rate builds none
        g, m = build_grid(8.0, 64), self.MODEL
        real, calls = ns1d.solver.transport, []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(ns1d.solver, "transport", counted)
        coll = DiagnosticsCollector(m, g)
        cfg = SolverConfig(cfl_parabolic=0.4)   # more than 10 steps to t = 0.1
        _, stats = advance(gauss_state(g), m, g, cfg, 0.1, on_step=coll.on_step,
                           observer=coll.observe if observed else None)
        assert stats.steps > 10 and stats.rejected_substeps == 0
        assert len(coll.records) == (2 if observed else 0)
        assert len(calls) == 2 * stats.steps + 1

    @pytest.mark.parametrize("floor", [0.0, 1e-8], ids=["plain", "trial"])
    def test_one_min_reduction_per_field(self, floor, monkeypatch):
        # transport's floor is the stage's one positivity check
        g, m = build_grid(8.0, 64), self.MODEL
        real, calls = ns1d.constitutive._all_above, []

        def counted(arr, bound):
            calls.append(bound)
            return real(arr, bound)

        monkeypatch.setattr(ns1d.constitutive, "_all_above", counted)
        s = gauss_state(g)
        Stage(s.t, s.y, m, g, floor)
        assert calls == [floor, floor]

    def test_imex_solves_read_the_half_stage(self, monkeypatch):
        # the half state's stage makes one transport call, the new state's the
        # other; neither implicit solve makes its own
        g, m = build_grid(8.0, 64), self.MODEL
        s0 = make_stage(gauss_state(g, a=0.4, with_u=True), m, g)
        real, calls, inside = ns1d.solver.transport, [], []

        def counted(*args):
            calls.append(list(inside))
            return real(*args)

        def marked(name):
            solve = getattr(ns1d.solver, name)

            def wrapped(*args):
                inside.append(name)
                try:
                    return solve(*args)
                finally:
                    inside.pop()
            return wrapped

        for name in ("backward_euler_velocity", "backward_euler_theta"):
            monkeypatch.setattr(ns1d.solver, name, marked(name))
        monkeypatch.setattr(ns1d.solver, "transport", counted)
        _, stats = step_imex(s0, m, g, 50.0 * stable_dt(s0, m, g, CFG))
        assert stats.rejected_substeps == 0
        assert calls == [[], []]

    def test_nan_predictor_rejected_and_dt_halved(self, monkeypatch):
        g, m = build_grid(8.0, 64), self.MODEL
        s0 = gauss_state(g)
        dt = stable_dt(s0, m, g, CFG)
        real, seen = ns1d.solver.apply_farfield, []

        def poison_first_candidate(state, grid):
            if not seen:                    # the first candidate is the predictor
                state.theta[grid.cell_interior][3] = np.nan
            seen.append(state.t)
            return real(state, grid)

        monkeypatch.setattr(ns1d.solver, "apply_farfield", poison_first_candidate)
        out, stats = step_explicit(s0, m, g, dt)
        assert stats.rejected_substeps == 1 and stats.dt_used == 0.5 * dt
        monkeypatch.undo()
        ref, _ = step_explicit(s0, m, g, 0.5 * dt)
        assert np.array_equal(out.theta, ref.theta)

    @pytest.mark.parametrize("field, pinned", POISONED)
    @pytest.mark.filterwarnings("error")
    def test_inf_imex_half_state_rejected_and_dt_halved(self, field, pinned, monkeypatch):
        # an inf passes the positivity check's min-reductions; the solves must not see it,
        # and a new state holding one is refused like the half state
        g, m = build_grid(8.0, 64), self.MODEL
        s0 = gauss_state(g, with_u=True)
        dt = 0.5 * stable_dt(s0, m, g, CFG)
        real, seen = ns1d.solver.apply_farfield, []

        def poison_one_state(state, grid):
            if len(seen) == pinned:         # step_imex pins the half state, then the new state
                getattr(state, field)[grid.ghost_depth + 3] = np.inf
            seen.append(state.t)
            return real(state, grid)

        monkeypatch.setattr(ns1d.solver, "apply_farfield", poison_one_state)
        out, stats = step_imex(s0, m, g, dt)
        assert stats.rejected_substeps == 1 and stats.dt_used == 0.5 * dt
        monkeypatch.undo()
        ref, _ = step_imex(s0, m, g, 0.5 * dt)
        assert np.array_equal(out.theta, ref.theta) and np.array_equal(out.u, ref.u)

    @pytest.mark.parametrize("field, pinned", POISONED)
    @pytest.mark.filterwarnings("error")
    def test_inf_explicit_predictor_rejected_and_dt_halved(self, field, pinned, monkeypatch):
        # Heun's predictor is refused like the IMEX half state: rhs must not see the inf;
        # nor may the next step, so a new state holding one is refused too
        g, m = build_grid(8.0, 64), self.MODEL
        s0 = gauss_state(g, with_u=True)
        dt = 0.5 * stable_dt(s0, m, g, CFG)
        real, seen = ns1d.solver.apply_farfield, []

        def poison_one_state(state, grid):
            if len(seen) == pinned:         # step_explicit pins the predictor, then the new state
                getattr(state, field)[grid.ghost_depth + 3] = np.inf
            seen.append(state.t)
            return real(state, grid)

        monkeypatch.setattr(ns1d.solver, "apply_farfield", poison_one_state)
        out, stats = step_explicit(s0, m, g, dt)
        assert stats.rejected_substeps == 1 and stats.dt_used == 0.5 * dt
        monkeypatch.undo()
        ref, _ = step_explicit(s0, m, g, 0.5 * dt)
        for name in ("v", "u", "theta"):
            assert np.array_equal(getattr(out, name), getattr(ref, name)), name

    @pytest.mark.parametrize("step", [step_explicit, step_imex], ids=["explicit", "imex"])
    def test_one_wrap_per_trial_stage(self, step, monkeypatch):
        # _trial wraps the stage it returns once, and pins the ghosts of that stage itself
        g, m = build_grid(8.0, 64), self.MODEL
        s0 = make_stage(gauss_state(g, with_u=True), m, g)
        dt = 0.5 * stable_dt(s0, m, g, CFG)
        real_wrap, real_pin, wrapped, pinned = State.wrap, ns1d.solver.apply_farfield, [], []

        def counted_wrap(state, t, y):
            wrapped.append(state)
            return real_wrap(state, t, y)

        def recorded_pin(state, grid):
            pinned.append(state)
            return real_pin(state, grid)

        monkeypatch.setattr(State, "wrap", counted_wrap)
        monkeypatch.setattr(ns1d.solver, "apply_farfield", recorded_pin)
        out, stats = step(s0, m, g, dt)
        assert stats.rejected_substeps == 0
        assert len(wrapped) == len(pinned) == 2
        assert all(type(s) is Stage and s is w for s, w in zip(pinned, wrapped))
        assert out is pinned[-1]

    @pytest.mark.parametrize("step", [step_explicit, step_imex], ids=["explicit", "imex"])
    def test_one_fit_check_per_trial_state(self, step, monkeypatch):
        # a state meets its grid's check where it enters: on the step path each trial
        # state once, in apply_farfield, and no vector the step has built itself
        g, m = build_grid(8.0, 64), self.MODEL
        s0 = make_stage(gauss_state(g, with_u=True), m, g)
        dt = 0.5 * stable_dt(s0, m, g, CFG)
        real_fit, real_pin, fits, pinned = Grid.fit, ns1d.solver.apply_farfield, [], []

        def counted_fit(grid, y):
            fits.append(y.size)
            return real_fit(grid, y)

        def poison_first_new_state(state, grid):
            if len(pinned) == 1:            # the first attempt's new state: dt halves once
                state.theta[grid.ghost_depth + 3] = np.inf
            pinned.append(state.t)
            return real_pin(state, grid)

        monkeypatch.setattr(Grid, "fit", counted_fit)
        monkeypatch.setattr(ns1d.solver, "apply_farfield", poison_first_new_state)
        _, stats = step(s0, m, g, dt)
        assert stats.rejected_substeps == 1 and pinned == [s0.t + dt] * 2 + [s0.t + dt / 2] * 2
        assert fits == [g.size] * 4


def every_state(g, m):
    """(how, state) for every way of getting a state on g."""
    yield "constructor", gauss_state(g, with_u=True)
    yield "copy", gauss_state(g, with_u=True).copy()
    yield "equilibrium", State.equilibrium(g)
    for preset in ("constant", "gauss-pulse", "two-bump"):
        rc = dataclasses.replace(RunConfig(), preset=preset, grid_L=g.L, grid_N=g.N)
        yield f"initial data {preset}", make_initial_data(rc, g)
    yield "exact_state", exact_state(default_case(0.1), g, 0.2)
    yield "make_stage", make_stage(gauss_state(g, with_u=True), m, g)
    for integrator in ("explicit", "imex"):
        accepted = []
        advance(gauss_state(g, with_u=True), m, g, SolverConfig(integrator=integrator), 0.1,
                on_step=lambda stage, _: accepted.append(stage))
        assert len(accepted) > 1
        yield from ((f"{integrator} step {k}", s) for k, s in enumerate(accepted))


class TestStateLayout:
    """A state is one float64 vector y = [v | theta | u], and its fields are views of it."""

    def test_every_state_is_its_vector(self):
        g, m = build_grid(8.0, 64), GasModel(5 / 3, alpha=0.05)
        n = g.ncells
        for how, s in every_state(g, m):
            y = s.y
            assert y.dtype == np.float64 and y.shape == (g.size,), how
            start = y.__array_interface__["data"][0]
            for name, offset, length in (("v", 0, n), ("theta", n, n), ("u", 2 * n, n + 1)):
                field = getattr(s, name)
                assert field.shape == (length,) and field.strides == y.strides, (how, name)
                assert field.__array_interface__["data"][0] == start + 8 * offset, (how, name)
                with pytest.raises(ArgumentError, match=f"{name} of shape"):
                    setattr(s, name, np.ones(length + 1))
                with pytest.raises(ArgumentError, match=f"{name} of shape"):
                    setattr(s, name, np.ones(1))    # would broadcast
                setattr(s, name, np.full(length, 7.0))
                assert np.all(y[offset:offset + length] == 7.0) and getattr(s, name) is field, how

    def test_stage_refuses_a_state_of_another_grid(self):
        g = build_grid(8.0, 64)
        with pytest.raises(ArgumentError, match=r"state vector of 109 entries does not fit a grid "
                                                r"of 68 cells, whose state vectors have 205"):
            make_stage(State.equilibrium(build_grid(8.0, 32)), GasModel(5 / 3), g)

    def test_constructor_refuses_fields_of_no_layout(self):
        with pytest.raises(ArgumentError, match="v 12, u 12, theta 12"):
            State(0.0, np.ones(12), np.ones(12), np.ones(12))
