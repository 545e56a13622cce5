import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ns1d.solver
from ns1d.constitutive import GasModel, HProfile, transport, transport_derivatives
from ns1d.diagnostics import DiagnosticsCollector, dissipation_rate
from ns1d.errors import DomainError, NewtonDivergenceError, PositivityError
from ns1d.grid import State, apply_farfield, build_grid
from ns1d.solver import (
    SolverConfig,
    _check_state_positive,
    _landing_times,
    advance,
    backward_euler_theta,
    backward_euler_velocity,
    make_stage,
    rhs,
    stable_dt,
    step_explicit,
    step_imex,
)

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
    def test_reference_value(self):
        # equilibrium, gamma=5/3, mu=kappa=1, dx=0.01, both cfl=0.4:
        # parabolic bound 0.4*dx^2/(2*max(1, 1/cv)) = 2e-5 dominates
        g = build_grid(1.0, 200)
        m = GasModel(5 / 3, h=HProfile.constant(1.0))
        dt = stable_dt(State.equilibrium(g), m, g, CFG)
        assert dt == pytest.approx(2e-5, rel=1e-12)

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


class TestExplicitStep:
    def test_equilibrium_unchanged(self):
        g = build_grid(2.0, 64)
        m = GasModel(5 / 3, h=HProfile.power_sum(1, 1))
        s, stats = step_explicit(State.equilibrium(g), m, g, CFG, 1e-3)
        assert np.all(s.v == 1.0) and np.all(s.u == 0.0) and np.all(s.theta == 1.0)
        assert stats.rejected_substeps == 0

    def test_momentum_conserved_per_step(self):
        g = build_grid(8.0, 256)
        m = GasModel(5 / 3, alpha=0.1, h=HProfile.power_sum(1, 1))
        s = gauss_state(g, with_u=True)
        p0 = np.sum(s.u[g.node_interior]) * g.dx
        dt = stable_dt(s, m, g, CFG)
        s, _ = step_explicit(s, m, g, CFG, dt)
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
                s, _ = step_explicit(s, m, g, CFG, t_end / nsteps)
            return s

        ref = integrate(64)
        errs = []
        for n in (1, 2, 4):
            s = integrate(n)
            errs.append(np.max(np.abs(s.theta - ref.theta)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.8 <= o <= 2.2 for o in orders), orders

    def test_rejection_then_exhaustion(self):
        g = build_grid(2.0, 32)
        m = GasModel(5 / 3, h=HProfile.constant(1.0))
        s = gauss_state(g, a=0.5)
        s.theta[:] = 1.0
        s.theta[g.ghost_depth + 5] = 1e-7  # near-floor cell collapses under any dt
        cfg = dataclasses.replace(CFG, positivity_floor=0.5, max_dt_halvings=3)
        from ns1d.errors import PositivityExhaustedError
        with pytest.raises(PositivityExhaustedError):
            step_explicit(s, m, g, cfg, 1e-2)


def reference_h(h, v):
    """The power-sum h as its k-th derivative formula at k = 0: unit
    coefficients, exponents minus 0."""
    return 1 * v ** (h.ell1 - 0) + 1 * v ** (-h.ell2 - 0)


def reference_transport(model, v, theta):
    """(mu, kappa) = (mu_tilde, kappa_tilde) * h(v) * theta^alpha."""
    hv = reference_h(model.h, v)
    ta = np.exp(model.alpha * np.log(theta))
    return model.mu_tilde * hv * ta, model.kappa_tilde * hv * ta


def reference_rhs(s, model, grid):
    """The semidiscrete rates with every product formed where it is used."""
    v, theta = s.v, s.theta
    mu, kappa = reference_transport(model, v, theta)
    ux = grid.cell_diff(s.u)
    P = theta / v
    du_dt = grid.node_diff(-P + mu * ux / v)
    heat_flux = grid.face_average(kappa / v) * grid.node_diff(theta)
    dtheta_dt = (-theta * ux / v + grid.cell_diff(heat_flux) + mu * ux * ux / v) / model.cv
    return ux.copy(), du_dt, dtheta_dt


def reference_stable_dt(s, model, grid, config):
    mu, kappa = reference_transport(model, s.v, s.theta)
    c = np.sqrt(model.gamma * s.theta) / s.v
    dt = config.cfl_advective * grid.dx / float(c.max())
    diff_rate = np.maximum(mu / s.v, kappa / (model.cv * s.v))
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


def reference_dissipation_rate(s, model, grid):
    v, theta = s.v, s.theta
    mu, kappa = reference_transport(model, v, theta)
    ux = grid.cell_diff(s.u)
    thx = grid.cell_average_of_nodes(grid.node_diff(theta))
    integrand = mu * ux * ux / (v * theta) + kappa * thx * thx / (v * theta * theta)
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
        want = got.copy()
        for _ in range(20):
            dt = stable_dt(got, model, g, CFG)
            assert dt == reference_stable_dt(want, model, g, CFG)
            got, stats = step_explicit(got, model, g, CFG, dt)
            want = reference_explicit_step(want, model, g, dt)
            assert stats.rejected_substeps == 0
            for name in ("v", "u", "theta"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert got.t == want.t
            assert dissipation_rate(got, model, g) == reference_dissipation_rate(want, model, g)
        assert np.max(np.abs(got.theta - 1.0)) > 0.1    # the pulse is still there
        assert model.h(1.7) == reference_h(model.h, 1.7)  # scalars, as kanel_potential passes


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
    """The min-reduction check refuses exactly the states np.all(x > floor)
    refused: NaN fails like a value at or below the floor."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(fields=cell_field_pairs(), floor=st.sampled_from(FLOORS))
    @example(fields=(np.array([1.0, math.nan]), np.array([1.0, 1.0])), floor=0.0)
    @example(fields=(np.array([1.0]), np.array([0.5])), floor=0.5)
    @example(fields=(np.array([1.0]), np.array([-0.0])), floor=0.0)
    @example(fields=(np.array([]), np.array([])), floor=0.5)
    def test_refuses_what_np_all_refused(self, fields, floor):
        v, theta = fields
        refused = not (np.all(v > floor) and np.all(theta > floor))
        state = State(0.0, v, np.zeros(v.size + 1), theta)
        if refused:
            with pytest.raises(PositivityError):
                _check_state_positive(state, floor)
        else:
            _check_state_positive(state, floor)


class TestImexStep:
    def test_equilibrium_one_newton_iteration(self):
        g = build_grid(2.0, 64)
        m = GasModel(5 / 3, alpha=0.2, h=HProfile.power_sum(1, 1))
        s, stats = step_imex(State.equilibrium(g), m, g, CFG, 1e-2)
        assert np.all(s.v == 1.0) and np.all(s.u == 0.0) and np.all(s.theta == 1.0)
        assert stats.newton_iters == 1
        assert stats.max_residual == 0.0

    def test_sources_evaluated_once_per_step_across_rejections(self):
        g = build_grid(4.0, 64)
        m = GasModel(5 / 3, alpha=0.1, h=HProfile.power_sum(1, 1))
        times = []

        def sources(t):
            times.append(t)
            return np.zeros(g.ncells), np.zeros(g.nnodes), np.zeros(g.ncells)

        _, stats = step_imex(gauss_state(g, a=0.3, with_u=True), m, g, CFG, 20.0, sources)
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
            theta, _, _ = backward_euler_theta(theta, v, m, g, CFG, t_end / nsteps)

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
        s, stats = step_imex(s, m, g, CFG, dt)
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

    def solve(self, cfg=CFG):
        s = self.s
        return backward_euler_velocity(s.u, s.v, s.theta, self.MODEL, self.g, cfg, self.dt)

    def test_one_solve_one_iteration(self, monkeypatch):
        real, calls = ns1d.solver.solve_banded, []

        def counted(*args):
            calls.append(1)
            return real(*args)

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

    def test_residual_above_tol_raises(self):
        with pytest.raises(NewtonDivergenceError, match="residual"):
            self.solve(dataclasses.replace(CFG, newton_tol=1e-300))


def tridiag_system(n, case, seed=0):
    """(lower, diag, upper, b) in _solve_tridiag's padded form."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)
    if case == "dominant":
        return (rng.uniform(-1, 1, n), 4.0 + rng.random(n), rng.uniform(-1, 1, n), b)
    if case == "pivoting":
        # off-diagonals outweigh the diagonal, so gtsv swaps rows at most steps
        return rng.uniform(2, 3, n), rng.uniform(-1, 1, n), rng.uniform(2, 3, n), b
    # the velocity shape: off has n + 1 entries and off[1:-1] is both dl and du
    off = -rng.random(n + 1)
    return off[:-1], 1.0 + 2.0 * rng.random(n), off[1:], b


class TestSolveTridiag:
    """One LAPACK gtsv call, the bits of solve_banded((1, 1), ...)."""

    @pytest.mark.parametrize("case", ["dominant", "pivoting", "velocity"])
    @pytest.mark.parametrize("n", [1, 2, 65, 513, 4097])
    def test_bitwise_equal_to_solve_banded(self, n, case):
        lower, diag, upper, b = tridiag_system(n, case)
        before = [a.copy() for a in (lower, diag, upper, b)]
        ab = np.zeros((3, n))
        ab[0, 1:] = upper[:-1]
        ab[1] = diag
        ab[2, :-1] = lower[1:]
        want = scipy.linalg.solve_banded((1, 1), ab, b)
        got = ns1d.solver._solve_tridiag(lower, diag, upper, b)
        assert got.shape == (n,) and got.tobytes() == want.tobytes()
        for old, new in zip(before, (lower, diag, upper, b)):
            assert old.tobytes() == new.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name,index", [("lower", 1), ("lower", -1), ("diag", 0),
                                            ("diag", 32), ("upper", 0), ("upper", -2),
                                            ("b", 0), ("b", -1)])
    def test_non_finite_entry_refused(self, name, index, value):
        arrays = dict(zip(("lower", "diag", "upper", "b"), tridiag_system(65, "dominant")))
        arrays[name][index] = value
        with pytest.raises(NewtonDivergenceError, match="non-finite"):
            ns1d.solver._solve_tridiag(**arrays)

    def test_padding_entries_unread(self):
        lower, diag, upper, b = tridiag_system(65, "dominant")
        want = ns1d.solver._solve_tridiag(lower, diag, upper, b)
        lower[0], upper[-1] = np.nan, np.inf
        got = ns1d.solver._solve_tridiag(lower, diag, upper, b)
        assert got.tobytes() == want.tobytes()

    def test_singular_system_refused(self):
        n = 8
        lower, upper, b = np.zeros(n), np.zeros(n), np.ones(n)
        diag = np.ones(n)
        diag[3] = 0.0                       # a zero row: no pivot can fix it
        with pytest.raises(NewtonDivergenceError, match="singular"):
            ns1d.solver._solve_tridiag(lower, diag, upper, b)

    def test_non_finite_velocity_system_refused(self):
        g = build_grid(8.0, 64)
        s = gauss_state(g, with_u=True)
        model = GasModel(5 / 3, alpha=0.2, h=HProfile.power_sum(1, 1))
        u_exp = s.u.copy()
        u_exp[g.ghost_depth + 10] = np.nan
        with pytest.raises(NewtonDivergenceError, match="non-finite"):
            backward_euler_velocity(u_exp, s.v, s.theta, model, g, CFG, 1e-2)

    def test_non_finite_theta_system_refused(self):
        g = build_grid(8.0, 64)
        s = gauss_state(g)
        model = GasModel(5 / 3, alpha=0.2, h=HProfile.power_sum(1, 1))
        theta_exp = s.theta.copy()
        theta_exp[g.ghost_depth + 10] = np.inf
        with np.errstate(invalid="ignore"), \
                pytest.raises(NewtonDivergenceError, match="non-finite"):
            backward_euler_theta(theta_exp, s.v, model, g, CFG, 1e-2)

    def test_imex_step_solves_once_per_theta_pass_plus_velocity(self, monkeypatch):
        # what the trace reports as solver.tridiag.solves_per_step
        g = build_grid(8.0, 64)
        s = gauss_state(g, a=0.4, with_u=True)
        model = GasModel(5 / 3, alpha=0.2, h=HProfile.power_sum(1, 1))
        real_solve, real_theta = ns1d.solver.solve_banded, ns1d.solver.backward_euler_theta
        solves, theta_iters = [], []

        def counted_solve(*args):
            solves.append(1)
            return real_solve(*args)

        def recorded_theta(*args):
            out = real_theta(*args)
            theta_iters.append(out[1])
            return out

        monkeypatch.setattr(ns1d.solver, "solve_banded", counted_solve)
        monkeypatch.setattr(ns1d.solver, "backward_euler_theta", recorded_theta)
        _, stats = step_imex(s, model, g, CFG, 50.0 * stable_dt(s, model, g, CFG))
        assert stats.rejected_substeps == 0 and theta_iters[0] >= 3
        # the last Newton pass meets the tolerance and solves nothing
        assert len(solves) == (theta_iters[0] - 1) + 1


def transport_form_theta_solve(theta_exp, v, model, grid, config, dt):
    """The temperature Newton solve written through transport and
    transport_derivatives at every pass, as a reference."""
    lo, hi = grid.ghost_depth, grid.ghost_depth + grid.N
    theta, dx = theta_exp.copy(), grid.dx
    for iters in range(1, config.newton_max_iter + 1):
        _, kappa = transport(model, v, theta)
        b_face = grid.face_average(kappa / v)
        grad = grid.node_diff(theta)
        res = (model.cv * (theta[lo:hi] - theta_exp[lo:hi])
               - dt * grid.cell_diff(b_face * grad)[lo:hi])
        max_res = float(np.max(np.abs(res)))
        if max_res <= config.newton_tol:
            return theta, iters, max_res
        db = transport_derivatives(model, v, theta)[3] / v
        nodes = slice(lo, hi + 1)
        dfl_dright = b_face[nodes] / dx + 0.5 * db[lo:hi + 1] * grad[nodes]
        dfl_dleft = -b_face[nodes] / dx + 0.5 * db[lo - 1:hi] * grad[nodes]
        diag = model.cv - dt / dx * (dfl_dleft[1:] - dfl_dright[:-1])
        theta[lo:hi] += ns1d.solver._solve_tridiag(
            dt / dx * dfl_dleft[:-1], diag, -dt / dx * dfl_dright[1:], -res)
    raise NewtonDivergenceError("reference Newton stalled")


TRANSPORT_MODELS = [GasModel(5 / 3, mu_tilde=1.3, kappa_tilde=0.7, alpha=alpha, h=h)
                    for alpha in (0.0, 0.1, -0.2)
                    for h in (HProfile.power_sum(1, 1), HProfile.constant(1.7))]


def model_id(model):
    return f"alpha={model.alpha}-{model.h.kind}"


class TestBackwardEulerTheta:
    """v is frozen through the solve: one h(v), no transport calls per pass."""

    def setup_method(self):
        self.g = build_grid(8.0, 64)
        self.s = gauss_state(self.g, a=0.4, with_u=True)

    def dt(self, model):
        return 50.0 * stable_dt(self.s, model, self.g, CFG)

    @pytest.mark.parametrize("model", TRANSPORT_MODELS, ids=model_id)
    def test_bitwise_equal_to_transport_form(self, model):
        s, g, dt = self.s, self.g, self.dt(model)
        got = backward_euler_theta(s.theta, s.v, model, g, CFG, dt)
        want = transport_form_theta_solve(s.theta, s.v, model, g, CFG, dt)
        assert got[1] == want[1] and got[1] >= 2
        assert got[2] == want[2]
        assert np.array_equal(got[0], want[0])

    @pytest.mark.parametrize("model", TRANSPORT_MODELS, ids=model_id)
    def test_imex_step_bitwise_equal_to_transport_form(self, model, monkeypatch):
        s, g, dt = self.s, self.g, self.dt(model)
        got, got_stats = step_imex(s, model, g, CFG, dt)
        monkeypatch.setattr(ns1d.solver, "backward_euler_theta", transport_form_theta_solve)
        want, want_stats = step_imex(s, model, g, CFG, dt)
        assert got_stats == want_stats
        for name in ("v", "u", "theta", "mu", "kappa", "ux", "theta_x"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_nonpositive_v_refused(self):
        s, v = self.s, self.s.v.copy()
        v[5] = 0.0
        with pytest.raises(DomainError, match="v must be positive"):
            backward_euler_theta(s.theta, v, TRANSPORT_MODELS[1], self.g, CFG, 1e-3)

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
        _, stats = step_imex(s0, model, self.g, CFG, dt)
        assert stats.newton_iters >= 2 and stats.rejected_substeps == 0
        assert sum(arrays) <= 3             # velocity solve, theta solve, new stage


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
                s, _ = step_explicit(s, m, g, CFG, dt)
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


class TestStage:
    """One stage per state: advance reuses it for dt, k1 and the dissipation."""

    MODEL = GasModel(5 / 3, alpha=0.05, h=HProfile.power_sum(1, 1))

    def test_advance_equals_hand_loop_of_public_calls(self):
        g, m = build_grid(8.0, 64), self.MODEL
        s0, t_end = gauss_state(g, with_u=True), 0.1
        coll = DiagnosticsCollector(m, g)
        got, stats = advance(s0.copy(), m, g, CFG, t_end,
                             observer=coll.observe, on_step=coll.on_step)

        # plain States, so that every public call builds its own stage
        s = s0.copy()
        rate, accum = dissipation_rate(s, m, g), 0.0
        while s.t < t_end - 1e-12:
            dt = min(stable_dt(s, m, g, CFG), t_end - s.t)
            t_prev = s.t
            out, _ = step_explicit(s, m, g, CFG, dt)
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

    def test_two_transport_calls_per_accepted_step(self, monkeypatch):
        g, m = build_grid(8.0, 64), self.MODEL
        real, calls = ns1d.solver.transport, []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(ns1d.solver, "transport", counted)
        coll = DiagnosticsCollector(m, g)
        _, stats = advance(gauss_state(g), m, g, CFG, 0.1, on_step=coll.on_step)
        assert stats.steps > 10 and stats.rejected_substeps == 0
        assert len(calls) == 2 * stats.steps + 1

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
        out, stats = step_explicit(s0, m, g, CFG, dt)
        assert stats.rejected_substeps == 1 and stats.dt_used == 0.5 * dt
        monkeypatch.undo()
        ref, _ = step_explicit(s0, m, g, CFG, 0.5 * dt)
        assert np.array_equal(out.theta, ref.theta)

    @pytest.mark.parametrize("field", ["v", "u", "theta"])
    @pytest.mark.filterwarnings("error")
    def test_inf_imex_half_state_rejected_and_dt_halved(self, field, monkeypatch):
        # an inf passes the positivity check's min-reductions; the solves must not see it
        g, m = build_grid(8.0, 64), self.MODEL
        s0 = gauss_state(g, with_u=True)
        cfg = dataclasses.replace(CFG, integrator="imex")
        dt = 0.5 * stable_dt(s0, m, g, cfg)
        real, seen = ns1d.solver.apply_farfield, []

        def poison_first_half_state(state, grid):
            if not seen:                    # the first state step_imex pins is the half state
                getattr(state, field)[grid.ghost_depth + 3] = np.inf
            seen.append(state.t)
            return real(state, grid)

        monkeypatch.setattr(ns1d.solver, "apply_farfield", poison_first_half_state)
        out, stats = step_imex(s0, m, g, cfg, dt)
        assert stats.rejected_substeps == 1 and stats.dt_used == 0.5 * dt
        monkeypatch.undo()
        ref, _ = step_imex(s0, m, g, cfg, 0.5 * dt)
        assert np.array_equal(out.theta, ref.theta) and np.array_equal(out.u, ref.u)
