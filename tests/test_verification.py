import math
import re

import numpy as np
import pytest

import ns1d.verification
from ns1d.constitutive import GasModel, HProfile
from ns1d.errors import ArgumentError, NewtonDivergenceError
from ns1d.grid import State, apply_farfield, build_grid
from ns1d.solver import SolverConfig, advance, step_explicit, step_imex
from ns1d.verification import (
    check_support,
    convergence_study,
    default_case,
    exact_state,
    fine_grid_reference,
    make_source_fn,
    mms_sources,
    restrict_cells,
    restrict_nodes,
)

MODEL = GasModel(5 / 3, alpha=0.1, h=HProfile.power_sum(1, 1))


class TestCaseDefinition:
    def test_fields_at_t0(self):
        c = default_case(0.1)
        assert c.v(0.0, 0.0) == pytest.approx(1.1, rel=1e-14)
        assert c.u(0.0, 0.7) == 0.0
        assert c.theta(0.0, 0.0) == pytest.approx(1.0 + 0.1 * np.cos(np.pi / 4), rel=1e-14)

    def test_farfield_tails(self):
        c = default_case(0.1)
        x = 6.0  # half the default study domain
        assert abs(c.v(0.3, x) - 1.0) <= 1e-12
        assert abs(c.u(0.3, x)) <= 1e-12
        assert abs(c.theta(0.3, x) - 1.0) <= 1e-12

    @pytest.mark.parametrize("x", [0.7, -1.3, np.linspace(-7.0, 7.0, 53)], ids=repr)
    def test_fields_equal_their_closed_forms(self, x):
        a, w = 0.13, 0.8
        c = default_case(a, omega=w)
        g = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
        p4 = math.pi / 4.0
        literal = {
            "v": lambda t, x: 1.0 + a * g(x) * math.cos(w * t),
            "u": lambda t, x: a * x * g(x) * math.sin(w * t),
            "theta": lambda t, x: 1.0 + a * g(x) * math.cos(w * t + p4),
            "v_t": lambda t, x: -a * w * g(x) * math.sin(w * t),
            "v_x": lambda t, x: -2.0 * x * a * g(x) * math.cos(w * t),
            "u_t": lambda t, x: a * w * x * g(x) * math.cos(w * t),
            "u_x": lambda t, x: a * (1.0 - 2.0 * x ** 2) * g(x) * math.sin(w * t),
            "u_xx": lambda t, x: a * x * (4.0 * x ** 2 - 6.0) * g(x) * math.sin(w * t),
            "theta_t": lambda t, x: -a * w * g(x) * math.sin(w * t + p4),
            "theta_x": lambda t, x: -2.0 * x * a * g(x) * math.cos(w * t + p4),
            "theta_xx": lambda t, x: a * (4.0 * x ** 2 - 2.0) * g(x) * math.cos(w * t + p4),
        }
        for name, form in literal.items():
            for t in (0.0, 0.41, 3.3):
                assert np.all(getattr(c, name)(t, x) == form(t, x)), (name, t)

    def test_support_rule(self):
        check_support(12.0, 0.99)
        check_support(6.0, 0.99)
        check_support(0.1, 1e-12)            # nothing to hold
        check_support(0.1, 0.0)
        for L, a in ((5.0, 0.1), (2.0, 0.1), (0.5, 0.1), (5.2, 0.99)):
            with pytest.raises(ArgumentError):
                check_support(L, a)

    def test_printed_bound_holds(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            a, w = float(10 ** rng.uniform(-6, 0)), float(10 ** rng.uniform(-2, 1))
            centre = float(rng.choice([0.0, 2.0 * w]))
            with pytest.raises(ArgumentError) as info:
                check_support(centre, a, w, centre, tol=1e-8)
            bound = float(re.search(r"at least (\S+) ", str(info.value)).group(1))
            check_support(bound, a, w, centre, tol=1e-8)

    def test_amplitude_bounds(self):
        with pytest.raises(ArgumentError):
            default_case(1.0)
        with pytest.raises(ArgumentError):
            default_case(-0.1)

    def test_derivatives_match_finite_differences(self):
        # closed-form derivatives vs 6th-order central differences
        c = default_case(0.13, omega=0.8)
        t = 0.37
        xs = np.array([-1.4, -0.3, 0.0, 0.6, 1.9])
        h = 1e-3
        w = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / (60.0 * h)
        offs = np.arange(-3, 4) * h

        def d_dx(f, x):
            return sum(wi * f(t, x + oi) for wi, oi in zip(w, offs))

        def d_dt(f, x):
            return sum(wi * f(t + oi, x) for wi, oi in zip(w, offs))

        for x in xs:
            assert c.v_x(t, x) == pytest.approx(d_dx(c.v, x), rel=1e-8, abs=1e-10)
            assert c.v_t(t, x) == pytest.approx(d_dt(c.v, x), rel=1e-8, abs=1e-10)
            assert c.u_x(t, x) == pytest.approx(d_dx(c.u, x), rel=1e-8, abs=1e-10)
            assert c.u_t(t, x) == pytest.approx(d_dt(c.u, x), rel=1e-8, abs=1e-10)
            assert c.u_xx(t, x) == pytest.approx(d_dx(c.u_x, x), rel=1e-8, abs=1e-10)
            assert c.theta_x(t, x) == pytest.approx(d_dx(c.theta, x), rel=1e-8, abs=1e-10)
            assert c.theta_t(t, x) == pytest.approx(d_dt(c.theta, x), rel=1e-8, abs=1e-10)
            assert c.theta_xx(t, x) == pytest.approx(d_dx(c.theta_x, x), rel=1e-8, abs=1e-10)


class TestSources:
    def test_zero_amplitude_gives_zero_sources(self):
        c = default_case(0.0)
        x = np.linspace(-3, 3, 41)
        for t in (0.0, 0.4, 1.3):
            sv, su, sth = mms_sources(c, MODEL, t, x)
            assert np.max(np.abs(sv)) == 0.0
            assert np.max(np.abs(su)) == 0.0
            assert np.max(np.abs(sth)) == 0.0

    def test_sources_vanish_far_from_origin(self):
        c = default_case(0.1)
        sv, su, sth = mms_sources(c, MODEL, 0.5, np.array([8.0, -8.0]))
        assert np.max(np.abs([sv, su, sth])) <= 1e-12

    def test_sources_match_finite_difference_residual(self):
        # independently form each equation's residual with 6th-order finite
        # differences of the exact fields and compare to the closed forms
        c = default_case(0.12, omega=0.9)
        m = GasModel(1.4, mu_tilde=0.8, kappa_tilde=1.1, alpha=0.3,
                     h=HProfile.power_sum(1, 2))
        t = 0.41
        xs = np.array([-1.1, -0.2, 0.45, 1.3])
        h = 1e-3
        w = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / (60.0 * h)
        offs = np.arange(-3, 4) * h

        def d_dx(f, x):
            return sum(wi * f(t, x + oi) for wi, oi in zip(w, offs))

        def d_dt(f, x):
            return sum(wi * f(t + oi, x) for wi, oi in zip(w, offs))

        def mu_of(tt, xx):
            return m.mu_tilde * float(m.h(c.v(tt, xx))) * c.theta(tt, xx) ** m.alpha

        def kappa_of(tt, xx):
            return m.kappa_tilde * float(m.h(c.v(tt, xx))) * c.theta(tt, xx) ** m.alpha

        for x in xs:
            v, u, th = c.v(t, x), c.u(t, x), c.theta(t, x)
            sv_fd = d_dt(c.v, x) - d_dx(c.u, x)
            P = lambda tt, xx: c.theta(tt, xx) / c.v(tt, xx)
            visc = lambda tt, xx: mu_of(tt, xx) * c.u_x(tt, xx) / c.v(tt, xx)
            su_fd = d_dt(c.u, x) + d_dx(P, x) - d_dx(visc, x)
            heat = lambda tt, xx: kappa_of(tt, xx) * c.theta_x(tt, xx) / c.v(tt, xx)
            sth_fd = (m.cv * d_dt(c.theta, x) + th * c.u_x(t, x) / v
                      - d_dx(heat, x) - mu_of(t, x) * c.u_x(t, x) ** 2 / v)
            sv, su, sth = mms_sources(c, m, t, np.array([x]))
            assert sv[0] == pytest.approx(sv_fd, rel=1e-8, abs=1e-10)
            assert su[0] == pytest.approx(su_fd, rel=1e-8, abs=1e-10)
            assert sth[0] == pytest.approx(sth_fd, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("amplitude", [0.0, 0.12])
    @pytest.mark.parametrize("alpha", [-0.2, 0.0, 0.3])
    @pytest.mark.parametrize("h", [HProfile.power_sum(1, 2), HProfile.constant(1.3)],
                             ids=["power-sum", "constant"])
    def test_source_fn_bitwise_equals_cell_and_node_calls(self, amplitude, alpha, h):
        # one half-grid call per t against one call at the cells and one at the
        # nodes; half-grid lengths 2*N + 9 are odd, so never a multiple of 8
        c = default_case(amplitude, omega=0.9)
        m = GasModel(1.4, mu_tilde=0.8, kappa_tilde=1.1, alpha=alpha, h=h)
        for N in (8, 13, 64):
            g = build_grid(6.0, N)
            fn = make_source_fn(c, m, g)
            for t in (0.0, 0.37, 1.3, 2.9):
                on_cells = mms_sources(c, m, t, g.all_cell_centers())
                on_nodes = mms_sources(c, m, t, g.all_node_positions())
                sv, su, sth = fn(t)
                assert np.array_equal(sv, on_cells[0])
                assert np.array_equal(su, on_nodes[1])
                assert np.array_equal(sth, on_cells[2])

    @pytest.mark.parametrize("m", [MODEL, GasModel(1.4, mu_tilde=0.8, kappa_tilde=1.1, alpha=-0.2,
                                                   h=HProfile.power_sum(1, 2))],
                             ids=["default", "scaled"])
    def test_sources_bitwise_equal_their_expressions_as_written(self, m):
        # mms_sources builds d(h(v) theta^alpha)/dx once for mu_x and kappa_x;
        # the reference builds it inside each, as the closed forms read
        g = build_grid(12.0, 512)
        x = np.empty(g.nnodes + g.ncells)
        x[0::2] = g.all_node_positions()
        x[1::2] = g.all_cell_centers()
        c = default_case(0.1).at(x)
        for t in (0.0, 0.13, 0.25):
            v, th = c.v(t, x), c.theta(t, x)
            vx, thx, ux, uxx = c.v_x(t, x), c.theta_x(t, x), c.u_x(t, x), c.u_xx(t, x)
            ta = np.exp(m.alpha * np.log(th))
            hv, dhv = np.asarray(m.h(v), dtype=float), np.asarray(m.h.dh(v), dtype=float)
            mu, kappa = m.mu_tilde * hv * ta, m.kappa_tilde * hv * ta
            mu_x = m.mu_tilde * (dhv * vx * ta + hv * m.alpha * ta / th * thx)
            kappa_x = m.kappa_tilde * (dhv * vx * ta + hv * m.alpha * ta / th * thx)
            visc_div = (mu_x * ux + mu * uxx) / v - mu * ux * vx / v ** 2
            heat_div = (kappa_x * thx + kappa * c.theta_xx(t, x)) / v - kappa * thx * vx / v ** 2
            want = (c.v_t(t, x) - ux,
                    c.u_t(t, x) + (thx / v - th * vx / v ** 2) - visc_div,
                    m.cv * c.theta_t(t, x) + th * ux / v - heat_div - mu * ux ** 2 / v)
            for got, expected in zip(mms_sources(c, m, t, x), want):
                assert np.array_equal(got, expected)

    def test_one_mms_sources_call_per_rate(self, monkeypatch):
        real, calls = ns1d.verification.mms_sources, []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(ns1d.verification, "mms_sources", counted)
        g = build_grid(12.0, 64)
        c = default_case(0.1)
        sources = make_source_fn(c, MODEL, g)
        _, stats = step_explicit(exact_state(c, g, 0.0), MODEL, g, 1e-3, sources)
        assert stats.rejected_substeps == 0
        # one per distinct time: k0 at t_n and Heun's corrector at t_n + h (a next
        # step's k0 at t_n + h would be a hit, not a third call)
        assert len(calls) == 2

    def test_source_fn_shapes(self):
        g = build_grid(6.0, 64)
        fn = make_source_fn(default_case(0.1), MODEL, g)
        sv, su, sth = fn(0.3)
        assert sv.shape == (g.ncells,)
        assert su.shape == (g.nnodes,)
        assert sth.shape == (g.ncells,)


def half_grid_sources(case, model, grid, t):
    """A fresh mms_sources call on the half-grid at t, sliced as make_source_fn slices it."""
    x = np.empty(grid.nnodes + grid.ncells)
    x[0::2] = grid.all_node_positions()
    x[1::2] = grid.all_cell_centers()
    sv, su, sth = mms_sources(case, model, t, x)
    return sv[1::2], su[0::2], sth[1::2]


@pytest.fixture
def mms_times(monkeypatch):
    """The t of every mms_sources call, in order."""
    real, times = ns1d.verification.mms_sources, []

    def counted(case, model, t, x):
        times.append(t)
        return real(case, model, t, x)

    monkeypatch.setattr(ns1d.verification, "mms_sources", counted)
    return times


class TestSourceMemo:
    """make_source_fn evaluates each distinct t once, and returns read-only arrays."""

    def test_revisited_times_equal_fresh_calls(self):
        g, c = build_grid(12.0, 64), default_case(0.1)
        fn = make_source_fn(c, MODEL, g)
        for t in (0.0, 0.3, 0.3, 0.0, 0.37, 0.3):
            for got, want in zip(fn(t), half_grid_sources(c, MODEL, g, t)):
                assert np.array_equal(got, want)

    def test_signed_zero_times_are_two_times(self):
        # S_v holds -0.0 at t = -0.0 where it holds 0.0 at t = 0.0
        g, c = build_grid(12.0, 64), default_case(0.1)
        fn = make_source_fn(c, MODEL, g)
        for t in (0.0, -0.0):
            for got, want in zip(fn(t), half_grid_sources(c, MODEL, g, t)):
                assert got.tobytes() == want.tobytes()

    def test_sources_are_read_only(self):
        g, c = build_grid(12.0, 64), default_case(0.1)
        fn = make_source_fn(c, MODEL, g)
        for got in fn(0.3):
            with pytest.raises(ValueError):
                got[0] = 1.0
            with pytest.raises(ValueError):
                got.flags.writeable = True
        for got, want in zip(fn(0.3), half_grid_sources(c, MODEL, g, 0.3)):
            assert np.array_equal(got, want)    # what the next call at 0.3 returns

    @pytest.mark.parametrize("integrator", ["explicit", "imex"])
    def test_advance_bitwise_equals_fresh_closures(self, integrator):
        # a fresh closure per call never hits, so every t is evaluated anew
        g, c = build_grid(12.0, 64), default_case(0.1)
        config = SolverConfig(integrator=integrator)
        s0 = exact_state(c, g, 0.0)
        memo = make_source_fn(c, MODEL, g)
        got, got_stats = advance(s0, MODEL, g, config, 0.5, output_every=0.2, sources=memo)
        want, want_stats = advance(s0, MODEL, g, config, 0.5, output_every=0.2,
                                   sources=lambda t: make_source_fn(c, MODEL, g)(t))
        assert got_stats.steps == want_stats.steps > 3
        for name in ("t", "v", "u", "theta"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_explicit_steps_call_once_per_distinct_time(self, mms_times):
        g, c = build_grid(12.0, 64), default_case(0.1)
        sources, s = make_source_fn(c, MODEL, g), exact_state(c, g, 0.0)
        times = [s.t]
        for _ in range(3):
            s, stats = step_explicit(s, MODEL, g, 1e-3, sources)
            assert stats.rejected_substeps == 0
            times.append(s.t)
        assert mms_times == times           # t0 .. t3: each predictor's is the next k0's

    def test_imex_steps_call_once_per_step(self, mms_times):
        g, c = build_grid(12.0, 64), default_case(0.1)
        sources, s = make_source_fn(c, MODEL, g), exact_state(c, g, 0.0)
        times = []
        for _ in range(3):
            times.append(s.t)
            s, stats = step_imex(s, MODEL, g, 1e-2, sources)
            assert stats.rejected_substeps == 0
        assert mms_times == times

    def test_rejected_attempts_call_at_their_predictor_times(self, mms_times):
        g, c = build_grid(12.0, 64), default_case(0.1)
        sources = make_source_fn(c, MODEL, g)
        s, stats = step_explicit(exact_state(c, g, 0.0), MODEL, g, 20.0, sources)
        # h = 20 is refused at its predictor, before rhs; h = 10 after rhs at its
        # predictor; h = 5 is accepted
        assert stats.rejected_substeps == 2 and s.t == 5.0
        assert mms_times == [0.0, 10.0, 5.0]
        s, _ = step_explicit(s, MODEL, g, 1e-3, sources)
        assert mms_times == [0.0, 10.0, 5.0, 5.0 + 1e-3]   # its k0, at t = 5, is a hit


class TestExactState:
    def test_ghosts_pinned(self):
        g = build_grid(12.0, 64)
        s = exact_state(default_case(0.1), g, 0.2)
        assert np.all(s.v[:2] == 1.0) and np.all(s.v[-2:] == 1.0)
        assert np.all(s.u[:2] == 0.0) and np.all(s.theta[-2:] == 1.0)
        assert s.t == 0.2


class TestConvergence:
    def test_preconditions(self):
        c = default_case(0.1)
        with pytest.raises(ArgumentError):
            convergence_study(c, MODEL, [64, 128], 0.1)
        with pytest.raises(ArgumentError):
            convergence_study(c, MODEL, [64, 128, 192], 0.1)

    def test_zero_amplitude_indeterminate(self):
        rep = convergence_study(default_case(0.0), MODEL, [8, 16, 32], 0.01)
        for f in ("v", "u", "theta"):
            assert all(o == "indeterminate" for o in rep.orders[f])

    def test_second_order_small_study(self):
        # small/fast variant; the full study is in the acceptance suite
        rep = convergence_study(default_case(0.1), MODEL, [32, 64, 128], 0.1)
        for f in ("v", "u", "theta"):
            assert rep.orders[f][-1] == pytest.approx(2.0, abs=0.35)

    def test_failure_carries_the_steps_of_every_level(self, monkeypatch):
        # the second level fails after 5 steps of its own
        real, finished = ns1d.verification.advance, []

        def fail_second_level(*args, **kwargs):
            if finished:
                exc = NewtonDivergenceError("second level")
                exc.steps = 5
                raise exc
            state, stats = real(*args, **kwargs)
            finished.append(stats.steps)
            return state, stats

        monkeypatch.setattr(ns1d.verification, "advance", fail_second_level)
        with pytest.raises(NewtonDivergenceError) as info:
            convergence_study(default_case(0.1), MODEL, [8, 16, 32], 0.01)
        assert finished[0] > 0 and info.value.steps == finished[0] + 5

    def test_report_serializes(self):
        rep = convergence_study(default_case(0.0), MODEL, [8, 16, 32], 0.01)
        d = rep.to_dict()
        assert d["levels"] == [8, 16, 32]
        assert d["integrator"] == "explicit"


class TestRestriction:
    def test_cells_constant(self):
        f = np.full(16, 2.5)
        assert np.array_equal(restrict_cells(f, 4), np.full(4, 2.5))

    def test_cells_mean_preserves_total(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=32)
        r = restrict_cells(f, 4)
        assert np.sum(r) * 4 == pytest.approx(np.sum(f), rel=1e-13)

    def test_nodes_sampling(self):
        f = np.arange(13, dtype=float)
        assert np.array_equal(restrict_nodes(f, 4), np.array([0.0, 4.0, 8.0, 12.0]))

    def test_mismatch(self):
        with pytest.raises(ArgumentError):
            restrict_cells(np.zeros(10), 4)
        with pytest.raises(ArgumentError):
            restrict_nodes(np.zeros(10), 4)


class TestFineReference:
    def init(self, grid):
        x = grid.all_cell_centers()
        s = State(0.0, 1.0 + 0.2 * np.exp(-(x ** 2)), np.zeros(grid.nnodes),
                  1.0 + 0.2 * np.exp(-(x ** 2)))
        return apply_farfield(s, grid)

    def test_shapes_and_times(self):
        g = build_grid(8.0, 32)
        traj = fine_grid_reference(self.init, g, MODEL, SolverConfig(), 0.02,
                                   output_every=0.01)
        assert [t for t, *_ in traj] == pytest.approx([0.0, 0.01, 0.02], abs=1e-14)
        t0, v, u, th = traj[0]
        assert v.shape == (32,) and th.shape == (32,)
        assert u.shape == (33,)

    def test_t0_matches_coarse_initial_data(self):
        g = build_grid(8.0, 32)
        traj = fine_grid_reference(self.init, g, MODEL, SolverConfig(), 0.01)
        _, v, u, _ = traj[0]
        coarse = self.init(g)
        # nodes coincide exactly; block-mean cells differ from point samples
        # by f''*dx^2/24 = O(1e-2) at the bump center
        assert np.array_equal(u, coarse.u[g.node_interior])
        assert np.allclose(v, coarse.v[g.cell_interior], rtol=0, atol=1e-2)

    def test_reference_is_explicit_without_dt_cap(self):
        g = build_grid(8.0, 32)
        tuned = dict(cfl_advective=0.3, cfl_parabolic=0.2)
        ref = fine_grid_reference(self.init, g, MODEL, SolverConfig(**tuned), 0.01)
        imex = fine_grid_reference(self.init, g, MODEL,
                                   SolverConfig(integrator="imex", dt_max=1e-4, **tuned), 0.01)
        for a, b in zip(ref, imex):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_refinement_floor(self):
        g = build_grid(8.0, 32)
        with pytest.raises(ArgumentError):
            fine_grid_reference(self.init, g, MODEL, SolverConfig(), 0.01,
                                refinement=2)
