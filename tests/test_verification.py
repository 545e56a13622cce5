import numpy as np
import pytest

from ns1d.constitutive import GasModel, HProfile
from ns1d.errors import ArgumentError
from ns1d.grid import State, apply_farfield, build_grid
from ns1d.solver import SolverConfig
from ns1d.verification import (
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

    def test_source_fn_shapes(self):
        g = build_grid(6.0, 64)
        fn = make_source_fn(default_case(0.1), MODEL, g)
        sv, su, sth = fn(0.3)
        assert sv.shape == (g.ncells,)
        assert su.shape == (g.nnodes,)
        assert sth.shape == (g.ncells,)


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
