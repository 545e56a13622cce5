import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ns1d.grid
from ns1d.constitutive import GasModel, HProfile, kanel_potential
from ns1d.diagnostics import (
    DiagnosticsCollector,
    DiagnosticsRecord,
    KanelEvaluator,
    _deviation_norms,
    cell_kinetic_energy,
    conserved_totals,
    decay_metrics,
    dissipation_rate,
    energy_identity_residual,
    eta_total,
    initial_data_report,
    kanel_bound_pair,
    theta_floor_fit,
)
from ns1d.errors import ArgumentError, PositivityError
from ns1d.grid import State, apply_farfield, build_grid
from ns1d.solver import SolverConfig, advance
from test_constitutive import KANEL_TABLE


def make_record(t=0.0, min_theta=1.0, sup_dev=0.0, **kw):
    base = dict(t=t, mass_dev=0.0, momentum=0.0, energy_dev=0.0, eta_total=0.0,
                dissipation_accum=0.0, identity_residual=0.0, sup_dev=sup_dev,
                min_v=1.0, max_v=1.0, min_theta=min_theta, max_theta=1.0,
                mu_vx_norm=0.0, kanel_lhs=0.0, kanel_rhs=0.0, h1_dev=0.0, h2_dev=0.0)
    base.update(kw)
    return DiagnosticsRecord(**base)


class TestConservedTotals:
    def test_equilibrium_all_zero(self):
        g = build_grid(4.0, 64)
        m = GasModel(5 / 3)
        assert conserved_totals(State.equilibrium(g), g, m) == (0.0, 0.0, 0.0)

    def test_uniform_offsets(self):
        g = build_grid(1.0, 100)  # interior measure 2
        m = GasModel(2.0)  # cv = 1
        s = State.equilibrium(g)
        s.v[:] = 1.5
        s.u[:] = 2.0
        s.theta[:] = 3.0
        mass, mom, en = conserved_totals(s, g, m)
        assert mass == pytest.approx(0.5 * 2.0, rel=1e-13)
        # N+1 interior nodes, each weighted dx
        assert mom == pytest.approx(2.0 * 101 * g.dx, rel=1e-13)
        # energy deviation: cv*(theta-1) + u^2/2 = 2 + 2 per unit length
        assert en == pytest.approx(4.0 * 2.0, rel=1e-13)

    def test_kinetic_attribution(self):
        g = build_grid(1.0, 16)
        s = State.equilibrium(g)
        s.u[:] = 3.0
        k = cell_kinetic_energy(s)
        assert np.allclose(k, 4.5, rtol=0, atol=1e-14)


class TestDissipation:
    def test_equilibrium_zero(self):
        g = build_grid(2.0, 64)
        m = GasModel(5 / 3, h=HProfile.power_sum(1, 1))
        assert dissipation_rate(State.equilibrium(g), m, g) == 0.0

    def test_linear_velocity_closed_form(self):
        # u = sigma*x, v = theta = 1, mu = 1: integrand sigma^2, total sigma^2*2L
        g = build_grid(3.0, 96)
        m = GasModel(5 / 3, h=HProfile.constant(1.0))
        sigma = 0.4
        s = State.equilibrium(g)
        s.u = sigma * g.all_node_positions()
        got = dissipation_rate(s, m, g)
        assert got == pytest.approx(sigma ** 2 * 6.0, rel=1e-13)

    def test_requires_positivity(self):
        g = build_grid(1.0, 16)
        s = State.equilibrium(g)
        s.theta[5] = -1.0
        with pytest.raises(PositivityError):
            dissipation_rate(s, GasModel(5 / 3), g)

    def test_scales_with_mu_tilde(self):
        g = build_grid(2.0, 64)
        s = State.equilibrium(g)
        s.u = 0.1 * np.sin(g.all_node_positions())
        r1 = dissipation_rate(s, GasModel(5 / 3, mu_tilde=1.0, h=HProfile.constant(1.0)), g)
        r3 = dissipation_rate(s, GasModel(5 / 3, mu_tilde=3.0, h=HProfile.constant(1.0)), g)
        assert r3 == pytest.approx(3.0 * r1, rel=1e-13)


class TestEtaAndIdentity:
    def test_equilibrium_zero(self):
        g = build_grid(2.0, 64)
        assert eta_total(State.equilibrium(g), GasModel(5 / 3), g) == 0.0

    def test_pure_kinetic(self):
        g = build_grid(1.0, 100)
        s = State.equilibrium(g)
        s.u[:] = 2.0
        assert eta_total(s, GasModel(5 / 3), g) == pytest.approx(2.0 * 2.0, rel=1e-13)

    def test_residual_arithmetic(self):
        r0 = make_record(eta_total=5.0)
        r1 = make_record(t=1.0, eta_total=3.0, dissipation_accum=2.0)
        assert energy_identity_residual(r1, r0) == 0.0
        r2 = make_record(t=1.0, eta_total=3.5, dissipation_accum=2.0)
        assert energy_identity_residual(r2, r0) == 0.5


class TestKanel:
    g = build_grid(8.0, 256)
    m = GasModel(5 / 3, h=HProfile.power_sum(1, 1))

    def bump_state(self, a=0.3):
        x = self.g.all_cell_centers()
        s = State(0.0, 1.0 + a * np.exp(-(x ** 2)),
                  np.zeros(self.g.nnodes), np.ones(self.g.ncells))
        return apply_farfield(s, self.g)

    def test_equilibrium_pair_zero(self):
        lhs, rhs = kanel_bound_pair(State.equilibrium(self.g), self.m, self.g)
        assert lhs == 0.0 and rhs == 0.0

    def test_cauchy_schwarz_holds(self):
        lhs, rhs = kanel_bound_pair(self.bump_state(), self.m, self.g)
        assert 0.0 < lhs <= rhs + 1e-8

    def test_lhs_matches_direct_quadrature(self):
        s = self.bump_state(a=0.4)
        lhs, _ = kanel_bound_pair(s, self.m, self.g)
        # Phi increasing => max |Phi| over cells is at max v (all v >= 1 here)
        vmax = float(s.v[self.g.cell_interior].max())
        assert lhs == pytest.approx(kanel_potential(self.m.h, vmax), abs=1e-10)

    @pytest.mark.parametrize("h", [HProfile.power_sum(1, 1), HProfile.constant(1.0)],
                             ids=["power-sum", "constant"])
    @pytest.mark.parametrize("lo, hi", [(1.001, 2.5), (0.3, 0.999), (0.5, 2.0), (1.0, 1.8)],
                             ids=["above", "below", "straddling", "with-one"])
    def test_lhs_equals_per_cell_brute_force(self, h, lo, hi):
        v = np.random.default_rng(7).uniform(lo, hi, self.g.N)
        if lo == 1.0:
            v[::7] = 1.0                    # cells exactly at the kink of the integrand
        brute = max(abs(kanel_potential(h, float(x))) for x in v)
        assert KanelEvaluator(h)(v) == pytest.approx(brute, rel=1e-12)
        ci = self.g.cell_interior
        s = State(0.0, np.ones(self.g.ncells), np.zeros(self.g.nnodes), np.ones(self.g.ncells))
        s.v[ci] = v
        lhs, _ = kanel_bound_pair(s, GasModel(5 / 3, h=h), self.g)
        assert lhs == pytest.approx(brute, rel=1e-12)

    def test_large_v_pair_is_phi_at_the_worse_end(self):
        # v spans [1e-3, 3e3] with power-sum(2,3): |Phi| is 7.9e8 at 1e-3, 2.0e8 at 3e3
        table = dict(KANEL_TABLE["power-sum(2,3)"])
        ci = self.g.cell_interior
        s = State(0.0, np.ones(self.g.ncells), np.zeros(self.g.nnodes), np.ones(self.g.ncells))
        s.v[ci] = np.geomspace(1e-3, 3e3, self.g.N)        # its ends are exact
        lhs, rhs = kanel_bound_pair(s, GasModel(5 / 3, h=HProfile.power_sum(2, 3)), self.g)
        assert lhs == pytest.approx(-float(table[1e-3]), rel=1e-13, abs=0.0)
        assert lhs > float(table[3000.0]) and 0.0 < rhs < np.inf


class TestThetaFloorFit:
    def test_synthetic_hyperbola(self):
        # min_theta = 1/(2t+1): 1/min_theta is affine with slope exactly 2
        recs = [make_record(t=t, min_theta=1.0 / (2.0 * t + 1.0))
                for t in np.linspace(0.0, 3.0, 13)]
        assert theta_floor_fit(recs) == pytest.approx(2.0, rel=1e-12)

    def test_increasing_floor_clamps_to_zero(self):
        recs = [make_record(t=t, min_theta=1.0 + t) for t in (0.0, 1.0, 2.0)]
        assert theta_floor_fit(recs) == 0.0

    def test_needs_three_records(self):
        with pytest.raises(ArgumentError):
            theta_floor_fit([make_record(), make_record(t=1.0)])

    def test_needs_time_order(self):
        recs = [make_record(t=t) for t in (0.0, 2.0, 1.0)]
        with pytest.raises(ArgumentError):
            theta_floor_fit(recs)

    def test_equals_pair_brute_force(self):
        rng = np.random.default_rng(5)
        for n in (3, 4, 7, 20, 60):
            for _ in range(20):
                # times drawn from a coarse set, so that many repeat
                t = np.sort(rng.choice(np.linspace(0.0, 4.0, 9), size=n))
                min_theta = rng.uniform(0.2, 2.0, size=n)
                inv = 1.0 / min_theta
                brute = max([0.0] + [(inv[j] - inv[i]) / (t[j] - t[i])
                                     for i in range(n) for j in range(i + 1, n)
                                     if t[j] > t[i]])
                recs = [make_record(t=float(a), min_theta=float(b))
                        for a, b in zip(t, min_theta)]
                assert theta_floor_fit(recs) == pytest.approx(brute, rel=1e-12)

    def test_single_time_gives_zero(self):
        recs = [make_record(t=1.0, min_theta=m) for m in (1.0, 0.5, 2.0)]
        assert theta_floor_fit(recs) == 0.0


class TestDecayMetrics:
    def test_halving_series(self):
        recs = [make_record(t=float(i), sup_dev=2.0 ** -i) for i in range(6)]
        rep = decay_metrics(recs)
        assert rep.half_time == 1.0
        assert rep.quarter_time == 2.0
        assert rep.tenth_time == 4.0  # 1/16 is first value <= 1/10

    def test_no_decay_gives_none(self):
        # a flat series never falls; from sup_dev(0) = 0 there is no deviation to decay
        for sup_dev in (1.0, 0.0):
            rep = decay_metrics([make_record(t=float(i), sup_dev=sup_dev) for i in range(4)])
            assert rep.half_time is None and rep.quarter_time is None, sup_dev
            assert rep.tenth_time is None, sup_dev

    def test_needs_two_records(self):
        with pytest.raises(ArgumentError):
            decay_metrics([make_record()])


def test_initial_data_report():
    # read off the first record: its h2_dev, min_v, max_v and min_theta
    g = build_grid(4.0, 128)
    collector = DiagnosticsCollector(GasModel(5 / 3), g)
    s = State.equilibrium(g)
    rep = initial_data_report(collector.make_record(s))
    assert rep.pi0_discrete == 0.0
    assert rep.min_v0 == rep.max_v0 == 1.0 and rep.min_theta0 == 1.0
    x = g.all_cell_centers()
    s.v = 1.0 + 0.2 * np.exp(-(x ** 2))
    s.theta = 1.0 - 0.1 * np.exp(-(x ** 2))
    rec = collector.make_record(apply_farfield(s, g))
    rep = initial_data_report(rec)
    assert dataclasses.asdict(rep) == {"pi0_discrete": rec.h2_dev, "min_v0": rec.min_v,
                                       "max_v0": rec.max_v, "min_theta0": rec.min_theta}
    assert rep.pi0_discrete > 0.0
    assert rep.max_v0 == pytest.approx(1.2, abs=1e-3)
    assert rep.min_theta0 == pytest.approx(0.9, abs=1e-3)


class TestCollector:
    def run_collect(self, t_end=0.3, every=0.05):
        g = build_grid(10.0, 128)
        m = GasModel(5 / 3, alpha=0.1, h=HProfile.power_sum(1, 1))
        x = g.all_cell_centers()
        s = State(0.0, 1.0 + 0.3 * np.exp(-(x ** 2)), np.zeros(g.nnodes),
                  1.0 + 0.3 * np.exp(-(x ** 2)))
        apply_farfield(s, g)
        coll = DiagnosticsCollector(m, g)
        advance(s, m, g, SolverConfig(), t_end, observer=coll.observe,
                output_every=every, on_step=coll.on_step)
        return coll

    def test_record_cadence_and_monotone_dissipation(self):
        coll = self.run_collect()
        assert len(coll.records) == 7
        accum = [r.dissipation_accum for r in coll.records]
        assert accum[0] == 0.0
        assert all(b >= a for a, b in zip(accum, accum[1:]))
        assert accum[-1] > 0.0

    def test_identity_residual_small(self):
        coll = self.run_collect()
        # O(dx^2 + dt^2) at N=128; convergence of this residual is tested
        # separately in the acceptance suite
        assert abs(coll.records[-1].identity_residual) <= 1e-3

    def test_eta_decreases(self):
        coll = self.run_collect()
        etas = [r.eta_total for r in coll.records]
        assert all(b < a for a, b in zip(etas, etas[1:]))

    def test_csv_row_ordering(self):
        r = make_record(t=1.5, sup_dev=0.25)
        row = r.csv_row()
        assert row[0] == 1.5
        assert row[DiagnosticsRecord.CSV_COLUMNS.index("sup_dev")] == 0.25
        assert len(row) == len(DiagnosticsRecord.CSV_COLUMNS) == 17


def test_mu_vx_norm_alpha0_constant_h_equals_scaled_gradient_norm():
    g = build_grid(6.0, 128)
    m = GasModel(5 / 3, mu_tilde=2.0, alpha=0.0, h=HProfile.constant(1.0))
    x = g.all_cell_centers()
    s = State(0.0, 1.0 + 0.2 * np.exp(-(x ** 2)), np.zeros(g.nnodes),
              np.ones(g.ncells))
    apply_farfield(s, g)
    coll = DiagnosticsCollector(m, g)
    rec = coll.make_record(s)
    ci = g.cell_interior
    vx = g.cell_average_of_nodes(g.node_diff(s.v))
    want = g.discrete_norm(2.0 * vx[ci] / s.v[ci], "L2")
    assert rec.mu_vx_norm == pytest.approx(want, rel=1e-13)


field_values = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(n=st.integers(8, 64), data=st.data())
@example(n=16, data=None)
def test_deviation_pair_equals_per_kind_norms(n, data):
    # one Sobolev pass per field gives the bits of sqrt(sum of squared kind norms), per kind
    g = build_grid(3.0, n)
    if data is None:                      # the state at (1, 0, 1)
        fields = (np.zeros(n), np.zeros(n + 1), np.zeros(n))
    else:
        fields = tuple(data.draw(hnp.arrays(float, size, elements=field_values))
                       for size in (n, n + 1, n))
    want = [float(np.sqrt(sum(g.sobolev_norms(f)[k] ** 2 for f in fields)))
            for k in (0, 1)]              # H1, H2
    got = _deviation_norms(g, *fields)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_each_deviation_field_goes_through_one_sobolev_pass_per_record(monkeypatch):
    g = build_grid(8.0, 64)
    m = GasModel(5 / 3, alpha=0.1, h=HProfile.power_sum(1, 1))
    x = g.all_cell_centers()
    s = apply_farfield(State(0.0, 1.0 + 0.2 * np.exp(-(x ** 2)),
                             0.1 * np.sin(g.all_node_positions()),
                             1.0 - 0.1 * np.exp(-(x ** 2))), g)
    real, seen = ns1d.grid.Grid.sobolev_norms, []

    def counted(self, f):
        seen.append(np.array(f))
        return real(self, f)

    monkeypatch.setattr(ns1d.grid.Grid, "sobolev_norms", counted)
    coll = DiagnosticsCollector(m, g)
    rec = coll.make_record(s)
    ci, ni = g.cell_interior, g.node_interior
    assert len(seen) == 3
    for got, want in zip(seen, (s.v[ci] - 1.0, s.u[ni], s.theta[ci] - 1.0)):
        assert np.array_equal(got, want)
    assert (rec.h1_dev, rec.h2_dev) == _deviation_norms(g, *seen)

    seen.clear()
    advance(s, m, g, SolverConfig(), 0.05, observer=coll.observe, output_every=0.01,
            on_step=coll.on_step)
    assert len(coll.records) == 6 and len(seen) == 3 * 6
