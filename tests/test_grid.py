import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ns1d.errors import ArgumentError
from ns1d.grid import FARFIELD, State, apply_farfield, build_grid


def test_build_grid_dx():
    assert build_grid(1.0, 8).dx == 0.25
    assert build_grid(20.0, 4000).dx == pytest.approx(0.01, rel=1e-15)


def test_build_grid_preconditions():
    with pytest.raises(ArgumentError):
        build_grid(1.0, 7)
    with pytest.raises(ArgumentError):
        build_grid(-1.0, 16)
    with pytest.raises(ArgumentError):
        build_grid(1.0, 16, ghost_depth=1)


def test_layout_counts():
    g = build_grid(2.0, 16, ghost_depth=3)
    assert g.ncells == 16 + 6
    assert g.nnodes == g.ncells + 1
    assert g.cell_centers.shape == (16,)
    assert g.node_positions.shape == (17,)
    assert np.all(np.diff(g.cell_centers) > 0)
    # nodes interleave cells
    assert np.all(g.node_positions[:-1] < g.cell_centers)
    assert np.all(g.cell_centers < g.node_positions[1:])


class TestOperators:
    g = build_grid(1.6, 32)

    def test_node_diff_constant(self):
        out = self.g.node_diff(np.full(self.g.ncells, 3.7))
        assert np.all(out == 0.0)

    def test_node_diff_affine_exact(self):
        x = self.g.all_cell_centers()
        out = self.g.node_diff(2.0 * x + 1.0)
        assert np.allclose(out[1:-1], 2.0, rtol=0, atol=1e-13)

    def test_node_diff_quadratic_midpoint_exact(self):
        # ((x+dx/2)^2 - (x-dx/2)^2)/dx = 2x exactly
        g = build_grid(1.0, 20)
        x = g.all_cell_centers()
        out = g.node_diff(x ** 2)
        xn = g.all_node_positions()
        assert np.allclose(out[1:-1], 2.0 * xn[1:-1], rtol=0, atol=1e-13)

    def test_cell_diff_constant(self):
        assert np.all(self.g.cell_diff(np.full(self.g.nnodes, -2.0)) == 0.0)

    def test_face_average(self):
        f = np.full(self.g.ncells, 4.2)
        assert np.all(self.g.face_average(f) == 4.2)
        two = np.zeros(self.g.ncells)
        two[5], two[6] = 1.0, 3.0
        assert self.g.face_average(two)[6] == 2.0
        lin = self.g.all_cell_centers()
        xn = self.g.all_node_positions()
        assert np.allclose(self.g.face_average(lin)[1:-1], xn[1:-1], atol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            self.g.node_diff(np.zeros(self.g.ncells + 1))
        with pytest.raises(ArgumentError):
            self.g.cell_diff(np.zeros(self.g.ncells))
        with pytest.raises(ArgumentError):
            self.g.face_average(np.zeros(3))

    def test_telescoping_divergence(self):
        rng = np.random.default_rng(7)
        F = rng.normal(size=self.g.nnodes)
        total = np.sum(self.g.cell_diff(F)) * self.g.dx
        assert total == pytest.approx(F[-1] - F[0], abs=1e-13)

    def test_cumsum_inverse(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=self.g.ncells)
        anti = np.concatenate([[0.0], np.cumsum(f) * self.g.dx])
        rec = self.g.cell_diff(anti)
        assert np.allclose(rec, f, rtol=0, atol=1e-12)

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 100))
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=self.g.ncells)
        Y = rng.normal(size=self.g.ncells)
        lhs = self.g.node_diff(a * X + b * Y)
        rhs = a * self.g.node_diff(X) + b * self.g.node_diff(Y)
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-11)


class TestNorms:
    g = build_grid(1.0, 100)  # dx = 0.02, domain length 2

    def test_zero_field(self):
        z = np.zeros(50)
        for kind in ("L2", "Linf"):
            assert self.g.discrete_norm(z, kind) == 0.0
        assert self.g.sobolev_norms(z) == (0.0, 0.0)

    @pytest.mark.parametrize("kind", ["H1", "H2", "l2", "Lmax", ""])
    def test_unknown_kind_refused(self, kind):
        # the H-norms have one entry point, sobolev_norms
        with pytest.raises(ArgumentError, match="unknown norm kind"):
            self.g.discrete_norm(np.ones(10), kind)

    def test_constant_l2(self):
        c = 3.0
        f = np.full(100, c)
        assert self.g.discrete_norm(f, "L2") == pytest.approx(c * np.sqrt(2.0), rel=1e-13)

    def test_spike(self):
        g = build_grid(1.0, 200)  # dx = 0.01
        f = np.zeros(200)
        f[77] = 1.0
        assert g.discrete_norm(f, "L2") == pytest.approx(0.1, rel=1e-13)
        assert g.discrete_norm(f, "Linf") == 1.0

    def test_sobolev_ordering(self):
        rng = np.random.default_rng(11)
        f = rng.normal(size=100)
        l2 = self.g.discrete_norm(f, "L2")
        h1, h2 = self.g.sobolev_norms(f)
        assert l2 <= h1 <= h2

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(f=hnp.arrays(float, st.integers(8, 80), elements=st.one_of(
               st.just(0.0), st.floats(-10.0, 10.0))),
           L=st.floats(0.5, 50.0))
    @example(f=np.zeros(16), L=1.0)
    def test_sobolev_pair_is_the_two_pass_chain(self, f, L):
        # the written-out H1 and H2 formulas: L2, then H1 from L2^2, then H2 from H1^2
        g = build_grid(L, f.size)
        l2 = float(np.sqrt(np.sum(f * f) * g.dx))
        d1 = np.diff(f) / g.dx
        h1 = float(np.sqrt(l2 ** 2 + np.sum(d1 * d1) * g.dx))
        d2 = np.diff(f, 2) / g.dx ** 2
        h2 = float(np.sqrt(h1 ** 2 + np.sum(d2 * d2) * g.dx))
        got = g.sobolev_norms(f)
        assert np.array(got).tobytes() == np.array([h1, h2]).tobytes()
        assert g.discrete_norm(f) == l2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("peak", [1e155, 1e300, 1.7e308])
    def test_l2_whose_squares_overflow_is_rescaled(self, peak):
        # only squares that overflow are rescaled by max|f|: the norm stays finite, warns
        # nothing, and equals the unscaled formula's value scaled back to round-off
        g = build_grid(1.0, 64)
        shape = np.sin(np.linspace(0.0, 3.0, 64))
        f = peak / np.max(np.abs(shape)) * shape
        want = peak * float(np.sqrt(np.sum((shape / np.max(np.abs(shape))) ** 2) * g.dx))
        got = g.discrete_norm(f, "L2")
        assert np.isfinite(got) and got == pytest.approx(want, rel=1e-14)
        assert g.discrete_norm(f[:0], "L2") == 0.0

    @pytest.mark.filterwarnings("error")
    def test_sobolev_norms_whose_l2_squares_overflow_are_inf(self):
        # the rescaled L2 norm, ~4e200 here, squares to inf in the H1 sum without raising
        g = build_grid(1.0, 64)
        assert np.isfinite(g.discrete_norm(np.full(g.ncells, 1e200)))
        assert g.sobolev_norms(np.full(g.ncells, 1e200)) == (np.inf, np.inf)

    @pytest.mark.filterwarnings("error")
    def test_sobolev_norms_whose_difference_squares_overflow_are_inf(self):
        # the L2 norm, ~6e199, and each first difference, ~1e199 over dx, are finite;
        # squaring the differences overflows without raising
        f = np.linspace(-1e200, 1e200, 16)
        assert build_grid(1.0, 16).sobolev_norms(f) == (np.inf, np.inf)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_l2_of_a_non_finite_field_is_not_finite(self, bad):
        f = np.ones(16)
        f[3] = bad
        got = self.g.discrete_norm(f, "L2")
        assert np.isnan(got) if np.isnan(bad) else got == np.inf


def test_apply_farfield():
    g = build_grid(1.0, 16, ghost_depth=2)
    rng = np.random.default_rng(0)
    s = State(0.0, 1.0 + 0.1 * rng.random(g.ncells),
              rng.normal(size=g.nnodes), 1.0 + 0.1 * rng.random(g.ncells))
    interior_v = s.v[g.cell_interior].copy()
    apply_farfield(s, g)
    assert np.array_equal(s.v[g.cell_interior], interior_v)
    assert np.all(s.v[:2] == FARFIELD[0]) and np.all(s.v[-2:] == FARFIELD[0])
    assert np.all(s.u[:2] == FARFIELD[1]) and np.all(s.u[-2:] == FARFIELD[1])
    assert np.all(s.theta[:2] == FARFIELD[2]) and np.all(s.theta[-2:] == FARFIELD[2])
    before = s.copy()
    apply_farfield(s, g)  # idempotent
    assert np.array_equal(s.v, before.v)
    assert np.array_equal(s.u, before.u)
    assert np.array_equal(s.theta, before.theta)


def test_equilibrium_state():
    g = build_grid(1.0, 16)
    s = State.equilibrium(g)
    assert np.all(s.v == 1.0) and np.all(s.u == 0.0) and np.all(s.theta == 1.0)
