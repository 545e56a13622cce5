import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ns1d.constitutive import (
    GasModel,
    _check_positive,
    HProfile,
    adaptive_simpson,
    kanel_potential,
    phi,
    transport,
    transport_derivatives,
    validate_h,
)
from ns1d.diagnostics import kanel_bound_pair
from ns1d.errors import (ArgumentError, ConfigError, DomainError, PositivityError,
                         QuadratureError)
from ns1d.grid import State, build_grid
import ns1d.constitutive
import ns1d.harness
from ns1d.harness import RunConfig, plan
from ns1d.solver import POSITIVITY_FLOOR

positive = st.floats(min_value=1e-3, max_value=1e3)


def model(gamma=5 / 3, **kw):
    return GasModel(gamma=gamma, **kw)


# entries at and around each check's edge: NaN, signed zeros, infinities
EDGE_VALUES = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-8, 1.0]
edge_floats = st.one_of(st.sampled_from(EDGE_VALUES),
                        st.floats(allow_nan=True, allow_infinity=True))


def np_all_check(**kwargs):
    """_check_positive as it was: np.all(arr > 0) per argument."""
    for name, val in kwargs.items():
        arr = np.asarray(val)
        if not np.all(arr > 0):
            raise DomainError(f"{name} must be positive, got min {arr.min() if arr.size else 'empty'}")


def outcome(check, **kwargs):
    try:
        check(**kwargs)
    except DomainError as exc:
        return str(exc)
    return None


class TestCheckPositive:
    """The min-reduction check refuses exactly what np.all(x > 0) refused,
    with the same message."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(x=st.one_of(
        edge_floats,
        st.integers(-3, 3),
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                                 max_side=6), elements=edge_floats),
        hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=1, min_side=0),
                   elements=st.integers(-3, 3))),
        y=edge_floats)
    @example(x=np.array([]), y=1.0)
    @example(x=np.array([1.0, math.nan, 2.0]), y=1.0)
    @example(x=np.array([2.0, -0.0]), y=1.0)
    @example(x=np.float64(math.inf), y=math.inf)
    def test_refuses_what_np_all_refused(self, x, y):
        assert outcome(_check_positive, v=x, theta=y) == outcome(np_all_check, v=x, theta=y)


GRID = build_grid(16.0, 64)


def with_entry(arr, entry):
    """arr with one interior cell set to entry."""
    out = arr.copy()
    out[GRID.ghost_depth + 3] = entry
    return out


def refuse_kanel_pair(entry, monkeypatch):
    s = State.equilibrium(GRID)
    s.v = with_entry(s.v, entry)
    kanel_bound_pair(s, model(), GRID)


def refuse_initial_data(entry, monkeypatch):
    pin = ns1d.harness.apply_farfield

    def pin_then_spoil(state, grid):
        pin(state, grid)
        state.theta = with_entry(state.theta, entry)
    monkeypatch.setattr(ns1d.harness, "apply_farfield", pin_then_spoil)
    plan(dataclasses.replace(RunConfig(), grid_N=GRID.N))


def refuse_h_values(entry, monkeypatch):
    validate_h(dataclasses.replace(HProfile.constant(1.0), h=lambda v: entry))


# each check, with the exception class and message it raised before
REFUSALS = [
    (refuse_kanel_pair, PositivityError, "z must be positive"),
    (refuse_initial_data, ConfigError, "theta must be positive"),
    (refuse_h_values, DomainError, "h\\(v\\) must be positive"),
]


@pytest.mark.parametrize("entry", [math.nan, -0.0, 0.0])
@pytest.mark.parametrize("check,error,message", REFUSALS,
                         ids=[check.__name__ for check, _, _ in REFUSALS])
def test_positivity_checks_refuse_nan_and_zeros(check, error, message, entry, monkeypatch):
    """Each check tests `_all_above`, so a NaN entry fails like a zero."""
    with pytest.raises(error, match=message):
        check(entry, monkeypatch)


class TestEosBasics:
    def test_cv_derived_from_gamma(self):
        m = model(1.4)
        assert m.cv * (m.gamma - 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_gamma_must_exceed_one(self):
        with pytest.raises(DomainError):
            GasModel(gamma=1.0)

    @pytest.mark.parametrize("build,error", [
        (lambda: HProfile.constant(math.nan), ArgumentError),
        (lambda: HProfile.constant(math.inf), ArgumentError),
        (lambda: HProfile.power_sum(math.inf, 1), ArgumentError),
        (lambda: HProfile.power_sum(1, math.inf), ArgumentError),
        (lambda: GasModel(math.inf), DomainError),
        (lambda: GasModel(math.nan), DomainError),
        (lambda: GasModel(5 / 3, mu_tilde=math.nan), DomainError),
        (lambda: GasModel(5 / 3, kappa_tilde=math.inf), DomainError),
        (lambda: GasModel(5 / 3, alpha=math.nan), DomainError),
        (lambda: GasModel(5 / 3, alpha=-math.inf), DomainError),
    ], ids=["c=nan", "c=inf", "ell1=inf", "ell2=inf", "gamma=inf", "gamma=nan",
            "mu_tilde=nan", "kappa_tilde=inf", "alpha=nan", "alpha=-inf"])
    def test_non_finite_parameter_refused(self, build, error):
        with pytest.raises(error):
            build()

class TestTransport:
    def test_constant_coefficient(self):
        m = model(5 / 3, h=HProfile.constant(1.0))
        mu, kappa = transport(m, 0.3, 7.2)
        assert mu == 1.0 and kappa == 1.0

    def test_power_sum_value(self):
        m = model(5 / 3, alpha=0.5, h=HProfile.power_sum(1, 1))
        mu, _ = transport(m, 2.0, 4.0)
        assert mu == pytest.approx(5.0, rel=1e-14)  # (2 + 0.5) * 4**0.5

    def test_monatomic_exponent(self):
        # intermolecular potential r^-a with a=4 gives alpha=(a+4)/(2a)=1
        a = 4
        alpha = (a + 4) / (2 * a)
        m = model(5 / 3, mu_tilde=2.5, alpha=alpha, h=HProfile.constant(1.0))
        mu, _ = transport(m, 1.0, 3.0)
        assert mu == pytest.approx(3.0 * 2.5, rel=1e-14)

    def test_alpha_zero_reduces_exactly(self):
        h = HProfile.power_sum(1.5, 0.5)
        m = model(1.4, mu_tilde=0.7, kappa_tilde=1.3, alpha=0.0, h=h)
        v = np.array([0.3, 1.0, 2.7])
        theta = np.array([0.4, 1.1, 9.0])
        mu, kappa = transport(m, v, theta)
        assert np.array_equal(mu, 0.7 * h(v))
        assert np.array_equal(kappa, 1.3 * h(v))

    @given(v=positive, theta=positive)
    def test_transport_positive(self, v, theta):
        m = model(5 / 3, alpha=-0.4, h=HProfile.power_sum(1, 2))
        mu, kappa = transport(m, v, theta)
        assert mu > 0 and kappa > 0

    def test_derivatives_trivial(self):
        m0 = model(5 / 3, alpha=0.0, h=HProfile.power_sum(1, 1))
        assert transport_derivatives(m0, 1.3, 2.4)[1] == 0.0
        m1 = model(5 / 3, alpha=1.0, h=HProfile.constant(1.0))
        assert transport_derivatives(m1, 1.0, 2.0)[1] == pytest.approx(1.0, rel=1e-14)

    def test_derivatives_bitwise_equal_their_expressions_as_written(self):
        # transport_derivatives evaluates h(v) once; the reference calls it for
        # mu and again for kappa
        m = model(1.4, mu_tilde=0.8, kappa_tilde=1.1, alpha=0.3, h=HProfile.power_sum(1, 2))
        rng = np.random.default_rng(3)
        v, theta = rng.uniform(0.2, 5.0, 257), rng.uniform(0.2, 5.0, 257)
        ta = np.exp(m.alpha * np.log(theta))
        dhv = m.h.dh(v)
        mu = m.mu_tilde * m.h(v) * ta
        kappa = m.kappa_tilde * m.h(v) * ta
        want = (m.mu_tilde * dhv * ta, m.alpha * mu / theta,
                m.kappa_tilde * dhv * ta, m.alpha * kappa / theta)
        for got, expected in zip(transport_derivatives(m, v, theta), want):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("alpha,ell1,ell2,v,theta", [
        (0.3, 1, 2, 1.7, 0.9),
        (-0.2, 2, 1, 0.6, 3.1),
        (0.0, 1, 1, 2.2, 1.4),
    ])
    def test_derivatives_match_finite_differences(self, alpha, ell1, ell2, v, theta):
        m = model(5 / 3, alpha=alpha, h=HProfile.power_sum(ell1, ell2))
        dmu_dv, dmu_dth, dk_dv, dk_dth = transport_derivatives(m, v, theta)
        hv = 1e-6 * v
        hth = 1e-6 * theta
        mu_p, k_p = transport(m, v + hv, theta)
        mu_m, k_m = transport(m, v - hv, theta)
        assert dmu_dv == pytest.approx((mu_p - mu_m) / (2 * hv), rel=1e-6)
        assert dk_dv == pytest.approx((k_p - k_m) / (2 * hv), rel=1e-6)
        mu_p, k_p = transport(m, v, theta + hth)
        mu_m, k_m = transport(m, v, theta - hth)
        if alpha != 0.0:
            assert dmu_dth == pytest.approx((mu_p - mu_m) / (2 * hth), rel=1e-6)
            assert dk_dth == pytest.approx((k_p - k_m) / (2 * hth), rel=1e-6)


@st.composite
def transport_inputs(draw):
    """(v, theta): scalars, or float or int arrays of one shape, empty included."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=1, min_side=0, max_side=6))

    def one():
        return draw(st.one_of(
            edge_floats, st.integers(-3, 3),
            hnp.arrays(np.float64, shape, elements=edge_floats),
            hnp.arrays(np.int64, shape, elements=st.integers(-3, 3))))
    return one(), one()


class TestTransportRefusal:
    """transport accepts a state by one min-reduction per field and refuses it with
    exactly _check_positive's message: the first refused field, v before theta."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(fields=transport_inputs(), floor=st.sampled_from([0.0, POSITIVITY_FLOOR]))
    @example(fields=(np.array([]), np.array([], dtype=np.int64)), floor=POSITIVITY_FLOOR)
    @example(fields=(np.array([2, 1]), 3), floor=0.0)
    @example(fields=(np.array([1.0, math.nan]), -1.0), floor=0.0)
    @example(fields=(math.inf, np.array([1.0, -0.0])), floor=POSITIVITY_FLOOR)
    @example(fields=(-math.inf, math.inf), floor=0.0)
    def test_refuses_with_check_positives_message(self, fields, floor):
        v, theta = fields
        m = model(h=HProfile.constant(1.0), alpha=0.1)   # h of an int array is defined
        with np.errstate(all="ignore"):                  # theta**alpha of inf is NaN at 0
            got = outcome(lambda **kw: transport(m, floor=floor, **kw), v=v, theta=theta)
        assert got == outcome(lambda **kw: _check_positive(floor, **kw), v=v, theta=theta)

    @pytest.mark.parametrize("v, theta, floor, message", [
        (np.array([1.0, math.nan]), np.array([-1.0, 2.0]), 0.0, "v must be positive, got min nan"),
        (1.0, np.array([2.0, -0.0]), 0.0, "theta must be positive, got min -0.0"),
        (np.array([2, 0]), 1, POSITIVITY_FLOOR, "v must exceed 1.0e-08, got min 0"),
        (2.0, -math.inf, POSITIVITY_FLOOR, "theta must exceed 1.0e-08, got min -inf"),
        (np.array([1.0, 1e-8]), math.nan, POSITIVITY_FLOOR, "v must exceed 1.0e-08, got min 1e-08"),
    ])
    def test_message_names_the_first_refused_field(self, v, theta, floor, message):
        with pytest.raises(PositivityError) as info:
            transport(model(), v, theta, floor)
        assert str(info.value) == message


class TestTransportBits:
    """transport forms mu and kappa in place, to the bits of the expression written out,
    and writes neither v nor theta."""

    @pytest.mark.parametrize("alpha", [-0.7, 0.0, 0.1])
    @pytest.mark.parametrize("h", [HProfile.power_sum(1.5, 0.5), HProfile.constant(1.7)],
                             ids=["power-sum", "constant"])
    @pytest.mark.parametrize("scalar", [False, True], ids=["array", "scalar"])
    def test_bitwise_equal_to_the_expression(self, alpha, h, scalar):
        m = model(1.4, mu_tilde=0.7, kappa_tilde=1.3, alpha=alpha, h=h)
        rng = np.random.default_rng(11)
        v, theta = rng.uniform(0.2, 5.0, 257), rng.uniform(0.2, 5.0, 257)
        if scalar:
            v, theta = float(v[0]), float(theta[0])
        v_bits, theta_bits = np.asarray(v).tobytes(), np.asarray(theta).tobytes()
        ta = np.exp(m.alpha * np.log(theta))
        want = (m.mu_tilde * m.h(v) * ta, m.kappa_tilde * m.h(v) * ta)
        got = transport(m, v, theta)
        for x, y in zip(got, want):
            assert np.shape(x) == np.shape(y)
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()
        assert np.asarray(v).tobytes() == v_bits and np.asarray(theta).tobytes() == theta_bits


# 0.5 and 1.5 have no int form
H_EXPONENTS = [0, 0.0, 0.5, 1, 1.0, 1.5, 2, 2.0, 3, 3.0]


def power_outcome(expression, v):
    """The bits of expression(v), or the type of the exception it raises."""
    try:
        return np.asarray(expression(v)).tobytes()
    except ArithmeticError as error:         # a Python float's ** overflows by raising
        return type(error)


class TestPowerSumBits:
    """HProfile.power_sum's h, which takes exponents 1 and -1 of an array as v and 1/v,
    gives the bits of v**ell1 + v**-ell2 on arrays and on scalars."""

    @staticmethod
    def draws():
        rng = np.random.default_rng(42)
        logs = rng.uniform(math.log(1e-300), math.log(1e300), 20000)
        extremes = [5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308]
        return np.concatenate((np.exp(logs), extremes))

    @pytest.mark.parametrize("ell1", H_EXPONENTS)
    def test_array_bitwise_equal_to_the_expression(self, ell1):
        v = self.draws()
        with np.errstate(all="ignore"):
            for ell2 in H_EXPONENTS:
                got = HProfile.power_sum(ell1, ell2).h(v)
                assert got.dtype == np.float64
                assert np.array_equal(got, v ** ell1 + v ** -ell2), (ell1, ell2)

    @pytest.mark.parametrize("ell1", H_EXPONENTS)
    def test_scalars_equal_to_the_expression(self, ell1):
        # Python's and numpy's scalar pow at -1 differ from 1/v in about 1 of 1000 draws
        draws = self.draws()[::10]
        with np.errstate(all="ignore"):
            for ell2 in H_EXPONENTS:
                h = HProfile.power_sum(ell1, ell2).h
                for v in [*map(float, draws), *draws]:
                    want = power_outcome(lambda x: x ** ell1 + x ** -ell2, v)
                    assert power_outcome(h, v) == want, (ell1, ell2, v)


class TestEntropyPair:
    def test_phi_examples(self):
        assert phi(1.0) == 0.0
        assert phi(math.e) == pytest.approx(math.e - 2.0, rel=1e-14)
        assert phi(0.5) == pytest.approx(math.log(2.0) - 0.5, rel=1e-14)

    @given(z=positive)
    def test_phi_nonnegative(self, z):
        assert phi(z) >= 0.0

    def test_phi_two_sided_bound(self):
        # (z+1)^-2 (z-1)^2 <= K*phi(z) and phi(z) <= K*(1/z+1)^2 (z-1)^2, K=2
        z = np.linspace(0.1, 10.0, 5000)
        lower = (z + 1.0) ** -2 * (z - 1.0) ** 2
        upper = (1.0 / z + 1.0) ** 2 * (z - 1.0) ** 2
        p = phi(z)
        assert np.all(lower <= 2.0 * p + 1e-300)
        assert np.all(p <= 2.0 * upper + 1e-300)


KANEL_PROFILES = {"power-sum(1,1)": HProfile.power_sum(1, 1),
                  "power-sum(2,3)": HProfile.power_sum(2, 3),
                  "constant(1)": HProfile.constant(1.0)}
# Phi(v) of each profile at the float64 v, to 30 digits, computed once with mpmath 1.3.0
# at 40 digits: mp.quad of sqrt(expm1(s) - s) * h(exp(s)) over [0, ln(v)/2, ln(v)],
# the integral in s = ln z.  mp.quad of sqrt(phi(z)) * h(z) / z over z in [1, v]
# agreed with every row to 1e-38 relative.
KANEL_TABLE = {
    "power-sum(1,1)": [
        (1e-06, "-3.4339410556550680317647338293e6"),
        (0.001, "-2.2024776912509005201887884986e3"),
        (0.01, "-1.60307841898940405926839738362e2"),
        (0.5, "-3.54050068706645526140549296469e-1"),
        (0.999, "-7.07736038276524453390785466016e-7"),
        (1.001, "7.06478957953576129777166365977e-7"),
        (1.3, "5.10118316951065752701465508724e-2"),
        (2.0, "4.14536578059031012171860638427e-1"),
        (20.0, "4.82337204079033386414809610356e1"),
        (148.0, "1.14861637337329569177796176843e3"),
        (1000.0, "2.08914490761687781204128098083e4"),
        (3000.0, "1.09156964132319449298109784478e5"),
        (30000.0, "3.46248517940983340788266727923e6"),
    ],
    "power-sum(2,3)": [
        (1e-06, "-1.177562882837981313141003598e18"),
        (0.001, "-7.86737687275320346727622203034e8"),
        (0.01, "-6.03476909979430125709974720846e5"),
        (0.5, "-7.62863575462426470394679810871e-1"),
        (0.999, "-7.07973039523922510293842875077e-7"),
        (1.001, "7.06244549439723346554498350902e-7"),
        (1.3, "5.09511065565454379902331205209e-2"),
        (2.0, "5.43571028072161708488383025512e-1"),
        (20.0, "6.06254171787109931677002605296e2"),
        (148.0, "1.03326167663618804424068043968e5"),
        (1000.0, "1.25724699413691010864992517982e7"),
        (3000.0, "1.96722603137983734395167411268e8"),
        (30000.0, "6.23353921589497859093729489992e10"),
    ],
    "constant(1)": [
        (1e-06, "-3.11335132739206165228585090012e1"),
        (0.001, "-1.01209085550715253857940694906e1"),
        (0.01, "-5.10935356577684999250904537593"),
        (0.5, "-1.57837858158746746044202097075e-1"),
        (0.999, "-3.53867930584695198615247159212e-7"),
        (1.001, "3.53239390753204759417788278236e-7"),
        (1.3, "2.50702412570469786501167627735e-2"),
        (2.0, "1.84170844994114709658238525046e-1"),
        (20.0, "4.79202397039605770232071843628"),
        (148.0, "1.94755769340093967432715880094e1"),
        (1000.0, "5.80441181084376872742258498081e1"),
        (3000.0, "1.04230565881341994733639106252e2"),
        (30000.0, "3.40972061894989561399328687661e2"),
    ],
}


class TestKanelPotential:
    def test_zero_at_one(self):
        assert kanel_potential(HProfile.constant(1.0), 1.0) == 0.0

    @pytest.mark.parametrize("name, v, value", [(name, v, value) for name, rows in
                                                KANEL_TABLE.items() for v, value in rows])
    def test_matches_the_30_digit_table(self, name, v, value):
        # from v = 1e-6 to 3e4, where Phi spans 1e-7 to 1e18 in size, one relative bound
        got = kanel_potential(KANEL_PROFILES[name], v)
        assert got == pytest.approx(float(value), rel=1e-13, abs=0.0)

    def test_rule_is_numpys_leggauss_bitwise(self):
        from numpy.polynomial.legendre import leggauss
        nodes, weights = leggauss(32)
        assert ns1d.constitutive._GL_NODES.tobytes() == (0.5 * (nodes + 1.0)).tobytes()
        assert ns1d.constitutive._GL_WEIGHTS.tobytes() == (0.5 * weights).tobytes()

    def test_sign_matches_v_minus_one(self):
        h = HProfile.power_sum(1, 1)
        assert kanel_potential(h, 3.0) > 0
        assert kanel_potential(h, 0.2) < 0

    def test_strictly_increasing(self):
        h = HProfile.power_sum(1, 1)
        vs = [0.2, 0.5, 0.9, 1.0, 1.3, 2.0, 4.0]
        vals = [kanel_potential(h, v) for v in vs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("v", [-2.0, 0.0, -0.0, math.nan])
    def test_domain_error(self, v):
        with pytest.raises(DomainError, match=f"requires v > 0, got {v}"):
            kanel_potential(HProfile.constant(1.0), v)

    @pytest.mark.parametrize("ell1, ell2, v", [(5000, 1, 1.3), (1, 5000, 0.7), (1, 1, math.inf)])
    def test_overflowing_integrand_is_a_domain_error(self, ell1, ell2, v):
        # h is inf at the nodes near 1.3 and 0.7, and the integrand NaN at v = inf, under
        # np.errstate: no RuntimeWarning
        with pytest.raises(DomainError, match=f"Kanel' integral to v = {v} is not finite"):
            kanel_potential(HProfile.power_sum(ell1, ell2), v)

    def test_adaptive_simpson_polynomial(self):
        # exact for cubics by construction; smooth integral to stated tol
        val = adaptive_simpson(lambda x: x ** 3 - 2 * x, 0.0, 2.0)
        assert val == pytest.approx(0.0, abs=1e-12)
        val = adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-12)
        assert val == pytest.approx(2.0, abs=1e-10)
        # an empty interval is 0.0 without evaluating f, here undefined at -1
        assert adaptive_simpson(math.log, -1.0, -1.0) == 0.0

    def test_adaptive_simpson_refuses_a_singular_integrand(self):
        # 1/sqrt(x) never meets tol on the piece at 0: 60 halvings, then QuadratureError
        with pytest.raises(QuadratureError, match=r"max depth 60 on \[0\.0, 8\.67"):
            adaptive_simpson(lambda x: math.inf if x == 0.0 else x ** -0.5, 0.0, 1.0)


EXPONENTS = [0, 0.25, 0.5, 0.75, 1, 1.5, 2, 3, 5]


def slope_requirement(h, v):
    """h'^2 v / h^3 from the profile's own callables."""
    return h.dh(v) ** 2 * v / h(v) ** 3


def sampled_requirements(h):
    """The largest slope and growth requirements on a log sample of [1e-20, 1e20]
    (no overflow for exponents up to 5), refined around each sampled local max."""
    x = np.linspace(-20 * math.log(10), 20 * math.log(10), 20001)
    slope = slope_requirement(h, np.exp(x))
    best = slope.max()
    mid = slope[1:-1]
    peaks = np.flatnonzero((mid >= slope[:-2]) & (mid >= slope[2:])
                           & (mid > (1 + 1e-9) * np.minimum(slope[:-2], slope[2:]))) + 1
    for i in peaks:
        best = max(best, slope_requirement(h, np.exp(np.linspace(x[i - 1], x[i + 1], 2001))).max())
    v = np.exp(x)
    growth = ((v ** h.ell1 + v ** -h.ell2) / h(v)).max()
    return best, growth


class TestValidateH:
    def test_power_sum_growth_equality(self):
        rep = validate_h(HProfile.power_sum(1, 1))
        assert rep.admissible
        assert rep.C_growth == pytest.approx(1.0, rel=1e-12)

    def test_power_sum_slope_bounded_by_one(self):
        # the sup of h'^2 v / h^3 is 1, its limit as v -> 0
        rep = validate_h(HProfile.power_sum(1, 1))
        assert rep.admissible
        assert rep.C_slope == pytest.approx(1.0, abs=1e-12)
        assert rep.v_slope_argmax == 0.0

    def test_constant_declared_zero_exponents(self):
        rep = validate_h(HProfile.constant(1.0))
        assert rep.admissible
        assert rep.C == pytest.approx(2.0, rel=1e-12)
        assert (rep.C_slope, rep.v_slope_argmax) == (0.0, None)

    def test_constant_with_unit_exponents_inadmissible(self):
        h = dataclasses.replace(HProfile.constant(1.0), ell1=1.0, ell2=1.0)
        rep = validate_h(h)
        assert not rep.admissible
        assert "without bound" in rep.note
        assert rep.C is None and rep.C_growth is None

    def test_report_serializes(self):
        rep = validate_h(HProfile.power_sum(1, 1))
        d = dataclasses.asdict(rep)
        assert isinstance(d["admissible"], bool)
        assert d["ell1"] == 1.0

    @pytest.mark.parametrize("ell1", EXPONENTS)
    @pytest.mark.parametrize("ell2", EXPONENTS)
    def test_exact_sup_matches_a_dense_sample(self, ell1, ell2):
        h = HProfile.power_sum(ell1, ell2)
        rep = validate_h(h)
        slope, growth = sampled_requirements(h)
        if not rep.admissible:
            # unbounded as v -> 0: the sampled requirement keeps growing there
            assert "slope condition requirement grows without bound as v -> 0" == rep.note
            assert rep.C is None and rep.C_slope is None and rep.v_slope_argmax is None
            assert slope_requirement(h, 1e-20) > 10 * slope_requirement(h, 1e-10)
            return
        for exact, sampled in ((rep.C_slope, slope), (rep.C_growth, growth)):
            assert exact == pytest.approx(sampled, rel=1e-6, abs=1e-300)
            assert exact >= sampled * (1 - 1e-12)    # a sup is never below a sample
        assert rep.C == max(rep.C_slope, rep.C_growth)

    @pytest.mark.parametrize("ell1, ell2", [(1, 0.5), (1, 0.9), (1, 0.99), (0.4, 0),
                                            (0.25, 0)])
    def test_unbounded_slope_is_inadmissible(self, ell1, ell2):
        rep = validate_h(HProfile.power_sum(ell1, ell2))
        assert not rep.admissible
        assert rep.C is None and rep.C_slope is None and rep.v_slope_argmax is None
        assert "without bound" in rep.note

    def test_half_zero_sup_is_its_limit_at_zero(self):
        rep = validate_h(HProfile.power_sum(0.5, 0))
        assert (rep.C_slope, rep.v_slope_argmax) == (pytest.approx(0.25, rel=1e-15), 0.0)

    def test_interior_maximum(self):
        rep = validate_h(HProfile.power_sum(2, 2))
        assert rep.C_slope == pytest.approx(1.4746362511, rel=1e-10)
        assert rep.v_slope_argmax == pytest.approx(0.473768, rel=1e-6)

    @pytest.mark.parametrize("ell1, ell2, C", [(1, 400, 23727.36), (200, 1, 5896.44)])
    def test_large_exponents_are_admissible(self, ell1, ell2, C):
        # h is huge near its maximiser, not too small: C is finite
        rep = validate_h(HProfile.power_sum(ell1, ell2))
        assert rep.admissible
        assert rep.C == pytest.approx(C, rel=1e-6)
        assert math.isfinite(rep.v_slope_argmax)

    @pytest.mark.parametrize("ell1", [5e-324, 1e-310])
    @pytest.mark.parametrize("ell2, C_slope", [(1, 1.0), (2, 1.0352166562), (3, 1.8369488842)])
    def test_subnormal_ell1_is_the_small_ell1_limit(self, ell1, ell2, C_slope):
        # the root near 1/ell1 overflows float64; r -> 0 there, so it holds no sup
        rep = validate_h(HProfile.power_sum(ell1, ell2))
        want = validate_h(HProfile.power_sum(1e-300, ell2))
        assert rep.admissible and rep.C_slope == want.C_slope
        assert rep.v_slope_argmax == want.v_slope_argmax
        assert rep.C_slope == pytest.approx(C_slope, rel=1e-10)

    @pytest.mark.parametrize("h", [HProfile.power_sum(1e308, 1), HProfile.constant(1e-320)],
                             ids=["ell1=1e308", "c=1e-320"])
    def test_non_finite_closed_form_refused(self, h):
        with pytest.raises(DomainError, match="not finite"):
            validate_h(h)
