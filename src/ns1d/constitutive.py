"""Transport laws, the entropy function phi, the Kanel' potential, and
the exact admissibility of the volume profile h.

Everything here is a pure function of (v, theta) or of a volume profile h.
Gas constants are normalized to unity; the reference state is (v, theta) = (1, 1)
and the entropy zero point is fixed there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ArgumentError, DomainError, PositivityError, QuadratureError

__all__ = [
    "HProfile", "GasModel", "AdmissibilityReport",
    "transport", "transport_derivatives", "phi", "kanel_potential", "validate_h",
    "adaptive_simpson",
]


# ---------------------------------------------------------------------------
# volume profile h(v)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HProfile:
    """Volume dependence of the transport coefficients, with its derivative.

    ``kind`` is "power-sum" (h = v**ell1 + v**-ell2) or "constant".  The
    callables accept scalars or numpy arrays of positive v.
    """

    kind: str
    ell1: float
    ell2: float
    h: Callable
    dh: Callable

    @staticmethod
    def power_sum(ell1: float, ell2: float) -> "HProfile":
        if not (0 <= ell1 < math.inf and 0 <= ell2 < math.inf):
            raise ArgumentError("power-sum exponents must be finite and nonnegative")

        def h(v):
            # numpy's array power at exponents 1 and -1 returns v and 1/v bit for bit, by a
            # slower loop; a scalar keeps **, whose pow can differ from 1/v in the last bit
            if type(v) is not np.ndarray:
                return v ** ell1 + v ** -ell2
            return (v if ell1 == 1 else v ** ell1) + (1.0 / v if ell2 == 1 else v ** -ell2)

        return HProfile("power-sum", ell1, ell2, h,
                        lambda v: ell1 * v ** (ell1 - 1) - ell2 * v ** (-ell2 - 1))

    @staticmethod
    def constant(c: float) -> "HProfile":
        if not 0 < c < math.inf:
            raise ArgumentError("constant profile requires a finite c > 0")
        return HProfile("constant", 0.0, 0.0,
                        lambda v: np.full_like(np.asarray(v, dtype=float), c) if np.ndim(v) else c,
                        lambda v: np.zeros_like(np.asarray(v, dtype=float)) + 0.0)

    def __call__(self, v):
        return self.h(v)


# ---------------------------------------------------------------------------
# gas model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GasModel:
    """Ideal polytropic gas with transport mu_tilde*h(v)*theta^alpha.

    cv is always 1/(gamma - 1); it is a derived property, never stored.
    """

    gamma: float
    mu_tilde: float = 1.0
    kappa_tilde: float = 1.0
    alpha: float = 0.0
    h: HProfile = field(default_factory=lambda: HProfile.constant(1.0))

    def __post_init__(self):
        if not 1.0 < self.gamma < math.inf:
            raise DomainError(f"gamma must exceed 1 and be finite, got {self.gamma}")
        if not (0 < self.mu_tilde < math.inf and 0 < self.kappa_tilde < math.inf):
            raise DomainError("transport scales mu_tilde, kappa_tilde must be positive and finite")
        if not math.isfinite(self.alpha):
            raise DomainError(f"alpha must be finite, got {self.alpha}")

    @property
    def cv(self) -> float:
        return 1.0 / (self.gamma - 1.0)


def _all_above(arr, floor: float) -> bool:
    """np.all(arr > floor) of an array or a scalar as one min-reduction, which
    propagates NaN, so a NaN entry fails; an empty array passes."""
    try:
        return np.minimum.reduce(arr, axis=None) > floor
    except ValueError:                  # of the inputs numpy takes, only an empty one has no min
        return np.size(arr) == 0


def _check_positive(floor: float = 0.0, **kwargs):
    """PositivityError naming the first argument with an entry that is not
    > floor (NaN included); scalars and empty arrays pass when above it."""
    for name, val in kwargs.items():
        arr = np.asarray(val)
        if not _all_above(arr, floor):
            bound = "be positive" if floor == 0.0 else f"exceed {floor:.1e}"
            raise PositivityError(f"{name} must {bound}, got min {arr.min()}")


def _theta_pow(theta, alpha):
    # exp(alpha*log) is valid for every real alpha and reduces to exactly 1
    # at alpha = 0, which keeps the alpha=0 branch bitwise equal to h alone.
    # An array's power is formed in place on its own log (log*alpha is alpha*log bitwise).
    power = np.log(theta)
    if type(power) is not np.ndarray:
        return np.exp(alpha * power)
    power *= alpha
    return np.exp(power, out=power)


def transport(model: GasModel, v, theta, floor: float = 0.0):
    """(mu, kappa) = (mu_tilde, kappa_tilde) * h(v) * theta^alpha, after the one
    positivity check of the state: PositivityError unless v, theta > floor.  Each
    coefficient is formed in place on its (tilde * h) product, in that operand order."""
    if not (_all_above(v, floor) and _all_above(theta, floor)):
        _check_positive(floor, v=v, theta=theta)
    hv = model.h(v)
    ta = _theta_pow(theta, model.alpha)
    mu = model.mu_tilde * hv
    mu *= ta
    kappa = model.kappa_tilde * hv
    kappa *= ta
    return mu, kappa


def transport_derivatives(model: GasModel, v, theta):
    """Partial derivatives (dmu_dv, dmu_dtheta, dkappa_dv, dkappa_dtheta).

    Uses mu_theta = alpha*mu/theta and the stored h'.
    """
    _check_positive(v=v, theta=theta)
    ta = _theta_pow(theta, model.alpha)
    hv = model.h(v)
    dhv = model.h.dh(v)
    mu = model.mu_tilde * hv * ta
    kappa = model.kappa_tilde * hv * ta
    return (model.mu_tilde * dhv * ta,
            model.alpha * mu / theta,
            model.kappa_tilde * dhv * ta,
            model.alpha * kappa / theta)


# ---------------------------------------------------------------------------
# entropy function
# ---------------------------------------------------------------------------

def phi(z):
    """phi(z) = z - ln(z) - 1, nonnegative, zero only at z = 1."""
    _check_positive(z=z)
    return z - np.log(z) - 1.0


# ---------------------------------------------------------------------------
# the Kanel' potential, and adaptive Simpson (kept for the benchmark's tracer)
# ---------------------------------------------------------------------------

SIMPSON_MAX_DEPTH = 60   # halvings: a piece 2**-60 of [a, b] still off tol marks a singular f


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Simpson integration of f over [a, b], absolute tolerance tol."""
    if a == b:
        return 0.0

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, tol, depth):
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl, fr = f(xl), f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        err = left + right - whole
        if abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        if depth >= SIMPSON_MAX_DEPTH:
            raise QuadratureError(
                f"adaptive Simpson hit max depth {SIMPSON_MAX_DEPTH} on [{x0}, {x2}]")
        half = 0.5 * tol
        return (recurse(x0, xm, f0, fl, f1, left, half, depth + 1)
                + recurse(xm, x2, f1, fr, f2, right, half, depth + 1))

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


# numpy's leggauss(32), moved to [0, 1] below: its 16 non-negative nodes, ascending, then
# their weights, as float.hex; the rule is symmetric, so the other 16 are their mirror images
_GL32_HALF = np.array([float.fromhex(t) for t in """
    0x1.8bbc8488cc49ap-5 0x1.27e0ea717f237p-3 0x1.ea0f7e19c094bp-3 0x1.53d55ce57bdf6p-2
    0x1.af76b57c6f8f1p-2 0x1.038862866b29dp-1 0x1.2ce9146962ca4p-1 0x1.537a89c487f8ap-1
    0x1.76e0931d693bap-1 0x1.96c69481c4bc5p-1 0x1.b2e04fd686a13p-1 0x1.caea9b4574cb9p-1
    0x1.deac0259f7f42p-1 0x1.edf5518053baap-1 0x1.f8a212714bcdcp-1 0x1.fe995e70409b6p-1
    0x1.8b6d9eaec77a3p-4 0x1.87bc776f8c6ccp-4 0x1.8062fc0f6fef5p-4 0x1.7572bdb3f6e49p-4
    0x1.6705e18e13ecfp-4 0x1.553ee25ebebc3p-4 0x1.40483e126fd0ep-4 0x1.2854103b35e00p-4
    0x1.0d9b9a62cac04p-4 0x1.e0bd76c924984p-5 0x1.a1c6ae961fbeep-5 0x1.5ee963a3354abp-5
    0x1.18c5800a35609p-5 0x1.a0060a8531ff0p-6 0x1.0aa3c248696dep-6 0x1.cbf8bc743ce34p-8
    """.split()]).reshape(2, 16)
_GL_NODES = 0.5 * (np.concatenate((-_GL32_HALF[0, ::-1], _GL32_HALF[0])) + 1.0)
_GL_WEIGHTS = 0.5 * np.concatenate((_GL32_HALF[1, ::-1], _GL32_HALF[1]))


def kanel_potential(h: HProfile, v: float) -> float:
    """Phi(v), the integral of sqrt(phi(z))*h(z)/z from 1 to v, signed as v - 1.

    In s = ln z the integrand is sqrt(expm1(s) - s)*h(exp(s)) on [0, ln v], s times an
    analytic function, which the fixed 32-node Gauss-Legendre rule integrates to about
    2e-14 relative.  DomainError for v <= 0 or NaN, and for a Phi not finite in float64.
    """
    if not v > 0:
        raise DomainError(f"kanel_potential requires v > 0, got {v}")
    log_v = math.log(v)
    s = log_v * _GL_NODES
    with np.errstate(all="ignore"):      # an h that overflows gives inf, refused below
        value = log_v * float((_GL_WEIGHTS * np.sqrt(np.expm1(s) - s) * h.h(np.exp(s))).sum())
    if abs(value) < math.inf:               # so that NaN fails too
        return value
    raise DomainError(f"the Kanel' integral to v = {v} is not finite in float64")


# ---------------------------------------------------------------------------
# admissibility of h
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    """The smallest C of each condition on h, a sup over all v > 0.

    C_growth is the sup of (v**ell1 + v**-ell2) / h and C_slope the sup of
    h'**2 v / h**3, attained at v_slope_argmax (0.0: the limit as v -> 0; None:
    the requirement is 0 everywhere or unbounded).  An unbounded requirement has
    C_* and C None and makes h inadmissible; the note names its condition and end.
    """

    admissible: bool
    C: Optional[float]
    ell1: float
    ell2: float
    C_growth: Optional[float]
    C_slope: Optional[float]
    v_slope_argmax: Optional[float]
    note: str = ""


def _finite(what: str, x) -> float:
    if not math.isfinite(x):
        raise DomainError(f"the {what} of the admissibility closed form is not finite "
                          f"in float64 ({x}), so the required C is not finite")
    return float(x)


def _power_sum_slope_sup(a: float, b: float):
    """(sup, argmax) over v > 0 of r = h'**2 v / h**3 for h = v**a + v**-b, or None
    when r grows without bound (which it can only do as v -> 0).

    With w = v**(a+b), r = v**(b-1) (a w - b)**2 / (w+1)**3, which tends to 0 as
    v -> inf.  Its sup is the larger of its limit as v -> 0 and its value at each
    positive root w of d ln r / d ln v = 0 multiplied out:
    -a(a+1) w**2 + [(b-1)(a-b) + (a+b)(2a+3b)] w - b(b-1) = 0.
    A root that overflows float64 is skipped: r -> 0 as w -> inf, so it holds no sup.
    """
    if not (b >= 1 or (b == 0 and (a == 0 or a >= 0.5))):
        return None
    sup, argmax = (1.0, 0.0) if b == 1 else (0.25, 0.0) if (a, b) == (0.5, 0) else (0.0, None)
    qa = _finite("coefficient", -a * (a + 1))
    qb = _finite("coefficient", (b - 1) * (a - b) + (a + b) * (2 * a + 3 * b))
    qc = _finite("coefficient", -b * (b - 1))
    if qa == 0:
        roots = [-qc / qb] if qb else []
    else:
        disc = _finite("discriminant", qb * qb - 4 * qa * qc)
        # the cancellation-free pair of roots, q / qa and qc / q
        q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb)) if disc >= 0 else 0.0
        roots = [q / qa, qc / q] if q else []
    with np.errstate(all="ignore"):
        for w in map(np.float64, roots):
            if 0 < w < math.inf:
                r = _finite("requirement", w ** ((b - 1) / (a + b)) * (a * w - b) ** 2
                            / (w + 1) ** 3)
                if r > sup:
                    sup, argmax = r, float(w ** (1 / (a + b)))
    return sup, argmax


def validate_h(h: HProfile) -> AdmissibilityReport:
    """The exact admissibility of h, from the closed form of its kind.

    For the power-sum, C_growth is identically 1 and C_slope comes from
    _power_sum_slope_sup.  For `constant c` (c read as h(1)) with its declared
    exponents, C_slope is 0 and C_growth is 2/c when both exponents are 0;
    otherwise v**ell1 + v**-ell2 outgrows c.  A coefficient or requirement
    that is not finite in float64 raises DomainError.
    """
    growth, slope, condition = 1.0, (0.0, None), "slope"
    if h.kind == "constant":
        c = float(h(1.0))
        if not c > 0:
            raise DomainError(f"h(v) must be positive, got h(1) = {c}")
        ends = " and as v -> ".join(end for end, ell in (("0", h.ell2), ("inf", h.ell1)) if ell)
        growth = None if ends else _finite("requirement", 2.0 / _finite("coefficient", c))
        condition = "growth"
    else:
        slope = _power_sum_slope_sup(h.ell1, h.ell2)
        ends = "" if slope else "0"
    c_slope, v_slope = slope or (None, None)
    return AdmissibilityReport(
        admissible=not ends,
        C=None if ends else max(growth, c_slope),
        ell1=h.ell1,
        ell2=h.ell2,
        C_growth=growth,
        C_slope=c_slope,
        v_slope_argmax=v_slope,
        note=(f"{condition} condition requirement grows without bound as v -> {ends}"
              if ends else ""),
    )
