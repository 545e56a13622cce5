"""Transport laws, the entropy function phi, the Kanel' potential, and
admissibility checks of the volume profile h.

Everything here is a pure function of (v, theta) or of a volume profile h.
Gas constants are normalized to unity; the reference state is (v, theta) = (1, 1)
and the entropy zero point is fixed there.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .errors import ArgumentError, DomainError, QuadratureError

__all__ = [
    "HProfile", "GasModel", "AdmissibilityReport", "check_sample_range",
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
        if ell1 < 0 or ell2 < 0:
            raise ArgumentError("power-sum exponents must be nonnegative")
        return HProfile("power-sum", ell1, ell2, lambda v: v ** ell1 + v ** -ell2,
                        lambda v: ell1 * v ** (ell1 - 1) - ell2 * v ** (-ell2 - 1))

    @staticmethod
    def constant(c: float) -> "HProfile":
        if c <= 0:
            raise ArgumentError("constant profile requires c > 0")
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
        if not self.gamma > 1.0:
            raise DomainError(f"gamma must exceed 1, got {self.gamma}")
        if self.mu_tilde <= 0 or self.kappa_tilde <= 0:
            raise DomainError("transport scales mu_tilde, kappa_tilde must be positive")

    @property
    def cv(self) -> float:
        return 1.0 / (self.gamma - 1.0)


def _all_above(arr: np.ndarray, floor: float) -> bool:
    """np.all(arr > floor) as one min-reduction, which propagates NaN, so a NaN
    entry fails; an empty array passes."""
    return arr.size == 0 or np.minimum.reduce(arr, axis=None) > floor


def _check_positive(**kwargs):
    """DomainError naming the first argument with an entry that is not > 0
    (NaN included); scalars and empty arrays of positive values pass."""
    for name, val in kwargs.items():
        arr = np.asarray(val)
        if not _all_above(arr, 0.0):
            raise DomainError(f"{name} must be positive, got min {arr.min()}")


def _theta_pow(theta, alpha):
    # exp(alpha*log) is valid for every real alpha and reduces to exactly 1
    # at alpha = 0, which keeps the alpha=0 branch bitwise equal to h alone.
    return np.exp(alpha * np.log(theta))


def transport(model: GasModel, v, theta):
    """(mu, kappa) = (mu_tilde, kappa_tilde) * h(v) * theta^alpha."""
    _check_positive(v=v, theta=theta)
    hv = model.h(v)
    ta = _theta_pow(theta, model.alpha)
    return model.mu_tilde * hv * ta, model.kappa_tilde * hv * ta


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
# adaptive Simpson quadrature and the Kanel' potential
# ---------------------------------------------------------------------------

def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10, max_depth: int = 60) -> float:
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
        if depth >= max_depth:
            raise QuadratureError(
                f"adaptive Simpson hit max depth {max_depth} on [{x0}, {x2}]")
        half = 0.5 * tol
        return (recurse(x0, xm, f0, fl, f1, left, half, depth + 1)
                + recurse(xm, x2, f1, fr, f2, right, half, depth + 1))

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def kanel_potential(h: HProfile, v: float, tol: float = 1e-10) -> float:
    """Integral of sqrt(phi(z))*h(z)/z from 1 to v.

    The integrand has a square-root-type kink at z = 1, so the integration
    never straddles that point: the interval starts or ends there.
    Sign matches sign(v - 1).
    """
    if v <= 0:
        raise DomainError(f"kanel_potential requires v > 0, got {v}")
    if v == 1.0:
        return 0.0

    def f(z):
        return math.sqrt(z - math.log(z) - 1.0) * float(h.h(z)) / z

    if v > 1.0:
        return adaptive_simpson(f, 1.0, v, tol=tol)
    return -adaptive_simpson(f, v, 1.0, tol=tol)


# ---------------------------------------------------------------------------
# admissibility of h
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    """Empirical check of the two growth conditions on h over a sampled range."""

    admissible: bool
    C: float
    ell1: float
    ell2: float
    v_range: tuple
    samples: int
    C_growth: float          # smallest C with C*h >= v**ell1 + v**-ell2 on the grid
    v_growth_argmax: float
    C_slope: float           # smallest C with h'^2*v <= C*h^3 on the grid
    v_slope_argmax: float
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def check_sample_range(v_range, samples: int):
    """(lo, hi) of a validation range; DomainError unless 0 < lo < hi and samples >= 2."""
    lo, hi = float(v_range[0]), float(v_range[1])
    if not (0.0 < lo < hi) or samples < 2:
        raise DomainError(f"invalid range {v_range} or samples {samples}")
    return lo, hi


def validate_h(h: HProfile, v_range=(0.01, 100.0), samples: int = 100_000,
               boundary_growth_factor: float = 1.5) -> AdmissibilityReport:
    """Smallest empirical C satisfying both growth conditions on a log grid.

    The conditions quantify over all v > 0, which a finite grid cannot
    certify; the report records the sampled range.  A profile is flagged
    inadmissible when the required C is attained at a range endpoint and has
    grown by more than boundary_growth_factor over the final octave of v --
    the signature of an unbounded requirement (approach to a finite
    asymptote stays below the factor).
    """
    lo, hi = check_sample_range(v_range, samples)
    v = np.exp(np.linspace(math.log(lo), math.log(hi), samples))
    hv = np.asarray(h.h(v), dtype=float)
    if not _all_above(hv, 0.0):
        raise DomainError("h(v) must be positive on the validation range")
    dhv = np.asarray(h.dh(v), dtype=float)

    req_growth = (v ** h.ell1 + v ** (-h.ell2)) / hv
    req_slope = dhv ** 2 * v / hv ** 3
    i1 = int(np.argmax(req_growth))
    i2 = int(np.argmax(req_slope))
    c1 = float(req_growth[i1])
    c2 = float(req_slope[i2])

    log_step = (math.log(hi) - math.log(lo)) / (samples - 1)
    octave = max(1, int(round(math.log(2.0) / log_step)))

    def unbounded(req, imax):
        # still growing geometrically at the range edge => requirement has no
        # finite sup over v > 0 (approach to a finite asymptote passes)
        if imax == samples - 1 and octave < samples:
            inward = req[samples - 1 - octave]
            return req[imax] > boundary_growth_factor * max(inward, 1e-300)
        if imax == 0 and octave < samples:
            inward = req[octave]
            return req[imax] > boundary_growth_factor * max(inward, 1e-300)
        return False

    notes = []
    bad = False
    if unbounded(req_growth, i1):
        bad = True
        notes.append("growth condition requirement increases without bound at range edge")
    if unbounded(req_slope, i2):
        bad = True
        notes.append("slope condition requirement increases without bound at range edge")

    return AdmissibilityReport(
        admissible=not bad,
        C=max(c1, c2),
        ell1=h.ell1,
        ell2=h.ell2,
        v_range=(lo, hi),
        samples=samples,
        C_growth=c1,
        v_growth_argmax=float(v[i1]),
        C_slope=c2,
        v_slope_argmax=float(v[i2]),
        note="; ".join(notes),
    )
