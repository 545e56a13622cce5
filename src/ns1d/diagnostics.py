"""Monitored functionals: conserved totals, energy-entropy balance, Kanel' pair,
temperature floor fit, and decay metrics.

Sup-type quantities are taken over interior cells only; ghosts sit at the far
field by construction.  The accumulated dissipation is integrated in time with
the trapezoid rule at every accepted step.  What the identity residual then
shows is mostly the gap between dissipation_rate's cell-averaged formula and the
scheme's own dissipation, which closes at second order in dx (on the default
gauss-pulse at t = 2: -9.8e-4 at N = 128 down to -1.6e-5 at N = 1024).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import List, Optional

import numpy as np

# adaptive_simpson is unused here; the benchmark's tracer patches it by this name
from .constitutive import (GasModel, HProfile, adaptive_simpson,  # noqa: F401
                           kanel_potential, phi, transport)
from .errors import ArgumentError
from .grid import Grid, State
from .solver import make_stage

__all__ = [
    "DiagnosticsRecord", "InitialDataReport", "DecayReport", "DiagnosticsCollector",
    "KanelEvaluator", "conserved_totals", "energy_identity_residual",
    "dissipation_rate", "kanel_bound_pair", "theta_floor_fit", "decay_metrics",
    "initial_data_report", "cell_kinetic_energy",
]


@dataclass
class DiagnosticsRecord:
    t: float
    mass_dev: float
    momentum: float
    energy_dev: float
    eta_total: float
    dissipation_accum: float
    identity_residual: float
    sup_dev: float
    min_v: float
    max_v: float
    min_theta: float
    max_theta: float
    mu_vx_norm: float
    kanel_lhs: float
    kanel_rhs: float
    h1_dev: float
    h2_dev: float

    def csv_row(self) -> list:
        return [getattr(self, c) for c in self.CSV_COLUMNS]


# the timeseries.csv header: the record's fields, in declaration order
DiagnosticsRecord.CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


@dataclass
class InitialDataReport:
    """Discrete counterparts of the initial size and positivity bounds: the first
    record's h2_dev, min_v, max_v and min_theta."""

    pi0_discrete: float       # H2-discrete norm of (v0-1, u0, theta0-1)
    min_v0: float
    max_v0: float
    min_theta0: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DecayReport:
    times: List[float]
    sup_devs: List[float]
    half_time: Optional[float]
    quarter_time: Optional[float]
    tenth_time: Optional[float]

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# field helpers (interior views, compatible gradients)
# ---------------------------------------------------------------------------

def _interior(state: State, grid: Grid):
    ci, ni = grid.cell_interior, grid.node_interior
    return state.v[ci], state.u[ni], state.theta[ci]


def _deviation_norms(grid: Grid, dv: np.ndarray, u: np.ndarray, dtheta: np.ndarray):
    """(H1, H2) size of the interior distance (dv, u, dtheta) = (v-1, u, theta-1)
    from (1, 0, 1): sqrt(|v-1|^2 + |u|^2 + |theta-1|^2), one pass per field."""
    norms = [grid.sobolev_norms(f) for f in (dv, u, dtheta)]
    return tuple(float(np.sqrt(a ** 2 + b ** 2 + c ** 2)) for a, b, c in zip(*norms))


def cell_kinetic_energy(state: State, grid: Grid) -> np.ndarray:
    """Node kinetic energy attributed to cells: (u_left^2 + u_right^2)/4."""
    u = state.u
    return 0.25 * (u[:-1] ** 2 + u[1:] ** 2)


def _cell_gradient(grid: Grid, cell_field: np.ndarray) -> np.ndarray:
    """Node differences averaged back to cells (centered on the interior)."""
    return grid.cell_average_of_nodes(grid.node_diff(cell_field))


def conserved_totals(state: State, grid: Grid, model: GasModel):
    """(mass_dev, momentum, energy_dev) over the interior."""
    v, u, theta = _interior(state, grid)
    dx = grid.dx
    mass_dev = float(np.sum(v - 1.0) * dx)
    momentum = float(np.sum(u) * dx)
    k = cell_kinetic_energy(state, grid)[grid.cell_interior]
    energy_dev = float(np.sum(model.cv * theta + k - model.cv) * dx)
    return mass_dev, momentum, energy_dev


def dissipation_rate(state: State, model: GasModel, grid: Grid) -> float:
    """Sum over interior cells of [mu*u_x^2/(v*theta) + kappa*theta_x^2/(v*theta^2)]*dx.

    Read off the stage of state as (mu_v*u_x^2 + kappa_v*theta_x^2/theta)/theta:
    u_x is the same cell difference the solver's heating term uses, and theta_x
    is the stage's node difference averaged to cells.
    """
    s = make_stage(state, model, grid)
    ux, thx = s.ux, grid.cell_average_of_nodes(s.theta_x)
    integrand, heat = s.mu_v * ux, s.kappa_v * thx      # formed in place from here
    integrand *= ux
    integrand += np.divide(np.multiply(heat, thx, out=heat), s.theta, out=heat)
    integrand /= s.theta
    return float(np.add.reduce(integrand[grid.cell_interior]) * grid.dx)   # np.sum's bits


def eta_total(state: State, model: GasModel, grid: Grid) -> float:
    """Integral of phi(v) + k + cv*phi(theta) over interior cells, with the
    node kinetic energy attributed to cells."""
    ci = grid.cell_interior
    k = cell_kinetic_energy(state, grid)
    dens = phi(state.v) + k + model.cv * phi(state.theta)
    return float(np.sum(dens[ci]) * grid.dx)


def energy_identity_residual(record_now: DiagnosticsRecord,
                             record_initial: DiagnosticsRecord) -> float:
    """eta_total(t) + dissipation_accum(t) - eta_total(0); zero in the continuum."""
    return record_now.eta_total + record_now.dissipation_accum - record_initial.eta_total


# ---------------------------------------------------------------------------
# Kanel' pair
# ---------------------------------------------------------------------------

# a class, not a function, because the benchmark's tracer patches __init__ and __call__
class KanelEvaluator:
    """max_x |Phi(v(x))| over an array of v, by two exact quadratures.

    The integrand sqrt(phi(z))*h(z)/z of Phi is >= 0, so Phi is nondecreasing,
    and Phi(1) = 0: |Phi| is nonincreasing below 1 and nondecreasing above, and
    its max over the array sits at min v or at max v.
    """

    def __init__(self, h: HProfile):
        self.h = h

    def __call__(self, v: np.ndarray) -> float:
        return max(abs(kanel_potential(self.h, float(v.min()))),
                   abs(kanel_potential(self.h, float(v.max()))))


def kanel_bound_pair(state: State, model: GasModel, grid: Grid):
    """(max_x |Phi(v)|, ||sqrt(phi(v))|| * ||h(v)*v_x/v||), the Cauchy-Schwarz pair.

    phi refuses v <= 0 and NaN with PositivityError before either quadrature;
    theta is not read."""
    ci = grid.cell_interior
    v = state.v
    sqrt_phi = np.sqrt(phi(v[ci]))
    lhs = KanelEvaluator(model.h)(v[ci])
    vx = _cell_gradient(grid, v)[ci]
    hv = np.asarray(model.h(v[ci]), dtype=float)
    rhs_val = (grid.discrete_norm(sqrt_phi, "L2")
               * grid.discrete_norm(hv * vx / v[ci], "L2"))
    return lhs, rhs_val


# ---------------------------------------------------------------------------
# record-series functionals
# ---------------------------------------------------------------------------

def theta_floor_fit(records: List[DiagnosticsRecord]) -> float:
    """Smallest C with 1/min_theta(t) - 1/min_theta(s) <= C*(t-s) over all pairs.

    Equals the max difference quotient of 1/min_theta, clamped at 0.  The
    quotient of any pair is a convex combination of the quotients between
    consecutive times in between, so only those are formed.  Of records
    sharing a time, the largest 1/min_theta ends a pair and the smallest
    starts one.
    """
    if len(records) < 3:
        raise ArgumentError("theta_floor_fit needs at least 3 records")
    t = np.array([r.t for r in records])
    inv = np.array([1.0 / r.min_theta for r in records])
    dt = np.diff(t)
    if np.any(dt < 0):
        raise ArgumentError("theta_floor_fit needs records in time order")
    first = np.flatnonzero(np.r_[True, dt > 0])     # first record at each time
    if first.size < 2:
        return 0.0
    hi = np.maximum.reduceat(inv, first)
    lo = np.minimum.reduceat(inv, first)
    q = (hi[1:] - lo[:-1]) / np.diff(t[first])
    return max(float(q.max()), 0.0)


def decay_metrics(records: List[DiagnosticsRecord]) -> DecayReport:
    """Time series of sup_dev and first passage below {1/2, 1/4, 1/10} of start;
    None for each when sup_dev starts at 0, since there is no deviation to decay."""
    if len(records) < 2:
        raise ArgumentError("decay_metrics needs at least 2 records")
    times = [r.t for r in records]
    sups = [r.sup_dev for r in records]
    s0 = sups[0]

    def first_below(frac):
        if s0 == 0.0:
            return None
        thresh = frac * s0
        for t, s in zip(times, sups):
            if s <= thresh:
                return t
        return None

    return DecayReport(times, sups, first_below(0.5), first_below(0.25), first_below(0.1))


def initial_data_report(record: DiagnosticsRecord) -> InitialDataReport:
    """The report of the initial state, read off its record, the first of a run."""
    return InitialDataReport(record.h2_dev, record.min_v, record.max_v, record.min_theta)


# ---------------------------------------------------------------------------
# collector wired into solver.advance
# ---------------------------------------------------------------------------

class DiagnosticsCollector:
    """Accumulates dissipation per accepted step and emits records at cadence.

    Use ``collector.on_step`` as the solver's per-step hook and
    ``collector.observe`` as its observer.
    """

    def __init__(self, model: GasModel, grid: Grid):
        self.model = model
        self.grid = grid
        self.records: List[DiagnosticsRecord] = []
        self._accum = 0.0
        self._prev_rate: Optional[float] = None
        self._prev_t: Optional[float] = None

    def _accumulate(self, state: State):
        rate = dissipation_rate(state, self.model, self.grid)
        if self._prev_rate is not None:
            self._accum += 0.5 * (rate + self._prev_rate) * (state.t - self._prev_t)
        self._prev_rate = rate
        self._prev_t = state.t

    def on_step(self, state: State, stats) -> None:
        self._accumulate(state)

    def observe(self, state: State) -> None:
        if self._prev_rate is None:
            self._accumulate(state)
        self.records.append(self.make_record(state))

    def make_record(self, state: State) -> DiagnosticsRecord:
        """The record of state; its identity residual is measured from the
        first observed record, or from itself when there is none yet."""
        grid, model = self.grid, self.model
        v, u, theta = _interior(state, grid)
        dv, dtheta = v - 1.0, theta - 1.0
        mass_dev, momentum, energy_dev = conserved_totals(state, grid, model)
        sup_dev = max(float(np.max(np.abs(f))) for f in (dv, u, dtheta))
        h1_dev, h2_dev = _deviation_norms(grid, dv, u, dtheta)
        mu, _ = transport(model, state.v, state.theta)
        vx = _cell_gradient(grid, state.v)
        ci = grid.cell_interior
        mu_vx_norm = grid.discrete_norm((mu * vx / state.v)[ci], "L2")
        lhs, rhs_val = kanel_bound_pair(state, model, grid)
        record = DiagnosticsRecord(
            t=state.t, mass_dev=mass_dev, momentum=momentum, energy_dev=energy_dev,
            eta_total=eta_total(state, model, grid), dissipation_accum=self._accum,
            identity_residual=0.0,   # set below, once the record exists
            sup_dev=sup_dev,
            min_v=float(v.min()), max_v=float(v.max()),
            min_theta=float(theta.min()), max_theta=float(theta.max()),
            mu_vx_norm=mu_vx_norm, kanel_lhs=lhs, kanel_rhs=rhs_val,
            h1_dev=h1_dev, h2_dev=h2_dev)
        record.identity_residual = energy_identity_residual(
            record, self.records[0] if self.records else record)
        return record
