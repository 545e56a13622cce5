"""Time integration: explicit SSP-RK2 (Heun) and IMEX with backward-Euler diffusion
(one linear tridiagonal solve each for u and theta, coefficients frozen at the half state).

The semidiscrete system on the staggered grid is

    dv/dt     = cell_diff(u)
    du/dt     = node_diff(-P + mu*u_x/v)          (cells -> nodes)
    dtheta/dt = (-theta*u_x/v + cell_diff(kappa/v * theta_x) + mu*u_x^2/v) / cv

with u_x = cell_diff(u), kappa/v face-averaged to nodes, and ghost entries
pinned to the far field after every stage.  All reductions keep a fixed
summation order, so trajectories are bitwise reproducible.  Each implicit solve
is checked by its normwise backward error, against a constant, not a setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
# the LAPACK routine solve_banded((1, 1), ...) calls; perfbench/tracer.py and tests count it by name
from scipy.linalg.lapack import dgtsv as solve_banded

from .constitutive import GasModel, transport
# not called here: perfbench/tracer.py patches it in this namespace by name
from .constitutive import transport_derivatives  # noqa: F401
from .errors import (ArgumentError, NewtonDivergenceError, Ns1dError, PositivityError,
                     PositivityExhaustedError)
from .grid import Grid, State, apply_farfield

__all__ = [
    "SolverConfig", "StepStats", "AdvanceStats", "Stage", "make_stage",
    "rhs", "stable_dt", "advective_dt", "step_explicit", "step_imex", "advance",
    "backward_euler_velocity", "backward_euler_theta", "landing_tolerance",
]

# source callback: t -> (S_v on cells, S_u on nodes, S_theta on cells)
Sources = Optional[Callable[[float], tuple]]


@dataclass(frozen=True)
class SolverConfig:
    integrator: str = "explicit"          # "explicit" | "imex"
    cfl_advective: float = 0.4
    cfl_parabolic: float = 0.4
    positivity_floor: float = 1e-8
    max_dt_halvings: int = 20
    dt_max: float = 0.0                   # 0 disables the cap

    def __post_init__(self):
        if self.integrator not in ("explicit", "imex"):
            raise ArgumentError(f"unknown integrator {self.integrator!r}")
        if not (0.0 < self.cfl_advective <= 1.0 and 0.0 < self.cfl_parabolic <= 1.0):
            raise ArgumentError("CFL factors must lie in (0, 1]")
        # each comparison is written so that NaN fails it
        if not (isinstance(self.max_dt_halvings, (int, np.integer)) and self.max_dt_halvings >= 0):
            raise ArgumentError("max_dt_halvings must be a nonnegative integer")
        if not self.dt_max >= 0:
            raise ArgumentError("dt_max must be nonnegative (0 disables the cap)")
        if not (0.0 < self.positivity_floor < 1.0):
            raise ArgumentError("positivity_floor must lie in (0, 1)")


@dataclass
class StepStats:
    dt_used: float
    rejected_substeps: int = 0
    max_residual: float = 0.0             # the larger backward error of an IMEX step's two solves


@dataclass
class AdvanceStats:
    steps: int = 0
    rejected_substeps: int = 0


@dataclass
class Stage(State):
    """A state plus what the rates, the step size and the dissipation rate
    need of it, computed once: ux = cell_diff(u), (mu, kappa) and
    theta_x = node_diff(theta).

    Its one transport call is its one positivity check: v, theta > floor with
    one min-reduction per field, which propagates NaN, so a NaN entry is
    refused like a nonpositive one.

    The cached fields describe the arrays as they were when the stage was
    built, so a stage's arrays are never written to.
    """

    ux: np.ndarray
    mu: np.ndarray
    kappa: np.ndarray
    theta_x: np.ndarray
    model: GasModel
    grid: Grid


def make_stage(state: State, model: GasModel, grid: Grid, floor: float = 0.0) -> Stage:
    """The stage of state, from one transport call, which refuses the state
    with PositivityError unless v, theta > floor.  A stage built for the same
    model and grid is returned as it is."""
    if isinstance(state, Stage) and state.model is model and state.grid is grid:
        return state
    mu, kappa = transport(model, state.v, state.theta, floor)
    return Stage(state.t, state.v, state.u, state.theta, grid.cell_diff(state.u),
                 mu, kappa, grid.node_diff(state.theta), model, grid)


def _candidate(t: float, v, u, theta, model: GasModel, grid: Grid,
               config: SolverConfig) -> Stage:
    """Stage of a trial state, ghosts pinned; PositivityError at or below the floor."""
    state = apply_farfield(State(t, v, u, theta), grid)
    return make_stage(state, model, grid, config.positivity_floor)


def rhs(state: State, model: GasModel, grid: Grid, sources: Sources = None):
    """Semidiscrete rates (dv_dt cells, du_dt nodes, dtheta_dt cells)."""
    s = make_stage(state, model, grid)
    v, theta, ux, mu = s.v, s.theta, s.ux, s.mu
    P = theta / v
    mu_ux = mu * ux                       # in the stress and in the heating

    dv_dt = ux.copy()
    # no negated arrays: x - y is exactly -y + x, in the bits too
    stress = mu_ux / v - P
    du_dt = grid.node_diff(stress)
    heat_flux = grid.face_average(s.kappa / v) * s.theta_x
    dtheta_dt = (grid.cell_diff(heat_flux) - theta * ux / v + mu_ux * ux / v) / model.cv

    if sources is not None:
        sv, su, sth = sources(s.t)
        dv_dt = dv_dt + sv
        du_dt = du_dt + su
        dtheta_dt = dtheta_dt + sth / model.cv
    return dv_dt, du_dt, dtheta_dt


def _dt(state: State, model: GasModel, grid: Grid, config: SolverConfig,
        parabolic: bool) -> float:
    s = make_stage(state, model, grid)
    c = np.sqrt(model.gamma * s.theta) / s.v
    dt = config.cfl_advective * grid.dx / float(c.max())
    if parabolic:
        diff_rate = np.maximum(s.mu / s.v, s.kappa / (model.cv * s.v))
        dt = min(dt, config.cfl_parabolic * grid.dx ** 2 / (2.0 * float(diff_rate.max())))
    if config.dt_max > 0.0:
        dt = min(dt, config.dt_max)
    return dt


def stable_dt(state: State, model: GasModel, grid: Grid, config: SolverConfig) -> float:
    """min(cfl_a*dx/max(c), cfl_p*dx^2/(2*max(D))) with c = sqrt(gamma*theta)/v
    and D = max(mu/v, kappa/(cv*v)) per cell."""
    return _dt(state, model, grid, config, parabolic=True)


def advective_dt(state: State, model: GasModel, grid: Grid, config: SolverConfig) -> float:
    """Advective CFL limit only; the IMEX integrator is free of the parabolic one."""
    return _dt(state, model, grid, config, parabolic=False)


def _with_halving(attempt, t: float, config: SolverConfig, dt: float):
    """attempt(dt) -> (Stage, StepStats), retried with dt/2 on PositivityError."""
    for rejected in range(config.max_dt_halvings + 1):
        try:
            out, stats = attempt(dt)
        except PositivityError:
            dt *= 0.5
            continue
        stats.rejected_substeps = rejected
        return out, stats
    raise PositivityExhaustedError(
        f"positivity still violated after {config.max_dt_halvings} dt halvings at t={t}")


def step_explicit(state: State, model: GasModel, grid: Grid, config: SolverConfig,
                  dt: float, sources: Sources = None):
    """One SSP-RK2 step; on positivity violation retries with dt/2.

    Returns (new_state, StepStats); new_state is the Stage of the accepted
    state and stats.dt_used is the step actually taken.
    """
    s0 = make_stage(state, model, grid)
    k1 = rhs(s0, model, grid, sources)

    def attempt(h):
        s1 = _candidate(s0.t + h, s0.v + h * k1[0], s0.u + h * k1[1],
                        s0.theta + h * k1[2], model, grid, config)
        k2 = rhs(s1, model, grid, sources)
        out = _candidate(s0.t + h,
                         s0.v + 0.5 * h * (k1[0] + k2[0]),
                         s0.u + 0.5 * h * (k1[1] + k2[1]),
                         s0.theta + 0.5 * h * (k1[2] + k2[2]), model, grid, config)
        return out, StepStats(dt_used=h)

    return _with_halving(attempt, s0.t, config, dt)


# ---------------------------------------------------------------------------
# IMEX: explicit advection/pressure/heating, backward-Euler diffusion
# ---------------------------------------------------------------------------

BACKWARD_ERROR_TOL = 1e-12   # of each implicit solve: elimination is backward stable here


def _implicit_diffusion(x_star, grad_star, a, c: float, dt: float, grid: Grid, name: str):
    """Solve c*(x - x*) = dt*D_a x for the interior unknowns x[lo:hi], lo the ghost
    depth, their neighbours held at x*.  a[k] and grad_star[k] are the coefficient
    and x*'s divided difference on the link into unknown lo+k (k = 0 .. hi-lo), and
    D_a x differences a times x's divided differences across each unknown, over dx.

    One symmetric tridiagonal gtsv solve for the correction to x*: c + r*(a[k] + a[k+1])
    on the diagonal, -r*a[k+1] beside it, r = dt/dx**2.  With c, a > 0 it is an M-matrix,
    so x stays between the extremes of x* (maximum principle): ||A||*||x|| <= B =
    (c + 4*r*max a)*max|x*|.  Returns (x, 1, max|residual|/B), the normwise backward
    error; NewtonDivergenceError on a zero pivot or unless it is <= BACKWARD_ERROR_TOL.
    """
    dx, lo = grid.dx, grid.ghost_depth
    hi = lo + len(a) - 1
    r = dt / dx ** 2
    off = -r * a[1:-1]
    flux = a * grad_star
    correction, info = solve_banded(off, c + r * (a[:-1] + a[1:]), off,
                                    dt * ((flux[1:] - flux[:-1]) / dx))[3:]
    if info > 0:
        raise NewtonDivergenceError(f"{name} system is singular: zero pivot in row {info}")
    x = x_star.copy()
    x[lo:hi] += correction
    flux = a * ((x[lo:hi + 1] - x[lo - 1:hi]) / dx)
    res = float(np.max(np.abs(c * (x[lo:hi] - x_star[lo:hi]) - dt * ((flux[1:] - flux[:-1]) / dx))))
    bound = (c + 4.0 * r * float(np.max(a))) * float(np.max(np.abs(x_star)))
    if not res <= BACKWARD_ERROR_TOL * bound < np.inf:   # a product: x* = 0 passes, NaN, inf fail
        raise NewtonDivergenceError(f"{name} diffusion solve left residual {res:.3e}: backward "
                                    f"error above {BACKWARD_ERROR_TOL:.0e} (B = {bound:.3e})")
    return x, 1, res / bound if res else 0.0


def backward_euler_velocity(half: Stage, dt: float):
    """Solve u = u* + dt*node_diff(mu*cell_diff(u)/v) on the interior nodes, with
    mu, v and ux read from half, the Stage of the half state (v, u*, theta*).
    Ghost nodes stay at u*, so momentum sums stay exact to round-off.
    Returns (u, 1, backward error) from _implicit_diffusion."""
    g = half.grid.ghost_depth
    links = slice(g - 1, g + half.grid.N + 1)   # cell j joins nodes j and j+1
    return _implicit_diffusion(half.u, half.ux[links], half.mu[links] / half.v[links], 1.0,
                               dt, half.grid, "velocity")


def backward_euler_theta(half: Stage, dt: float):
    """Solve cv*(theta - theta*) = dt*cell_diff(face(kappa/v)*node_diff(theta)) on the
    interior cells, with kappa, v and theta_x read from half, the Stage of the half
    state: kappa is frozen there, so the solve is linear for every alpha.
    Returns (theta, 1, backward error) from _implicit_diffusion."""
    grid = half.grid
    links = grid.node_interior                  # node i joins cells i-1 and i
    return _implicit_diffusion(half.theta, half.theta_x[links],
                               grid.face_average(half.kappa / half.v)[links], half.model.cv,
                               dt, grid, "temperature")


def step_imex(state: State, model: GasModel, grid: Grid, config: SolverConfig,
              dt: float, sources: Sources = None):
    """One IMEX step: explicit transport/pressure/heating give the half state
    (v + h*ux, u*, theta*), whose Stage both implicit diffusion solves read:
    mu and kappa are frozen there, so each is one linear tridiagonal solve.
    An attempt makes 2 transport calls (half state, new state), so h runs on
    arrays twice.  Returns (new_state, StepStats) like step_explicit.
    """
    s0 = make_stage(state, model, grid)
    v, u, theta, ux, mu = s0.v, s0.u, s0.theta, s0.ux, s0.mu
    # the explicit rates do not depend on the sub-step h: once per step
    du_dt = grid.node_diff(-(theta / v))
    dtheta_dt = -theta * ux / v + mu * ux * ux / v
    if sources is not None:
        sv, su, sth = sources(s0.t)

    def attempt(h):
        v_new = v + h * ux
        u_exp = u + h * du_dt
        theta_exp = theta + h / model.cv * dtheta_dt
        if sources is not None:
            v_new = v_new + h * sv
            u_exp = u_exp + h * su
            theta_exp = theta_exp + h * sth / model.cv

        half = apply_farfield(State(s0.t + h, v_new, u_exp, theta_exp), grid)
        # a min-reduction passes an inf, and ux of an inf u would warn: refused first
        if not all(np.isfinite(a).all() for a in (half.v, half.u, half.theta)):
            raise PositivityError(f"half-step state at t={half.t} has a non-finite entry")
        half = make_stage(half, model, grid, config.positivity_floor)

        u_new, _, res_u = backward_euler_velocity(half, h)
        theta_new, _, res_th = backward_euler_theta(half, h)

        out = _candidate(s0.t + h, half.v, u_new, theta_new, model, grid, config)
        return out, StepStats(dt_used=h, max_residual=max(res_u, res_th))

    return _with_halving(attempt, s0.t, config, dt)


def landing_tolerance(t0: float, t_end: float) -> float:
    """How near an output time a step, a record or a profile lands on it: relative to the times."""
    return 1e-12 * max(abs(t0), abs(t_end))


def _landing_times(t0: float, t_end: float, output_every: Optional[float], eps: float):
    """The exact landing times t0 + k*output_every short of t_end - eps, then
    t_end, made one at a time so that no schedule is held in memory."""
    if output_every is not None and output_every > 0:
        k = 1
        while t0 + k * output_every < t_end - eps:
            yield t0 + k * output_every
            k += 1
    if t_end > t0:
        yield t_end


def advance(state: State, model: GasModel, grid: Grid, config: SolverConfig,
            t_end: float, observer=None, output_every: Optional[float] = None,
            on_step=None, sources: Sources = None):
    """March state to t_end, landing exactly on output times and on t_end.

    observer(stage) fires at the start time and at each output time with the
    accepted stage itself, which it must not write to; on_step(stage,
    StepStats) fires after every accepted step.  The stage of each accepted
    state feeds the next step size, the next step, on_step and the observer.
    Deterministic: identical inputs give bitwise identical trajectories.  An
    Ns1dError raised on the way carries the number of steps accepted before it.
    """
    if t_end < state.t:
        raise ArgumentError(f"t_end {t_end} precedes state time {state.t}")
    if config.integrator == "imex":
        step, dt_fn = step_imex, advective_dt
    else:
        step, dt_fn = step_explicit, stable_dt
    state = make_stage(state, model, grid)
    stats = AdvanceStats()
    eps = landing_tolerance(state.t, t_end)

    try:
        if observer is not None:
            observer(state)
        for target in _landing_times(state.t, t_end, output_every, eps):
            while True:  # at least one step per landing time, so none is swallowed
                dt = min(dt_fn(state, model, grid, config), target - state.t)
                state, sstats = step(state, model, grid, config, dt, sources)
                stats.steps += 1
                stats.rejected_substeps += sstats.rejected_substeps
                if on_step is not None:
                    on_step(state, sstats)
                if state.t >= target - eps:
                    break
            state.t = target  # kill accumulated roundoff at landing times
            if observer is not None:
                observer(state)
    except Ns1dError as exc:
        exc.steps = stats.steps
        raise
    return state, stats
