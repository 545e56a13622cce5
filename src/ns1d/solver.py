"""Time integration: explicit SSP-RK2 (Heun) and IMEX with backward-Euler diffusion
(one linear tridiagonal solve each for u and theta, coefficients frozen at the half state).

Both take one two-stage step: the predictor, or half state, is forward Euler on the
step's explicit rates k0 (sources included), refused unless every entry is finite;
a corrector then gives the new state, Heun's from rhs at the predictor, IMEX's from
the two implicit solves at its stage.  A refused attempt is retried with dt/2.

The semidiscrete system on the staggered grid is

    dv/dt     = cell_diff(u)
    du/dt     = node_diff(sigma)                  (cells -> nodes)
    dtheta/dt = (cell_diff(kappa/v * theta_x) + sigma*u_x) / cv

with u_x = cell_diff(u), the stress sigma = mu/v*u_x - P on cells (P = theta/v; sigma*u_x
is compression work plus viscous heating), kappa/v face-averaged to nodes, and ghost
entries pinned to the far field after every stage.  All reductions keep a fixed summation
order, so trajectories are bitwise reproducible.  With v, theta > POSITIVITY_FLOOR each
implicit matrix is symmetric positive definite, so LAPACK ptsv's LDL^T needs no pivoting.
The floor, the dt-halving budget and each solve's backward-error bound are constants.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constitutive import GasModel, transport
# not called here: perfbench/tracer.py patches it in this namespace by name
from .constitutive import transport_derivatives  # noqa: F401
from .errors import (ArgumentError, NewtonDivergenceError, Ns1dError, PositivityError,
                     PositivityExhaustedError)
from .grid import Grid, State, apply_farfield

__all__ = [
    "SolverConfig", "StepStats", "AdvanceStats", "Stage", "make_stage",
    "rhs", "stable_dt", "advective_dt", "step_explicit", "step_imex", "advance",
    "backward_euler_velocity", "backward_euler_theta", "landing_tolerance", "step_size",
]


def _load_flapack():
    """scipy's LAPACK extension, scipy.linalg._flapack, run from its file without importing
    the scipy.linalg package, whose import (it pulls in numpy.f2py and numpy.testing) takes
    some sixty times as long as the extension's.  Loaded under its own name, it is the very
    module, and its routines the very objects, that scipy.linalg.lapack binds, whichever
    of the two is imported first."""
    scipy = importlib.util.find_spec("scipy")              # finds scipy, imports nothing
    roots = scipy.submodule_search_locations if scipy else []
    where = [os.path.join(root, "linalg") for root in roots]
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", where)
    if spec is None:
        raise ImportError(f"LAPACK's dptsv needs scipy/linalg/_flapack"
                          f"{importlib.machinery.EXTENSION_SUFFIXES[0]}, found in none of "
                          f"{where} (scipy's linalg directories)")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# LAPACK's positive-definite tridiagonal solver; perfbench/tracer.py and tests count it by name
solve_banded = _load_flapack().dptsv

# source callback: t -> (S_v on cells, S_u on nodes, S_theta on cells)
Sources = Optional[Callable[[float], tuple]]

POSITIVITY_FLOOR = 1e-8      # v and theta of every trial stage must exceed it
MAX_DT_HALVINGS = 20         # dt/2 retries of a refused step before PositivityExhaustedError
BACKWARD_ERROR_TOL = 1e-12   # of each implicit solve: elimination is backward stable here


@dataclass(frozen=True)
class SolverConfig:
    """The settings a run may vary: the integrator, its CFL factors and a step cap.
    The positivity floor and the dt-halving budget are the module's constants."""
    integrator: str = "explicit"          # "explicit" | "imex"
    cfl_advective: float = 0.4
    cfl_parabolic: float = 0.4
    dt_max: float = 0.0                   # 0 disables the cap

    def __post_init__(self):
        if self.integrator not in ("explicit", "imex"):
            raise ArgumentError(f"unknown integrator {self.integrator!r}")
        if not (0.0 < self.cfl_advective <= 1.0 and 0.0 < self.cfl_parabolic <= 1.0):
            raise ArgumentError("CFL factors must lie in (0, 1]")
        if not self.dt_max >= 0:              # so that NaN fails it
            raise ArgumentError("dt_max must be nonnegative (0 disables the cap)")


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
    need of it, computed once: ux = cell_diff(u), the coefficients the
    equations read, mu_v = mu/v and kappa_v = kappa/v, and theta_x = node_diff(theta).

    Its one transport call is its one positivity check: v, theta > floor with
    one min-reduction per field, which propagates NaN, so a NaN entry is
    refused like a nonpositive one.

    The cached fields describe the arrays as they were when the stage was
    built, so a stage's arrays are never written to.
    """

    ux: np.ndarray
    mu_v: np.ndarray
    kappa_v: np.ndarray
    theta_x: np.ndarray
    model: GasModel
    grid: Grid


def make_stage(state: State, model: GasModel, grid: Grid, floor: float = 0.0) -> Stage:
    """The stage of state, from one transport call, which refuses the state
    with PositivityError unless v, theta > floor; mu and kappa are divided by v
    here, once.  A stage built for the same model and grid is returned as it is."""
    if isinstance(state, Stage) and state.model is model and state.grid is grid:
        return state
    mu, kappa = transport(model, state.v, state.theta, floor)
    return Stage(state.t, state.v, state.u, state.theta, grid.cell_diff(state.u),
                 mu / state.v, kappa / state.v, grid.node_diff(state.theta), model, grid)


def _candidate(t: float, v, u, theta, model: GasModel, grid: Grid) -> Stage:
    """Stage of a trial state, ghosts pinned; PositivityError at or below the floor."""
    return make_stage(apply_farfield(State(t, v, u, theta), grid), model, grid, POSITIVITY_FLOOR)


def _pressure_stress(s: Stage):
    """(P, sigma) on cells: the pressure theta/v and the stress mu_v*u_x - P."""
    P = s.theta / s.v
    return P, s.mu_v * s.ux - P


def rhs(state: State, model: GasModel, grid: Grid, sources: Sources = None):
    """Semidiscrete rates (dv_dt cells, du_dt nodes, dtheta_dt cells)."""
    s = make_stage(state, model, grid)
    _, sigma = _pressure_stress(s)
    heat_flux = grid.face_average(s.kappa_v) * s.theta_x
    return _add_sources((s.ux.copy(), grid.node_diff(sigma),
                         (grid.cell_diff(heat_flux) + sigma * s.ux) / model.cv),
                        s.t, model, sources)


def _add_sources(rates, t: float, model: GasModel, sources: Sources):
    """rates plus sources(t), the theta source over cv."""
    if sources is None:
        return rates
    sv, su, sth = sources(t)
    return rates[0] + sv, rates[1] + su, rates[2] + sth / model.cv


def _dt(state: State, model: GasModel, grid: Grid, config: SolverConfig,
        parabolic: bool) -> float:
    s = make_stage(state, model, grid)
    c = np.sqrt(model.gamma * s.theta) / s.v
    dt = config.cfl_advective * grid.dx / float(c.max())
    if parabolic:
        diff_rate = np.maximum(s.mu_v, s.kappa_v / model.cv)
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


def _integrator(config: SolverConfig):
    """(step, dt) of config's integrator: Heun under the full stable_dt, or IMEX
    under the advective limit alone."""
    if config.integrator == "imex":
        return step_imex, advective_dt
    return step_explicit, stable_dt


def step_size(state: State, model: GasModel, grid: Grid, config: SolverConfig) -> float:
    """The step advance takes from state before cutting it to land on an output time."""
    return _integrator(config)[1](state, model, grid, config)


def _step(s0: Stage, dt: float, k0, correct):
    """One two-stage step from s0, retried with dt/2 on PositivityError.

    The predictor is s0 + h*k0, ghosts pinned, refused if an entry is not
    finite, staged at the positivity floor; correct(stage, h) -> (v, u, theta,
    residual) turns its stage into the new state.  Returns (new Stage, StepStats).
    """
    for rejected in range(MAX_DT_HALVINGS + 1):
        try:
            pred = apply_farfield(State(s0.t + dt, s0.v + dt * k0[0], s0.u + dt * k0[1],
                                        s0.theta + dt * k0[2]), s0.grid)
            # a min-reduction passes an inf, and transport or ux of an inf would warn: refused
            # first, by one dot per field, whose overflow (entries near 1e154) is refused too
            if not math.isfinite(pred.v.dot(pred.v) + pred.u.dot(pred.u)
                                 + pred.theta.dot(pred.theta)):
                raise PositivityError(f"predictor at t={pred.t} has a non-finite entry")
            v, u, theta, residual = correct(
                make_stage(pred, s0.model, s0.grid, POSITIVITY_FLOOR), dt)
            out = _candidate(pred.t, v, u, theta, s0.model, s0.grid)
        except PositivityError:
            dt *= 0.5
            continue
        return out, StepStats(dt, rejected, residual)
    raise PositivityExhaustedError(
        f"positivity still violated after {MAX_DT_HALVINGS} dt halvings at t={s0.t}")


def step_explicit(state: State, model: GasModel, grid: Grid, config: SolverConfig,
                  dt: float, sources: Sources = None):
    """One SSP-RK2 step; on positivity violation retries with dt/2.

    Returns (new_state, StepStats); new_state is the Stage of the accepted
    state and stats.dt_used is the step actually taken.
    """
    s0 = make_stage(state, model, grid)
    k0 = rhs(s0, model, grid, sources)

    def heun(s1, h):
        k1 = rhs(s1, model, grid, sources)
        return (s0.v + 0.5 * h * (k0[0] + k1[0]), s0.u + 0.5 * h * (k0[1] + k1[1]),
                s0.theta + 0.5 * h * (k0[2] + k1[2]), 0.0)

    return _step(s0, dt, k0, heun)


# ---------------------------------------------------------------------------
# IMEX: explicit advection/pressure/heating, backward-Euler diffusion
# ---------------------------------------------------------------------------


def _implicit_diffusion(x_star, grad_star, a, c: float, dt: float, grid: Grid, name: str):
    """Solve c*(x - x*) = dt*D_a x for the interior unknowns x[lo:hi], lo the ghost
    depth, their neighbours held at x*.  a[k] and grad_star[k] are the coefficient
    and x*'s divided difference on the link into unknown lo+k (k = 0 .. hi-lo), and
    D_a x differences a times x's divided differences across each unknown, over dx.

    One symmetric tridiagonal ptsv solve for the correction to x*, on fresh arrays it may
    overwrite: c + r*(a[k] + a[k+1]) on the diagonal, -r*a[k+1] beside it, r = dt/dx**2.
    With c, a > 0 it is a diagonally dominant M-matrix, so positive definite (LDL^T needs no
    pivoting) and x stays between the extremes of x* (maximum principle): ||A||*||x|| <= B =
    (c + 4*r*max a)*max|x*|.  Returns (x, 1, max|residual|/B), the normwise backward error;
    NewtonDivergenceError on a non-positive pivot or unless it is <= BACKWARD_ERROR_TOL.
    """
    dx, lo = grid.dx, grid.ghost_depth
    hi = lo + len(a) - 1
    r = dt / dx ** 2
    flux = a * grad_star
    correction, info = solve_banded(c + r * (a[:-1] + a[1:]), -r * a[1:-1],
                                    dt * ((flux[1:] - flux[:-1]) / dx),
                                    overwrite_d=1, overwrite_e=1, overwrite_b=1)[2:]
    if info > 0:
        raise NewtonDivergenceError(f"{name} system is not positive definite: pivot {info}")
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
    """Solve u = u* + dt*node_diff(mu/v*cell_diff(u)) on the interior nodes, with
    mu/v and ux read from half, the Stage of the half state (v, u*, theta*).
    Ghost nodes stay at u*, so momentum sums stay exact to round-off.
    Returns (u, 1, backward error) from _implicit_diffusion."""
    g = half.grid.ghost_depth
    links = slice(g - 1, g + half.grid.N + 1)   # cell j joins nodes j and j+1
    return _implicit_diffusion(half.u, half.ux[links], half.mu_v[links], 1.0, dt, half.grid,
                               "velocity")


def backward_euler_theta(half: Stage, dt: float):
    """Solve cv*(theta - theta*) = dt*cell_diff(face(kappa/v)*node_diff(theta)) on the
    interior cells, with kappa/v and theta_x read from half, the Stage of the half
    state: kappa is frozen there, so the solve is linear for every alpha.
    Returns (theta, 1, backward error) from _implicit_diffusion."""
    grid = half.grid
    links = grid.node_interior                  # node i joins cells i-1 and i
    return _implicit_diffusion(half.theta, half.theta_x[links],
                               grid.face_average(half.kappa_v)[links], half.model.cv,
                               dt, grid, "temperature")


def step_imex(state: State, model: GasModel, grid: Grid, config: SolverConfig,
              dt: float, sources: Sources = None):
    """One IMEX step: the explicit rates k0 = (u_x, node_diff(-P), sigma*u_x/cv),
    plus the sources, all at t_n, give the predictor s0 + h*k0 = (v*, u*, theta*),
    whose Stage both implicit diffusion solves read: mu/v and kappa/v are frozen
    there, so each is one linear tridiagonal solve.  An attempt makes 2
    transport calls (predictor, new state), so h runs on arrays twice.
    Returns (new_state, StepStats) like step_explicit.
    """
    s0 = make_stage(state, model, grid)
    P, sigma = _pressure_stress(s0)
    k0 = _add_sources((s0.ux, grid.node_diff(-P), sigma * s0.ux / model.cv), s0.t, model, sources)

    def backward_euler(half, h):
        u_new, _, res_u = backward_euler_velocity(half, h)
        theta_new, _, res_th = backward_euler_theta(half, h)
        return half.v, u_new, theta_new, max(res_u, res_th)

    return _step(s0, dt, k0, backward_euler)


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
    step, dt_fn = _integrator(config)
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
