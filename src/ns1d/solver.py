"""Time integration: explicit SSP-RK2 (Heun) and IMEX with backward-Euler diffusion
(one linear tridiagonal solve each for u and theta, coefficients frozen at the half state).

Both take one two-stage step: the predictor, or half state, is forward Euler on the
step's explicit rates k0 (sources included); a corrector then gives the new state, Heun's
from rhs at the predictor, IMEX's as one copy of the predictor's vector, whose u and theta
the two implicit solves at its stage correct in place.  Each trial state is refused unless
every entry is finite and v, theta > POSITIVITY_FLOOR; a refused attempt is retried with
dt/2.  Heun steps under the diffusion limit plus, at alpha < 0, the viscous heating's
theta-rate; IMEX under the advective limit and that heating limit (see SolverConfig).

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
    The positivity floor and the dt-halving budget are the module's constants.

    Heun's amplification is R(z) = 1 + z + z^2/2, |R| <= 1 on the real axis down to
    z = -2. By Gershgorin each diffusion operator's spectrum lies in [-4 max D/dx^2, 0],
    so cfl_parabolic = 1 is the real-axis limit for pure diffusion; the margin below it
    is kept because |R(-2 + iy)|^2 = 1 + y^4/4 amplifies any acoustic part of the top
    mode. The default is 0.7, not 0.9, while IMEX is backward Euler: acceptance
    criterion 10 steps IMEX at 4 x the default explicit step, and its gap to the
    explicit run (bound 1.14e-3) is 5.90e-4 at 0.4, 1.03e-3 at 0.7 and 1.33e-3 at 0.9.
    At alpha < 0 the viscous heating mu/v*u_x^2/cv (mu ~ theta^alpha) decays in theta at
    the rate H = -alpha*mu/v*u_x^2/(cv*theta), and the theta row's Gershgorin disc adds it to
    the diffusion's, so the bound is dt <= cfl_parabolic*2/(4*max D/dx^2 + max H); IMEX,
    which takes the heating explicitly, is capped at cfl_parabolic*2/max H.  Without H, the
    default step on large data (alpha = -2, a = 5, L = 24, N = 64) reached z = -38."""
    integrator: str = "explicit"          # "explicit" | "imex"
    cfl_advective: float = 0.4
    cfl_parabolic: float = 0.7
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


class Stage(State):
    """A state, plus what the rates, the step size and the dissipation rate need of
    it, computed once: ux = cell_diff(u), mu_v = mu/v, kappa_v = kappa/v,
    theta_x = node_diff(theta).  Its v, theta and u view the y it is built on.

    Its one transport call is its one positivity check: v, theta > floor with one
    min-reduction per field, which propagates NaN, so NaN is refused like v <= floor.

    The cached fields describe the arrays as built, so no step writes into a stage
    or its rates: each result is formed in place on a fresh temporary of its own.
    """

    ux: np.ndarray
    mu_v: np.ndarray
    kappa_v: np.ndarray
    theta_x: np.ndarray
    model: GasModel
    grid: Grid

    def __init__(self, t: float, y: np.ndarray, model: GasModel, grid: Grid, floor: float = 0.0):
        """The stage at t of y itself, a vector of grid; PositivityError unless v, theta > floor."""
        self.wrap(t, y)
        self.build(model, grid, floor)

    def build(self, model: GasModel, grid: Grid, floor: float) -> "Stage":
        """self, wrapped on y, with its fields computed; PositivityError unless v, theta > floor."""
        y, v, theta = self.y, self._v, self._theta
        mu, kappa = transport(model, v, theta, floor)
        # node_diff(theta) and cell_diff(u) by one pass over y's [theta | u] and the v entry
        # before it; the two differences across a field boundary are node_diff's edge zeros
        n = v.size
        diff = np.subtract(y[n:], y[n - 1:-1])
        diff /= grid.dx
        diff[0] = diff[n] = 0.0
        self.theta_x, self.ux = diff[:n + 1], diff[n + 1:]
        self.mu_v, self.kappa_v = np.divide(mu, v, out=mu), np.divide(kappa, v, out=kappa)
        self.model, self.grid = model, grid
        return self


def make_stage(state: State, model: GasModel, grid: Grid) -> Stage:
    """The stage of state on a copy of its y: ArgumentError unless y fits grid, PositivityError
    unless v, theta > 0.  A stage built for the same model and grid is returned as it is."""
    if isinstance(state, Stage) and state.model is model and state.grid is grid:
        return state
    return Stage(state.t, grid.fit(state.y).copy(), model, grid)


def _trial(t: float, y: np.ndarray, model: GasModel, grid: Grid) -> Stage:
    """Stage of a trial state y, ghosts pinned; PositivityError if an entry is not
    finite or v, theta are at or below the floor."""
    stage = Stage.__new__(Stage).wrap(t, y)
    apply_farfield(stage, grid)
    # an inf passes a min-reduction and would warn later: one dot refuses it, or overflows
    if not math.isfinite(y.dot(y)):
        raise PositivityError(f"trial state at t={t} has a non-finite entry")
    return stage.build(model, grid, POSITIVITY_FLOOR)


def _rates(s: Stage, sources: Sources, explicit_diffusion: bool) -> np.ndarray:
    """A fresh flat vector [dv | dtheta | du] of rates: u_x; node_diff(sigma),
    sigma = mu_v*u_x - P, P = theta/v (of -P alone if not explicit_diffusion); sigma*u_x/cv
    (plus cell_diff(face(kappa_v)*theta_x)/cv if explicit_diffusion); sources(s.t) added."""
    rates = np.empty(s.y.size)
    dv, du, dth = s.grid.views(rates)
    dv[:] = s.ux
    P = s.theta / s.v
    sigma = s.mu_v * s.ux
    sigma -= P
    s.grid.node_diff(sigma if explicit_diffusion else np.negative(P, out=P), out=du)
    sigma *= s.ux
    if explicit_diffusion:
        heat_flux = s.grid.face_average(s.kappa_v)
        heat_flux *= s.theta_x
        sigma += s.grid.cell_diff(heat_flux)
    np.divide(sigma, s.model.cv, out=dth)
    if sources is not None:
        sv, su, sth = sources(s.t)
        dv += sv
        du += su
        dth += sth / s.model.cv
    return rates


def rhs(state: State, model: GasModel, grid: Grid, sources: Sources = None):
    """Semidiscrete rates (dv_dt cells, du_dt nodes, dtheta_dt cells): the views
    of one flat vector, their base, laid out [v | theta | u] as a state's y."""
    return grid.views(_rates(make_stage(state, model, grid), sources, True))


def _dt(state: State, model: GasModel, grid: Grid, config: SolverConfig,
        parabolic: bool) -> float:
    s = make_stage(state, model, grid)
    c = model.gamma * s.theta
    np.sqrt(c, out=c)
    c /= s.v
    dt = config.cfl_advective * grid.dx / float(np.maximum.reduce(c))
    heating = 0.0                 # max of the heating's theta-rate, a decay only at alpha < 0
    if model.alpha < 0.0:
        rate = np.multiply(s.ux, s.ux)
        rate *= s.mu_v
        rate /= s.theta
        heating = -model.alpha * float(np.maximum.reduce(rate)) / model.cv
    if parabolic:
        diff_max = max(float(np.maximum.reduce(s.mu_v)),
                       float(np.maximum.reduce(s.kappa_v)) / model.cv)
        dt = min(dt, config.cfl_parabolic * grid.dx ** 2
                 / (2.0 * diff_max + 0.5 * grid.dx ** 2 * heating))
    elif heating > 0.0:
        dt = min(dt, 2.0 * config.cfl_parabolic / heating)
    if config.dt_max > 0.0:
        dt = min(dt, config.dt_max)
    return dt


def stable_dt(state: State, model: GasModel, grid: Grid, config: SolverConfig) -> float:
    """min(cfl_a*dx/max(c), cfl_p*2/(4*max(D)/dx^2 + H)) with c = sqrt(gamma*theta)/v,
    D = max(mu/v, kappa/(cv*v)) per cell and H = max(-alpha*mu/v*u_x^2/(cv*theta)), the
    heating's theta-rate, counted only at alpha < 0 (H = 0 gives cfl_p*dx^2/(2*max(D)))."""
    return _dt(state, model, grid, config, parabolic=True)


def advective_dt(state: State, model: GasModel, grid: Grid, config: SolverConfig) -> float:
    """The advective CFL limit, and at alpha < 0 also cfl_p*2/H, H as in stable_dt: IMEX
    is free of the diffusion limit, but takes the heating explicitly."""
    return _dt(state, model, grid, config, parabolic=False)


def _integrator(config: SolverConfig):
    """(step, dt) of config's integrator: Heun under the full stable_dt, or IMEX
    under advective_dt, free of the diffusion limit."""
    if config.integrator == "imex":
        return step_imex, advective_dt
    return step_explicit, stable_dt


def step_size(state: State, model: GasModel, grid: Grid, config: SolverConfig) -> float:
    """The step advance takes from state before cutting it to land on an output time."""
    return _integrator(config)[1](state, model, grid, config)


def _step(s0: Stage, dt: float, k0: np.ndarray, correct):
    """One two-stage step from s0, retried with dt/2 on PositivityError.

    The predictor is s0.y + h*k0 (k0 flat like y); correct(stage, h) -> (y, residual)
    turns its stage into the new state.  Both pass the one gate, _trial.
    Returns (new Stage, StepStats).
    """
    for rejected in range(MAX_DT_HALVINGS + 1):
        try:
            t, y = s0.t + dt, dt * k0
            y += s0.y
            y, residual = correct(_trial(t, y, s0.model, s0.grid), dt)
            out = _trial(t, y, s0.model, s0.grid)
        except PositivityError:
            dt *= 0.5
            continue
        return out, StepStats(dt, rejected, residual)
    raise PositivityExhaustedError(
        f"positivity still violated after {MAX_DT_HALVINGS} dt halvings at t={s0.t}")


def step_explicit(state: State, model: GasModel, grid: Grid, dt: float, sources: Sources = None):
    """One SSP-RK2 step; on positivity violation retries with dt/2.

    Returns (new_state, StepStats); new_state is the Stage of the accepted
    state and stats.dt_used is the step actually taken.
    """
    s0 = make_stage(state, model, grid)
    k0 = rhs(s0, model, grid, sources)[0].base

    def heun(s1, h):
        y = k0 + rhs(s1, model, grid, sources)[0].base
        y *= 0.5 * h
        return np.add(y, s0.y, out=y), 0.0

    return _step(s0, dt, k0, heun)


# ---------------------------------------------------------------------------
# IMEX: explicit advection/pressure/heating, backward-Euler diffusion
# ---------------------------------------------------------------------------


def _implicit_diffusion(x, x_star, grad_star, a, c: float, dt: float, grid: Grid, name: str):
    """Solve c*(x - x*) = dt*D_a x for the interior unknowns x[lo:hi], lo the ghost
    depth, their neighbours held at x*.  a[k] and grad_star[k] are the coefficient
    and x*'s divided difference on the link into unknown lo+k (k = 0 .. hi-lo), and
    D_a x differences a times x's divided differences across each unknown, over dx.

    In place: x is the destination, equal to x* on entry; the correction is added into
    x[lo:hi], and no other entry of x, and nothing of x*, grad_star or a, is written.

    One symmetric tridiagonal ptsv solve for the correction: c + r*(a[k] + a[k+1]) on the
    diagonal, -r*a[k+1] beside it, r = dt/dx**2, each formed in place on a fresh array that
    ptsv may overwrite, as is the right side.  With c, a > 0 it is a diagonally dominant
    M-matrix, so positive definite (LDL^T needs no pivoting) and x stays between the extremes
    of x* (maximum principle): ||A||*||x|| <= B = (c + 4*r*max a)*max|x*|.  The residual
    c*(x - x*) - dt*D_a x, as c*(x - x*) - r*diff(a*diff(x)), is formed in place on those
    arrays once the solve is done.  Returns (x, 1, max|residual|/B), the normwise backward
    error; NewtonDivergenceError on a non-positive pivot or unless it is <= BACKWARD_ERROR_TOL.
    """
    dx, lo = grid.dx, grid.ghost_depth
    hi = lo + len(a) - 1
    r = dt / dx ** 2
    flux = np.multiply(a, grad_star)
    b = np.subtract(flux[1:], flux[:-1])
    b /= dx
    b *= dt
    d = np.add(a[:-1], a[1:])
    d *= r
    d += c
    correction, info = solve_banded(d, np.multiply(a[1:-1], -r), b,
                                    overwrite_d=1, overwrite_e=1, overwrite_b=1)[2:]
    if info > 0:
        raise NewtonDivergenceError(f"{name} system is not positive definite: pivot {info}")
    x[lo:hi] += correction
    np.subtract(x[lo:hi + 1], x[lo - 1:hi], out=flux)
    flux *= a
    np.subtract(flux[1:], flux[:-1], out=d)
    d *= r
    np.subtract(x[lo:hi], x_star[lo:hi], out=b)
    b *= c
    b -= d
    res = float(np.maximum.reduce(np.abs(b, out=b)))
    # max|x*| without an |x*| temporary; both reductions propagate NaN
    x_max = max(float(np.maximum.reduce(x_star)), -float(np.minimum.reduce(x_star)))
    bound = (c + 4.0 * r * float(np.maximum.reduce(a))) * x_max
    if not res <= BACKWARD_ERROR_TOL * bound < np.inf:   # a product: x* = 0 passes, NaN, inf fail
        raise NewtonDivergenceError(f"{name} diffusion solve left residual {res:.3e}: backward "
                                    f"error above {BACKWARD_ERROR_TOL:.0e} (B = {bound:.3e})")
    return x, 1, res / bound if res else 0.0


def backward_euler_velocity(half: Stage, dt: float, u: np.ndarray):
    """Solve u = u* + dt*node_diff(mu/v*cell_diff(u)) on the interior nodes, with
    mu/v and ux read from half, the Stage of the half state (v, u*, theta*), into u,
    which holds u* on entry.  Ghost nodes stay at u*, so momentum sums stay exact to
    round-off.  Returns (u, 1, backward error) from _implicit_diffusion."""
    g = half.grid.ghost_depth
    links = slice(g - 1, g + half.grid.N + 1)   # cell j joins nodes j and j+1
    return _implicit_diffusion(u, half.u, half.ux[links], half.mu_v[links], 1.0, dt,
                               half.grid, "velocity")


def backward_euler_theta(half: Stage, dt: float, theta: np.ndarray):
    """Solve cv*(theta - theta*) = dt*cell_diff(face(kappa/v)*node_diff(theta)) on the
    interior cells, with kappa/v and theta_x read from half, the Stage of the half
    state: kappa is frozen there, so the solve is linear for every alpha.  Into theta,
    which holds theta* on entry.  Returns (theta, 1, backward error) from
    _implicit_diffusion."""
    grid = half.grid
    links = grid.node_interior                  # node i joins cells i-1 and i
    return _implicit_diffusion(theta, half.theta, half.theta_x[links],
                               grid.face_average(half.kappa_v)[links], half.model.cv, dt,
                               grid, "temperature")


def step_imex(state: State, model: GasModel, grid: Grid, dt: float, sources: Sources = None):
    """One IMEX step: the explicit rates k0 = (u_x, node_diff(-P), sigma*u_x/cv),
    plus the sources, all at t_n, give the predictor s0 + h*k0 = (v*, u*, theta*),
    whose Stage both implicit diffusion solves read: mu/v and kappa/v are frozen
    there, so each is one linear tridiagonal solve.  The new state is one copy of
    the predictor's y: v stays v*, and each solve adds its correction into the u or
    theta view.  An attempt makes 2 transport calls (predictor, new state), so h
    runs on arrays twice.  Returns (new_state, StepStats) like step_explicit.
    """
    s0 = make_stage(state, model, grid)
    k0 = _rates(s0, sources, False)

    def backward_euler(half, h):
        y = half.y.copy()
        _, u, theta = Grid.views(y)
        res_u = backward_euler_velocity(half, h, u)[2]
        res_th = backward_euler_theta(half, h, theta)[2]
        return y, max(res_u, res_th)

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
                state, sstats = step(state, model, grid, dt, sources)
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
