"""Time integration: explicit SSP-RK2 (Heun) and IMEX with backward-Euler diffusion
(one linear tridiagonal solve for u, Newton for theta).

The semidiscrete system on the staggered grid is

    dv/dt     = cell_diff(u)
    du/dt     = node_diff(-P + mu*u_x/v)          (cells -> nodes)
    dtheta/dt = (-theta*u_x/v + cell_diff(kappa/v * theta_x) + mu*u_x^2/v) / cv

with u_x = cell_diff(u), kappa/v face-averaged to nodes, and ghost entries
pinned to the far field after every stage.  All reductions keep a fixed
summation order, so trajectories are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
# the one LAPACK call of each tridiagonal solve, the routine solve_banded((1, 1), ...)
# calls; bound to this name because perfbench/tracer.py and the tests count solves by it
from scipy.linalg.lapack import dgtsv as solve_banded

from .constitutive import GasModel, _all_above, _theta_pow, transport
# not called here: perfbench/tracer.py patches it in this namespace by name
from .constitutive import transport_derivatives  # noqa: F401
from .errors import (ArgumentError, DomainError, NewtonDivergenceError, Ns1dError,
                     PositivityError, PositivityExhaustedError)
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
    newton_tol: float = 1e-10
    newton_max_iter: int = 25
    positivity_floor: float = 1e-8
    max_dt_halvings: int = 20
    dt_max: float = 0.0                   # 0 disables the cap

    def __post_init__(self):
        if self.integrator not in ("explicit", "imex"):
            raise ArgumentError(f"unknown integrator {self.integrator!r}")
        if not (0.0 < self.cfl_advective <= 1.0 and 0.0 < self.cfl_parabolic <= 1.0):
            raise ArgumentError("CFL factors must lie in (0, 1]")
        if self.newton_tol <= 0:
            raise ArgumentError("newton_tol must be positive")
        if self.newton_max_iter < 1:
            raise ArgumentError("newton_max_iter must be at least 1")
        if self.max_dt_halvings < 0:
            raise ArgumentError("max_dt_halvings must be nonnegative")
        if self.dt_max < 0:
            raise ArgumentError("dt_max must be nonnegative (0 disables the cap)")
        if not (0.0 < self.positivity_floor < 1.0):
            raise ArgumentError("positivity_floor must lie in (0, 1)")


@dataclass
class StepStats:
    dt_used: float
    newton_iters: int = 0
    rejected_substeps: int = 0
    max_residual: float = 0.0


@dataclass
class AdvanceStats:
    steps: int = 0
    rejected_substeps: int = 0
    max_newton_iters: int = 0
    max_residual: float = 0.0


def _check_state_positive(state: State, floor: float = 0.0):
    if not (_all_above(state.v, floor) and _all_above(state.theta, floor)):
        raise PositivityError(
            f"state at t={state.t} has min v={state.v.min():.3e}, "
            f"min theta={state.theta.min():.3e} (floor {floor:.1e})")


@dataclass
class Stage(State):
    """A state plus what the rates, the step size and the dissipation rate
    need of it, computed once: ux = cell_diff(u), (mu, kappa) and
    theta_x = node_diff(theta).

    make_stage checks v, theta > floor with one min-reduction per field, which
    propagates NaN, so a NaN entry is refused like a nonpositive one; the
    transport call checks v, theta > 0 again, the same way.

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
    """The stage of state: its one positivity check (v, theta > floor) and
    its one transport call.  A stage built for the same model and grid is
    returned as it is."""
    if isinstance(state, Stage) and state.model is model and state.grid is grid:
        return state
    _check_state_positive(state, floor)
    mu, kappa = transport(model, state.v, state.theta)
    return Stage(state.t, state.v, state.u, state.theta, grid.cell_diff(state.u),
                 mu, kappa, grid.node_diff(state.theta), model, grid)


def _candidate(t: float, v, u, theta, model: GasModel, grid: Grid,
               config: SolverConfig) -> Stage:
    """Stage of a trial state, ghosts pinned; PositivityError below the floor."""
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

def _solve_tridiag(lower, diag, upper, b):
    """Solve the tridiagonal system with sub-diagonal lower[1:], diagonal diag
    and super-diagonal upper[:-1] (lower[0] and upper[-1] are padding).

    One LAPACK gtsv call (Gaussian elimination with partial pivoting) on the
    inputs solve_banded((1, 1), ...) passes it, so the same bits, without
    that wrapper's per-call cost.  gtsv works on copies, so no input is
    written, and the velocity solve may pass one array as both off-diagonals.
    A non-finite entry or a zero pivot raises NewtonDivergenceError.
    """
    n = diag.size
    dl, du = lower[1:], upper[:-1]
    if not (np.isfinite(dl).all() and np.isfinite(diag).all()
            and np.isfinite(du).all() and np.isfinite(b).all()):
        raise NewtonDivergenceError("tridiagonal system has a non-finite entry")
    k = max(n - 1, 1)   # f2py wants an entry in dl and du at n = 1, where LAPACK reads none
    x, info = solve_banded(lower[n - k:], diag, upper[:k], b)[3:]
    if info > 0:
        raise NewtonDivergenceError(f"tridiagonal system is singular: zero pivot in row {info}")
    return x


def backward_euler_velocity(u_exp: np.ndarray, v: np.ndarray, theta: np.ndarray,
                            model: GasModel, grid: Grid, config: SolverConfig, dt: float):
    """Solve u = u_exp + dt*node_diff(mu*cell_diff(u)/v) with mu frozen at (v, theta).

    mu does not depend on u, so one tridiagonal solve gives the correction
    to u_exp from its residual; ghost nodes stay at u_exp, and momentum sums
    stay exact to round-off.  Returns (u, 1, residual) and raises
    NewtonDivergenceError if that residual exceeds newton_tol.
    """
    mu, _ = transport(model, v, theta)
    a = mu / v                              # cell diffusivity for u
    g = grid.ghost_depth
    lo, hi = g, g + grid.N + 1              # interior node unknowns [lo, hi)
    r = dt / grid.dx ** 2

    def residual(u):
        return u[lo:hi] - u_exp[lo:hi] - dt * grid.node_diff(a * grid.cell_diff(u))[lo:hi]

    # symmetric tridiagonal matrix: 1 + r*(a_j + a_{j-1}) on the diagonal, -r*a_j beside it
    diag = 1.0 + r * (a[lo:hi] + a[lo - 1:hi - 1])
    off = -r * a[lo - 1:hi]
    u = u_exp.copy()
    u[lo:hi] += _solve_tridiag(off[:-1], diag, off[1:], -residual(u_exp))
    max_res = float(np.max(np.abs(residual(u))))
    if not max_res <= config.newton_tol:
        raise NewtonDivergenceError(
            f"velocity diffusion solve left residual {max_res:.3e} "
            f"above newton_tol {config.newton_tol:.1e}")
    return u, 1, max_res


def backward_euler_theta(theta_exp: np.ndarray, v: np.ndarray, model: GasModel,
                         grid: Grid, config: SolverConfig, dt: float):
    """Solve cv*(theta - theta_exp) = dt*cell_diff(face(kappa(v,theta)/v)*node_diff(theta)).

    Nonlinear when alpha != 0; Newton with an analytic tridiagonal Jacobian
    re-linearized each iteration.  v is fixed through the solve, so h(v) is
    evaluated once: each pass forms kappa = (kappa_tilde*h(v))*theta^alpha and
    d(kappa/v)/dtheta = alpha*kappa/theta/v, the arithmetic of transport and
    transport_derivatives, so the iterates are bitwise theirs.
    """
    if not _all_above(v, 0.0):
        raise DomainError(f"v must be positive, got min {v.min()}")
    g = grid.ghost_depth
    lo, hi = g, g + grid.N                  # interior cell unknowns [lo, hi)
    cv, alpha = model.cv, model.alpha
    kh = model.kappa_tilde * model.h(v)     # kappa / theta^alpha, fixed with v
    theta = theta_exp.copy()
    dx = grid.dx
    iters = 0
    max_res = math.inf
    for iters in range(1, config.newton_max_iter + 1):
        if not _all_above(theta, 0.0):
            raise PositivityError("theta went nonpositive inside Newton iteration")
        kappa = kh * _theta_pow(theta, alpha)
        b = kappa / v                       # cell conductivity
        b_face = grid.face_average(b)
        grad = grid.node_diff(theta)
        flux = b_face * grad
        res = cv * (theta[lo:hi] - theta_exp[lo:hi]) - dt * grid.cell_diff(flux)[lo:hi]
        max_res = float(np.max(np.abs(res)))
        if max_res <= config.newton_tol:
            return theta, iters, max_res
        db = alpha * kappa / theta / v      # d(kappa/v)/dtheta at cells
        # flux at node j: 0.5*(b_{j-1}+b_j)*(th_j - th_{j-1})/dx
        # dflux_j/dth_j   =  b_face_j/dx + 0.5*db_j*grad_j
        # dflux_j/dth_{j-1} = -b_face_j/dx + 0.5*db_{j-1}*grad_j
        nodes = slice(lo, hi + 1)           # nodes bounding interior cells
        dfl_dright = b_face[nodes] / dx + 0.5 * db[lo:hi + 1] * grad[nodes]
        dfl_dleft = -b_face[nodes] / dx + 0.5 * db[lo - 1:hi] * grad[nodes]
        # F_i = cv*(th_i - exp_i) - dt/dx*(flux_{i+1} - flux_i)
        diag = cv - dt / dx * (dfl_dleft[1:] - dfl_dright[:-1])
        upper = -dt / dx * dfl_dright[1:]
        lower = dt / dx * dfl_dleft[:-1]
        dtheta = _solve_tridiag(lower, diag, upper, -res)
        theta[lo:hi] += dtheta
    raise NewtonDivergenceError(
        f"temperature diffusion Newton stalled at residual {max_res:.3e} "
        f"after {config.newton_max_iter} iterations")


def step_imex(state: State, model: GasModel, grid: Grid, config: SolverConfig,
              dt: float, sources: Sources = None):
    """One IMEX step: explicit transport/pressure/heating, implicit diffusion.

    Returns (new_state, StepStats) like step_explicit.
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
        _check_state_positive(half, config.positivity_floor)   # its min passes an inf
        if not all(np.isfinite(a).all() for a in (half.v, half.u, half.theta)):
            raise PositivityError(f"half-step state at t={half.t} has a non-finite entry")

        u_new, it_u, res_u = backward_euler_velocity(
            half.u, half.v, half.theta, model, grid, config, h)
        theta_new, it_th, res_th = backward_euler_theta(
            half.theta, half.v, model, grid, config, h)

        out = _candidate(s0.t + h, half.v, u_new, theta_new, model, grid, config)
        return out, StepStats(dt_used=h, newton_iters=max(it_u, it_th),
                              max_residual=max(res_u, res_th))

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

    observer(state_copy) fires at the start time and at each output time;
    on_step(state, StepStats) fires after every accepted step.  The stage of
    each accepted state feeds the next step size, the next step and on_step.
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
            observer(state.copy())
        for target in _landing_times(state.t, t_end, output_every, eps):
            while True:  # at least one step per landing time, so none is swallowed
                dt = min(dt_fn(state, model, grid, config), target - state.t)
                state, sstats = step(state, model, grid, config, dt, sources)
                stats.steps += 1
                stats.rejected_substeps += sstats.rejected_substeps
                stats.max_newton_iters = max(stats.max_newton_iters, sstats.newton_iters)
                stats.max_residual = max(stats.max_residual, sstats.max_residual)
                if on_step is not None:
                    on_step(state, sstats)
                if state.t >= target - eps:
                    break
            state.t = target  # kill accumulated roundoff at landing times
            if observer is not None:
                observer(state.copy())
    except Ns1dError as exc:
        exc.steps = stats.steps
        raise
    return state, stats
