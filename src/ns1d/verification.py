"""Manufactured-solution sources, convergence studies, and fine-grid references."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from .constitutive import GasModel, _theta_pow
from .errors import ArgumentError, Ns1dError
from .grid import Grid, State, build_grid, apply_farfield
from .solver import SolverConfig, Stage, advance

__all__ = [
    "ClosedForm", "ManufacturedCase", "OrderReport", "default_case",
    "mms_sources", "make_source_fn", "exact_state", "check_levels", "convergence_study",
    "fine_grid_reference", "restrict_cells", "restrict_nodes",
]

# a study's L: default_case (amplitude < 1) is within 1e-12 of (1, 0, 1) past |x| = 5.26
MMS_HALF_WIDTH = 12.0


@dataclass(frozen=True)
class ClosedForm:
    """A field offset + profile(x) * clock(t), the clock multiplied last.

    profile carries every x-only factor, clock is a float of t, and an offset
    of None adds nothing (not even 0.0), so the value is bitwise the product
    written out in full.
    """

    profile: Callable
    clock: Callable
    offset: Optional[float] = None

    def __call__(self, t, x):
        value = self.profile(x) * self.clock(t)
        return value if self.offset is None else self.offset + value

    def at(self, x) -> "ClosedForm":
        """The same field with its profile evaluated once, at the array x; the
        result ignores the x it is called with."""
        p = self.profile(x)
        return replace(self, profile=lambda _: p)


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form exact fields with hand-coded derivatives up to second order.

    Every field is a ClosedForm, called as (t, x) with x scalar or array.
    The fields must sit at the far-field state (1, 0, 1) outside |x| <= L up
    to roundoff-level tails, matching the Dirichlet ghost handling.
    """

    v: ClosedForm
    u: ClosedForm
    theta: ClosedForm
    v_t: ClosedForm
    v_x: ClosedForm
    u_t: ClosedForm
    u_x: ClosedForm
    u_xx: ClosedForm
    theta_t: ClosedForm
    theta_x: ClosedForm
    theta_xx: ClosedForm

    def at(self, x) -> "ManufacturedCase":
        """This case with every profile evaluated once, at the array x: its
        fields are then valid at that x only."""
        x = np.asarray(x, dtype=float)
        return replace(self, **{f.name: getattr(self, f.name).at(x) for f in fields(self)})


def default_case(amplitude: float = 0.1, omega: float = 1.0) -> ManufacturedCase:
    """Gaussian-envelope oscillation exercising every term of the system:

        v     = 1 + a*exp(-x^2)*cos(w*t)
        u     = a*x*exp(-x^2)*sin(w*t)
        theta = 1 + a*exp(-x^2)*cos(w*t + pi/4)
    """
    a, w = amplitude, omega
    if not (0.0 <= a < 1.0):
        raise ArgumentError(f"amplitude must lie in [0, 1) to keep v, theta positive, got {a}")
    p4 = math.pi / 4.0

    def g(x):
        return np.exp(-np.asarray(x, dtype=float) ** 2)

    cos, sin = (lambda t: math.cos(w * t)), (lambda t: math.sin(w * t))
    cos4, sin4 = (lambda t: math.cos(w * t + p4)), (lambda t: math.sin(w * t + p4))

    return ManufacturedCase(
        v=ClosedForm(lambda x: a * g(x), cos, 1.0),
        u=ClosedForm(lambda x: a * x * g(x), sin),
        theta=ClosedForm(lambda x: a * g(x), cos4, 1.0),
        v_t=ClosedForm(lambda x: -a * w * g(x), sin),
        v_x=ClosedForm(lambda x: -2.0 * x * a * g(x), cos),
        u_t=ClosedForm(lambda x: a * w * x * g(x), cos),
        u_x=ClosedForm(lambda x: a * (1.0 - 2.0 * x ** 2) * g(x), sin),
        u_xx=ClosedForm(lambda x: a * x * (4.0 * x ** 2 - 6.0) * g(x), sin),
        theta_t=ClosedForm(lambda x: -a * w * g(x), sin4),
        theta_x=ClosedForm(lambda x: -2.0 * x * a * g(x), cos4),
        theta_xx=ClosedForm(lambda x: a * (4.0 * x ** 2 - 2.0) * g(x), cos4),
    )


def mms_sources(case: ManufacturedCase, model: GasModel, t: float, x):
    """Residual sources (S_v, S_u, S_theta) making the exact fields a solution.

    Assembled purely from the constitutive relations and the case's closed
    forms; the solver is never consulted.
    """
    x = np.asarray(x, dtype=float)
    v = case.v(t, x)
    th = case.theta(t, x)
    vx = case.v_x(t, x)
    thx = case.theta_x(t, x)
    ux = case.u_x(t, x)
    uxx = case.u_xx(t, x)

    ta = _theta_pow(th, model.alpha)
    hv = np.asarray(model.h(v), dtype=float)
    dhv = np.asarray(model.h.dh(v), dtype=float)
    mu = model.mu_tilde * hv * ta
    kappa = model.kappa_tilde * hv * ta
    h_ta_x = dhv * vx * ta + hv * model.alpha * ta / th * thx   # d(h(v) theta^alpha)/dx
    mu_x = model.mu_tilde * h_ta_x
    kappa_x = model.kappa_tilde * h_ta_x

    thxx = case.theta_xx(t, x)
    v2 = v ** 2
    P_x = thx / v - th * vx / v2
    visc_div = (mu_x * ux + mu * uxx) / v - mu * ux * vx / v2
    heat_div = (kappa_x * thx + kappa * thxx) / v - kappa * thx * vx / v2

    S_v = case.v_t(t, x) - ux
    S_u = case.u_t(t, x) + P_x - visc_div
    S_theta = (model.cv * case.theta_t(t, x) + th * ux / v
               - heat_div - mu * ux ** 2 / v)
    return S_v, S_u, S_theta


def make_source_fn(case: ManufacturedCase, model: GasModel, grid: Grid):
    """Adapter producing the solver's sources(t) -> (cells, nodes, cells).

    The sources are pointwise in x, so one mms_sources call on the half-grid,
    where nodes (even entries) and cells (odd entries) interleave, gives all
    three; the case's x-only factors are evaluated there once, up front.
    sources(t) is a pure function of t, so the last t's arrays, read-only, are
    returned again at the same float t: Heun's predictor time t_n + h is the next
    step's t_n, and each distinct t is evaluated once, bitwise as a fresh call.
    """
    x = np.empty(grid.nnodes + grid.ncells)
    x[0::2] = grid.all_node_positions()
    x[1::2] = grid.all_cell_centers()
    on_grid = case.at(x)
    last = [None, None]                     # the last t's bits, and its sources

    def sources(t: float):
        if float(t).hex() != last[0]:       # by the bits: -0.0 and 0.0 are two times
            sv, su, sth = mms_sources(on_grid, model, t, x)
            for a in (sv, su, sth):
                a.flags.writeable = False   # and so is every slice of it
            last[:] = float(t).hex(), (sv[1::2], su[0::2], sth[1::2])
        return last[1]

    return sources


def exact_state(case: ManufacturedCase, grid: Grid, t: float) -> State:
    x, xn = grid.all_cell_centers(), grid.all_node_positions()
    return apply_farfield(State(t, case.v(t, x), case.u(t, xn), case.theta(t, x)), grid)


@dataclass
class OrderReport:
    levels: List[int]
    t_end: float
    integrator: str
    errors_l2: Dict[str, List[float]]
    errors_linf: Dict[str, List[float]]
    orders: Dict[str, List]        # log2 ratios between successive levels, or "indeterminate"
    steps: int = 0                 # accepted steps over all levels; reported as RunSummary.steps

    def to_dict(self) -> dict:
        d = asdict(self)
        d.pop("steps")  # reported once, as RunSummary.steps
        return d


def _fit_orders(errors: List[float]) -> List:
    out = []
    for e0, e1 in zip(errors, errors[1:]):
        if e0 < 1e-12 or e1 < 1e-12:
            out.append("indeterminate")
        else:
            out.append(math.log2(e0 / e1))
    return out


def check_levels(levels: List[int]):
    """A convergence study needs at least 3 levels, each double the last."""
    if len(levels) < 3:
        raise ArgumentError(f"convergence_study needs at least 3 levels, got {levels}")
    for n0, n1 in zip(levels, levels[1:]):
        if n1 != 2 * n0:
            raise ArgumentError(f"levels must double, got {levels}")


def convergence_study(case: ManufacturedCase, model: GasModel, levels: List[int],
                      t_end: float, config: Optional[SolverConfig] = None, *,
                      start: Optional[Stage] = None) -> OrderReport:
    """Run the source-augmented system on |x| <= MMS_HALF_WIDTH at each level; fit error orders.

    dt is tied to dx^2 for the explicit integrator (through the parabolic CFL)
    and to dx for IMEX, so a single error order dominates.  start, if given, is the
    first level's exact start, staged on its grid (as `plan` checks it), and is not
    built again.  An Ns1dError from a level carries the steps of every level up to
    the failure.
    """
    check_levels(levels)
    if start is not None and (start.grid.L, start.grid.N) != (MMS_HALF_WIDTH, levels[0]):
        raise ArgumentError(f"the start's grid (L = {start.grid.L}, N = {start.grid.N}) is not "
                            f"the first level's (L = {MMS_HALF_WIDTH}, N = {levels[0]})")
    config = config or SolverConfig()
    errors_l2 = {"v": [], "u": [], "theta": []}
    errors_linf = {"v": [], "u": [], "theta": []}
    steps = 0
    for N in levels:
        if start is not None and N == levels[0]:
            grid, state = start.grid, start
        else:
            grid = build_grid(MMS_HALF_WIDTH, N)
            state = exact_state(case, grid, 0.0)
        sources = make_source_fn(case, model, grid)
        try:
            state, stats = advance(state, model, grid, config, t_end, sources=sources)
        except Ns1dError as exc:
            exc.steps += steps              # and the steps of the finished levels
            raise
        steps += stats.steps
        ci, ni = grid.cell_interior, grid.node_interior
        err_v, err_u, err_theta = grid.views(state.y - exact_state(case, grid, t_end).y)
        for name, err in (("v", err_v[ci]), ("u", err_u[ni]), ("theta", err_theta[ci])):
            errors_l2[name].append(grid.discrete_norm(err, "L2"))
            errors_linf[name].append(grid.discrete_norm(err, "Linf"))
    orders = {name: _fit_orders(errs) for name, errs in errors_l2.items()}
    return OrderReport(list(levels), t_end, config.integrator, errors_l2, errors_linf,
                       orders, steps)


# ---------------------------------------------------------------------------
# fine-grid reference trajectories
# ---------------------------------------------------------------------------

def restrict_cells(fine: np.ndarray, factor: int) -> np.ndarray:
    """Conservative restriction: mean over blocks of `factor` fine cells."""
    if fine.size % factor:
        raise ArgumentError("fine cell count must be divisible by the refinement factor")
    return fine.reshape(-1, factor).mean(axis=1)


def restrict_nodes(fine: np.ndarray, factor: int) -> np.ndarray:
    """Sample fine nodes at coincident coarse node positions."""
    if (fine.size - 1) % factor:
        raise ArgumentError("fine node count mismatch for the refinement factor")
    return fine[::factor].copy()


def fine_grid_reference(init_fn, grid: Grid, model: GasModel, config: SolverConfig,
                        t_end: float, output_every: Optional[float] = None,
                        refinement: int = 4):
    """Explicit reference at refinement-times resolution, restricted to `grid`.

    init_fn(grid) must build the same initial data on any grid.  Returns a
    list of (t, v, u, theta) tuples on the coarse interior at output times
    (always including t=0 and t_end).
    """
    if refinement < 4:
        raise ArgumentError("refinement must be at least 4")
    fine_grid = build_grid(grid.L, grid.N * refinement, grid.ghost_depth)
    state = init_fn(fine_grid)
    ref_config = replace(config, integrator="explicit", dt_max=0.0)
    ci, ni = fine_grid.cell_interior, fine_grid.node_interior
    trajectory = []

    def observer(s: State):
        trajectory.append((s.t,
                           restrict_cells(s.v[ci], refinement),
                           restrict_nodes(s.u[ni], refinement),
                           restrict_cells(s.theta[ci], refinement)))

    advance(state, model, fine_grid, ref_config, t_end,
            observer=observer, output_every=output_every)
    return trajectory
