"""Manufactured-solution sources, convergence studies, and fine-grid references."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from .constitutive import GasModel
from .errors import ArgumentError
from .grid import Grid, State, build_grid, apply_farfield
from .solver import SolverConfig, advance

__all__ = [
    "ManufacturedCase", "OrderReport", "default_case", "mms_sources",
    "make_source_fn", "exact_state", "check_levels", "convergence_study",
    "fine_grid_reference", "restrict_cells", "restrict_nodes",
]


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form exact fields with hand-coded derivatives up to second order.

    All callables take (t, x) with x scalar or array.  The fields must sit at
    the far-field state (1, 0, 1) outside |x| <= L/2 up to roundoff-level
    tails, matching the Dirichlet ghost handling.
    """

    name: str
    amplitude: float
    omega: float
    v: Callable
    u: Callable
    theta: Callable
    v_t: Callable
    v_x: Callable
    u_t: Callable
    u_x: Callable
    u_xx: Callable
    theta_t: Callable
    theta_x: Callable
    theta_xx: Callable

    def __post_init__(self):
        if not (0.0 <= self.amplitude < 1.0):
            raise ArgumentError("amplitude must lie in [0, 1) to keep v, theta positive")


def default_case(amplitude: float = 0.1, omega: float = 1.0) -> ManufacturedCase:
    """Gaussian-envelope oscillation exercising every term of the system:

        v     = 1 + a*exp(-x^2)*cos(w*t)
        u     = a*x*exp(-x^2)*sin(w*t)
        theta = 1 + a*exp(-x^2)*cos(w*t + pi/4)
    """
    a, w = amplitude, omega
    p4 = math.pi / 4.0

    def g(x):
        return np.exp(-np.asarray(x, dtype=float) ** 2)

    return ManufacturedCase(
        name="gauss-oscillation", amplitude=a, omega=w,
        v=lambda t, x: 1.0 + a * g(x) * math.cos(w * t),
        u=lambda t, x: a * x * g(x) * math.sin(w * t),
        theta=lambda t, x: 1.0 + a * g(x) * math.cos(w * t + p4),
        v_t=lambda t, x: -a * w * g(x) * math.sin(w * t),
        v_x=lambda t, x: -2.0 * x * a * g(x) * math.cos(w * t),
        u_t=lambda t, x: a * w * x * g(x) * math.cos(w * t),
        u_x=lambda t, x: a * (1.0 - 2.0 * x ** 2) * g(x) * math.sin(w * t),
        u_xx=lambda t, x: a * x * (4.0 * x ** 2 - 6.0) * g(x) * math.sin(w * t),
        theta_t=lambda t, x: -a * w * g(x) * math.sin(w * t + p4),
        theta_x=lambda t, x: -2.0 * x * a * g(x) * math.cos(w * t + p4),
        theta_xx=lambda t, x: a * (4.0 * x ** 2 - 2.0) * g(x) * math.cos(w * t + p4),
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

    ta = np.exp(model.alpha * np.log(th))
    hv = np.asarray(model.h(v), dtype=float)
    dhv = np.asarray(model.h.dh(v), dtype=float)
    mu = model.mu_tilde * hv * ta
    kappa = model.kappa_tilde * hv * ta
    mu_x = model.mu_tilde * (dhv * vx * ta + hv * model.alpha * ta / th * thx)
    kappa_x = model.kappa_tilde * (dhv * vx * ta + hv * model.alpha * ta / th * thx)

    thxx = case.theta_xx(t, x)
    P_x = thx / v - th * vx / v ** 2
    visc_div = (mu_x * ux + mu * uxx) / v - mu * ux * vx / v ** 2
    heat_div = (kappa_x * thx + kappa * thxx) / v - kappa * thx * vx / v ** 2

    S_v = case.v_t(t, x) - ux
    S_u = case.u_t(t, x) + P_x - visc_div
    S_theta = (model.cv * case.theta_t(t, x) + th * ux / v
               - heat_div - mu * ux ** 2 / v)
    return S_v, S_u, S_theta


def make_source_fn(case: ManufacturedCase, model: GasModel, grid: Grid):
    """Adapter producing the solver's sources(t) -> (cells, nodes, cells)."""
    xc = grid.all_cell_centers()
    xn = grid.all_node_positions()

    def sources(t: float):
        sv, _, sth = mms_sources(case, model, t, xc)
        _, su, _ = mms_sources(case, model, t, xn)
        return sv, su, sth

    return sources


def exact_state(case: ManufacturedCase, grid: Grid, t: float) -> State:
    state = State(t,
                  np.asarray(case.v(t, grid.all_cell_centers()), dtype=float),
                  np.asarray(case.u(t, grid.all_node_positions()), dtype=float),
                  np.asarray(case.theta(t, grid.all_cell_centers()), dtype=float))
    return apply_farfield(state, grid)


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
        return {"levels": self.levels, "t_end": self.t_end,
                "integrator": self.integrator,
                "errors_l2": self.errors_l2, "errors_linf": self.errors_linf,
                "orders": self.orders}


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
        raise ArgumentError("convergence_study needs at least 3 levels")
    for n0, n1 in zip(levels, levels[1:]):
        if n1 != 2 * n0:
            raise ArgumentError("levels must double")


def convergence_study(case: ManufacturedCase, model: GasModel, levels: List[int],
                      t_end: float, L: float = 12.0,
                      config: Optional[SolverConfig] = None) -> OrderReport:
    """Run the source-augmented system at each level and fit error orders.

    dt is tied to dx^2 for the explicit integrator (through the parabolic CFL)
    and to dx for IMEX, so a single error order dominates.
    """
    check_levels(levels)
    config = config or SolverConfig()
    errors_l2 = {"v": [], "u": [], "theta": []}
    errors_linf = {"v": [], "u": [], "theta": []}
    steps = 0
    for N in levels:
        grid = build_grid(L, N)
        state = exact_state(case, grid, 0.0)
        sources = make_source_fn(case, model, grid)
        state, stats = advance(state, model, grid, config, t_end, sources=sources)
        steps += stats.steps
        ref = exact_state(case, grid, t_end)
        ci, ni = grid.cell_interior, grid.node_interior
        for name, got, want in (("v", state.v[ci], ref.v[ci]),
                                ("u", state.u[ni], ref.u[ni]),
                                ("theta", state.theta[ci], ref.theta[ci])):
            err = got - want
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
