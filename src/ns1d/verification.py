"""Manufactured-solution sources, convergence studies, and fine-grid references."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from .constitutive import GasModel
from .errors import ArgumentError
from .grid import Grid, State, build_grid, apply_farfield
from .solver import SolverConfig, advance

__all__ = [
    "ClosedForm", "ManufacturedCase", "OrderReport", "default_case", "check_support",
    "mms_sources", "make_source_fn", "exact_state", "check_levels", "convergence_study",
    "fine_grid_reference", "restrict_cells", "restrict_nodes",
]


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


_FIELDS = ("v", "u", "theta", "v_t", "v_x", "u_t", "u_x", "u_xx",
           "theta_t", "theta_x", "theta_xx")


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form exact fields with hand-coded derivatives up to second order.

    Every field is a ClosedForm, called as (t, x) with x scalar or array.
    The fields must sit at the far-field state (1, 0, 1) outside |x| <= L up
    to roundoff-level tails, matching the Dirichlet ghost handling.
    """

    name: str
    amplitude: float
    omega: float
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

    def __post_init__(self):
        if not (0.0 <= self.amplitude < 1.0):
            raise ArgumentError("amplitude must lie in [0, 1) to keep v, theta positive")

    def at(self, x) -> "ManufacturedCase":
        """This case with every profile evaluated once, at the array x: its
        fields are then valid at that x only."""
        x = np.asarray(x, dtype=float)
        return replace(self, **{name: getattr(self, name).at(x) for name in _FIELDS})


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

    cos, sin = (lambda t: math.cos(w * t)), (lambda t: math.sin(w * t))
    cos4, sin4 = (lambda t: math.cos(w * t + p4)), (lambda t: math.sin(w * t + p4))

    return ManufacturedCase(
        name="gauss-oscillation", amplitude=a, omega=w,
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


def check_support(L: float, amplitude: float, width: float = 1.0, centre: float = 0.0,
                  tol: float = 1e-12):
    """A Gaussian amplitude * exp(-((x - centre) / width)^2) must fall to tol by
    |x| = L: amplitude * exp(-reach^2) <= tol with reach = (L - |centre|) / width,
    solved for reach so nothing squares it.  Beyond |x| = L the ghosts hold
    (1, 0, 1), so a narrower domain cuts the data off; the defaults are the
    MMS case's envelope, whose study would then report meaningless orders."""
    reach = (L - abs(centre)) / width
    need = math.sqrt(math.log(amplitude / tol)) if amplitude > tol else 0.0
    if reach <= 0 or reach < need:
        raise ArgumentError(
            f"Gaussian (amplitude={amplitude}, width={width}, centre={centre}) is not supported "
            f"inside |x| <= L = {L}: L must be at least {abs(centre) + need * width:.6g} "
            f"for it to fall to {tol:g} there")


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
    """Adapter producing the solver's sources(t) -> (cells, nodes, cells).

    The sources are pointwise in x, so one mms_sources call on the half-grid,
    where nodes (even entries) and cells (odd entries) interleave, gives all
    three; the case's x-only factors are evaluated there once, up front.
    """
    x = np.empty(grid.nnodes + grid.ncells)
    x[0::2] = grid.all_node_positions()
    x[1::2] = grid.all_cell_centers()
    on_grid = case.at(x)

    def sources(t: float):
        sv, su, sth = mms_sources(on_grid, model, t, x)
        return sv[1::2], su[0::2], sth[1::2]

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
