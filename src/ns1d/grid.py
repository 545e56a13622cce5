"""Truncated Lagrangian mass domain with a staggered (cell/node) layout.

Cells carry v and theta; nodes carry u.  Node i is the left edge of cell i,
so a grid with C = N + 2*ghost cells has C + 1 nodes.  Ghost cells/nodes hold
the far-field state (1, 0, 1) at all times.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArgumentError

__all__ = ["Grid", "State", "build_grid", "FARFIELD"]

FARFIELD = (1.0, 0.0, 1.0)  # (v, u, theta) as x -> +-inf


@dataclass(frozen=True)
class Grid:
    L: float
    N: int
    ghost_depth: int
    dx: float

    # -- layout helpers -----------------------------------------------------

    # computed once: a run reads these on every stencil call.  cached_property
    # stores into the instance __dict__, which a frozen dataclass allows.
    @cached_property
    def ncells(self) -> int:
        return self.N + 2 * self.ghost_depth

    @cached_property
    def nnodes(self) -> int:
        return self.ncells + 1

    @cached_property
    def ghost_cells(self) -> np.ndarray:
        """Indices of the ghost cells at both ends."""
        g = self.ghost_depth
        return np.r_[:g, self.ncells - g:self.ncells]

    @cached_property
    def ghost_nodes(self) -> np.ndarray:
        """Indices of the ghost nodes at both ends."""
        g = self.ghost_depth
        return np.r_[:g, self.nnodes - g:self.nnodes]

    @property
    def cell_interior(self) -> slice:
        g = self.ghost_depth
        return slice(g, g + self.N)

    @property
    def node_interior(self) -> slice:
        g = self.ghost_depth
        return slice(g, g + self.N + 1)

    @property
    def cell_centers(self) -> np.ndarray:
        """Interior cell centers, length N."""
        return self.all_cell_centers()[self.cell_interior]

    @property
    def node_positions(self) -> np.ndarray:
        """Interior node positions, length N+1."""
        return self.all_node_positions()[self.node_interior]

    def all_cell_centers(self) -> np.ndarray:
        """Cell centers including ghosts."""
        g = self.ghost_depth
        i = np.arange(self.ncells)
        return -self.L + (i - g + 0.5) * self.dx

    def all_node_positions(self) -> np.ndarray:
        g = self.ghost_depth
        i = np.arange(self.nnodes)
        return -self.L + (i - g) * self.dx

    # -- stencil operators --------------------------------------------------

    def node_diff(self, cell_field: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Backward difference of a cell field onto nodes, into out if given; edge nodes get 0."""
        if cell_field.shape != (self.ncells,):
            raise ArgumentError(f"expected cell field of length {self.ncells}")
        out = np.empty(self.nnodes) if out is None else out
        out[0] = out[-1] = 0.0
        inner = out[1:-1]                   # (c[1:] - c[:-1]) / dx, formed in place
        np.subtract(cell_field[1:], cell_field[:-1], out=inner)
        inner /= self.dx
        return out

    def cell_diff(self, node_field: np.ndarray) -> np.ndarray:
        """Forward difference of a node field onto cells."""
        if node_field.shape != (self.nnodes,):
            raise ArgumentError(f"expected node field of length {self.nnodes}")
        out = np.subtract(node_field[1:], node_field[:-1])
        return np.divide(out, self.dx, out=out)

    def face_average(self, cell_field: np.ndarray) -> np.ndarray:
        """Arithmetic mean of adjacent cells at nodes; edges copy the one neighbor."""
        if cell_field.shape != (self.ncells,):
            raise ArgumentError(f"expected cell field of length {self.ncells}")
        out = np.empty(self.nnodes)
        inner = out[1:-1]                   # 0.5 * (c[:-1] + c[1:]), formed in place
        np.add(cell_field[:-1], cell_field[1:], out=inner)
        inner *= 0.5
        out[0] = cell_field[0]
        out[-1] = cell_field[-1]
        return out

    def cell_average_of_nodes(self, node_field: np.ndarray) -> np.ndarray:
        """Mean of the two bounding nodes on each cell."""
        if node_field.shape != (self.nnodes,):
            raise ArgumentError(f"expected node field of length {self.nnodes}")
        out = np.add(node_field[:-1], node_field[1:])
        return np.multiply(out, 0.5, out=out)

    # -- norms ----------------------------------------------------------------

    def discrete_norm(self, f: np.ndarray, kind: str = "L2") -> float:
        """Discrete L2 or Linf norm of a flat field sampled at spacing dx; the
        H1 and H2 norms come from sobolev_norms."""
        f = np.asarray(f, dtype=float)
        if kind == "Linf":
            return float(np.max(np.abs(f))) if f.size else 0.0
        if kind == "L2":
            with np.errstate(over="ignore"):
                squares = np.sum(f * f)
            if squares == np.inf and np.isfinite(scale := np.max(np.abs(f))):
                return float(scale * np.sqrt(np.sum((f / scale) ** 2) * self.dx))  # rescaled
            return float(np.sqrt(squares * self.dx))
        raise ArgumentError(f"unknown norm kind {kind!r}")

    def sobolev_norms(self, f: np.ndarray) -> tuple:
        """(H1, H2) norms of f from one pass: H1 adds to the L2 norm that of
        the first divided differences, H2 adds to H1 that of the second."""
        f = np.asarray(f, dtype=float)
        dx = self.dx
        with np.errstate(over="ignore"):    # squares above ~1e308 are inf; a float's ** raises
            diff1 = np.diff(f)
            d1, d2 = diff1 / dx, np.diff(diff1) / dx ** 2
            s1, s2 = np.sum(d1 * d1) * dx, np.sum(d2 * d2) * dx
            h1 = np.sqrt(np.float64(self.discrete_norm(f)) ** 2 + s1)
            return float(h1), float(np.sqrt(h1 ** 2 + s2))


def build_grid(L: float, N: int, ghost_depth: int = 2) -> Grid:
    if L <= 0:
        raise ArgumentError(f"L must be positive, got {L}")
    if N < 8:
        raise ArgumentError(f"N must be at least 8, got {N}")
    if ghost_depth < 2:
        raise ArgumentError(f"ghost_depth must be at least 2, got {ghost_depth}")
    dx = 2.0 * L / N
    if not np.isfinite(dx * dx):   # the parabolic limit and the H2 norm divide by dx**2
        raise ArgumentError(f"L = {L} is too large for N = {N}: dx**2 overflows")
    return Grid(L=L, N=N, ghost_depth=ghost_depth, dx=dx)


@dataclass
class State:
    """Discrete snapshot: time plus staggered fields (ghosts included)."""

    t: float
    v: np.ndarray
    u: np.ndarray
    theta: np.ndarray

    def copy(self) -> "State":
        return State(self.t, self.v.copy(), self.u.copy(), self.theta.copy())

    @staticmethod
    def equilibrium(grid: Grid, t: float = 0.0) -> "State":
        return State(t,
                     np.full(grid.ncells, FARFIELD[0]),
                     np.full(grid.nnodes, FARFIELD[1]),
                     np.full(grid.ncells, FARFIELD[2]))


def apply_farfield(state: State, grid: Grid) -> State:
    """Pin all ghost entries to (1, 0, 1); interior untouched.  In place."""
    state.v[grid.ghost_cells] = FARFIELD[0]
    state.theta[grid.ghost_cells] = FARFIELD[2]
    state.u[grid.ghost_nodes] = FARFIELD[1]
    return state
