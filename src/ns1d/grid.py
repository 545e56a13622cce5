"""Truncated Lagrangian mass domain with a staggered (cell/node) layout.

Cells carry v and theta; nodes carry u.  Node i is the left edge of cell i,
so a grid with C = N + 2*ghost cells has C + 1 nodes.  Ghost cells/nodes hold
the far-field state (1, 0, 1) at all times.  A state is one vector
y = [v | theta | u] of length 3*C + 1, laid out by Grid.views.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

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
    def size(self) -> int:
        """Length of a state vector [v | theta | u]: 2*ncells + nnodes."""
        return 2 * self.ncells + self.nnodes

    @cached_property
    def farfield(self) -> tuple:
        """(index, values): every ghost entry of a state vector and its far-field value."""
        n, g = self.ncells, self.ghost_depth
        cells, nodes = np.r_[:g, n - g:n], np.r_[:g, n + 1 - g:n + 1]
        index = np.concatenate((cells, n + cells, 2 * n + nodes))
        return index, np.repeat([FARFIELD[0], FARFIELD[2], FARFIELD[1]], 2 * g)

    def fit(self, y: np.ndarray) -> np.ndarray:
        """y, if it is a state vector of this grid: ArgumentError unless its length is size."""
        if y.shape != (self.size,):
            raise ArgumentError(f"a state vector of {y.size} entries does not fit a grid of "
                                f"{self.ncells} cells, whose state vectors have {self.size}")
        return y

    @staticmethod
    def views(y: np.ndarray) -> tuple:
        """(v, u, theta), the views of a vector laid out [v | theta | u]: of 3*C + 1
        entries, C for each cell field and C + 1 for the nodes.  Unchecked: a state
        from outside meets fit where it enters, in make_stage and apply_farfield."""
        ncells = y.size // 3
        return y[:ncells], y[2 * ncells:], y[ncells:2 * ncells]

    @property
    def cell_interior(self) -> slice:
        g = self.ghost_depth
        return slice(g, g + self.N)

    @property
    def node_interior(self) -> slice:
        g = self.ghost_depth
        return slice(g, g + self.N + 1)

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
    if not L > 0:                  # NaN fails it too
        raise ArgumentError(f"L must be positive, got {L}")
    if N < 8:
        raise ArgumentError(f"N must be at least 8, got {N}")
    if ghost_depth < 2:
        raise ArgumentError(f"ghost_depth must be at least 2, got {ghost_depth}")
    dx = 2.0 * L / N
    if not np.isfinite(dx * dx):   # the parabolic limit and the H2 norm divide by dx**2
        raise ArgumentError(f"L = {L} is too large for N = {N}: dx**2 overflows")
    return Grid(L=L, N=N, ghost_depth=ghost_depth, dx=dx)


def _field(name: str) -> property:
    """A State field: read, its view of y; assigned, a copy into that view."""
    def assign(state: "State", values) -> None:
        view = getattr(state, "_" + name)
        if np.shape(values) != view.shape:
            raise ArgumentError(f"{name} of shape {np.shape(values)} does not fit {view.shape}")
        view[...] = values
    return property(attrgetter("_" + name), assign, doc=f"{name}, a view of y")


class State:
    """Discrete snapshot: the time t and one float64 vector y = [v | theta | u], ghosts
    included, whose views are the fields v, theta and u (the layout of Grid.views).
    Writing into a field writes into y; assigning one copies into its view."""

    v, u, theta = _field("v"), _field("u"), _field("theta")

    def __init__(self, t: float, v, u, theta):
        """The state at t of copies of v, u and theta, concatenated once."""
        if not len(v) == len(theta) == len(u) - 1:
            raise ArgumentError(f"fields of lengths v {len(v)}, u {len(u)}, theta {len(theta)}: "
                                "u needs one entry more than v and theta")
        self.wrap(t, np.concatenate((v, theta, u), dtype=float))

    def wrap(self, t: float, y: np.ndarray) -> "State":
        """self at t, its fields the views of y itself (no copy, no check): the one
        way a vector becomes a state, as State.__new__(State).wrap(t, y)."""
        self.t, self.y = t, y
        self._v, self._u, self._theta = Grid.views(y)
        return self

    def copy(self) -> "State":
        return State.__new__(State).wrap(self.t, self.y.copy())

    @staticmethod
    def equilibrium(grid: Grid) -> "State":
        n = grid.ncells
        return State.__new__(State).wrap(0.0, np.repeat([FARFIELD[0], FARFIELD[2], FARFIELD[1]],
                                                        [n, n, n + 1]))


def apply_farfield(state: State, grid: Grid) -> State:
    """Pin all ghost entries to (1, 0, 1), interior untouched, by one write into state.y,
    in place; ArgumentError unless the state fits grid (the step's one check of a trial state)."""
    index, values = grid.farfield
    grid.fit(state.y)[index] = values
    return state
