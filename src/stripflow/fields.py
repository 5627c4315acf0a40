"""Value containers for nodal data on a grid."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .geometry import STRIP


@dataclass(frozen=True)
class StripField:
    """Values on the strip nodes only, ordered by global node index."""

    values: np.ndarray
    grid: object

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        n_strip = int(np.count_nonzero(self.grid.klass == STRIP))
        if v.shape[0] != n_strip:
            raise InvalidArgument(f"expected {n_strip} strip values, got {v.shape[0]}")
        if not np.all(np.isfinite(v)):
            raise InvalidArgument("strip values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class FullField:
    """Values on every node of a grid."""

    values: np.ndarray
    grid: object

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.shape[0] != self.grid.n:
            raise InvalidArgument(f"expected {self.grid.n} values, got {v.shape[0]}")
        if not np.all(np.isfinite(v)):
            raise InvalidArgument("field values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class EnergyReport:
    """Outcome of a variational solve. energy is the value of the solve's
    objective, which is the edge energy for an extension; grad_norm is the
    sup-norm of its W-unit residual over the free nodes. cg_iterations sums
    the PCG iterations of the Newton steps; the majoriser path makes none.
    stalled marks a solve stopped because neither the objective nor the
    residual improved any more; its floor estimates the residual that
    roundoff in the iterate alone produces, eps max |v| max_x sum_y
    W[x][y] phi_p'(v[y] - v[x]), and is None for a solve that did not stall.
    A gate below the floor is met, if at all, by how the roundoff falls."""

    energy: float
    grad_norm: float
    iterations: int
    converged: bool
    cg_iterations: int = 0
    stalled: bool = False
    floor: float | None = None
