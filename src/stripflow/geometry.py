"""Uniform cell-centered grids on a box, split into an interior region and a
boundary strip by distance to the box boundary."""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BadSpacing, EmptyInterior, InvalidArgument, NoStripNodes

INTERIOR = 0
STRIP = 1

KLASS_NAMES = {INTERIOR: "interior", STRIP: "strip"}

# Nodes with bdist within this margin of r count as strip (closed strip,
# robust against rounding in the cell-center coordinates).
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned box, dimension 1 or 2."""

    dim: int
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InvalidArgument(f"dim must be 1 or 2, got {self.dim}")
        lo = np.asarray(self.lo, dtype=float).reshape(-1)
        hi = np.asarray(self.hi, dtype=float).reshape(-1)
        if lo.shape != (self.dim,) or hi.shape != (self.dim,):
            raise InvalidArgument("lo and hi must have length dim")
        if not np.all(lo < hi):
            raise InvalidArgument("need lo < hi on every axis")
        object.__setattr__(self, "lo", _frozen(lo))
        object.__setattr__(self, "hi", _frozen(hi))

    @property
    def sides(self):
        return self.hi - self.lo

    @property
    def volume(self):
        return float(np.prod(self.sides))


@dataclass(frozen=True)
class Grid:
    """Cell-centered tensor grid with per-node classification.

    Attributes
    ----------
    nodes : (n, dim) array of node coordinates, lexicographic order.
    klass : (n,) array, INTERIOR or STRIP.
    mu : (n,) array of node measures, all equal to h**dim.
    bdist : (n,) array of distances to the box boundary.
    """

    domain: DomainBox
    h: float
    r: float
    nodes: np.ndarray
    klass: np.ndarray
    mu: np.ndarray
    bdist: np.ndarray
    counts: tuple = field(default=())

    def __post_init__(self):
        n = self.nodes.shape[0]
        if self.nodes.ndim != 2 or self.nodes.shape[1] != self.domain.dim:
            raise InvalidArgument("nodes must be (n, dim)")
        for name in ("klass", "mu", "bdist"):
            if getattr(self, name).shape != (n,):
                raise InvalidArgument(f"{name} must have length {n}")
        for name in ("nodes", "klass", "mu", "bdist"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def n(self):
        return self.nodes.shape[0]

    @cached_property
    def strip_mu(self):
        """(n_S,) the measures of the strip nodes, in node order, read-only."""
        return _frozen(self.mu[self.klass == STRIP])

    @property
    def dim(self):
        return self.domain.dim


def _frozen(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def build_grid(domain, h, r, allow_empty_interior=False):
    """Build the cell-centered grid and classify nodes by boundary distance.

    Parameters
    ----------
    domain : DomainBox
    h : float
        Spacing; must tile every box side within 1e-12 relative.
    r : float
        Strip width. Nodes with boundary distance <= r are strip nodes.
    allow_empty_interior : bool
        Permit a grid whose every node lands in the strip. Off by default
        because the interior solve degenerates then.

    Returns
    -------
    Grid

    Raises
    ------
    BadSpacing, NoStripNodes, EmptyInterior, InvalidArgument
    """
    if h <= 0:
        raise InvalidArgument(f"spacing must be positive, got {h}")
    if r <= 0:
        raise InvalidArgument(f"strip width must be positive, got {r}")

    counts = []
    for k in range(domain.dim):
        side = float(domain.hi[k] - domain.lo[k])
        m = int(round(side / h))
        if m < 1 or abs(m * h - side) > 1e-12 * side:
            raise BadSpacing(f"h={h} does not tile side {side} (axis {k})")
        counts.append(m)

    nodes = lattice_nodes(domain, h, counts)

    lo = domain.lo[None, :]
    hi = domain.hi[None, :]
    bdist = np.minimum(nodes - lo, hi - nodes).min(axis=1)

    klass = np.where(bdist <= r + _TIE_TOL * max(1.0, r), STRIP, INTERIOR).astype(np.uint8)
    if not np.any(klass == STRIP):
        raise NoStripNodes(f"strip width {r} captures no node (closest center at {bdist.min()})")
    if not np.any(klass == INTERIOR) and not allow_empty_interior:
        raise EmptyInterior("all nodes fall in the strip; pass allow_empty_interior to accept")

    mu = np.full(nodes.shape[0], float(h) ** domain.dim)
    return Grid(domain=domain, h=float(h), r=float(r), nodes=nodes, klass=klass,
                mu=mu, bdist=bdist, counts=tuple(counts))


def lattice_nodes(domain, h, counts):
    """The cell centres lo + (i + 1/2) h of a counts[0] x ... lattice, the
    first axis slowest: the nodes of build_grid, bit for bit."""
    axes = [domain.lo[k] + (np.arange(counts[k]) + 0.5) * h for k in range(domain.dim)]
    if domain.dim == 1:
        return axes[0][:, None]
    gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def strip_indices(grid):
    """Sorted indices of strip nodes."""
    return np.flatnonzero(grid.klass == STRIP)


def interior_indices(grid):
    """Sorted indices of interior nodes."""
    return np.flatnonzero(grid.klass == INTERIOR)
