"""Radial interaction kernels and their assembled quadrature matrices.

The assembled weights follow the midpoint rule W[x][y] = J(x - y) * mu[y]
with a zero diagonal. On a uniform grid this gives exact reciprocity
W[x][y] mu[x] = W[y][x] mu[y], which is what makes the discrete mass
balance of the evolution problems exact.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from . import _accel
from .errors import EmptySupport, InvalidArgument, SingularAtOrigin
from .fields import FullField
from .geometry import interior_indices, strip_indices

TENT = "tent"
BUMP = "bump"
SINGULAR = "singular"

EXCLUDE_STRIP_STRIP = "exclude-strip-strip"
FULL = "full"

_EDGE_MODES = (EXCLUDE_STRIP_STRIP, FULL)


@dataclass(frozen=True)
class KernelSpec:
    """A radial kernel family with its normalization.

    Tent and Bump are compactly supported on |z| < R and integrate to one.
    Singular is cnorm / |z|**(dim + p*s), unbounded at the origin; its
    prefactor is 1 by default and may be overridden.
    """

    family: str
    dim: int
    cnorm: float
    R: float = None
    s: float = None
    p: float = 2.0

    def __post_init__(self):
        if self.family not in (TENT, BUMP, SINGULAR):
            raise InvalidArgument(f"unknown kernel family {self.family!r}")
        if self.dim not in (1, 2):
            raise InvalidArgument("kernel dim must be 1 or 2")
        if self.family == SINGULAR:
            if self.s is None or not 0.0 < self.s < 1.0:
                raise InvalidArgument("singular kernel needs s in (0, 1)")
            if self.p <= 1.0:
                raise InvalidArgument("singular kernel needs p > 1")
        else:
            if self.R is None or self.R <= 0.0:
                raise InvalidArgument(f"{self.family} kernel needs R > 0")

    @property
    def compact(self):
        return self.family != SINGULAR


def normalization(family, R, dim):
    """Closed-form constant making the smooth kernels integrate to one.

    Returns 1.0 for the singular family, whose prefactor is conventional.
    """
    if family == SINGULAR:
        return 1.0
    if R <= 0.0:
        raise InvalidArgument(f"{family} kernel needs R > 0, got {R}")
    if family == TENT:
        return 1.0 / R**2 if dim == 1 else 3.0 / (math.pi * R**3)
    if family == BUMP:
        return 15.0 / (16.0 * R**5) if dim == 1 else 3.0 / (math.pi * R**6)
    raise InvalidArgument(f"unknown kernel family {family!r}")


def tent_kernel(R, dim):
    return KernelSpec(family=TENT, dim=dim, cnorm=normalization(TENT, R, dim), R=float(R))


def bump_kernel(R, dim):
    return KernelSpec(family=BUMP, dim=dim, cnorm=normalization(BUMP, R, dim), R=float(R))


def singular_kernel(s, p, dim, cnorm=1.0):
    return KernelSpec(family=SINGULAR, dim=dim, cnorm=float(cnorm), s=float(s), p=float(p))


def _values_from_distance(spec, d):
    """Kernel values at the given |z| array. Caller keeps d > 0 for Singular."""
    if spec.family == TENT:
        return spec.cnorm * np.maximum(spec.R - d, 0.0)
    if spec.family == BUMP:
        return spec.cnorm * np.maximum(spec.R**2 - d * d, 0.0) ** 2
    return spec.cnorm * d ** (-(spec.dim + spec.p * spec.s))


def eval_kernel(spec, z):
    """Evaluate the kernel at displacement z.

    z may be a single displacement of length dim or a batch (m, dim);
    returns a float or an (m,) array accordingly.
    """
    z = np.asarray(z, dtype=float)
    single = z.ndim <= 1
    zb = np.atleast_2d(z)
    if zb.shape[1] != spec.dim:
        raise InvalidArgument(f"displacement must have length {spec.dim}")
    d = np.linalg.norm(zb, axis=1)
    if spec.family == SINGULAR and np.any(d == 0.0):
        raise SingularAtOrigin("singular kernel is undefined at zero displacement")
    out = _values_from_distance(spec, d)
    return float(out[0]) if single else out


class NonlocalOperator:
    """Assembled quadrature weights for one grid, kernel, and edge mode.

    The active edge set contains every ordered node pair with a nonzero
    weight, minus the strip-strip pairs when edge_mode excludes them.
    Interior rows are identical in both modes. The lexicographic edge list
    is the only stored form of the edges; edge_block derives the blocks
    the solvers need from it.

    Attributes
    ----------
    act_rows, act_cols : (nnz,) int64 arrays
        The active ordered pairs (x, y), lexicographic.
    act_w : (nnz,) array
        W[x][y] on each active pair.
    act_coef : (nnz,) array
        mu[x] W[x][y], the symmetric edge coefficients.
    deg_active : (n,) array
        Per-node row sums of W over the active edge set.
    """

    def __init__(self, grid, spec, edge_mode, act_rows, act_cols, act_w):
        self.grid = grid
        self.spec = spec
        self.edge_mode = edge_mode
        self.act_rows = act_rows
        self.act_cols = act_cols
        self.act_w = act_w
        self.act_coef = grid.mu[act_rows] * act_w
        self.deg_active = np.bincount(act_rows, weights=act_w, minlength=grid.n)
        self.strip_idx = strip_indices(grid)
        self.interior_idx = interior_indices(grid)
        self._cache = {}

    @property
    def n(self):
        return self.grid.n

    @property
    def n_strip(self):
        return self.strip_idx.shape[0]

    @property
    def n_interior(self):
        return self.interior_idx.shape[0]

    @property
    def nnz(self):
        return self.act_rows.shape[0]


def _operator_from_dense(grid, spec, jmat, edge_mode):
    """Build the operator from a dense matrix of kernel values J(x_i - x_j).

    Shared by assemble and by the synthetic test fixtures that pin J
    directly instead of evaluating a kernel.
    """
    if edge_mode not in _EDGE_MODES:
        raise InvalidArgument(f"unknown edge mode {edge_mode!r}")
    w_dense = jmat * grid.mu[None, :]
    np.fill_diagonal(w_dense, 0.0)
    active = w_dense > 0.0
    if edge_mode == EXCLUDE_STRIP_STRIP:
        s_idx = strip_indices(grid)
        active[np.ix_(s_idx, s_idx)] = False
    rows, cols = np.nonzero(active)
    if rows.shape[0] == 0:
        raise EmptySupport("no active node pair has a nonzero weight")
    return NonlocalOperator(grid, spec, edge_mode, rows.astype(np.int64),
                            cols.astype(np.int64), w_dense[rows, cols])


def assemble(grid, spec, edge_mode=EXCLUDE_STRIP_STRIP):
    """Assemble the quadrature weights W[x][y] = J(x - y) mu[y].

    Entries are kept sparse (pairs beyond the kernel support are dropped)
    and the edge list is ordered lexicographically, so the assembly is
    deterministic.

    Raises
    ------
    EmptySupport
        If no node pair interacts, e.g. a compact kernel with R < h.
    """
    if spec.dim != grid.dim:
        raise InvalidArgument(f"kernel dim {spec.dim} does not match grid dim {grid.dim}")
    d = cdist(grid.nodes, grid.nodes)
    if spec.family == SINGULAR:
        np.fill_diagonal(d, np.inf)
    jmat = _values_from_distance(spec, d)
    np.fill_diagonal(jmat, 0.0)
    return _operator_from_dense(grid, spec, jmat, edge_mode)


def laplacian_dense(op):
    """Dense matrix of the active-edge Laplacian, diag(row sums) - A with
    A[x][y] = mu[x] W[x][y]. Symmetric PSD."""
    return _accel.laplacian_fill(op.act_rows, op.act_cols, op.act_coef,
                                 np.zeros((op.n, op.n)))


def edge_block(op, row_class, col_class=None):
    """Active edges from the nodes of row_class to those of col_class
    (to every node when col_class is None), as (rows, cols, w) in
    lexicographic order. rows count within row_class, cols within
    col_class (globally when None), and w holds W[x][y]. Derived from the
    edge list on first use and cached on the operator.
    """
    key = ("edge_block", row_class, col_class)
    if key not in op._cache:
        klass = op.grid.klass
        keep = klass[op.act_rows] == row_class
        if col_class is not None:
            keep &= klass[op.act_cols] == col_class
        local = np.empty(op.n, dtype=np.int64)
        local[op.strip_idx] = np.arange(op.n_strip)
        local[op.interior_idx] = np.arange(op.n_interior)
        cols = op.act_cols[keep]
        op._cache[key] = (local[op.act_rows[keep]],
                          cols if col_class is None else local[cols],
                          op.act_w[keep])
    return op._cache[key]


def apply_graph_laplacian(op, u):
    """Weighted graph Laplacian over the active edge set.

    (Lu)[x] = mu[x] * sum over active (x, y) of W[x][y] (u[x] - u[y]).
    Annihilates constants; symmetric positive semidefinite as a form.
    """
    vals = u.values if isinstance(u, FullField) else np.asarray(u, dtype=float)
    out = -_accel.phi_row_sums(op.act_rows, op.act_cols, op.act_coef,
                               vals, vals, 2.0, 0.0, op.n)
    return FullField(out, op.grid)
