"""Radial interaction kernels and the operator assembled from them.

The quadrature weights follow the midpoint rule W[x][y] = J(x - y) * mu[y]
with a zero diagonal. The operator stores one number per active ordered
pair, the coefficient mu[x] W[x][y] = mu[x] J(x - y) mu[y], and W is that
coefficient divided by mu[x]. The coefficient is exactly symmetric for any
measures, which is reciprocity W[x][y] mu[x] = W[y][x] mu[y] and what makes
the discrete mass balance of the evolution problems exact.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from . import _accel
from .errors import EmptySupport, InvalidArgument, SingularAtOrigin
from .geometry import STRIP, interior_indices, strip_indices

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
    """Kernel values at the given |z| array, written over d and returned, so
    assembly needs no second n x n array. Caller keeps d > 0 for Singular."""
    if spec.family == TENT:
        np.subtract(spec.R, d, out=d)
        np.maximum(d, 0.0, out=d)
    elif spec.family == BUMP:
        np.multiply(d, d, out=d)
        np.subtract(spec.R**2, d, out=d)
        np.maximum(d, 0.0, out=d)
        np.multiply(d, d, out=d)
    else:
        np.power(d, -(spec.dim + spec.p * spec.s), out=d)
    d *= spec.cnorm
    return d


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
    with one symmetric coefficient per edge is the only stored form of the
    edges: every Laplacian block is cut from its CSR adjacency, and
    strip_edges caches its strip rows. W[x][y] is act_coef / mu[x].

    Attributes
    ----------
    act_rows, act_cols : (nnz,) int64 arrays
        The active ordered pairs (x, y), lexicographic.
    act_coef : (nnz,) array
        mu[x] W[x][y] = mu[x] J(x - y) mu[y], the symmetric edge coefficients.
    deg_active : (n,) array
        Per-node row sums of W over the active edge set.
    """

    def __init__(self, grid, spec, edge_mode, act_rows, act_cols, act_coef):
        self.grid = grid
        self.spec = spec
        self.edge_mode = edge_mode
        self.act_rows = act_rows
        self.act_cols = act_cols
        self.act_coef = act_coef
        self.deg_active = np.bincount(act_rows, weights=act_coef, minlength=grid.n) / grid.mu
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
    active = jmat > 0.0
    np.fill_diagonal(active, False)
    if edge_mode == EXCLUDE_STRIP_STRIP:
        s_idx = strip_indices(grid)
        active[np.ix_(s_idx, s_idx)] = False
    # np.nonzero on a 2-D mask returns strided views, and every edge gather
    # after assembly reads them; divmod of the flat indices gives contiguous ones
    rows, cols = np.divmod(np.flatnonzero(active), grid.n)
    if rows.shape[0] == 0:
        raise EmptySupport("no active node pair has a nonzero weight")
    # mu[x] mu[y] is one product from either end: the coefficient is exactly symmetric
    coef = grid.mu[rows] * grid.mu[cols]
    coef *= jmat[rows, cols]
    return NonlocalOperator(grid, spec, edge_mode, rows, cols, coef)


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
    return _accel.laplacian_block(op.act_rows, op.act_cols, op.act_coef,
                                  np.arange(op.n))


def strip_edges(op):
    """The active edges out of strip nodes, as (rows, cols, coef) in
    lexicographic order with global node indices and the coefficients
    mu[x] W[x][y]. Cached on first use; the strip flux reads them at every
    explicit step and every right-hand side."""
    if "strip_edges" not in op._cache:
        keep = op.grid.klass[op.act_rows] == STRIP
        op._cache["strip_edges"] = (op.act_rows[keep], op.act_cols[keep], op.act_coef[keep])
    return op._cache["strip_edges"]
