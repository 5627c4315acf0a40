"""Radial interaction kernels and the operator assembled from them.

The quadrature weights follow the midpoint rule W[x][y] = J(x - y) * mu[y]
with a zero diagonal. The operator stores one number per active ordered
pair, the coefficient mu[x] W[x][y] = mu[x] J(x - y) mu[y], and W is that
coefficient divided by mu[x]. The coefficient is exactly symmetric for any
measures, which is reciprocity W[x][y] mu[x] = W[y][x] mu[y] and what makes
the discrete mass balance of the evolution problems exact.

Assembly needs the nodes of build_grid, the cell centres lo + (i + 1/2) h
of a lattice, and refuses any other node set. There J(x - y) depends only
on the integer offset between the two nodes, so J is evaluated once per
offset of the kernel's support, and the pairs of each node are runs of
consecutive node numbers, one per line of offsets. The edge list is
written run after run, already in lexicographic order, in time and memory
proportional to its length. A compact kernel drops the offsets on the rim
|x - y| = R of its support, where J is 0 up to the rounding of the
coordinates. On a dyadic grid the result is bit for bit that of J
evaluated at every node pair.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .errors import EmptySupport, InvalidArgument, SingularAtOrigin
from .geometry import STRIP, interior_indices, lattice_nodes, strip_indices

TENT = "tent"
BUMP = "bump"
SINGULAR = "singular"

EXCLUDE_STRIP_STRIP = "exclude-strip-strip"
FULL = "full"

_EDGE_MODES = (EXCLUDE_STRIP_STRIP, FULL)

# An offset of a compact kernel whose squared length is within this relative
# margin of (R/h)^2 is on the rim, where J is 0 up to the rounding of the
# node coordinates, so whether a pair there is kept would hang on that rounding
_RIM_TOL = 64 * np.finfo(float).eps


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
    no second array of its size is made. Caller keeps d > 0 for Singular."""
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
    lattice : (m0, m1) or None
        The lattice of the nodes, a 1D grid as one line (1, m1), for an
        operator that assemble built; None for any other.
    """

    def __init__(self, grid, spec, edge_mode, act_rows, act_cols, act_coef, lattice=None):
        self.grid = grid
        self.spec = spec
        self.edge_mode = edge_mode
        self.act_rows = act_rows
        self.act_cols = act_cols
        self.act_coef = act_coef
        self.lattice = lattice
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

    For the synthetic fixtures that pin J directly instead of evaluating a
    kernel, on node sets that need not be a lattice, and for the tests that
    check assemble against J evaluated at every node pair.
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


def _lattice_shape(grid):
    """The (m0, m1) lattice of the grid's nodes, a 1D grid as one line of m1
    nodes. The stencil holds only on build_grid's cell centres, so any other
    node set is refused rather than given a wrong edge list."""
    counts = tuple(int(c) for c in grid.counts)
    if (len(counts) != grid.dim or math.prod(counts) != grid.n
            or not np.array_equal(lattice_nodes(grid.domain, grid.h, counts), grid.nodes)):
        raise InvalidArgument("assemble needs the cell-centred lattice of build_grid: nodes "
                              "lo + (i + 1/2) h in lexicographic order, grid.counts per axis")
    return (1,) + counts if grid.dim == 1 else counts


def _ranges(starts, lengths, out, step=1):
    """Fill out with the runs start, start + step, ..., one of each positive
    length, laid end to end: steps with a jump at each run's head, summed in
    place."""
    heads = np.cumsum(lengths) - lengths
    out.fill(step)
    out[heads] = starts
    out[heads[1:]] -= starts[:-1] + step * (lengths[:-1] - 1)
    np.cumsum(out, out=out)
    return out


def _stencil(spec, h, shape):
    """The support's offsets (a, b) between two nodes of the lattice, as
    runs b = lo..hi at each a in lexicographic order (the self-offset (0, 0)
    cuts the a = 0 run in two), and J at each offset, run after run.
    Compact kernels take the integer disc a^2 + b^2 < (R/h)^2 short of its
    rim, the singular one the whole box."""
    m0, m1 = shape
    a = np.arange(1 - m0, m0)
    if spec.compact:
        reach2 = (spec.R / h) ** 2 * (1.0 - _RIM_TOL)
        bmax = np.count_nonzero(a[:, None] ** 2 + np.arange(m1) ** 2 < reach2, axis=1) - 1
    else:
        bmax = np.full(a.shape, m1 - 1)
    a, bmax = a[bmax >= 0], bmax[bmax >= 0]  # a = 0 is always kept
    z = np.searchsorted(a, 0)
    a, lo, hi = np.insert(a, z, 0), np.insert(-bmax, z + 1, 1), np.insert(bmax, z, -1)
    keep = hi >= lo
    a, lo, hi = a[keep], lo[keep], hi[keep]
    # |z| summed as the distance of two nodes is, so that it is exact wherever
    # the coordinates are
    length = hi - lo + 1
    za = np.repeat(a, length) * h
    zb = _ranges(lo, length, np.empty(length.sum(), dtype=np.int64)) * h
    return a, lo, hi, _values_from_distance(spec, np.sqrt(za * za + zb * zb))


def _runs(grid, shape, seg_a, seg_lo, seg_hi, edge_mode):
    """Each node's pairs as runs of consecutive node numbers.

    Node x = (i, j) reaches through the offset run (a, lo..hi) the nodes
    (i + a, j + lo..hi) that are on the grid, node numbers c0..c1. Columns
    are read from `targets`: every node, then in exclude mode the interior
    nodes again, the only ones a strip row reaches, so that its run is
    their positions rank(c0)..rank(c1 + 1) - 1 there. Returns targets, each
    node's pair count, and for each nonempty run its first position in
    targets, its length, and its shift: the column less the index of its
    offset in the stencil table, constant along the run."""
    m0, m1 = shape
    node = np.arange(grid.n)
    i, j = np.divmod(node, m1)
    lo = np.maximum(seg_lo, -j[:, None])
    hi = np.minimum(seg_hi, m1 - 1 - j[:, None])
    line = i[:, None] + seg_a
    on_grid = (line >= 0) & (line < m0) & (hi >= lo)
    np.clip(line, 0, m0 - 1, out=line)
    c0 = line * m1 + j[:, None] + lo
    stop = c0 + (hi - lo + 1)
    targets, start = node, c0
    if edge_mode == EXCLUDE_STRIP_STRIP:
        interior = grid.klass != STRIP
        targets = np.concatenate((node, np.flatnonzero(interior)))
        rank = np.concatenate(([0], np.cumsum(interior))) + grid.n
        strip_row = ~interior[:, None]
        start = np.where(strip_row, rank[c0], c0)
        stop = np.where(strip_row, rank[stop], stop)
    length = np.where(on_grid, stop - start, 0)
    seg_len = seg_hi - seg_lo + 1
    first_offset = np.cumsum(seg_len) - seg_len + (lo - seg_lo)
    runs = length > 0
    return targets, length.sum(axis=1), start[runs], length[runs], (c0 - first_offset)[runs]


def assemble(grid, spec, edge_mode=EXCLUDE_STRIP_STRIP):
    """Assemble the quadrature weights W[x][y] = J(x - y) mu[y] on the
    lattice of build_grid.

    J is evaluated once per integer offset (a, b) of the support: the disc
    a^2 + b^2 < (R/h)^2 for tent and bump, every offset of the
    (2 m0 - 1) x (2 m1 - 1) box of an m0 x m1 grid for the singular
    kernel. The offsets form
    one table in lexicographic order, and a node's pairs at one a are a run
    of consecutive columns on the grid, so the pairs are emitted run after
    run, node after node: lexicographic with no sort and no n x n array,
    in O(nnz) time and memory. The coefficient of a pair is
    mu[x] mu[y] J(offset), so the measures need not be uniform.

    Offsets whose squared length is within 64 eps (relative) of (R/h)^2
    are left out: J is 0 there up to the rounding of the node coordinates.
    On a dyadic grid no pair moves and the edge list is bit for bit that of
    J evaluated at every node pair. Otherwise only such rim pairs go: at
    2D h = 1/48, R = 1/4, 1152 pairs of weight 6.4e-22 or less against a
    median of 9.0e-7, and the other coefficients move by at most 1.4e-14
    relative.

    Raises
    ------
    InvalidArgument
        If the nodes are not the lattice build_grid makes for grid.counts,
        or the dimensions or the edge mode do not match.
    EmptySupport
        If no node pair interacts, e.g. a compact kernel with R < h.
    """
    if spec.dim != grid.dim:
        raise InvalidArgument(f"kernel dim {spec.dim} does not match grid dim {grid.dim}")
    if edge_mode not in _EDGE_MODES:
        raise InvalidArgument(f"unknown edge mode {edge_mode!r}")
    shape = _lattice_shape(grid)
    seg_a, seg_lo, seg_hi, jval = _stencil(spec, grid.h, shape)
    targets, counts, start, length, shift = _runs(grid, shape, seg_a, seg_lo, seg_hi, edge_mode)
    if length.size == 0:
        raise EmptySupport("no active node pair has a nonzero weight")
    # each pair's position in targets and its offset's index in the stencil
    # table, in one block freed before the coefficients are formed. One block
    # rather than two: glibc raises its mmap and trim thresholds to the
    # largest block freed, and below twice the edge arrays' size the p != 2
    # solvers' edge-sized temporaries page-fault at every call (a p = 3 run
    # at h = 1/32 took 330k page faults with two blocks, 120k with one and 25k
    # with the dense n x n evaluation)
    index = np.empty((2, int(length.sum())), dtype=np.int64)
    cols = targets[_ranges(start, length, index[0])]
    np.subtract(cols, _ranges(shift, length, index[1], step=0), out=index[1])
    values = jval[index[1]]
    del index
    # mu[x] mu[y] is one product from either end: the coefficient is exactly symmetric
    coef = np.repeat(grid.mu, counts)
    coef *= grid.mu[cols]
    coef *= values
    del values  # before rows: at most four edge-sized arrays are live at once
    rows = np.repeat(np.arange(grid.n), counts)
    return NonlocalOperator(grid, spec, edge_mode, rows, cols, coef, lattice=shape)


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
