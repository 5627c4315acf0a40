"""Radial interaction kernels and the operator assembled from them.

The quadrature weights follow the midpoint rule W[x][y] = J(x - y) * mu[y]
with a zero diagonal. The operator has one number per active ordered
pair, the coefficient mu[x] W[x][y] = mu[x] J(x - y) mu[y], and W is that
coefficient divided by mu[x]. The coefficient is exactly symmetric for any
measures, which is reciprocity W[x][y] mu[x] = W[y][x] mu[y] and what makes
the discrete mass balance of the evolution problems exact.

Assembly needs the nodes of build_grid, the cell centres lo + (i + 1/2) h
of a lattice, and refuses any other node set. There J(x - y) depends only
on the integer offset between the two nodes, so J is evaluated once per
offset of the kernel's support, and assembly writes no row: the row sums
deg_active are matrix products of the measures with that table over
rectangles of the orbit representatives (_reach_sums), the p = 2 sector
blocks are read off the table (symmetry.Sectors.fold_laplacian), and the
products of whole rows with node values are one convolution with it
(interior_row_sums, strip_row_sums), by numpy.fft, so that no run loads
scipy.fft or the scipy.special it pulls in. The pairs of
each node are runs of consecutive node numbers, one per line of offsets,
so the rows of any node set are written from the table run after run,
already in lexicographic order, in time and memory proportional to their
length: for the p != 2 passes the interacting pairs x < y (pairs), each
once, from the half of the table after the self-offset, the one edge set
a solve writes. No solve writes the whole ordered edge list (edge_list);
tests take it as their oracle. A compact kernel drops the offsets on the
rim |x - y| = R of its support, where J is 0 up to the rounding of the
coordinates. On a dyadic grid the edges are bit for bit those of J
evaluated at every node pair.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

# Edges one chunk of a row write holds: every edge of 2D h = 1/32 (128836 at
# R = 1/4) is one chunk
_ROW_CHUNK = 1 << 17


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
            if not 1.0 < self.p < math.inf:  # NaN too
                raise InvalidArgument(f"singular kernel needs a finite p > 1, got {self.p}")
        else:
            if self.R is None or not 0.0 < self.R < math.inf:  # NaN too
                raise InvalidArgument(f"{self.family} kernel needs a finite R > 0, got {self.R}")

    @property
    def compact(self):
        return self.family != SINGULAR


def normalization(family, R, dim):
    """Closed-form constant making the smooth kernels integrate to one.

    Returns 1.0 for the singular family, whose prefactor is conventional.
    """
    if family == SINGULAR:
        return 1.0
    if not 0.0 < R < math.inf:  # NaN too
        raise InvalidArgument(f"{family} kernel needs a finite R > 0, got {R}")
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
    Interior rows are identical in both modes. An assembled operator keeps
    the offset stencil of its lattice (a few KB) and writes no row at
    assembly: its row sums, its sector blocks and its row products with
    node values are read off the stencil's J table. The p != 2 passes run
    on the interacting pairs x < y, one coefficient each (pairs), written
    from the stencil on first use and cached with their CSR skeleton. The
    lexicographic edge list with one symmetric coefficient per ordered edge
    is built on first access to act_rows, act_cols or act_coef (edge_list),
    which no solve makes: it is the tests' oracle. An operator built from
    given edges (_operator_from_dense) has its list from the start, takes
    its pairs from it and sums its rows over it. W[x][y] is act_coef / mu[x].

    Attributes
    ----------
    act_rows, act_cols : (nnz,) int64 arrays
        The active ordered pairs (x, y), lexicographic.
    act_coef : (nnz,) array
        mu[x] W[x][y] = mu[x] J(x - y) mu[y], the symmetric edge coefficients.
    deg_active : (n,) array
        Per-node row sums of W over the active edge set; on an assembled
        operator one sum for each orbit of the symmetry group G, exactly
        0 at a node with no active pair.
    lattice : (m0, m1) or None
        The lattice of the nodes, a 1D grid as one line (1, m1), for an
        operator that assemble built; None for any other.
    """

    def __init__(self, grid, spec, edge_mode, act_rows, act_cols, act_coef, lattice=None):
        self.grid = grid
        self.spec = spec
        self.edge_mode = edge_mode
        self.lattice = lattice
        self.strip_idx = strip_indices(grid)
        self.interior_idx = interior_indices(grid)
        self._cache = {}
        # assemble passes no edges and sets the stencil, deg_active and nnz
        self._stencil, self._edges = None, None
        if act_rows is not None:
            self._edges, self._nnz = (act_rows, act_cols, act_coef), act_rows.shape[0]
            self.deg_active = np.bincount(act_rows, weights=act_coef, minlength=grid.n) / grid.mu

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
        return self._nnz

    # edge_list is called, and traced, only while the list does not exist
    act_rows = property(lambda self: (self._edges or edge_list(self))[0])
    act_cols = property(lambda self: (self._edges or edge_list(self))[1])
    act_coef = property(lambda self: (self._edges or edge_list(self))[2])


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


def _ranges(starts, lengths):
    """The runs start, start + 1, ..., one of each length, laid end to end."""
    out = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    out += np.arange(out.shape[0])
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
    zb = _ranges(lo, length) * h
    return a, lo, hi, _values_from_distance(spec, np.sqrt(za * za + zb * zb))


def _runs(op, node, stencil):
    """The pairs of each of the given nodes through the offset runs of
    stencil (op._stencil or a tail of it) as runs of consecutive node numbers.

    Node x = (i, j) reaches through the offset run (a, lo..hi) the nodes
    (i + a, j + lo..hi) that are on the grid, node numbers c0..c1. Columns
    are read from `targets`: every node, then in exclude mode the interior
    nodes again, the only ones a strip row reaches, so that its run is
    their positions rank(c0)..rank(c1 + 1) - 1 there. Returns targets, each
    node's pair count, and for each nonempty run its first position in
    targets, its length, and its shift: the column less the index of its
    offset in the stencil table, constant along the run."""
    grid, (m0, m1) = op.grid, op.lattice
    seg_a, seg_lo, seg_hi, _ = stencil
    i, j = np.divmod(node, m1)
    lo = np.maximum(seg_lo, -j[:, None])
    hi = np.minimum(seg_hi, m1 - 1 - j[:, None])
    line = i[:, None] + seg_a
    on_grid = (line >= 0) & (line < m0) & (hi >= lo)
    np.clip(line, 0, m0 - 1, out=line)
    c0 = line * m1 + j[:, None] + lo
    stop = c0 + (hi - lo + 1)
    targets, start = np.arange(grid.n), c0
    if op.edge_mode == EXCLUDE_STRIP_STRIP:
        interior = grid.klass != STRIP
        targets = np.concatenate((targets, np.flatnonzero(interior)))
        rank = np.concatenate(([0], np.cumsum(interior))) + grid.n
        strip_row = ~interior[node, None]
        start = np.where(strip_row, rank[c0], c0)
        stop = np.where(strip_row, rank[stop], stop)
    length = np.where(on_grid, stop - start, 0)
    seg_len = seg_hi - seg_lo + 1
    first_offset = np.cumsum(seg_len) - seg_len + (lo - seg_lo)
    runs = length > 0
    return targets, length.sum(axis=1), start[runs], length[runs], (c0 - first_offset)[runs]


def _write_rows(op, nodes, stencil):
    """The active edges out of the ascending nodes through the offset runs
    of stencil, in edge order, as J evaluated at every node pair gives
    them, (mu[x] mu[y]) J: (row, col, coef) with row the node's index in
    nodes. Written in chunks of about _ROW_CHUNK edges so that the
    temporaries stay that small."""
    jval, mu = stencil[3], op.grid.mu
    targets, counts, start, length, shift = _runs(op, nodes, stencil)
    coef = np.repeat(mu[nodes], counts)
    cols = np.empty(coef.shape[0], dtype=np.int64)
    ends = np.cumsum(length)
    bounds = np.append(np.unique(np.searchsorted(
        ends, np.arange(0, coef.shape[0], _ROW_CHUNK), side="right")), length.shape[0])
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        e0, e1, run_len = ends[r0] - length[r0], ends[r1 - 1], length[r0:r1]
        # each pair's position in targets, then its offset's index in the stencil table
        pos = _ranges(start[r0:r1], run_len)
        np.take(targets, pos, out=cols[e0:e1], mode="clip")  # unbuffered; pos is in range
        off = np.subtract(cols[e0:e1], np.repeat(shift[r0:r1], run_len), out=pos)
        coef[e0:e1] *= mu[cols[e0:e1]]
        coef[e0:e1] *= jval[off]
    return np.repeat(np.arange(nodes.shape[0]), counts), cols, coef


def _table(op):
    """The stencil's J as a dense (2 m0 - 1) x (2 m1 - 1) table of an
    assembled operator: offset (a, b) at (a + m0 - 1, b + m1 - 1), 0 off the
    support and at the self-offset. |z| is summed from the squares of the
    two components, so the table is exactly even in each offset alone. Made
    once per operator and cached: O(n) numbers whatever nnz is."""
    if "table" not in op._cache:
        (m0, m1), (a, lo, hi, jval) = op.lattice, op._stencil
        length = hi - lo + 1
        table = np.zeros((2 * m0 - 1, 2 * m1 - 1))
        table[np.repeat(a, length) + m0 - 1, _ranges(lo, length) + m1 - 1] = jval
        op._cache["table"] = table
    return op._cache["table"]


def _rectangles(m1, nodes):
    """The ascending nodes of a lattice of m1 columns as rectangles, each a
    run of consecutive columns j0..j1 - 1 on the consecutive lines
    i0..i1 - 1 that hold the same runs: (i0, i1, j0, j1, first, width,
    offset) per rectangle, node (i, j) being the nodes' entry first +
    (i - i0) width + offset + (j - j0). The corner quarter of a strip is
    two rectangles; nodes scattered at random are as many short runs."""
    i, j = np.divmod(nodes, m1)
    first = np.flatnonzero((np.diff(i, prepend=-1) != 0) | (np.diff(j, prepend=-2) != 1))
    length = np.diff(first, append=nodes.shape[0])
    lines = np.flatnonzero(np.diff(i[first], prepend=-1)).tolist() + [first.shape[0]]
    groups = []
    for s, e in zip(lines[:-1], lines[1:]):
        line, runs = int(i[first[s]]), (j[first[s:e]].tolist(), length[s:e].tolist())
        if groups and groups[-1][1] == line and groups[-1][3] == runs:
            groups[-1][1] += 1
        else:
            groups.append([line, line + 1, int(first[s]), runs])
    out = []
    for i0, i1, base, (starts, lengths) in groups:
        offsets = np.cumsum([0] + lengths).tolist()
        out += [(i0, i1, j0, j0 + n, base, offsets[-1], off)
                for j0, n, off in zip(starts, lengths, offsets)]
    return tuple(out)


def _targets(op, strip):
    """1.0 at the nodes that the rows of one class (the strip if strip is
    set, else the interior) reach, 0.0 elsewhere: every node, but only the
    interior ones from a strip row in exclude mode."""
    if strip and op.edge_mode == EXCLUDE_STRIP_STRIP:
        return (op.grid.klass != STRIP).astype(float)
    return np.ones(op.n)


def _reach_sums(op, mask, rects):
    """sum_y mu[y] J(y - x) over the nodes y with mask 1, at each node x of
    the rectangles rects (_rectangles) of an assembled operator's lattice,
    as an (n,) array to be read at those nodes only, and the number of such
    pairs x y in all.

    A rectangle's sums are one matrix product. Its lines, each with the
    lines of the stencil's reach (the grid padded with A zero lines either
    side, A the largest line offset), cut to the columns within reach
    B of it (B the largest column offset) and laid side by side, times the
    J table cut to those offsets, read as a Toeplitz matrix in the
    rectangle's columns (a strided view of the table). The terms are
    nonnegative, so each sum is accurate to a few eps of itself, and a node
    with no such pair reads exactly 0. The count is the same product of the
    mask and the table's support, each summed over the rectangle first:
    integers, exact in floating point."""
    (m0, m1), table = op.lattice, _table(op)
    a, _, hi = op._stencil[:3]
    reach, wide = int(np.abs(a).max(initial=0)), int(hi.max(initial=0))
    lines = np.zeros((2, m0 + 2 * reach, m1))
    lines[:, reach:reach + m0] = np.stack((op.grid.mu * mask, mask)).reshape(2, m0, m1)
    # windows of the table's reach lines: win[t, s, k] = J(t - A, s + k - m1 + 1)
    win = sliding_window_view(table[m0 - 1 - reach:m0 + reach], m1, axis=1)
    sums, count = np.empty((m0, m1)), 0.0
    for i0, i1, j0, j1, *_ in rects:
        y0, y1 = max(j0 - wide, 0), min(j1 + wide, m1)
        # left[i, (t, y)]: node (i0 + i + t - A, y) of the lines in reach
        left = sliding_window_view(lines[:, i0:i1 + 2 * reach, y0:y1], 2 * reach + 1, axis=1)
        # right[(t, y), j]: J(t - A, y - j) for the rectangle's columns j
        right = np.flip(win[:, m1 + y0 - j1:m1 + y0 - j0, :y1 - y0], axis=1)
        right = right.transpose(0, 2, 1).reshape(-1, j1 - j0)
        sums[i0:i1, j0:j1] = left[0].transpose(0, 2, 1).reshape(i1 - i0, -1) @ right
        count += left[1].sum(axis=0).T.ravel() @ (right > 0.0).sum(axis=1)
    return sums.ravel(), int(count)


def _fast_len(n):
    """The least 2^a 3^b 5^c >= n, a length pocketfft transforms fast:
    scipy.fft.next_fast_len(n, real=True), with no scipy.fft loaded."""
    best, five = 1 << (n - 1).bit_length(), 1
    while five < best:
        odd = five
        while odd < best:
            # odd times the least power of 2 that reaches n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


def _stencil_transform(op):
    """The real transform of the J table (_table) laid on a periodic
    N0 x N1 lattice, offset (a, b) at (a mod N0, b mod N1), with Ni the
    first fast length of at least 2 mi - 1 points (_fast_len), so that no
    two offsets share a point: (N0, N1) and the transform. Made once per
    operator and cached."""
    if "stencil_transform" not in op._cache:
        m0, m1 = op.lattice
        size = tuple(_fast_len(2 * m - 1) for m in op.lattice)
        periodic = np.zeros(size)
        periodic[np.ix_(np.arange(1 - m0, m0) % size[0],
                        np.arange(1 - m1, m1) % size[1])] = _table(op)
        op._cache["stencil_transform"] = size, np.fft.rfftn(periodic)
    return op._cache["stencil_transform"]


def _row_sums(op, vals, idx, targets):
    """Per node x of idx, all of one class, sum_y mu[x] W[x][y] vals[y]
    over its active edges, the nodes y with targets 1 (_targets). On an
    assembled operator that is mu[x] (J * (targets mu vals))[x], J being
    even: one circular convolution with the J table's transform
    (_stencil_transform), in which no node's reach wraps back onto the
    grid, as it spans at most 2 m - 1 points. It writes no edge list. An
    operator built from given edges has no stencil; its rows are summed in
    edge order, as np.bincount sums them."""
    if op.lattice is None:
        rows, cols, coef = op._edges
        return np.bincount(rows, weights=coef * vals[cols], minlength=op.n)[idx]
    size, transform = _stencil_transform(op)
    (m0, m1), mu = op.lattice, op.grid.mu
    spread = np.fft.rfftn((targets * mu * vals).reshape(m0, m1), size, axes=(0, 1))
    spread *= transform
    conv = np.fft.irfftn(spread, size, axes=(0, 1))[:m0, :m1]
    return mu[idx] * conv.ravel()[idx]


def interior_row_sums(op, vals):
    """Per interior node x, sum_y mu[x] W[x][y] vals[y] over its active
    edges, which are the same in both edge modes (_row_sums). By FFT it
    agrees with the edge sums to at most about 20 eps times the row's sum
    |terms| (the singular kernel; a few eps for tent and bump)."""
    return _row_sums(op, vals, op.interior_idx, 1.0)


def strip_row_sums(op, vals):
    """Per strip node x, sum_y mu[x] W[x][y] vals[y] over its active edges
    (_row_sums): in exclude mode over the interior nodes y only, whose
    values the convolution takes with the strip's set to 0. Its error is
    that of the convolution, a few eps of the largest row's sum |terms|,
    not of each row's own."""
    return _row_sums(op, vals, op.strip_idx, _targets(op, True))


def assemble(grid, spec, edge_mode=EXCLUDE_STRIP_STRIP):
    """Assemble the quadrature weights W[x][y] = J(x - y) mu[y] on the
    lattice of build_grid.

    J is evaluated once per integer offset (a, b) of the support: the disc
    a^2 + b^2 < (R/h)^2 for tent and bump, every offset of the
    (2 m0 - 1) x (2 m1 - 1) box of an m0 x m1 grid for the singular
    kernel. The offsets form one table in lexicographic order, and a
    node's pairs at one a are a run of consecutive columns on the grid, so
    the pairs of any node set are emitted run after run, node after node:
    lexicographic with no sort and no n x n array, in time and memory
    proportional to their number. The coefficient of a pair is
    mu[x] mu[y] J(offset), so the measures need not be uniform. Assembly
    works out the sectors (symmetry.sectors) and writes no row: deg_active
    sums the measures against the table over rectangles of the orbit
    representatives (_reach_sums), one sum per orbit under G, exactly 0 at
    a node with no active pair, and nnz counts the representatives' pairs
    times |K|. Every edge set waits for first use.

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
    from .symmetry import sectors  # symmetry imports this module
    if spec.dim != grid.dim:
        raise InvalidArgument(f"kernel dim {spec.dim} does not match grid dim {grid.dim}")
    if edge_mode not in _EDGE_MODES:
        raise InvalidArgument(f"unknown edge mode {edge_mode!r}")
    op = NonlocalOperator(grid, spec, edge_mode, None, None, None, lattice=_lattice_shape(grid))
    op._stencil = _stencil(spec, grid.h, op.lattice)
    sec = sectors(op)
    op.deg_active, op._nnz = np.empty(grid.n), 0
    for idx, orbits in ((op.strip_idx, sec.strip), (op.interior_idx, sec.interior)):
        sums, count = _reach_sums(op, _targets(op, orbits is sec.strip), orbits.rects)
        sums = sums[orbits.reps]
        sums[orbits.partner] = sums[orbits.pair]  # sigma maps the one sum onto the other
        op.deg_active[idx[orbits.table]] = sums
        op._nnz += count * orbits.table.shape[0]
    if op._nnz == 0:
        raise EmptySupport("no active node pair has a nonzero weight")
    return op


def pairs(op):
    """The interacting pairs x < y of op, one coefficient mu[x] W[x][y]
    each, in lexicographic order: (rows, cols, coef), the row and column
    index in the type of the pairs' CSR skeleton (edge_skeleton(op)), whose
    column index is this cols array. Written once per operator and cached
    with the skeleton. On an assembled lattice a node's partners y > x are
    those through the offsets after the self-offset (0, 0), the tail of the
    stencil table, so the rows are written from that half of it, with no
    edge list; an operator built from given edges takes the upper triangle
    of its list. Either way each is bit for bit the upper triangle of
    edge_list(op): the coefficient is exactly symmetric."""
    if "pairs" not in op._cache:
        if op.lattice is None:
            rows, cols, coef = op._edges
            upper = rows < cols
            rows, cols, coef = rows[upper], cols[upper], coef[upper]
        else:
            a, lo, hi, jval = op._stencil
            before = (a < 0) | ((a == 0) & (hi < 0))
            half = (a[~before], lo[~before], hi[~before],
                    jval[np.sum(hi[before] - lo[before] + 1):])
            rows, cols, coef = _write_rows(op, np.arange(op.n), half)
        skel = _accel.skeleton(rows, cols, op.n)
        op._cache["pairs"] = rows.astype(skel[0].dtype), skel[0], coef
        op._cache["skeleton"] = skel
    return op._cache["pairs"]


def edge_list(op):
    """The lexicographic active edge list (rows, cols, coef) of op, written
    from its stencil on first use and kept: the oracle of the tests, which
    no solve reads."""
    if op._edges is None:
        op._edges = _write_rows(op, np.arange(op.n), op._stencil)
    return op._edges


def laplacian_dense(op):
    """Dense matrix of the active-edge Laplacian, diag(row sums) - A with
    A[x][y] = mu[x] W[x][y], from the pairs. Symmetric PSD."""
    return _accel.laplacian_block(pairs(op)[2], np.arange(op.n), edge_skeleton(op))


def edge_skeleton(op):
    """The CSR skeleton (_accel.skeleton) of pairs(op) over all op.n rows.
    Built once per operator and cached; it holds the column index and the
    row pointer, int32 where they fit, and no values: each edge pass puts
    its own buffer on it (_accel.edge_matrix)."""
    pairs(op)
    return op._cache["skeleton"]
