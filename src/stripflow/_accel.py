"""Hot loops over edge lists, in numpy.

Edges are stored flat as (rows, cols, data) in lexicographic order, with
data the symmetric coefficients mu[x] W[x][y] or a reweighting of them;
every summation below runs in that fixed order, so results are
reproducible bit-for-bit. skeleton is the CSR pattern of an edge list,
built without a sort, and kernels.edge_skeleton caches the one of an
operator's pairs; adjacency puts weights on it without copying them, and
edge_matrix gives it a fresh data buffer with its transpose view, made
once per buffer rather than once per pass. The edge kernels write their
per-edge values into such a buffer and sum each row by the product with
ones, in edge order, as np.bincount sums it. phi_row_sums is the one edge
pass over node values: on the interacting pairs x < y (kernels.pairs),
which carry each edge once, the balance is its row sums minus the column
sums of the same buffer, as phi_p is odd, and its strip rows are the
strip flux. Every balance, flux, gradient and energy is read off those
sums (divided by mu[x] for W units). The two curvature
builders work on the pairs: laplacian_block writes the dense Laplacian blocks,
the majoriser matrix and laplacian_dense, whose cuts are the p = 2 blocks
of an operator without a lattice; on a lattice those blocks are read off
the stencil's J table (symmetry.Sectors.fold_laplacian) with no edge and
no adjacency. The Newton Hessian is
never dense: hessian_accumulate returns its diagonal and a sparse matvec
on its buffer, and pcg solves with them. Both builders give the Laplacian
of edge weights alone and add no diagonal term: elliptic._newton_free,
which minimizes F(v) = E_p(v) - <lin, v> + (1/2) sum w (v - t)^2, adds its
proximal weights w and its Levenberg shift itself.
"""

import ctypes
import os

import numpy as np
import scipy.linalg  # noqa: F401  loads scipy's own OpenBLAS before the pin below
import scipy.sparse as sp

# glibc's malloc raises its mmap threshold to the largest mapped block freed
# and its trim threshold to twice that, so once an operator is freed the edge
# arrays of the next land on the brk heap among small arrays that outlive a
# run, and the peak resident size of one run moved with the address layout
# (175 or 188 MB at 2D h = 1/64, glibc 2.36). Fixed, blocks over 12 MiB (those
# edge arrays) are mapped on their own and the heap keeps up to 24 MiB free
# rather than trimming it and page-faulting it back at every p != 2 solve.
try:
    if os.confstr("CS_GNU_LIBC_VERSION"):
        ctypes.CDLL(None).mallopt(-3, 12 << 20)  # M_MMAP_THRESHOLD
        ctypes.CDLL(None).mallopt(-1, 24 << 20)  # M_TRIM_THRESHOLD
except (AttributeError, ValueError, OSError):
    pass  # not glibc


# OpenBLAS sizes its thread pool from the environment. On the p = 2 blocks (at
# most 576 rows at 2D h = 1/64) a second thread cost more than it saved and moved
# beta's last digit, so each OpenBLAS mapped here (numpy's, scipy's) gets one.
def _pin_blas_threads():
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({path for path in (ln.split(None, 5)[-1].strip() for ln in maps)
                           if "openblas" in os.path.basename(path).lower()
                           and os.path.isfile(path)})
    except OSError:
        return "BLAS threads not pinned: no /proc/self/maps"
    if not libs:
        return "BLAS threads not pinned: no OpenBLAS loaded"
    pinned = 0
    for path in libs:
        lib = ctypes.CDLL(path)
        names = [pre + "set_num_threads" + suf for pre in ("openblas_", "scipy_openblas_")
                 for suf in ("", "64_") if hasattr(lib, pre + "set_num_threads" + suf)]
        if names:
            ctypes.CFUNCTYPE(None, ctypes.c_int)((names[0], lib))(1)
            pinned += 1
    missing = "" if pinned == len(libs) else "; no thread setter in the others"
    return f"OpenBLAS 1 thread ({pinned} of {len(libs)} libraries{missing})"


_BLAS_THREADS = _pin_blas_threads()


def _phi(d, p, eps, out=None):
    # odd power map |d|^(p-2) d, written into out when given, which may be d
    # itself; eps > 0 switches to the regularized form. p = 3 and p = 4 skip
    # the per-edge pow call, which dominates otherwise
    if out is None:
        out = np.empty_like(d)
    if p == 2.0:
        np.copyto(out, d)
    elif p == 3.0:
        np.multiply(np.abs(d), d, out=out)
    elif p == 4.0:
        np.multiply(d * d, d, out=out)
    elif eps > 0.0:
        out[:] = d * (d * d + eps * eps) ** ((p - 2.0) / 2.0)
    else:
        nz = d != 0.0
        dz = d[nz]
        out.fill(0.0)
        out[nz] = np.abs(dz) ** (p - 2.0) * dz
    return out


def _psi(d, p, eps, out=None):
    # derivative of _phi, written into out when given, which may be d itself;
    # even in d and nonnegative for p > 1
    if out is None:
        out = np.empty_like(d)
    if p == 2.0:
        out.fill(1.0)
    elif p == 3.0:
        np.abs(d, out=out)
        out *= 2.0
    elif p == 4.0:
        np.multiply(d * 3.0, d, out=out)
    elif eps > 0.0:
        out[:] = (d * d + eps * eps) ** ((p - 4.0) / 2.0) * (eps * eps + (p - 1.0) * d * d)
    else:
        nz = d != 0.0
        dz = d[nz]
        out.fill(0.0)
        out[nz] = (p - 1.0) * np.abs(dz) ** (p - 2.0)
    return out


def skeleton(rows, cols, n):
    """(indices, indptr), the CSR pattern of the lexicographic edges
    (rows, cols) on n nodes, built without a sort: cols as the column
    index and the row pointer, both int32 unless the counts need int64.
    scipy keeps such arrays as they are, so a matrix on the skeleton costs
    no copy, search or scan of them."""
    itype = np.int32 if max(n, rows.shape[0]) <= np.iinfo(np.int32).max else np.int64
    return cols.astype(itype), np.searchsorted(rows, np.arange(n + 1)).astype(itype)


def adjacency(skel, w):
    """The n x n CSR matrix with w at the edges of the skeleton skel: no
    copy of w."""
    indices, indptr = skel
    n = indptr.shape[0] - 1
    return sp.csr_matrix((w, indices, indptr), shape=(n, n))


def edge_matrix(skel):
    """(mat, mat.T): adjacency on skel with a fresh, unset data buffer, for
    an edge kernel to write its per-edge values into, and the transpose
    view on the same buffer, which sees every later write."""
    mat = adjacency(skel, np.empty(skel[0].shape[0]))
    return mat, mat.T


def _differences(vals, cols, mat):
    """vals[col] - vals[row] at every edge of mat, written into its data
    buffer: np.take in clip mode writes there unbuffered (cols is in range)."""
    np.take(vals, cols, out=mat.data, mode="clip")
    # vals[rows] is each row's value repeated over its edges
    mat.data -= np.repeat(vals, np.diff(mat.indptr))
    return mat.data


def phi_row_sums(rows, cols, data, vals, p, eps, nrows, buf):
    """Per-row sums of data * phi_p(vals[col] - vals[row]) over the nrows
    rows of vals. With data the coefficients mu[x] W[x][y] of every edge of
    a row this is mu times the nonlocal balance, minus the gradient of the
    edge energy at p; on the pairs x < y the balance is these sums minus
    the column sums of the buffer. buf, an edge_matrix on the skeleton of
    (rows, cols), takes the products as its data."""
    mat = buf[0]
    d = _differences(vals, cols, mat)
    _phi(d, p, eps, out=d)
    d *= data
    return mat @ np.ones(nrows)


def laplacian_block(w, free, skel):
    """L[free, free] for the Laplacian L of the interacting pairs x < y with
    the weights w, one per pair in the order of their skeleton skel over
    every node: the full row sums of w from both ends on the diagonal, -w
    at each pair whose two ends are free, on both sides of it, and no other
    diagonal term. free lists the free nodes in ascending order. The array
    is Fortran-ordered, so cho_factor(..., overwrite_a=True) factors it in
    place."""
    upper = adjacency(skel, w)
    cut = upper[free][:, free]
    # U and U^T share no entry, so the sum adds none; the cut is a copy, and
    # negating its stored entries keeps the zeros +0.0
    block = cut + cut.T
    block.data *= -1.0
    out = block.toarray(order="F")
    # the row sums of U + U^T: each pair once from either end
    ones = np.ones(upper.shape[0])
    np.fill_diagonal(out, (upper @ ones + upper.T @ ones)[free])
    return out


def hessian_accumulate(rows, cols, data, vals, p, eps, free, buf):
    """(diag, matvec) on the free nodes of what laplacian_block would write
    for the pair weights data * phi_p'(vals[row] - vals[col]): the Hessian
    of the edge energy at vals, with no other diagonal term. (rows, cols,
    data) are the pairs x < y; the weights go into the data of buf, an
    edge_matrix on their skeleton, and matvec multiplies by its matrix and
    its transpose view, so buf must not be written again while matvec is in
    use. With every node free, matvec is the plain product; otherwise
    pinned nodes enter it as zeros, which costs less than cutting the
    matrix to the free nodes once per Newton iteration."""
    n = vals.shape[0]
    upper, lower = buf
    # phi_p' is even: the differences vals[col] - vals[row] give its values
    d = _differences(vals, cols, upper)
    _psi(d, p, eps, out=d)
    d *= data
    ones = np.ones(n)
    sums = upper @ ones
    sums += lower @ ones
    if free.shape[0] == n:
        return sums, lambda x: sums * x - upper @ x - lower @ x
    diag = sums[free]
    full = np.zeros(n)

    def matvec(x):
        full[free] = x
        out = upper @ full
        out += lower @ full
        return diag * x - out[free]

    return diag, matvec


def pcg(matvec, diag, b, rtol):
    """Jacobi-preconditioned CG for A x = b from x = 0, A symmetric with
    diagonal diag and product matvec, until ||r|| <= rtol ||b|| or len(b)
    iterations. Returns (x, iterations). Raises LinAlgError where A is not
    positive definite: a diagonal entry or a curvature d^T A d <= 0."""
    if not np.all(diag > 0.0):
        raise np.linalg.LinAlgError("matrix has a non-positive diagonal entry")
    x = np.zeros_like(b)
    r = b.copy()
    z = r / diag
    d = z.copy()
    rz = np.dot(r, z)
    stop = rtol * np.linalg.norm(b)
    for it in range(b.shape[0]):
        if np.linalg.norm(r) <= stop:
            return x, it
        ad = matvec(d)
        curv = np.dot(d, ad)
        if not curv > 0.0:
            raise np.linalg.LinAlgError("matrix is not positive definite")
        alpha = rz / curv
        x += alpha * d
        r -= alpha * ad
        np.divide(r, diag, out=z)
        rz, rz_old = np.dot(r, z), rz
        d *= rz / rz_old
        d += z
    return x, b.shape[0]


def backend():
    """The edge-kernel backend, numpy, and the BLAS threads that importing
    stripflow pinned: "numpy; OpenBLAS 1 thread (2 of 2 libraries)", or why none."""
    return f"numpy; {_BLAS_THREADS}"
