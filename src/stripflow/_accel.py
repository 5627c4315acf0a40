"""Hot loops over the active edge list, in numpy.

Edges are stored flat as (rows, cols, data) in lexicographic order, with
data the symmetric coefficients mu[x] W[x][y] or a reweighting of them;
every summation below runs in that fixed order, so results are
reproducible bit-for-bit. phi_row_sums is the one edge pass over node
values: every balance, flux, gradient and energy is read off its row sums
(divided by mu[x] for W units). adjacency is the CSR form of an edge list,
built without a sort, and every sparse Laplacian block (L_II, L_IS and the
rows of L_SS) is cut from it by scipy row and column indexing;
laplacian_block writes only the dense ones, the majoriser matrix and the
test oracle laplacian_dense. The Newton Hessian is never dense:
hessian_accumulate returns its diagonal and a sparse matvec, and pcg solves
with them. Both builders give the Laplacian of edge weights alone and add no
diagonal term: elliptic._newton_free, which minimizes
F(v) = E_p(v) - <lin, v> + (1/2) sum w (v - t)^2, adds its proximal weights
w and its Levenberg shift itself.
"""

import numpy as np
import scipy.sparse as sp


def _phi(d, p, eps):
    # odd power map |d|^(p-2) d; eps > 0 switches to the regularized form.
    # p = 3 and p = 4 skip the per-edge pow call, which dominates otherwise
    if p == 2.0:
        return d
    if p == 3.0:
        return np.abs(d) * d
    if p == 4.0:
        return d * d * d
    if eps > 0.0:
        return d * (d * d + eps * eps) ** ((p - 2.0) / 2.0)
    out = np.zeros_like(d)
    nz = d != 0.0
    out[nz] = np.abs(d[nz]) ** (p - 2.0) * d[nz]
    return out


def _psi(d, p, eps):
    # derivative of _phi; nonnegative for p > 1
    if p == 2.0:
        return np.ones_like(d)
    if p == 3.0:
        return 2.0 * np.abs(d)
    if p == 4.0:
        return 3.0 * d * d
    if eps > 0.0:
        return (d * d + eps * eps) ** ((p - 4.0) / 2.0) * (eps * eps + (p - 1.0) * d * d)
    out = np.zeros_like(d)
    nz = d != 0.0
    out[nz] = (p - 1.0) * np.abs(d[nz]) ** (p - 2.0)
    return out


def phi_row_sums(rows, cols, data, vals, p, eps, nrows):
    """Per-row sums of data * phi_p(vals[col] - vals[row]). With data the
    coefficients mu[x] W[x][y] this is mu times the nonlocal balance, minus
    the gradient of the edge energy at p."""
    # gather once, then in place: each edge-sized temporary is a fresh allocation
    d = vals[cols]
    d -= vals[rows]
    contrib = _phi(d, p, eps)
    contrib *= data
    return np.bincount(rows, weights=contrib, minlength=nrows)


def adjacency(rows, cols, w, n):
    """The n x n CSR matrix with w at the lexicographic edges (rows, cols),
    which are its arrays as they stand: no sort and no copy of w."""
    return sp.csr_matrix((w, cols, np.searchsorted(rows, np.arange(n + 1))), shape=(n, n))


def laplacian_block(rows, cols, w, free):
    """L[free, free] for the Laplacian L of the edges (rows, cols, w),
    lexicographic over all nodes: the full row sums of w on the diagonal,
    -w at each edge whose two ends are free, and no other diagonal term.
    free lists the free nodes in ascending order. The edge set must be
    symmetric (reciprocity), so no column index exceeds the largest row
    index. The array is Fortran-ordered, so cho_factor(..., overwrite_a=True)
    factors it in place."""
    adj = adjacency(rows, cols, w, max(rows[-1], free[-1]) + 1)
    block = adj[free][:, free]
    # the cut is a copy; negating its stored entries keeps the zeros +0.0
    block.data *= -1.0
    out = block.toarray(order="F")
    np.fill_diagonal(out, (adj @ np.ones(adj.shape[0]))[free])
    return out


def hessian_accumulate(rows, cols, data, vals, p, eps, free):
    """(diag, matvec) on the free nodes of what laplacian_block would write
    for the edge weights data * phi_p'(vals[row] - vals[col]): the Hessian of
    the edge energy at vals, with no other diagonal term. Cutting it to the
    free nodes would cost more than building it, once per Newton iteration,
    so pinned nodes enter its products as zeros."""
    n = vals.shape[0]
    w = _psi(vals[rows] - vals[cols], p, eps)
    w *= data
    adj = adjacency(rows, cols, w, n)
    # each row summed in edge order, as every Laplacian diagonal is
    diag = (adj @ np.ones(n))[free]
    full = np.zeros(n)

    def matvec(x):
        full[free] = x
        out = adj @ full
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
    """Name of the edge-kernel backend; numpy is the only one."""
    return "numpy"
