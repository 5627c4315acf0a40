"""Hot loops over the active edge list, in numpy.

Edges are stored flat as (rows, cols, data) in lexicographic order, with
data the symmetric coefficients mu[x] W[x][y] or a reweighting of them;
every summation below runs in that fixed order, so results are
reproducible bit-for-bit. phi_row_sums is the one edge pass over node
values: every balance, flux, gradient and energy is read off its row sums
(divided by mu[x] for W units). laplacian_block is the one builder of a
dense Laplacian block: L_II, L_SS, the Newton Hessian, the majoriser
matrix and the test oracle laplacian_dense all come from it, each given
only its free nodes.
"""

import numpy as np


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


def laplacian_block(rows, cols, w, free, scale=1.0, shift=None):
    """scale * L[free, free] + diag(shift) for the Laplacian L of the edges
    (rows, cols, w), lexicographic over all nodes: the full row sums of w
    on the diagonal, -w at each edge whose two ends are free. free lists
    the free nodes in ascending order; when it holds every node nothing is
    masked. The edge set must be symmetric (reciprocity), so no column
    index exceeds the largest row index. The array is Fortran-ordered, so
    cho_factor(..., overwrite_a=True) factors it in place. Every dense
    Laplacian block is built here."""
    sums = np.bincount(rows, weights=w, minlength=free[-1] + 1)
    if free.shape[0] < sums.shape[0]:
        is_free = np.zeros(sums.shape[0], dtype=bool)
        is_free[free] = True
        keep = is_free[rows] & is_free[cols]
        local = np.cumsum(is_free) - 1  # a free node's index among the free nodes
        rows, cols, w, sums = local[rows[keep]], local[cols[keep]], w[keep], sums[free]
    out = np.zeros((free.shape[0],) * 2, order="F")
    # an edge pair is unique and off the diagonal, so plain stores suffice
    out[rows, cols] = w * -scale
    sums *= scale
    np.fill_diagonal(out, sums if shift is None else sums + shift)
    return out


def hessian_accumulate(rows, cols, data, vals, p, eps, free, scale=1.0, shift=None):
    """laplacian_block of the edge weights data * phi_p'(vals[row] - vals[col]),
    the Hessian of scale times the edge energy at vals, plus diag(shift)."""
    return laplacian_block(rows, cols, data * _psi(vals[rows] - vals[cols], p, eps),
                           free, scale, shift)


def backend():
    """Name of the edge-kernel backend; numpy is the only one."""
    return "numpy"
