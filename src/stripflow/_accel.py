"""Hot loops over the active edge list, in numpy.

Edges are stored flat as (rows, cols, data) in lexicographic order; every
summation below runs in that fixed order, so results are reproducible
bit-for-bit.
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


def phi_row_sums(rows, cols, data, left, right, p, eps, nrows):
    """Per-row sums of data * phi_p(right[col] - left[row])."""
    contrib = data * _phi(right[cols] - left[rows], p, eps)
    return np.bincount(rows, weights=contrib, minlength=nrows)


def edge_power_sum(rows, cols, data, vals, p):
    """Sum over edges of data * |vals[col] - vals[row]|**p."""
    d = vals[cols] - vals[rows]
    if p == 2.0:
        return float(np.dot(data, d * d))
    if p == 3.0:
        return float(np.dot(data, d * d * np.abs(d)))
    if p == 4.0:
        return float(np.dot(data, (d * d) * (d * d)))
    return float(np.dot(data, np.abs(d) ** p))


def laplacian_fill(rows, cols, w, out):
    """Add the Laplacian of the weighted edges to the square C-ordered
    matrix out: the row sums of w on the diagonal and -w at each
    (row, col). Returns out. Every weighted Laplacian of the package is
    built here."""
    n = out.shape[0]
    flat = out.reshape(-1)
    np.add.at(flat, rows * (n + 1), w)
    np.add.at(flat, rows * n + cols, -w)
    return out


def hessian_accumulate(rows, cols, data, vals, p, eps, out):
    """Add the Hessian of the edge energy at vals to out: the Laplacian of
    the edge weights data * phi_p'(vals[row] - vals[col])."""
    laplacian_fill(rows, cols, data * _psi(vals[rows] - vals[cols], p, eps), out)


def backend():
    """Name of the edge-kernel backend; numpy is the only one."""
    return "numpy"
