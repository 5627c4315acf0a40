"""Edge kernels on hand-checkable edge lists and on operator edge lists.

Results must be bitwise reproducible, and the one dense Laplacian fill
must give the Newton Hessian and the majoriser matrix bit for bit as
their former separate scatter-adds did.
"""

import numpy as np
import pytest

from stripflow import _accel as A
from stripflow.elliptic import REG_EPS

CASES = [(2.0, 0.0), (1.5, 0.0), (1.5, 1e-10), (3.0, 0.0), (4.0, 1e-8)]


def edge_set(seed, n=300, ne=5000):
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.integers(0, n, ne)).astype(np.int64)
    cols = rng.integers(0, n, ne).astype(np.int64)
    data = rng.random(ne)
    vals = rng.standard_normal(n)
    return rows, cols, data, vals


def test_phi_row_sums_by_hand():
    rows = np.array([0, 1], dtype=np.int64)
    cols = np.array([1, 0], dtype=np.int64)
    data = np.array([2.0, 5.0])
    vals = np.array([1.0, 3.0])
    out = A.phi_row_sums(rows, cols, data, vals, vals, 3.0, 0.0, 2)
    # phi(d) = |d| d at p = 3
    assert out[0] == 2.0 * 4.0
    assert out[1] == 5.0 * -4.0


def test_edge_power_sum_by_hand():
    rows = np.array([0, 0], dtype=np.int64)
    cols = np.array([1, 2], dtype=np.int64)
    data = np.array([1.0, 0.5])
    vals = np.array([0.0, 2.0, -1.0])
    assert A.edge_power_sum(rows, cols, data, vals, 2.0) == 4.0 + 0.5
    assert A.edge_power_sum(rows, cols, data, vals, 3.0) == 8.0 + 0.5


def test_hessian_accumulate_by_hand():
    rows = np.array([0, 1], dtype=np.int64)
    cols = np.array([1, 0], dtype=np.int64)
    data = np.array([2.0, 5.0])
    vals = np.array([1.0, 4.0])
    out = np.zeros((2, 2))
    A.hessian_accumulate(rows, cols, data, vals, 3.0, 0.0, out)
    # psi(d) = 2 |d| at p = 3, both edges see |d| = 3
    assert np.array_equal(out, np.array([[12.0, -12.0], [-30.0, 30.0]]))


@pytest.mark.parametrize("p,eps", CASES)
def test_zero_differences_are_finite(p, eps):
    rows = np.array([0], dtype=np.int64)
    cols = np.array([1], dtype=np.int64)
    data = np.array([3.0])
    vals = np.zeros(2)
    out = A.phi_row_sums(rows, cols, data, vals, vals, p, eps, 2)
    assert np.isfinite(out).all() and out[0] == 0.0
    assert A.edge_power_sum(rows, cols, data, vals, p) == 0.0
    hess = np.zeros((2, 2))
    A.hessian_accumulate(rows, cols, data, vals, p, eps, hess)
    assert np.isfinite(hess).all()


def test_empty_edge_list():
    empty_i = np.zeros(0, dtype=np.int64)
    empty_f = np.zeros(0)
    vals = np.ones(3)
    out = A.phi_row_sums(empty_i, empty_i, empty_f, vals, vals, 3.0, 0.0, 3)
    assert np.array_equal(out, np.zeros(3))
    assert A.edge_power_sum(empty_i, empty_i, empty_f, vals, 3.0) == 0.0


def test_within_backend_bitwise_repeatable():
    rows, cols, data, vals = edge_set(1)
    n = vals.shape[0]
    args = (rows, cols, data, vals, vals, 1.5, 1e-10, n)
    assert np.array_equal(A.phi_row_sums(*args), A.phi_row_sums(*args))
    p1 = A.edge_power_sum(rows, cols, data, vals, 3.0)
    p2 = A.edge_power_sum(rows, cols, data, vals, 3.0)
    assert p1 == p2


def add_at_laplacian(rows, cols, w, n):
    # reference: the Laplacian of the weights w scattered into zeros
    out = np.zeros((n, n))
    flat = out.reshape(-1)
    np.add.at(flat, rows * n + rows, w)
    np.add.at(flat, rows * n + cols, -w)
    return out


@pytest.mark.parametrize("p,eps", [(1.5, REG_EPS), (3.0, 0.0), (4.0, 0.0)])
def test_hessian_and_majoriser_match_scatter_add(op16, op2d, p, eps):
    rng = np.random.default_rng(4)
    for op in (op16, op2d):
        rows, cols, coef = op.act_rows, op.act_cols, op.act_coef
        vals = rng.standard_normal(op.n)
        d = vals[rows] - vals[cols]
        hess = np.zeros((op.n, op.n))
        A.hessian_accumulate(rows, cols, coef, vals, p, eps, hess)
        want = add_at_laplacian(rows, cols, coef * A._psi(d, p, eps), op.n)
        assert np.array_equal(hess, want)
        w = coef * (d * d + eps * eps) ** ((p - 2.0) / 2.0)
        maj = A.laplacian_fill(rows, cols, w, np.zeros((op.n, op.n)))
        assert np.array_equal(maj, add_at_laplacian(rows, cols, w, op.n))
