"""Edge kernels on hand-checkable edge lists and on operator edge lists.

Results must be bitwise reproducible, and the one dense Laplacian block
builder must give the Newton Hessian and the majoriser matrix on every
free set bit for bit as a scatter-add into the full matrix, cut down to
the free nodes, does.
"""

import numpy as np
import pytest

from stripflow import _accel as A
from stripflow.elliptic import REG_EPS
from stripflow.geometry import INTERIOR
from stripflow.kernels import laplacian_dense

from conftest import add_at_laplacian

CASES = [(2.0, 0.0), (1.5, 0.0), (1.5, 1e-10), (3.0, 0.0), (4.0, 1e-8)]


def edge_set(seed, n=300, ne=5000):
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.integers(0, n, ne, dtype=np.int64))
    cols = rng.integers(0, n, ne, dtype=np.int64)
    data = rng.random(ne)
    vals = rng.standard_normal(n)
    return rows, cols, data, vals


def test_phi_row_sums_by_hand():
    rows = np.array([0, 1], dtype=np.int64)
    cols = np.array([1, 0], dtype=np.int64)
    data = np.array([2.0, 5.0])
    vals = np.array([1.0, 3.0])
    out = A.phi_row_sums(rows, cols, data, vals, 3.0, 0.0, 2)
    # phi(d) = |d| d at p = 3
    assert out[0] == 2.0 * 4.0
    assert out[1] == 5.0 * -4.0


def test_hessian_accumulate_by_hand():
    rows = np.array([0, 1], dtype=np.int64)
    cols = np.array([1, 0], dtype=np.int64)
    data = np.array([2.0, 5.0])
    vals = np.array([1.0, 4.0])
    out = A.hessian_accumulate(rows, cols, data, vals, 3.0, 0.0, np.arange(2))
    # psi(d) = 2 |d| at p = 3, both edges see |d| = 3
    assert np.array_equal(out, np.array([[12.0, -12.0], [-30.0, 30.0]]))
    # node 1 pinned: its row and column go, node 0 keeps its full row sum
    out = A.hessian_accumulate(rows, cols, data, vals, 3.0, 0.0, np.array([0]),
                               scale=0.5, shift=np.array([1.0]))
    assert np.array_equal(out, np.array([[7.0]]))


@pytest.mark.parametrize("p,eps", CASES)
def test_zero_differences_are_finite(p, eps):
    rows = np.array([0], dtype=np.int64)
    cols = np.array([1], dtype=np.int64)
    data = np.array([3.0])
    vals = np.zeros(2)
    out = A.phi_row_sums(rows, cols, data, vals, p, eps, 2)
    assert np.isfinite(out).all() and out[0] == 0.0
    hess = A.hessian_accumulate(rows, cols, data, vals, p, eps, np.arange(2))
    assert np.isfinite(hess).all()


def test_empty_edge_list():
    empty_i = np.zeros(0, dtype=np.int64)
    empty_f = np.zeros(0)
    vals = np.ones(3)
    out = A.phi_row_sums(empty_i, empty_i, empty_f, vals, 3.0, 0.0, 3)
    assert np.array_equal(out, np.zeros(3))


def test_within_backend_bitwise_repeatable():
    rows, cols, data, vals = edge_set(1)
    n = vals.shape[0]
    args = (rows, cols, data, vals, 1.5, 1e-10, n)
    assert np.array_equal(A.phi_row_sums(*args), A.phi_row_sums(*args))


@pytest.mark.parametrize("p,eps", CASES)
def test_in_place_kernels_match_the_plain_formulas(op2d, p, eps):
    rng = np.random.default_rng(5)
    rows, cols, data, vals = edge_set(2)
    sets = [(rows, cols, data, vals),
            (op2d.act_rows, op2d.act_cols, op2d.act_coef, rng.standard_normal(op2d.n))]
    for rows, cols, data, vals in sets:
        n = vals.shape[0]
        want = np.bincount(rows, weights=data * A._phi(vals[cols] - vals[rows], p, eps),
                           minlength=n)
        assert np.array_equal(A.phi_row_sums(rows, cols, data, vals, p, eps, n), want)


def free_sets(op):
    # every node, the interior, the strip, and a seeded subset mixing both
    mixed = np.sort(np.random.default_rng(8).choice(op.n, op.n // 3, replace=False))
    assert 0 < np.count_nonzero(op.grid.klass[mixed] == INTERIOR) < mixed.shape[0]
    return [np.arange(op.n), op.interior_idx, op.strip_idx, mixed]


@pytest.mark.parametrize("p,eps", [(1.5, REG_EPS), (3.0, 0.0), (4.0, 0.0)])
def test_hessian_and_majoriser_match_scatter_add(op16, op16_full, op2d, p, eps):
    rng = np.random.default_rng(4)
    for op in (op16, op16_full, op2d):
        rows, cols, coef = op.act_rows, op.act_cols, op.act_coef
        vals = rng.standard_normal(op.n)
        d = vals[rows] - vals[cols]
        hess_full = add_at_laplacian(rows, cols, coef * A._psi(d, p, eps), op.n)
        w = coef * (d * d + eps * eps) ** ((p - 2.0) / 2.0)
        maj_full = add_at_laplacian(rows, cols, w, op.n)
        for free in free_sets(op):
            cut = np.ix_(free, free)
            hess = A.hessian_accumulate(rows, cols, coef, vals, p, eps, free)
            assert hess.flags.f_contiguous
            assert np.array_equal(hess, hess_full[cut])
            shift = rng.random(free.shape[0])
            maj = A.laplacian_block(rows, cols, w, free, 0.25, shift)
            want = maj_full[cut] * 0.25
            want[np.diag_indices_from(want)] += shift
            assert np.array_equal(maj, want)


def test_laplacian_oracle_matches_scatter_add(op16, op16_full, op2d):
    for op in (op16, op16_full, op2d):
        rows, cols, coef = op.act_rows, op.act_cols, op.act_coef
        full = add_at_laplacian(rows, cols, coef, op.n)
        assert np.array_equal(laplacian_dense(op), full)
        for free in free_sets(op):
            block = A.laplacian_block(rows, cols, coef, free)
            assert np.array_equal(block, full[np.ix_(free, free)])
