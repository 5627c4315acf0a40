"""Edge kernels on hand-checkable edge lists and on operator edge lists.

Results must be bitwise reproducible, and the one dense Laplacian block
builder must give the majoriser matrix and the dense Newton Hessian on
every free set bit for bit as a scatter-add into the full matrix, cut down
to the free nodes, does. That dense Hessian is the oracle of the sparse
Hessian operator, and its Cholesky solve the oracle of the PCG loop.
"""

import numpy as np
import pytest
import scipy.linalg as sla

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
    diag, matvec = A.hessian_accumulate(rows, cols, data, vals, 3.0, 0.0, np.arange(2))
    # psi(d) = 2 |d| at p = 3, both edges see |d| = 3: the matrix [[12, -12], [-30, 30]]
    assert np.array_equal(diag, [12.0, 30.0])
    assert np.array_equal(matvec(np.array([1.0, 0.0])), [12.0, -30.0])
    assert np.array_equal(matvec(np.array([0.0, 1.0])), [-12.0, 30.0])
    # node 1 pinned: it enters as zero, node 0 keeps its full row sum; a scale
    # and a diagonal the caller adds, as the solver adds its proximal weights
    diag, matvec = A.hessian_accumulate(rows, cols, data, vals, 3.0, 0.0, np.array([0]))
    diag = 0.5 * diag + 1.0
    assert np.array_equal(diag, [7.0])
    assert np.array_equal(0.5 * matvec(np.array([2.0])) + 1.0 * 2.0, [14.0])


@pytest.mark.parametrize("p,eps", CASES)
def test_zero_differences_are_finite(p, eps):
    rows = np.array([0], dtype=np.int64)
    cols = np.array([1], dtype=np.int64)
    data = np.array([3.0])
    vals = np.zeros(2)
    out = A.phi_row_sums(rows, cols, data, vals, p, eps, 2)
    assert np.isfinite(out).all() and out[0] == 0.0
    diag, matvec = A.hessian_accumulate(rows, cols, data, vals, p, eps, np.arange(2))
    assert np.isfinite(diag).all() and np.isfinite(matvec(np.ones(2))).all()


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


@pytest.mark.parametrize("p,eps", [(1.5, REG_EPS), (2.5, 0.0), (3.0, 0.0), (4.0, 0.0)])
def test_hessian_and_majoriser_match_scatter_add(op16, op16_full, op2d, p, eps):
    rng = np.random.default_rng(4)
    for op in (op16, op16_full, op2d):
        rows, cols, coef = op.act_rows, op.act_cols, op.act_coef
        vals = rng.standard_normal(op.n)
        d = vals[rows] - vals[cols]
        hess_w = coef * A._psi(d, p, eps)
        hess_full = add_at_laplacian(rows, cols, hess_w, op.n)
        w = coef * (d * d + eps * eps) ** ((p - 2.0) / 2.0)
        maj_full = add_at_laplacian(rows, cols, w, op.n)
        for free in free_sets(op):
            cut = np.ix_(free, free)
            hess = A.laplacian_block(rows, cols, hess_w, free)
            assert hess.flags.f_contiguous
            assert np.array_equal(hess, hess_full[cut])
            shift = rng.random(free.shape[0])
            # the operator against its dense oracle, plain and with a diagonal
            # the caller adds (the old scale folded into it, as the solver folds
            # 1/dt into its proximal weights); the products sum the same terms
            # in other orders
            for qf in (0.0, shift / 0.3):
                oracle = A.laplacian_block(rows, cols, hess_w, free)
                oracle[np.diag_indices_from(oracle)] += qf
                diag, matvec = A.hessian_accumulate(rows, cols, coef, vals, p, eps, free)
                assert np.array_equal(diag + qf, np.diag(oracle))
                x = rng.standard_normal(free.shape[0])
                err = np.abs(matvec(x) + qf * x - oracle @ x)
                assert np.all(err <= 4.0 * np.finfo(float).eps * (np.abs(oracle) @ np.abs(x)))
            maj = A.laplacian_block(rows, cols, w, free)
            assert np.array_equal(maj, maj_full[cut])


def test_laplacian_oracle_matches_scatter_add(op16, op16_full, op2d):
    for op in (op16, op16_full, op2d):
        rows, cols, coef = op.act_rows, op.act_cols, op.act_coef
        full = add_at_laplacian(rows, cols, coef, op.n)
        assert np.array_equal(laplacian_dense(op), full)
        for free in free_sets(op):
            block = A.laplacian_block(rows, cols, coef, free)
            assert np.array_equal(block, full[np.ix_(free, free)])


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_pcg_matches_cholesky_of_the_dense_hessian(op16, op2d, p):
    rng = np.random.default_rng(6)
    for op in (op16, op2d):
        rows, cols, coef = op.act_rows, op.act_cols, op.act_coef
        vals = rng.standard_normal(op.n)
        w = coef * A._psi(vals[rows] - vals[cols], p, 0.0)
        # the extension's free set (strip pinned) and the implicit step's
        # (every node, the strip measures on the diagonal)
        for free, shift in ((op.interior_idx, 0.0), (np.arange(op.n), op.grid.mu)):
            diag, matvec = A.hessian_accumulate(rows, cols, coef, vals, p, 0.0, free)
            b = rng.standard_normal(free.shape[0])
            dense = A.laplacian_block(rows, cols, w, free)
            dense[np.diag_indices_from(dense)] += shift
            want = sla.cho_solve(sla.cho_factor(dense), b)
            x, iters = A.pcg(lambda x: matvec(x) + shift * x, diag + shift, b, 1e-14)
            assert 0 < iters <= free.shape[0]
            assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))


def test_pcg_signals_a_matrix_that_is_not_positive_definite(op2d):
    # coinciding interior values at p = 3: every deep interior node, all of
    # whose neighbours are interior, has an all-zero Hessian row
    rows, cols, coef = op2d.act_rows, op2d.act_cols, op2d.act_coef
    vals = np.zeros(op2d.n)
    vals[op2d.strip_idx] = np.random.default_rng(7).standard_normal(op2d.n_strip)
    diag, matvec = A.hessian_accumulate(rows, cols, coef, vals, 3.0, 0.0, op2d.interior_idx)
    assert np.any(diag == 0.0)
    b = np.ones(op2d.n_interior)
    with pytest.raises(sla.LinAlgError):
        A.pcg(matvec, diag, b, 1e-10)
    # a positive diagonal with a direction of negative curvature
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(sla.LinAlgError):
        A.pcg(lambda x: indefinite @ x, np.ones(2), np.array([1.0, -1.0]), 1e-10)
    # the zero right-hand side needs no iteration
    x, iters = A.pcg(matvec, diag + 1.0, np.zeros(op2d.n_interior), 1e-10)
    assert iters == 0 and not np.any(x)
