import numpy as np
import pytest
from scipy.integrate import quad

import stripflow as sf
from stripflow.errors import (EmptySupport, InvalidArgument, SingularAtOrigin)
from stripflow.kernels import edge_block, laplacian_dense

from conftest import BOX1, BOX2


def dense_active(op):
    W = np.zeros((op.n, op.n))
    W[op.act_rows, op.act_cols] = op.act_w
    return W


def test_eval_tent_examples():
    spec = sf.tent_kernel(0.5, 1)
    assert sf.eval_kernel(spec, [0.0]) == pytest.approx(2.0, abs=1e-15)
    assert sf.eval_kernel(spec, [0.6]) == 0.0
    assert sf.eval_kernel(spec, [-0.3]) == sf.eval_kernel(spec, [0.3])


def test_eval_singular_example():
    spec = sf.singular_kernel(0.5, 2.0, 1)
    assert sf.eval_kernel(spec, [0.5]) == pytest.approx(4.0, abs=1e-15)
    with pytest.raises(SingularAtOrigin):
        sf.eval_kernel(spec, [0.0])
    with pytest.raises(SingularAtOrigin):
        sf.eval_kernel(spec, [[0.25], [0.0]])


def test_eval_batch_shape():
    spec = sf.bump_kernel(1.0, 2)
    out = sf.eval_kernel(spec, [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
    assert out.shape == (3,)
    assert out[2] == 0.0
    with pytest.raises(InvalidArgument):
        sf.eval_kernel(spec, [0.1])


@pytest.mark.parametrize("family,R,dim,expected", [
    (sf.TENT, 1.0, 1, 1.0),
    (sf.TENT, 2.0, 1, 0.25),
    (sf.TENT, 0.5, 2, 3.0 / (np.pi * 0.125)),
    (sf.BUMP, 1.0, 1, 15.0 / 16.0),
    (sf.BUMP, 1.0, 2, 3.0 / np.pi),
    (sf.BUMP, 0.5, 2, 3.0 / (np.pi * 0.5 ** 6)),
])
def test_normalization_closed_forms(family, R, dim, expected):
    c = sf.normalization(family, R, dim)
    assert c == pytest.approx(expected, rel=1e-14)
    # the constant must make the kernel integrate to one
    if family == sf.TENT:
        profile = lambda d: R - d
    else:
        profile = lambda d: (R * R - d * d) ** 2
    if dim == 1:
        total, _ = quad(lambda t: c * profile(abs(t)), -R, R)
    else:
        total, _ = quad(lambda rho: c * profile(rho) * 2.0 * np.pi * rho, 0.0, R)
    assert total == pytest.approx(1.0, rel=1e-9)


def test_kernel_spec_validation():
    with pytest.raises(InvalidArgument):
        sf.tent_kernel(0.0, 1)
    with pytest.raises(InvalidArgument):
        sf.bump_kernel(1.0, 3)
    with pytest.raises(InvalidArgument):
        sf.singular_kernel(1.0, 2.0, 1)
    with pytest.raises(InvalidArgument):
        sf.singular_kernel(0.5, 1.0, 1)
    with pytest.raises(InvalidArgument):
        sf.KernelSpec("box", 1, 1.0, R=1.0)
    assert sf.tent_kernel(0.5, 1).compact
    assert not sf.singular_kernel(0.5, 2.0, 1).compact
    assert sf.singular_kernel(0.5, 2.0, 1).cnorm == 1.0


def test_toy3_blocks(toy3_op, toy3_full_op, toy3_asym_op):
    # node 0 is interior, nodes 1 and 2 strip
    np.testing.assert_array_equal(dense_active(toy3_op),
                                  [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(dense_active(toy3_full_op),
                                  [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    np.testing.assert_array_equal(toy3_op.deg_active, [2.0, 1.0, 1.0])
    np.testing.assert_array_equal(toy3_full_op.deg_active, [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(dense_active(toy3_asym_op)[0], [0.0, 2.0, 1.0])


def test_toy3_active_pairs(toy3_op, toy3_full_op):
    pairs = set(zip(toy3_op.act_rows.tolist(), toy3_op.act_cols.tolist()))
    assert pairs == {(0, 1), (0, 2), (1, 0), (2, 0)}
    full = set(zip(toy3_full_op.act_rows.tolist(), toy3_full_op.act_cols.tolist()))
    assert full == pairs | {(1, 2), (2, 1)}


def test_toy3_dynamic_edges(toy3_op):
    # strip-local rows, global columns
    rows, cols, w = edge_block(toy3_op, sf.STRIP)
    np.testing.assert_array_equal(rows, [0, 1])
    np.testing.assert_array_equal(cols, [0, 0])
    np.testing.assert_array_equal(w, [1.0, 1.0])
    # interior-local rows, strip-local columns
    rows, cols, w = edge_block(toy3_op, sf.INTERIOR, sf.STRIP)
    np.testing.assert_array_equal(rows, [0, 0])
    np.testing.assert_array_equal(cols, [0, 1])
    np.testing.assert_array_equal(w, [1.0, 1.0])


def test_quadrature_weights_match_kernel(op16, op2d):
    for op in (op16, op2d):
        take = np.arange(0, op.nnz, max(1, op.nnz // 40))
        z = op.grid.nodes[op.act_rows[take]] - op.grid.nodes[op.act_cols[take]]
        w = sf.eval_kernel(op.spec, z) * op.grid.mu[op.act_cols[take]]
        np.testing.assert_allclose(op.act_w[take], w, rtol=1e-15)
        np.testing.assert_allclose(
            op.act_coef, op.grid.mu[op.act_rows] * op.act_w, rtol=0, atol=0)


def test_no_self_edges(op16, op16_full, op2d):
    for op in (op16, op16_full, op2d):
        assert (op.act_rows != op.act_cols).all()


def test_adjacency_reach():
    grid = sf.build_grid(BOX1, 0.25, 0.25)
    op = sf.assemble(grid, sf.tent_kernel(0.3, 1), edge_mode=sf.FULL)
    W = dense_active(op)
    gap = np.abs(grid.nodes[:, 0][:, None] - grid.nodes[:, 0][None, :])
    np.testing.assert_array_equal(W != 0.0, np.abs(gap - 0.25) < 1e-12)


def test_edge_modes_differ_only_on_strip_rows(op16, op16_full):
    W, Wf = dense_active(op16), dense_active(op16_full)
    ii = op16.interior_idx
    np.testing.assert_array_equal(W[ii], Wf[ii])
    ss = np.ix_(op16.strip_idx, op16.strip_idx)
    assert np.count_nonzero(W[ss]) == 0
    assert np.count_nonzero(Wf[ss]) > 0


def test_reciprocity(op16, op16_full, op2d, sing16):
    for op in (op16, op16_full, op2d, sing16(2.0)):
        W = dense_active(op)
        A = W * op.grid.mu[:, None]
        assert np.abs(A - A.T).max() <= 1e-15 * A.max()


def test_quadratic_form_consistency(op16, op16_full, op2d):
    rng = np.random.default_rng(11)
    for op in (op16, op16_full, op2d):
        u = rng.standard_normal(op.n)
        lu = sf.apply_graph_laplacian(op, sf.FullField(u, op.grid))
        quad_form = float(u @ lu.values)
        diffs = u[op.act_cols] - u[op.act_rows]
        pair_sum = 0.5 * float(np.sum(op.act_coef * diffs * diffs))
        assert quad_form == pytest.approx(pair_sum, rel=1e-12)


@pytest.mark.parametrize("dim,h,kernel", [
    (1, 1.0 / 32.0, sf.tent_kernel(0.25, 1)),
    (1, 1.0 / 64.0, sf.bump_kernel(0.25, 1)),
    (2, 1.0 / 32.0, sf.bump_kernel(0.25, 2)),
])
def test_discrete_normalization(dim, h, kernel):
    # midpoint sums of a normalized kernel approach 1 away from the boundary
    box = BOX1 if dim == 1 else BOX2
    grid = sf.build_grid(box, h, 0.125)
    center = int(np.argmin(np.sum((grid.nodes - 0.5) ** 2, axis=1)))
    total = np.sum(sf.eval_kernel(kernel, grid.nodes - grid.nodes[center]) * grid.mu)
    assert total == pytest.approx(1.0, rel=0.05)


def test_constants_annihilated(toy3_op, op16, op16_full, op2d):
    for op in (toy3_op, op16, op16_full, op2d):
        ones = sf.FullField(np.ones(op.n), op.grid)
        assert np.abs(sf.apply_graph_laplacian(op, ones).values).max() == 0.0


def test_apply_graph_laplacian_toy_values(toy3_op):
    out = sf.apply_graph_laplacian(toy3_op, sf.FullField(np.array([0.0, 1.0, -1.0]), toy3_op.grid))
    np.testing.assert_allclose(out.values, [0.0, 1.0, -1.0], atol=1e-15)
    out = sf.apply_graph_laplacian(toy3_op, sf.FullField(np.array([0.0, 1.0, 1.0]), toy3_op.grid))
    np.testing.assert_allclose(out.values, [-2.0, 1.0, 1.0], atol=1e-15)


def test_laplacian_dense_structure(op16, op16_full, toy3_op):
    for op in (op16, op16_full, toy3_op):
        L = laplacian_dense(op)
        mu = op.grid.mu
        np.testing.assert_allclose(
            L, np.diag(mu * op.deg_active) - mu[:, None] * dense_active(op),
            atol=1e-15)
        np.testing.assert_allclose(L, L.T, atol=1e-16)
        assert np.abs(L.sum(axis=1)).max() <= 1e-13 * max(1.0, op.deg_active.max())
        assert np.linalg.eigvalsh(L).min() >= -1e-10


def test_operator_counts(op16, op2d):
    assert op16.n == 16 and op16.n_strip == 8 and op16.n_interior == 8
    assert op16.nnz == op16.act_rows.size
    assert op2d.n == 64 and op2d.n_strip == 28


def test_empty_support():
    grid = sf.build_grid(BOX1, 0.5, 0.25, allow_empty_interior=True)
    with pytest.raises(EmptySupport):
        sf.assemble(grid, sf.tent_kernel(0.3, 1))


def test_dim_mismatch():
    grid = sf.build_grid(BOX1, 0.25, 0.25)
    with pytest.raises(InvalidArgument):
        sf.assemble(grid, sf.tent_kernel(0.5, 2))
    with pytest.raises(InvalidArgument):
        sf.assemble(grid, sf.tent_kernel(0.5, 1), edge_mode="open")
