import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.spatial.distance import cdist

import stripflow as sf
from stripflow.errors import (EmptySupport, InvalidArgument, SingularAtOrigin)
from stripflow.elliptic import _interior
from stripflow.kernels import (_operator_from_dense, _values_from_distance, laplacian_dense,
                               strip_edges)

from conftest import BOX1, BOX2


def dense_active(op):
    # W[x][y] = act_coef / mu[x] on the active pairs
    W = np.zeros((op.n, op.n))
    W[op.act_rows, op.act_cols] = op.act_coef / op.grid.mu[op.act_rows]
    return W


def dense_oracle(grid, spec, edge_mode):
    # J evaluated at every node pair of the n x n distance array, then masked:
    # the assembly before the offset stencil
    d = cdist(grid.nodes, grid.nodes)
    if spec.family == sf.SINGULAR:
        np.fill_diagonal(d, np.inf)
    jmat = _values_from_distance(spec, d)
    np.fill_diagonal(jmat, 0.0)
    return _operator_from_dense(grid, spec, jmat, edge_mode)


def same_operator(op, ref):
    return all(np.array_equal(getattr(op, name), getattr(ref, name))
               for name in ("act_rows", "act_cols", "act_coef", "deg_active"))


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
    # the strip rows, global rows and columns
    rows, cols, coef = strip_edges(toy3_op)
    np.testing.assert_array_equal(rows, [1, 2])
    np.testing.assert_array_equal(cols, [0, 0])
    np.testing.assert_array_equal(coef, [1.0, 1.0])
    # L_IS: interior-local rows, strip-local columns
    l_is = _interior(toy3_op)[2]
    np.testing.assert_array_equal(l_is.toarray(), [[-1.0, -1.0]])


def test_quadrature_weights_match_kernel(op16, op2d):
    for op in (op16, op2d):
        take = np.arange(0, op.nnz, max(1, op.nnz // 40))
        z = op.grid.nodes[op.act_rows[take]] - op.grid.nodes[op.act_cols[take]]
        w = sf.eval_kernel(op.spec, z) * op.grid.mu[op.act_cols[take]]
        np.testing.assert_allclose(dense_active(op)[op.act_rows[take], op.act_cols[take]],
                                   w, rtol=1e-15)
        np.testing.assert_allclose(op.act_coef[take], op.grid.mu[op.act_rows[take]] * w,
                                   rtol=1e-15)


def test_edge_arrays_are_contiguous(toy3_op, op16, op2d, sing16):
    # every edge pass gathers through act_rows and act_cols; strided index
    # views (np.nonzero on a 2-D mask returns them) slow every one of them
    for op in (toy3_op, op16, op2d, sing16(2.0)):
        for idx in (op.act_rows, op.act_cols):
            assert idx.dtype == np.int64 and idx.flags.c_contiguous
        assert op.act_coef.flags.c_contiguous


def test_assembly_keeps_no_dense_weight_matrix():
    # the three edge arrays and one edge-sized temporary (4/3 of their bytes)
    # with the per-node run tables make the peak; an n x n array of any dtype
    # (1 MB as bool, 8.4 MB as float at n = 1024) or a second temporary
    # would break the bound
    grid = sf.build_grid(BOX2, 1.0 / 32.0, 0.125)
    for kernel in (sf.tent_kernel(0.25, 2), sf.singular_kernel(0.5, 2.0, 2)):
        tracemalloc.start()
        try:
            op = sf.assemble(grid, kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        edge_bytes = op.act_rows.nbytes + op.act_cols.nbytes + op.act_coef.nbytes
        assert peak < 1.6 * edge_bytes
        del op


@pytest.mark.parametrize("mode", [sf.EXCLUDE_STRIP_STRIP, sf.FULL])
@pytest.mark.parametrize("box,h,r,kernel", [
    (BOX1, 1.0 / 32.0, 0.125, sf.tent_kernel(0.25, 1)),
    (BOX1, 1.0 / 32.0, 0.125, sf.tent_kernel(3.0 / 32.0, 1)),  # R a lattice distance
    (BOX1, 1.0 / 64.0, 0.25, sf.bump_kernel(0.25, 1)),  # R = r
    (BOX1, 1.0 / 16.0, 0.25, sf.singular_kernel(0.5, 2.0, 1)),
    (BOX2, 1.0 / 16.0, 0.125, sf.tent_kernel(0.125, 2)),  # R = r
    (BOX2, 1.0 / 32.0, 0.125, sf.tent_kernel(5.0 / 32.0, 2)),  # (3, 4) and (5, 0) on the rim
    (BOX2, 1.0 / 32.0, 0.125, sf.bump_kernel(0.3, 2)),
    (BOX2, 1.0 / 16.0, 0.125, sf.singular_kernel(0.3, 2.5, 2)),
    (sf.DomainBox(2, (-1.0, 0.0), (1.0, 0.5)), 1.0 / 16.0, 0.125, sf.tent_kernel(0.3, 2)),
    (sf.DomainBox(2, (-1.0, 0.0), (1.0, 0.5)), 1.0 / 16.0, 0.125,
     sf.singular_kernel(0.5, 2.0, 2)),
])
def test_stencil_matches_dense_evaluation_on_dyadic_grids(box, h, r, kernel, mode):
    # dyadic coordinates make every distance exact, so the offset table and
    # the dense n x n evaluation agree to the bit
    grid = sf.build_grid(box, h, r)
    assert same_operator(sf.assemble(grid, kernel, mode), dense_oracle(grid, kernel, mode))


@pytest.mark.parametrize("mode", [sf.EXCLUDE_STRIP_STRIP, sf.FULL])
@pytest.mark.parametrize("box,h,kernel", [
    (BOX2, 1.0 / 48.0, sf.tent_kernel(0.25, 2)),
    (BOX2, 1.0 / 48.0, sf.bump_kernel(0.25, 2)),
    (BOX2, 1.0 / 48.0, sf.singular_kernel(0.5, 2.0, 2)),
    # (R/h)^2 rounds 2 ulp above 25 here
    (BOX2, 1.0 / 24.0, sf.tent_kernel(5.0 / 24.0, 2)),
    (BOX1, 1.0 / 24.0, sf.bump_kernel(5.0 / 24.0, 1)),
])
def test_stencil_on_a_non_dyadic_grid_drops_only_rim_pairs(box, h, kernel, mode):
    # rounded coordinates put the pairs at lattice distance R on either side
    # of it; the stencil adds no pair and drops only those
    grid = sf.build_grid(box, h, 0.125)
    op, ref = sf.assemble(grid, kernel, mode), dense_oracle(grid, kernel, mode)
    key = op.act_rows * grid.n + op.act_cols
    ref_key = ref.act_rows * grid.n + ref.act_cols
    assert np.isin(key, ref_key).all()
    kept = np.isin(ref_key, key)
    assert kernel.family == sf.SINGULAR or not kept.all()
    assert ref.act_coef[~kept].max(initial=0.0) <= 1e-14 * ref.act_coef.max()
    np.testing.assert_allclose(op.act_coef, ref.act_coef[kept], rtol=1e-13, atol=0.0)


def test_assembly_takes_a_lattice_with_any_measures_and_classes():
    # strip nodes scattered at random: in exclude mode a strip row's run of
    # columns then has strip nodes inside it, not only at its ends
    grid = sf.build_grid(BOX2, 1.0 / 16.0, 0.125)
    rng = np.random.default_rng(5)
    grid = dataclasses.replace(grid, mu=rng.uniform(0.5, 2.0, grid.n) * grid.mu,
                               klass=rng.integers(0, 2, grid.n).astype(np.uint8))
    for kernel in (sf.tent_kernel(0.3, 2), sf.singular_kernel(0.5, 2.0, 2)):
        for mode in (sf.EXCLUDE_STRIP_STRIP, sf.FULL):
            assert same_operator(sf.assemble(grid, kernel, mode),
                                 dense_oracle(grid, kernel, mode))


def test_assembly_refuses_nodes_off_the_lattice():
    grid = sf.build_grid(BOX2, 1.0 / 16.0, 0.125)
    jitter = np.random.default_rng(6).uniform(-1e-3, 1e-3, grid.nodes.shape) * grid.h
    for bad in (dataclasses.replace(grid, nodes=grid.nodes + jitter),
                dataclasses.replace(grid, nodes=grid.nodes[::-1]),
                dataclasses.replace(grid, counts=(8, 32)),
                dataclasses.replace(grid, counts=())):
        with pytest.raises(InvalidArgument):
            sf.assemble(bad, sf.tent_kernel(0.25, 2))


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
        lu = sf.energy_gradient(op, sf.FullField(u, op.grid), 2.0)
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
        assert np.abs(sf.energy_gradient(op, ones, 2.0).values).max() == 0.0


def test_graph_laplacian_toy_values(toy3_op):
    out = sf.energy_gradient(toy3_op, sf.FullField(np.array([0.0, 1.0, -1.0]), toy3_op.grid), 2.0)
    np.testing.assert_allclose(out.values, [0.0, 1.0, -1.0], atol=1e-15)
    out = sf.energy_gradient(toy3_op, sf.FullField(np.array([0.0, 1.0, 1.0]), toy3_op.grid), 2.0)
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
