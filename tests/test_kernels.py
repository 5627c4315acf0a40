import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import quad
from scipy.spatial.distance import cdist

import stripflow as sf
from stripflow import analysis, kernels
from stripflow.errors import (EmptySupport, InvalidArgument, NonConvexExponent,
                              SingularAtOrigin)
from stripflow.kernels import (_operator_from_dense, _values_from_distance, edge_list,
                               laplacian_dense)
from stripflow.symmetry import sectors

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


# deg_active of an assembled operator against the row sums of the edge list,
# relative to each row's sum, which the matrix products of assembly take in
# another order: at the orbit representatives at most 6 eps for tent and bump
# and 39 eps for the singular kernel at 2D h <= 1/48 (at most 10 eps in the
# cases below), the bound interior_row_sums' comparison uses too
DEG_TOL = 32 * np.finfo(float).eps
# ... and off them, where the list sums each node's own row, whose terms are
# its representative's in another order: measured at most 34 eps more (the
# singular kernel, s = 0.3, at 2D h = 1/32; tent and bump at h >= 1/96 at most
# 15), far under the 2 (m - 1) eps by which two orders of m positive terms may
# differ
DEG_OFF_REPS = 64 * np.finfo(float).eps


def all_reps(op):
    # one representative of each orbit under G: sigma maps each partner's
    # row onto its pair's, whose sum deg_active keeps
    sec = sectors(op)
    return np.concatenate([o.reps[np.concatenate((o.pair, o.diag))]
                           for o in (sec.strip, sec.interior)])


def same_operator(op, ref):
    # the edge arrays bit for bit; deg_active to DEG_TOL at the
    # representatives and to DEG_OFF_REPS off them, and exactly 0 where the
    # list has no edge
    reps = all_reps(op)
    err = np.abs(op.deg_active - ref.deg_active)
    return (all(np.array_equal(getattr(op, name), getattr(ref, name))
                for name in ("act_rows", "act_cols", "act_coef"))
            and np.all(err[reps] <= DEG_TOL * ref.deg_active[reps])
            and np.all(err <= DEG_OFF_REPS * ref.deg_active))


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
    # the strip rows of the edge list, global rows and columns
    rows, cols, coef = edge_list(toy3_op)
    strip = np.isin(rows, toy3_op.strip_idx)
    np.testing.assert_array_equal(rows[strip], [1, 2])
    np.testing.assert_array_equal(cols[strip], [0, 0])
    np.testing.assert_array_equal(coef[strip], [1.0, 1.0])
    # L_IS, interior rows and strip columns, the cut of the dense
    # Laplacian: one block, G = {e}
    sec = sectors(toy3_op)
    (l_is,) = sec.fold_laplacian(toy3_op, sec.interior, sec.strip)
    np.testing.assert_array_equal(l_is, [[-1.0, -1.0]])


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


@pytest.mark.parametrize("mode", [sf.EXCLUDE_STRIP_STRIP, sf.FULL])
@pytest.mark.parametrize("box,h,kernel,order", [
    (BOX2, 1.0 / 16.0, sf.tent_kernel(0.3, 2), 8),
    (BOX2, 1.0 / 16.0, sf.singular_kernel(0.3, 2.5, 2), 8),
    (sf.DomainBox(2, (-1.0, 0.0), (1.0, 0.5)), 1.0 / 16.0, sf.bump_kernel(0.3, 2), 4),
    (BOX1, 1.0 / 16.0, sf.singular_kernel(0.5, 2.0, 1), 2),
])
def test_deg_active_is_one_row_sum_per_orbit(box, h, kernel, order, mode):
    # every node of an orbit under G, the mirrors and sigma, takes its
    # representative's row sum, exactly, which is the dense evaluation's to
    # DEG_TOL of itself
    grid = sf.build_grid(box, h, 0.125)
    op, ref = sf.assemble(grid, kernel, mode), dense_oracle(grid, kernel, mode)
    sec = sectors(op)
    assert sec.order == order
    for idx, orbits in ((op.strip_idx, sec.strip), (op.interior_idx, sec.interior)):
        deg = op.deg_active[idx[orbits.table]]
        assert np.array_equal(deg, np.broadcast_to(deg[0], deg.shape))
        assert np.array_equal(deg[0, orbits.partner], deg[0, orbits.pair])
    reps = all_reps(op)
    assert np.all(np.abs(op.deg_active[reps] - ref.deg_active[reps])
                  <= DEG_TOL * ref.deg_active[reps])


def test_p2_work_builds_no_edge_list():
    # assembly writes no row; the gap, the step bound and both p = 2
    # integrators read the blocks off the J table or use S, the linear
    # extension and the quotients built on it sum the rows by FFT, and nnz
    # is counted from the stencil. The list built afterwards is as long as
    # nnz said, and its row sums are deg_active's
    grid = sf.build_grid(BOX2, 1.0 / 32.0, 0.125)
    op = sf.assemble(grid, sf.tent_kernel(0.25, 2))
    assert op._edges is None and op.nnz == 128836 and op._edges is None
    gap = sf.spectral_gap_beta(op)
    dt = 0.4 * sf.stability_bound(op)
    for integrator in (sf.EXPLICIT, sf.IMPLICIT):
        traj = sf.evolve(op, sf.ProblemSpec("linear"), gap.mode, 20 * dt, dt, integrator)
        assert traj.times.shape[0] == 21
    assert op._edges is None
    rows, cols, coef = edge_list(op)
    assert rows.shape == cols.shape == coef.shape == (op.nnz,)
    reps = all_reps(op)
    sums = np.bincount(rows, weights=coef) / grid.mu
    assert np.all(np.abs(op.deg_active[reps] - sums[reps]) <= DEG_TOL * sums[reps])
    # each extension path on a fresh operator
    for work in (lambda op: sf.extend_linear(op, sf.StripField(gap.mode.values, grid)),
                 lambda op: sf.rayleigh_quotient(op, gap.mode, 2.0)):
        op = sf.assemble(grid, sf.tent_kernel(0.25, 2))
        work(op)
        assert op._edges is None
    wide = sf.build_grid(BOX2, 1.0 / 32.0, 0.25)
    op = sf.assemble(wide, sf.tent_kernel(0.25, 2))
    assert len(sf.counterexample_sequence(op, [2, 4])) == 2
    assert op._edges is None


@pytest.mark.parametrize("mode", [sf.EXCLUDE_STRIP_STRIP, sf.FULL])
@pytest.mark.parametrize("dim", [1, 2])
def test_p2_work_writes_no_rows(dim, mode, monkeypatch):
    # with every row writer refused, assembly, the gap, the step bound, both
    # p = 2 integrators, the linear extension, the p = 2 quotient and energy
    # and the shrinking-bump sequence all run: each reads the J table or
    # convolves with it. The bumps of the sequence sit on isolated strip
    # nodes at n = 16 and 32 on the square, so those quotients stay exactly 0
    def refuse(*args):
        raise AssertionError("a row was written")
    monkeypatch.setattr(kernels, "_write_rows", refuse)
    box, h, kernel = ((BOX1, 1.0 / 64.0, sf.tent_kernel(0.25, 1)) if dim == 1
                      else (BOX2, 1.0 / 32.0, sf.tent_kernel(0.25, 2)))
    op = sf.assemble(sf.build_grid(box, h, 0.125), kernel, mode)
    gap = sf.spectral_gap_beta(op)
    dt = 0.4 * sf.stability_bound(op)
    spec = sf.ProblemSpec("linear" if mode == sf.EXCLUDE_STRIP_STRIP else "linear-full")
    for integrator in (sf.EXPLICIT, sf.IMPLICIT):
        sf.evolve(op, spec, gap.mode, 5 * dt, dt, integrator)
    ext = sf.extend_linear(op, gap.mode)[0]
    quotient = sf.rayleigh_quotient(op, gap.mode, 2.0)
    assert abs(quotient - gap.beta) <= analysis._eig_tol(op) + 1e-10 * gap.beta
    assert sf.energy(op, ext, 2.0) == pytest.approx(0.5 * gap.beta, rel=1e-9)
    wide = sf.assemble(sf.build_grid(box, h, 0.25), kernel, mode)
    quotients = dict(sf.counterexample_sequence(wide, [4, 8, 16, 32]))
    if dim == 2 and mode == sf.EXCLUDE_STRIP_STRIP:
        assert quotients[4] > 0.0 and quotients[16] == quotients[32] == 0.0
    monkeypatch.undo()
    for o in (op, wide):
        assert o.nnz == edge_list(o)[0].shape[0]


def test_assembly_at_h128_peaks_under_8_mb():
    # no row is written: the run of the representatives' rows took about
    # 205 MB here. What is left is the sectors' tables and one rectangle's
    # matrix product at a time
    grid = sf.build_grid(BOX2, 1.0 / 128.0, 0.125)
    tracemalloc.start()
    try:
        op = sf.assemble(grid, sf.tent_kernel(0.25, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.nnz == 34236220
    assert peak < 8 * 2 ** 20


# The interior row sums by FFT against the edge list's, per row, relative to
# the row's sum of |terms|, on random values: tent and bump at most 2.2 eps,
# the singular kernel 7.7 eps at 2D h = 1/32 and 18.7 eps at h = 1/48
ROW_SUM_TOL = 32 * np.finfo(float).eps


@pytest.mark.parametrize("mode", [sf.EXCLUDE_STRIP_STRIP, sf.FULL])
@pytest.mark.parametrize("box,h,kernel", [
    (BOX1, 1.0 / 32.0, sf.tent_kernel(0.25, 1)),
    (BOX1, 1.0 / 48.0, sf.bump_kernel(0.25, 1)),
    (BOX1, 1.0 / 48.0, sf.singular_kernel(0.5, 2.0, 1)),
    (BOX2, 1.0 / 32.0, sf.tent_kernel(0.25, 2)),
    (BOX2, 1.0 / 48.0, sf.tent_kernel(0.25, 2)),
    (BOX2, 1.0 / 48.0, sf.bump_kernel(0.25, 2)),
    (BOX2, 1.0 / 32.0, sf.singular_kernel(0.5, 2.0, 2)),
    (BOX2, 1.0 / 48.0, sf.singular_kernel(0.5, 2.0, 2)),
    (sf.DomainBox(2, (-1.0, 0.0), (1.0, 0.5)), 1.0 / 16.0, sf.bump_kernel(0.3, 2)),
])
def test_interior_row_sums_by_fft_match_the_edge_list(box, h, kernel, mode):
    # on random measures too, which the convolution of mu vals carries
    grid = sf.build_grid(box, h, 0.125)
    rng = np.random.default_rng(8)
    for grid in (grid, dataclasses.replace(grid, mu=rng.uniform(0.5, 2.0, grid.n) * grid.mu)):
        op = sf.assemble(grid, kernel, mode)
        vals = rng.standard_normal(grid.n)
        fast = kernels.interior_row_sums(op, vals)
        assert op._edges is None
        rows, cols, coef = edge_list(op)
        terms = coef * vals[cols]
        idx = op.interior_idx
        want = np.bincount(rows, weights=terms, minlength=grid.n)[idx]
        scale = np.bincount(rows, weights=np.abs(terms), minlength=grid.n)[idx]
        assert np.all(np.abs(fast - want) <= ROW_SUM_TOL * scale)
        # the strip rows, in exclude mode over the interior columns only: the
        # convolution's error is a few eps of the largest strip row's sum
        # |terms| (at most 11.4 measured), not of each row's own (43)
        strip = kernels.strip_row_sums(op, vals)
        want_s = np.bincount(rows, weights=terms, minlength=grid.n)[op.strip_idx]
        scale_s = np.bincount(rows, weights=np.abs(terms), minlength=grid.n)[op.strip_idx]
        assert np.all(np.abs(strip - want_s) <= ROW_SUM_TOL * scale_s.max())
        # the same sums once the list exists
        assert np.array_equal(kernels.interior_row_sums(op, vals), fast)
        # and the route of an operator built from the same edges sums each
        # row in edge order, as bincount does
        edges = sf.NonlocalOperator(grid, kernel, mode, rows, cols, coef)
        assert np.array_equal(kernels.interior_row_sums(edges, vals), want)
        assert np.array_equal(kernels.strip_row_sums(edges, vals), want_s)


@pytest.mark.parametrize("mode", [sf.EXCLUDE_STRIP_STRIP, sf.FULL])
def test_rows_written_in_chunks_match_the_edge_list(mode, monkeypatch):
    # a chunk of 1000 edges splits every row set below into several; the
    # rows of any node set are the edge list's rows, bit for bit
    grid = sf.build_grid(BOX2, 1.0 / 16.0, 0.125)
    kernel = sf.singular_kernel(0.5, 2.0, 2)
    whole = edge_list(sf.assemble(grid, kernel, mode))
    monkeypatch.setattr(kernels, "_ROW_CHUNK", 1000)
    op = sf.assemble(grid, kernel, mode)
    nodes = np.flatnonzero(np.random.default_rng(3).random(grid.n) < 0.4)
    rows, cols, coef = kernels._write_rows(op, nodes, op._stencil)
    assert all(np.array_equal(a, b) for a, b in zip(edge_list(op), whole))
    keep = np.isin(whole[0], nodes)
    assert np.array_equal(nodes[rows], whole[0][keep])
    assert np.array_equal(cols, whole[1][keep])
    assert np.array_equal(coef, whole[2][keep])


@pytest.mark.parametrize("mode", [sf.EXCLUDE_STRIP_STRIP, sf.FULL])
@pytest.mark.parametrize("box,h,kernel", [
    (BOX1, 1.0 / 32.0, sf.tent_kernel(0.25, 1)),
    (BOX1, 1.0 / 48.0, sf.singular_kernel(0.5, 3.0, 1)),
    (BOX2, 1.0 / 16.0, sf.tent_kernel(0.25, 2)),
    (BOX2, 1.0 / 24.0, sf.bump_kernel(0.25, 2)),
    (BOX2, 1.0 / 12.0, sf.singular_kernel(0.5, 1.5, 2)),
    (sf.DomainBox(2, (-1.0, 0.0), (1.0, 0.5)), 1.0 / 16.0, sf.bump_kernel(0.3, 2)),
])
def test_pairs_are_the_upper_triangle_of_the_edge_list(box, h, kernel, mode, monkeypatch):
    # written from the half of the stencil after the self-offset with no
    # edge list, on random measures too, and in chunks that split the rows:
    # bit for bit the edge list's pairs x < y, whose column index the cached
    # skeleton shares; an operator built from the same edges takes them
    # from its list
    grid = sf.build_grid(box, h, 0.125)
    rng = np.random.default_rng(5)
    for grid in (grid, dataclasses.replace(grid, mu=rng.uniform(0.5, 2.0, grid.n) * grid.mu)):
        op = sf.assemble(grid, kernel, mode)
        monkeypatch.setattr(kernels, "_ROW_CHUNK", 1000)
        rows, cols, coef = kernels.pairs(op)
        monkeypatch.undo()
        assert op._edges is None
        assert kernels.edge_skeleton(op)[0] is cols
        whole = edge_list(op)
        upper = whole[0] < whole[1]
        for got, want in zip((rows, cols, coef), whole):
            assert np.array_equal(got, want[upper])
        assert 2 * rows.shape[0] == op.nnz
        edges = sf.NonlocalOperator(grid, kernel, mode, *whole)
        assert all(np.array_equal(a, b) for a, b in zip(kernels.pairs(edges), (rows, cols, coef)))


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


def test_fast_len_is_scipys_real_fast_length():
    # the convolution's transform lengths, worked out with no scipy.fft
    # loaded in the package: the least 2^a 3^b 5^c at or above n
    assert [kernels._fast_len(n) for n in range(1, 10 ** 4 + 1)] == [
        scipy.fft.next_fast_len(n, real=True) for n in range(1, 10 ** 4 + 1)]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, error", [
    (lambda op: sf.ProblemSpec("plaplace", p=NAN), InvalidArgument),
    (lambda op: sf.singular_kernel(0.5, NAN, 2), InvalidArgument),
    (lambda op: sf.tent_kernel(NAN, 2), InvalidArgument),
    (lambda op: sf.bump_kernel(NAN, 1), InvalidArgument),
    (lambda op: sf.build_grid(BOX2, NAN, 0.125), InvalidArgument),
    (lambda op: sf.build_grid(BOX2, 1.0 / 16.0, NAN), InvalidArgument),
    (lambda op: sf.extend_plaplace(op, np.array([1.0, -1.0]), NAN), NonConvexExponent),
    (lambda op: sf.estimate_beta_p(op, NAN), InvalidArgument),
    (lambda op: sf.ProblemSpec("plaplace", p=INF), InvalidArgument),
    (lambda op: sf.singular_kernel(0.5, INF, 2), InvalidArgument),
    (lambda op: sf.tent_kernel(INF, 2), InvalidArgument),
    (lambda op: sf.bump_kernel(INF, 1), InvalidArgument),
    (lambda op: sf.normalization(kernels.TENT, INF, 2), InvalidArgument),
    (lambda op: sf.DomainBox(2, (0.0, -INF), (1.0, 1.0)), InvalidArgument),
    (lambda op: sf.DomainBox(1, (0.0,), (INF,)), InvalidArgument),
    (lambda op: sf.extend_plaplace(op, np.array([1.0, -1.0]), INF), InvalidArgument),
    (lambda op: sf.estimate_beta_p(op, INF), InvalidArgument),
    (lambda op: sf.estimate_beta_p(op, 3.0, restarts=2.5), InvalidArgument),
], ids=["spec-p", "singular-p", "tent-R", "bump-R", "grid-h", "grid-r", "extend-p", "beta-p",
        "spec-p-inf", "singular-p-inf", "tent-R-inf", "bump-R-inf", "normalization-R-inf",
        "box-lo-inf", "box-hi-inf", "extend-p-inf", "beta-p-inf", "beta-restarts"])
def test_nan_sizes_and_exponents_are_refused(toy3_op, call, error):
    # with the typed error of a nonpositive size or an exponent <= 1: a NaN
    # fails every comparison, so a guard written as x <= c lets it through
    with pytest.raises(error, match="must exceed 1|p > 1|R > 0|must be positive"):
        call(toy3_op)
