"""Edge kernels on hand-checkable edge lists and on operator edge lists.

Results must be bitwise reproducible. The curvature builders take the
interacting pairs x < y (kernels.pairs), and the one dense Laplacian
block builder must give the majoriser matrix and the dense Newton Hessian
on every free set as a scatter-add of the ordered edge list into the full
matrix, cut down to the free nodes, does: bit for bit off the diagonal,
and on it within the rounding of the two sums of nonnegative weights,
which add the same terms in another order. That dense Hessian is the
oracle of the sparse Hessian operator, and its Cholesky solve the oracle
of the PCG loop.
"""

import ctypes
import os

import numpy as np
import pytest
import scipy.linalg as sla

import stripflow as sf
from stripflow import _accel as A
from stripflow.elliptic import REG_EPS
from stripflow.geometry import INTERIOR
from stripflow.kernels import (EXCLUDE_STRIP_STRIP, FULL, edge_list, edge_skeleton,
                               laplacian_dense, pairs)

from conftest import add_at_laplacian, fresh_python, make_op, nonuniform_line_op

CASES = [(2.0, 0.0), (1.5, 0.0), (1.5, 1e-10), (3.0, 0.0), (4.0, 1e-8)]


def plain_phi(d, p, eps):
    # |d|^(p-2) d and its derivative, written out apart from _accel's in-place
    # forms, with their fast cases p = 3 and p = 4 in the same order of
    # operations
    if p == 2.0:
        return d.copy()
    if p == 3.0:
        return np.abs(d) * d
    if p == 4.0:
        return d * d * d
    if eps > 0.0:
        return d * (d * d + eps * eps) ** ((p - 2.0) / 2.0)
    out, nz = np.zeros_like(d), d != 0.0
    out[nz] = np.abs(d[nz]) ** (p - 2.0) * d[nz]
    return out


def plain_psi(d, p, eps):
    if p == 2.0:
        return np.ones_like(d)
    if p == 3.0:
        return 2.0 * np.abs(d)
    if p == 4.0:
        return 3.0 * d * d
    if eps > 0.0:
        return (d * d + eps * eps) ** ((p - 4.0) / 2.0) * (eps * eps + (p - 1.0) * d * d)
    out, nz = np.zeros_like(d), d != 0.0
    out[nz] = (p - 1.0) * np.abs(d[nz]) ** (p - 2.0)
    return out


def edge_set(seed, n=300, ne=5000):
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.integers(0, n, ne, dtype=np.int64))
    cols = rng.integers(0, n, ne, dtype=np.int64)
    data = rng.random(ne)
    vals = rng.standard_normal(n)
    return rows, cols, data, vals


def buf(rows, cols, n):
    """A fresh edge buffer on the skeleton of (rows, cols) over n rows."""
    return A.edge_matrix(A.skeleton(rows, cols, n))


def test_phi_row_sums_by_hand():
    rows = np.array([0, 1], dtype=np.int64)
    cols = np.array([1, 0], dtype=np.int64)
    data = np.array([2.0, 5.0])
    vals = np.array([1.0, 3.0])
    out = A.phi_row_sums(rows, cols, data, vals, 3.0, 0.0, 2, buf(rows, cols, 2))
    # phi(d) = |d| d at p = 3
    assert out[0] == 2.0 * 4.0
    assert out[1] == 5.0 * -4.0


def test_hessian_accumulate_by_hand():
    # the one pair 0 < 1, which the Hessian couples from both ends
    rows = np.array([0], dtype=np.int64)
    cols = np.array([1], dtype=np.int64)
    data = np.array([2.0])
    vals = np.array([1.0, 4.0])
    diag, matvec = A.hessian_accumulate(rows, cols, data, vals, 3.0, 0.0, np.arange(2),
                                        buf(rows, cols, 2))
    # psi(d) = 2 |d| at p = 3 with |d| = 3: the matrix [[12, -12], [-12, 12]]
    assert np.array_equal(diag, [12.0, 12.0])
    assert np.array_equal(matvec(np.array([1.0, 0.0])), [12.0, -12.0])
    assert np.array_equal(matvec(np.array([0.0, 1.0])), [-12.0, 12.0])
    # node 1 pinned: it enters as zero, node 0 keeps its full row sum; a scale
    # and a diagonal the caller adds, as the solver adds its proximal weights
    diag, matvec = A.hessian_accumulate(rows, cols, data, vals, 3.0, 0.0, np.array([0]),
                                        buf(rows, cols, 2))
    diag = 0.5 * diag + 1.0
    assert np.array_equal(diag, [7.0])
    assert np.array_equal(0.5 * matvec(np.array([2.0])) + 1.0 * 2.0, [14.0])


@pytest.mark.parametrize("p,eps", CASES)
def test_zero_differences_are_finite(p, eps):
    rows = np.array([0], dtype=np.int64)
    cols = np.array([1], dtype=np.int64)
    data = np.array([3.0])
    vals = np.zeros(2)
    out = A.phi_row_sums(rows, cols, data, vals, p, eps, 2, buf(rows, cols, 2))
    assert np.isfinite(out).all() and out[0] == 0.0
    diag, matvec = A.hessian_accumulate(rows, cols, data, vals, p, eps, np.arange(2),
                                        buf(rows, cols, 2))
    assert np.isfinite(diag).all() and np.isfinite(matvec(np.ones(2))).all()


def test_empty_edge_list():
    empty_i = np.zeros(0, dtype=np.int64)
    empty_f = np.zeros(0)
    vals = np.ones(3)
    out = A.phi_row_sums(empty_i, empty_i, empty_f, vals, 3.0, 0.0, 3,
                         buf(empty_i, empty_i, 3))
    assert np.array_equal(out, np.zeros(3))


def test_within_backend_bitwise_repeatable():
    rows, cols, data, vals = edge_set(1)
    n = vals.shape[0]
    args = (rows, cols, data, vals, 1.5, 1e-10, n)
    assert np.array_equal(A.phi_row_sums(*args, buf(rows, cols, n)),
                          A.phi_row_sums(*args, buf(rows, cols, n)))


@pytest.mark.parametrize("p,eps", CASES)
def test_in_place_kernels_match_the_plain_formulas(op2d, p, eps):
    rng = np.random.default_rng(5)
    rows, cols, data, vals = edge_set(2)
    sets = [(rows, cols, data, vals, None)]
    # the pairs and the ordered edge list of op2d and of a line whose
    # measures vary by a factor of 6, the pairs on their cached skeleton and
    # the list on one of its own
    for op in (op2d, nonuniform_line_op(EXCLUDE_STRIP_STRIP)):
        v = rng.standard_normal(op.n)
        sets.append((*pairs(op), v, edge_skeleton(op)))
        edges = edge_list(op)
        sets.append((*edges, v, A.skeleton(edges[0], edges[1], op.n)))
    for rows, cols, data, vals, skel in sets:
        n = vals.shape[0]
        want = np.bincount(rows, weights=data * plain_phi(vals[cols] - vals[rows], p, eps),
                           minlength=n)
        hess_w = data * plain_psi(vals[rows] - vals[cols], p, eps)
        # the Hessian's diagonal sums each edge's weight at both of its ends
        want_diag = (np.bincount(rows, weights=hess_w, minlength=n)
                     + np.bincount(cols, weights=hess_w, minlength=n))
        assert np.array_equal(A.phi_row_sums(rows, cols, data, vals, p, eps, n,
                                             buf(rows, cols, n)), want)
        assert np.array_equal(A.hessian_accumulate(rows, cols, data, vals, p, eps,
                                                   np.arange(n), buf(rows, cols, n))[0],
                              want_diag)
        if skel is None:
            continue
        # a buffer on the cached skeleton that an earlier pass wrote
        mat = A.edge_matrix(skel)
        A.hessian_accumulate(rows, cols, data, -vals, p, eps, np.arange(n), mat)
        assert np.array_equal(A.phi_row_sums(rows, cols, data, vals, p, eps, n, mat), want)
        diag, _ = A.hessian_accumulate(rows, cols, data, vals, p, eps, np.arange(n), mat)
        assert np.array_equal(diag, want_diag)
        assert np.array_equal(mat[0].data, hess_w)


def free_sets(op):
    # every node, the interior, the strip, and a seeded subset mixing both
    mixed = np.sort(np.random.default_rng(8).choice(op.n, op.n // 3, replace=False))
    assert 0 < np.count_nonzero(op.grid.klass[mixed] == INTERIOR) < mixed.shape[0]
    return [np.arange(op.n), op.interior_idx, op.strip_idx, mixed]


def assert_laplacian_matches(block, full, free, rows, w):
    """block, built from the pairs, against full, the scatter-add of the
    ordered edge list (rows, cols, w) with w >= 0: bit for bit off the
    diagonal; on it each of the two sums of a row's m nonnegative weights
    is within (m - 1) eps / 2 of their exact sum s, relative to s, so the
    two are within (m - 1) eps s of each other."""
    off = ~np.eye(free.shape[0], dtype=bool)
    assert np.array_equal(block[off], full[np.ix_(free, free)][off])
    n = full.shape[0]
    terms = np.bincount(rows, minlength=n)[free]
    sums = np.bincount(rows, weights=w, minlength=n)[free]
    err = np.abs(np.diag(block) - np.diag(full)[free])
    assert np.all(err <= np.maximum(terms - 1, 0) * np.finfo(float).eps * sums)


def pair_ops(op16, op16_full, op2d):
    # assembled 1D in both edge modes and 2D in both, and two fixtures built
    # from given edges
    return (op16, op16_full, op2d, make_op(1.0 / 8.0, 0.125, sf.tent_kernel(0.25, 2), FULL, 2),
            nonuniform_line_op(EXCLUDE_STRIP_STRIP), nonuniform_line_op(FULL))


@pytest.mark.parametrize("p,eps", [(1.5, REG_EPS), (2.5, 0.0), (3.0, 0.0), (4.0, 0.0)])
def test_hessian_and_majoriser_match_scatter_add(op16, op16_full, op2d, p, eps):
    rng = np.random.default_rng(4)
    for op in pair_ops(op16, op16_full, op2d):
        rows, cols, coef = op.act_rows, op.act_cols, op.act_coef
        prows, pcols, pcoef = pairs(op)
        skel = edge_skeleton(op)
        vals = rng.standard_normal(op.n)
        d = vals[rows] - vals[cols]
        hess_w = coef * A._psi(d, p, eps)
        hess_full = add_at_laplacian(rows, cols, hess_w, op.n)
        w = coef * (d * d + eps * eps) ** ((p - 2.0) / 2.0)
        maj_full = add_at_laplacian(rows, cols, w, op.n)
        # the same weights on the pairs, where each edge is the pair's upper end
        pd = vals[prows] - vals[pcols]
        hess_pw = pcoef * A._psi(pd, p, eps)
        pw = pcoef * (pd * pd + eps * eps) ** ((p - 2.0) / 2.0)
        for free in free_sets(op):
            hess = A.laplacian_block(hess_pw, free, skel)
            assert hess.flags.f_contiguous
            assert_laplacian_matches(hess, hess_full, free, rows, hess_w)
            shift = rng.random(free.shape[0])
            # the operator against its dense oracle, plain and with a diagonal
            # the caller adds (the old scale folded into it, as the solver folds
            # 1/dt into its proximal weights); the products sum the same terms
            # in other orders
            for qf in (0.0, shift / 0.3):
                oracle = A.laplacian_block(hess_pw, free, skel)
                oracle[np.diag_indices_from(oracle)] += qf
                diag, matvec = A.hessian_accumulate(prows, pcols, pcoef, vals, p, eps, free,
                                                    A.edge_matrix(skel))
                assert np.array_equal(diag + qf, np.diag(oracle))
                x = rng.standard_normal(free.shape[0])
                err = np.abs(matvec(x) + qf * x - oracle @ x)
                assert np.all(err <= 4.0 * np.finfo(float).eps * (np.abs(oracle) @ np.abs(x)))
            maj = A.laplacian_block(pw, free, skel)
            assert_laplacian_matches(maj, maj_full, free, rows, w)


def test_laplacian_oracle_matches_scatter_add(op16, op16_full, op2d):
    for op in pair_ops(op16, op16_full, op2d):
        rows, cols, coef = op.act_rows, op.act_cols, op.act_coef
        full = add_at_laplacian(rows, cols, coef, op.n)
        everything = np.arange(op.n)
        assert_laplacian_matches(laplacian_dense(op), full, everything, rows, coef)
        for free in free_sets(op):
            block = A.laplacian_block(pairs(op)[2], free, edge_skeleton(op))
            assert np.array_equal(block, laplacian_dense(op)[np.ix_(free, free)])
            assert_laplacian_matches(block, full, free, rows, coef)


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_pcg_matches_cholesky_of_the_dense_hessian(op16, op2d, p):
    rng = np.random.default_rng(6)
    for op in (op16, op2d):
        rows, cols, coef = pairs(op)
        vals = rng.standard_normal(op.n)
        w = coef * A._psi(vals[rows] - vals[cols], p, 0.0)
        # the extension's free set (strip pinned) and the implicit step's
        # (every node, the strip measures on the diagonal)
        for free, shift in ((op.interior_idx, 0.0), (np.arange(op.n), op.grid.mu)):
            diag, matvec = A.hessian_accumulate(rows, cols, coef, vals, p, 0.0, free,
                                                A.edge_matrix(edge_skeleton(op)))
            b = rng.standard_normal(free.shape[0])
            dense = A.laplacian_block(w, free, edge_skeleton(op))
            dense[np.diag_indices_from(dense)] += shift
            want = sla.cho_solve(sla.cho_factor(dense), b)
            x, iters = A.pcg(lambda x: matvec(x) + shift * x, diag + shift, b, 1e-14)
            assert 0 < iters <= free.shape[0]
            assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))


def test_pcg_signals_a_matrix_that_is_not_positive_definite(op2d):
    # coinciding interior values at p = 3: every deep interior node, all of
    # whose neighbours are interior, has an all-zero Hessian row
    rows, cols, coef = pairs(op2d)
    vals = np.zeros(op2d.n)
    vals[op2d.strip_idx] = np.random.default_rng(7).standard_normal(op2d.n_strip)
    diag, matvec = A.hessian_accumulate(rows, cols, coef, vals, 3.0, 0.0, op2d.interior_idx,
                                        A.edge_matrix(edge_skeleton(op2d)))
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


# the allocations below, in a process of their own: how glibc places a
# block depends on the heap that earlier work in the process left behind.
# hblkhd is glibc's count of the bytes in blocks mapped on their own
_MAPPED_SCRIPT = """
import ctypes
import numpy as np
import stripflow
class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in
                ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
                 "fsmblks", "uordblks", "fordblks", "keepcost")]
info = ctypes.CDLL(None).mallinfo2
info.restype = Mallinfo2
first = np.ones(2 << 20)
del first
before = info().hblkhd
second = np.ones(2 << 20)
print(info().hblkhd - before, second.nbytes)
before = info().hblkhd
small = np.ones(1 << 20)
print(info().hblkhd - before)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallinfo2")
                    or not os.confstr("CS_GNU_LIBC_VERSION"), reason="glibc 2.33+ only")
def test_edge_sized_blocks_stay_mapped_after_one_is_freed():
    # glibc's own rule would put the second 16 MiB block (the size of the
    # edge arrays at 2D h = 1/64) on the heap once the first is freed; with
    # the thresholds _accel fixes, every block over 12 MiB is mapped on its
    # own, and an 8 MiB one stays on the heap
    grown, nbytes, small_grown = map(int, fresh_python(["-c", _MAPPED_SCRIPT], 1).stdout.split())
    assert grown >= nbytes
    assert small_grown == 0


# every OpenBLAS the process has mapped, with the thread count its exported
# getter reports; read independently of _accel's own search
_BLAS_THREADS_SCRIPT = """
import ctypes, os, stripflow
libs = {ln.split(None, 5)[-1].strip() for ln in open("/proc/self/maps")}
for path in sorted(p for p in libs if "openblas" in os.path.basename(p).lower()):
    lib = ctypes.CDLL(path)
    names = [n + s for n in ("openblas_get_num_threads", "scipy_openblas_get_num_threads")
             for s in ("", "64_") if hasattr(lib, n + s)]
    print(path, ctypes.CFUNCTYPE(ctypes.c_int)((names[0], lib))() if names else "no-getter")
print(stripflow.backend())
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_import_pins_every_openblas_to_one_thread():
    # the environment asks for two threads; importing stripflow must leave
    # every loaded OpenBLAS (numpy's and scipy's) at one
    out = fresh_python(["-c", _BLAS_THREADS_SCRIPT], blas_threads=2).stdout.splitlines()
    *libs, backend = out
    if not libs:
        pytest.skip("no OpenBLAS loaded")
    assert [ln.rsplit(" ", 1)[1] for ln in libs] == ["1"] * len(libs), libs
    assert backend == f"numpy; OpenBLAS 1 thread ({len(libs)} of {len(libs)} libraries)"


# which of scipy's unused subpackages are loaded after the import, which
# after the first convolution, and the BLAS pin
_LAZY_SCIPY_SCRIPT = """
import sys
import numpy as np
import stripflow as sf
unused = ("scipy.integrate", "scipy.fft", "scipy.special")
print(repr([m for m in unused if m in sys.modules]))
grid = sf.build_grid(sf.DomainBox(2, (0.0, 0.0), (1.0, 1.0)), 1 / 16, 0.125)
op = sf.assemble(grid, sf.tent_kernel(0.25, 2))
sf.extend_linear(op, np.cos(np.arange(op.n_strip)))
print(repr([m for m in unused if m in sys.modules]))
print(sf.backend())
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_import_loads_no_scipy_integrate_or_fft():
    # about 21 MB of resident code that only picard_solve's quadrature would
    # use; the p = 2 convolutions run on numpy.fft, so the first one loads
    # neither scipy.fft nor the scipy.special it pulls in (4.6 MB of mapped
    # code), and the BLAS pin still holds after it
    loaded, convolved, backend = fresh_python(["-c", _LAZY_SCIPY_SCRIPT],
                                              blas_threads=2).stdout.splitlines()
    assert loaded == "[]"
    assert convolved == "[]"
    assert backend == "numpy; OpenBLAS 1 thread (2 of 2 libraries)"
