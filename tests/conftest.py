import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

import stripflow as sf
from stripflow.geometry import INTERIOR, STRIP, Grid
from stripflow.kernels import _operator_from_dense, laplacian_dense

BOX1 = sf.DomainBox(1, (0.0,), (1.0,))
BOX2 = sf.DomainBox(2, (0.0, 0.0), (1.0, 1.0))


def pytest_configure(config):
    # hypothesis writes a cache of the constants in the source files under its
    # home directory while pytest collects, example database or not; keep that
    # cache in pytest's own cache directory instead of a .hypothesis/ in the tree
    cache = getattr(config, "cache", None)
    if cache is not None:
        set_hypothesis_home_dir(cache.mkdir("hypothesis"))


def fresh_python(args, blas_threads):
    """Run `python args` in a new process that imports this stripflow, with
    OPENBLAS_NUM_THREADS set to blas_threads, or with no thread variable at
    all when it is None. Returns the finished process; stdout is captured."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    src = os.path.dirname(os.path.dirname(sf.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True, timeout=300)


def make_op(h, r, kernel, edge_mode=sf.EXCLUDE_STRIP_STRIP, dim=1,
            allow_empty=False):
    box = BOX1 if dim == 1 else BOX2
    grid = sf.build_grid(box, h, r, allow_empty_interior=allow_empty)
    return sf.assemble(grid, kernel, edge_mode)


def line_grid(klass, mu):
    """Cell-centred nodes on [0, 1] with the given classes and measures."""
    n = len(klass)
    x = (np.arange(n) + 0.5) / n
    return Grid(domain=BOX1, h=1.0 / n, r=2.0 / n, nodes=x[:, None],
                klass=np.array(klass, dtype=np.uint8), mu=np.asarray(mu, dtype=float),
                bdist=np.minimum(x, 1.0 - x), counts=(n,))


def nonuniform_line_op(edge_mode):
    """A 10-node line whose measures vary by a factor of 6 (every grid that
    build_grid makes has uniform measures)."""
    grid = line_grid([STRIP] * 3 + [INTERIOR] * 4 + [STRIP] * 3,
                     np.array([1.0, 2.0, 0.5, 3.0, 1.5, 1.0, 2.5, 0.75, 1.25, 0.5]) / 10.0)
    kernel = sf.tent_kernel(0.45, 1)
    jmat = kernel.cnorm * np.maximum(kernel.R - np.abs(grid.nodes - grid.nodes.T), 0.0)
    return _operator_from_dense(grid, kernel, jmat, edge_mode)


def schur_oracle(op):
    # the Schur complement by dense elimination of the assembled Laplacian
    lap = laplacian_dense(op)
    s, i = op.strip_idx, op.interior_idx
    return lap[np.ix_(s, s)] - lap[np.ix_(s, i)] @ np.linalg.solve(lap[np.ix_(i, i)],
                                                                   lap[np.ix_(i, s)])


def lattice_maps(op):
    """The node permutations of the axis mirrors and of the transpose that
    leave mu and klass unchanged, from the node coordinates alone: the
    mirrors of the axes with an even node count, in axis order, and the
    transpose (or None) when both mirrors are kept on a square."""
    grid = op.grid
    shape = op.lattice
    ij = np.rint((grid.nodes - np.asarray(grid.domain.lo)) / grid.h - 0.5).astype(int)
    if grid.dim == 1:
        ij = np.column_stack((np.zeros(grid.n, dtype=int), ij))

    def keeps(img):
        perm = np.ravel_multi_index(img.T, shape)
        ok = (np.array_equal(grid.mu[perm], grid.mu)
              and np.array_equal(grid.klass[perm], grid.klass))
        return perm if ok else None
    mirrors = []
    for axis in range(2):
        img = ij.copy()
        img[:, axis] = shape[axis] - 1 - img[:, axis]
        perm = keeps(img)
        if shape[axis] % 2 == 0 and perm is not None:
            mirrors.append((axis, perm))
    transpose = None
    if len(mirrors) == 2 and shape[0] == shape[1]:
        transpose = keeps(ij[:, ::-1])
    return ij, mirrors, transpose


def sector_basis(op):
    """Per block of schur_complement(op), in its order, a dense orthonormal
    n_S x m_j basis Q_j of strip vectors such that the block is Q_j^T S Q_j,
    built from the node coordinates, mu and klass alone. The kept mirrors
    (bit i of a character c is the i-th) fold each strip node x onto the
    representative a in the low corner of the lattice with the sign
    chi_c(k) = (-1)^popcount(c & k), k the mirrors taking a to x, and
    weight 1/sqrt(|K|); the columns follow the representatives' node
    order. With the transpose kept, the characters 0 and 3 split into
    (q_a + q_sa) / sqrt(2) over the pairs a < sa, then q_a on the
    diagonal, and (q_a - q_sa) / sqrt(2); the characters 1 and 2 share one
    block, that of 1. A fixture's one block is the identity."""
    if op.lattice is None:
        return [np.eye(op.n_strip)]
    ij, mirrors, transpose = lattice_maps(op)
    ij = ij[op.strip_idx]
    shape = np.array(op.lattice)
    rep = ij.copy()
    k = np.zeros(op.n_strip, dtype=int)
    for bit, (axis, _) in enumerate(mirrors):
        high = ij[:, axis] >= shape[axis] // 2
        rep[high, axis] = shape[axis] - 1 - rep[high, axis]
        k |= high << bit
    rep_node = np.ravel_multi_index(rep.T, op.lattice)
    reps, col = np.unique(rep_node, return_inverse=True)
    order = 1 << len(mirrors)

    def q(c):
        out = np.zeros((op.n_strip, reps.shape[0]))
        sign = np.array([(-1.0) ** bin(c & kk).count("1") for kk in k])
        out[np.arange(op.n_strip), col] = sign / np.sqrt(order)
        return out
    if transpose is None:
        return [q(c) for c in range(order)]
    r0, r1 = np.divmod(reps, op.lattice[1])
    partner = np.searchsorted(reps, r1 * op.lattice[1] + r0)
    pair = np.flatnonzero(r0 < r1)
    diag = np.flatnonzero(r0 == r1)
    out = []
    for c in (0, 1, 3):
        base = q(c)
        if c == 1:
            out.append(base)
            continue
        out.append(np.column_stack(((base[:, pair] + base[:, partner[pair]]) / np.sqrt(2.0),
                                    base[:, diag])))
        out.append((base[:, pair] - base[:, partner[pair]]) / np.sqrt(2.0))
    return out


def fold_strip(op, mat):
    """The blocks Q_j^T B Q_j of a dense n_S x n_S matrix B over the bases
    of sector_basis: in the order and the basis of schur_complement's
    blocks."""
    return [basis.T @ mat @ basis for basis in sector_basis(op)]


def assert_mirror_invariant(op):
    """Each mirror of an assembled operator's lattice under which mu and
    klass are invariant, odd node counts too, and the transpose of a square
    lattice under which they are, maps the edge list onto itself bit for
    bit."""
    index = np.arange(op.n).reshape(op.lattice)
    maps = [np.flip(index, axis).ravel() for axis in range(2)]
    if op.lattice[0] == op.lattice[1]:
        maps.append(index.T.ravel())
    for perm in maps:
        if not (np.array_equal(op.grid.mu[perm], op.grid.mu)
                and np.array_equal(op.grid.klass[perm], op.grid.klass)):
            continue
        key = perm[op.act_rows] * op.n + perm[op.act_cols]
        order = np.argsort(key)
        np.testing.assert_array_equal(key[order], op.act_rows * op.n + op.act_cols)
        np.testing.assert_array_equal(op.act_coef[order], op.act_coef)


def add_at_laplacian(rows, cols, w, n):
    # reference: the Laplacian of the weights w scattered into zeros
    out = np.zeros((n, n))
    flat = out.reshape(-1)
    np.add.at(flat, rows * n + rows, w)
    np.add.at(flat, rows * n + cols, -w)
    return out


@pytest.fixture(scope="session")
def toy3_op():
    return sf.toy3()


@pytest.fixture(scope="session")
def toy3_full_op():
    return sf.toy3(edge_mode=sf.FULL)


@pytest.fixture(scope="session")
def toy3_asym_op():
    return sf.toy3(w1=2.0, w2=1.0)


# small 1D workhorse: 16 nodes, 8 strip, 8 interior
@pytest.fixture(scope="session")
def op16():
    return make_op(1.0 / 16.0, 0.25, sf.tent_kernel(0.5, 1))


@pytest.fixture(scope="session")
def op16_full():
    return make_op(1.0 / 16.0, 0.25, sf.tent_kernel(0.5, 1), edge_mode=sf.FULL)


@pytest.fixture(scope="session")
def sing16():
    def build(p):
        return make_op(1.0 / 16.0, 0.25, sf.singular_kernel(0.5, p, 1))
    return build


# 2D: 8x8 nodes, boundary ring strip
@pytest.fixture(scope="session")
def op2d():
    return make_op(1.0 / 8.0, 0.125, sf.tent_kernel(0.25, 2), dim=2)


# acceptance-scale 1D grids, h = 1/64
@pytest.fixture(scope="session")
def op64():
    return make_op(1.0 / 64.0, 0.125, sf.tent_kernel(0.25, 1))


@pytest.fixture(scope="session")
def op64_full():
    return make_op(1.0 / 64.0, 0.125, sf.tent_kernel(0.25, 1), edge_mode=sf.FULL)


@pytest.fixture(scope="session")
def sing64():
    def build(p):
        return make_op(1.0 / 64.0, 0.125, sf.singular_kernel(0.5, p, 1))
    return build


@pytest.fixture(scope="session")
def op64_rr():
    return make_op(1.0 / 64.0, 0.25, sf.tent_kernel(0.25, 1))


def random_strip_field(op, rng, scale=1.0):
    return sf.StripField(scale * rng.standard_normal(op.n_strip), op.grid)
