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


def assert_mirror_invariant(op):
    """Each mirror of an assembled operator's lattice under which mu and
    klass are invariant, odd node counts too, maps the edge list onto
    itself bit for bit."""
    index = np.arange(op.n).reshape(op.lattice)
    for axis in range(2):
        mirror = np.flip(index, axis).ravel()
        if not (np.array_equal(op.grid.mu[mirror], op.grid.mu)
                and np.array_equal(op.grid.klass[mirror], op.grid.klass)):
            continue
        key = mirror[op.act_rows] * op.n + mirror[op.act_cols]
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
