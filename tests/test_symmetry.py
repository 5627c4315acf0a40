"""The symmetry blocks of the p = 2 dense work: which mirrors, and on a
square the swap of axes, an operator keeps, that an assembled operator
really is invariant under them, and that the block route gives what the
one-block route and the dense elimination oracle give."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import stripflow as sf
from stripflow import _accel, analysis, evolution, symmetry
from stripflow.elliptic import _interior
from stripflow.errors import InvalidArgument
from stripflow.evolution import _implicit_linear_values, _schur_flux
from stripflow.geometry import STRIP
from stripflow.kernels import NonlocalOperator, _operator_from_dense
from stripflow.symmetry import Sectors, _halves, sectors

from conftest import (BOX1, BOX2, assert_mirror_invariant, fold_strip, lattice_maps,
                      line_grid, make_op, nonuniform_line_op, schur_oracle, sector_basis)

EPS = np.finfo(float).eps
BOX_WIDE = sf.DomainBox(2, (0.0, 0.0), (1.5, 1.0))


def one_block(op):
    """The same edges with no lattice: G = {e}, one block each for the
    whole L_II, S and M + dt S, which is the dense route."""
    return NonlocalOperator(op.grid, op.spec, op.edge_mode, op.act_rows, op.act_cols,
                            op.act_coef)


def symmetric_mu_grid(grid, seed, transpose=False):
    """The grid with random measures made invariant under both mirrors, and
    under the transpose too if asked."""
    shape = (1,) + grid.counts if grid.dim == 1 else grid.counts
    mu = np.random.default_rng(seed).uniform(0.5, 2.0, shape)
    # sums of two, which commute exactly
    mu = mu + mu[::-1]
    mu = mu + mu[:, ::-1]
    if transpose:
        mu = mu + mu.T
    return replace(grid, mu=mu.ravel() * grid.h ** grid.dim)


def kernel(family, dim):
    if family == "tent":
        return sf.tent_kernel(0.25, dim)
    if family == "bump":
        return sf.bump_kernel(0.3, dim)
    return sf.singular_kernel(0.5, 2.0, dim)


# box, h, strip width, kernel family, edge mode, random measures (None,
# "mirror" or "dihedral"), |G|
CASES = [
    (BOX1, 1 / 32, 0.125, "tent", sf.EXCLUDE_STRIP_STRIP, None, 2),
    (BOX1, 1 / 32, 0.125, "bump", sf.FULL, None, 2),
    (BOX1, 1 / 30, 0.1, "singular", sf.EXCLUDE_STRIP_STRIP, "mirror", 2),
    (BOX1, 1 / 31, 0.125, "tent", sf.FULL, None, 1),
    (BOX2, 1 / 16, 0.125, "tent", sf.EXCLUDE_STRIP_STRIP, None, 8),
    (BOX2, 1 / 32, 0.125, "tent", sf.EXCLUDE_STRIP_STRIP, None, 8),
    (BOX2, 1 / 16, 0.125, "tent", sf.FULL, "mirror", 4),
    (BOX2, 1 / 16, 0.125, "bump", sf.FULL, "dihedral", 8),
    (BOX2, 1 / 20, 0.15, "bump", sf.EXCLUDE_STRIP_STRIP, "mirror", 4),
    (BOX2, 1 / 12, 0.25, "singular", sf.EXCLUDE_STRIP_STRIP, None, 8),
    (BOX2, 1 / 15, 0.2, "tent", sf.EXCLUDE_STRIP_STRIP, None, 1),
    # a 2 x 2 interior: one interior orbit, so its sigma-odd blocks are empty
    (BOX2, 1 / 6, 1 / 3, "tent", sf.EXCLUDE_STRIP_STRIP, None, 8),
    (BOX_WIDE, 1 / 16, 0.125, "tent", sf.FULL, None, 4),
    (BOX_WIDE, 1 / 10, 0.2, "bump", sf.EXCLUDE_STRIP_STRIP, "mirror", 2),
]
IDS = [f"{box.dim}d-{round(1 / h)}-{family}-{mode}-{rand or 'h'}"
       for box, h, _, family, mode, rand, _ in CASES]


@pytest.fixture(scope="module", params=CASES, ids=IDS)
def case(request):
    box, h, r, family, mode, rand, order = request.param
    grid = sf.build_grid(box, h, r)
    if rand:
        grid = symmetric_mu_grid(grid, 7, transpose=rand == "dihedral")
    op = sf.assemble(grid, kernel(family, box.dim), mode)
    assert sectors(op).order == order
    return op, one_block(op)


def test_assembled_operators_are_invariant_bit_for_bit(case):
    assert_mirror_invariant(case[0])


def test_orbits_cover_each_class_once(case):
    op, _ = case
    sec = sectors(op)
    mirrors = sec.signs.shape[0]
    for orbits, idx in ((sec.strip, op.strip_idx), (sec.interior, op.interior_idx)):
        assert orbits.table.shape == (mirrors, idx.shape[0] // mirrors)
        np.testing.assert_array_equal(np.sort(orbits.table.ravel()), np.arange(idx.shape[0]))
        np.testing.assert_array_equal(idx[orbits.table[0]], orbits.reps)
        # the measures are constant on every orbit, the sigma pairs' too
        mu = op.grid.mu[idx][orbits.table]
        assert np.all(mu == mu[0])
        np.testing.assert_array_equal(op.grid.mu[orbits.reps[orbits.pair]],
                                      op.grid.mu[orbits.reps[orbits.partner]])
        # the transpose is an involution, and the pairs and the diagonal
        # split the representatives
        np.testing.assert_array_equal(orbits.transpose[orbits.transpose],
                                      np.arange(idx.shape[0]))
        np.testing.assert_array_equal(
            np.sort(np.concatenate((orbits.pair, orbits.partner, orbits.diag))),
            np.arange(orbits.size))
        # the blocks, the shared one counted twice, hold every node once
        sizes = [rows.shape[0] for rows in sec.block_reps(orbits)]
        assert sum(m * sec.copies(blk) for m, blk in zip(sizes, sec.blocks)) == idx.shape[0]
    vals = np.random.default_rng(3).standard_normal(op.n_strip)
    np.testing.assert_allclose(sec.unfold(sec.fold(vals, sec.strip), sec.strip), vals,
                               rtol=0.0, atol=4 * EPS * np.abs(vals).max())


def loop_fold(sec, vals, orbits):
    """fold block by block, each sigma half from its character's row."""
    coef, half = sec.signs @ vals[orbits.table], np.sqrt(0.5)
    parts = []
    for blk in sec.blocks:
        row = coef[blk.char]
        if sec.copies(blk) == 2:
            parts.append(np.column_stack((row, coef[3 - blk.char][orbits.swap])))
        elif blk.parity:
            part = (row[orbits.pair] + blk.parity * row[orbits.partner]) * half
            parts.append(np.concatenate((part, row[orbits.diag])) if blk.parity > 0 else part)
        else:
            parts.append(row)
    return parts


def loop_unfold(sec, parts, orbits):
    """unfold block by block, each sigma half spread and summed onto zeros."""
    coef, n_pair = np.zeros((sec.signs.shape[0], orbits.size)), orbits.pair.shape[0]
    for part, blk in zip(parts, sec.blocks):
        if sec.copies(blk) == 2:
            coef[blk.char], coef[3 - blk.char] = part[:, 0], part[orbits.swap, 1]
        elif blk.parity:
            spread, half = np.zeros(orbits.size), part[:n_pair] * np.sqrt(0.5)
            spread[orbits.pair], spread[orbits.partner] = half, blk.parity * half
            spread[orbits.diag] = part[n_pair:] if blk.parity > 0 else 0.0
            coef[blk.char] += spread
        else:
            coef[blk.char] = part
    out = np.empty(orbits.table.size)
    out[orbits.table] = (sec.signs @ coef) / sec.signs.shape[0]
    return out


def test_fold_and_unfold_match_the_block_loop_bit_for_bit(case):
    # values over 24 decades, so that any other order of a sum shows, and
    # signed zeros, whose signs must come back as the block loop gives them
    op, _ = case
    sec, rng = sectors(op), np.random.default_rng(12)
    bits = lambda a: np.ascontiguousarray(a).view(np.int64)  # noqa: E731
    for orbits in (sec.strip, sec.interior):
        n = orbits.table.size
        for vals in (rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 12, n),
                     rng.choice([0.0, -0.0, 1.0], n)):
            parts, ref = sec.fold(vals, orbits), loop_fold(sec, vals, orbits)
            assert len(parts) == len(ref)
            assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(parts, ref))
            for new in ([a * 10.0 ** rng.uniform(-12, 12, a.shape) for a in ref],
                        [rng.choice([0.0, -0.0, 2.0], a.shape) for a in ref]):
                assert np.array_equal(bits(sec.unfold([a.copy() for a in new], orbits)),
                                      bits(loop_unfold(sec, new, orbits)))
        # three states stacked on a trailing axis unfold as each on its own
        states = [[a * 10.0 ** rng.uniform(-12, 12, a.shape) for a in ref] for _ in range(3)]
        stacked = sec.unfold([np.stack(col, axis=-1) for col in zip(*states)], orbits)
        for k, parts in enumerate(states):
            assert np.array_equal(bits(stacked[:, k]), bits(sec.unfold(parts, orbits)))


def csr_fold_rows(sec, block, row_orbits, col_orbits):
    """The fold of the sector blocks as it was made from a CSR block B with
    sorted columns, rows over the positions of row_orbits' class and
    columns over those of col_orbits' class: one bincount per character of
    B's stored entries at the representatives' rows, in the order of their
    positions."""
    rows = block[row_orbits.table[0]]
    m_r, m_c = row_orbits.size, col_orbits.size
    # per column position the representative b and the group element k of
    # its node k b
    slot, elem = (np.empty(col_orbits.table.size, dtype=int) for _ in range(2))
    slot[col_orbits.table] = np.arange(m_c)
    elem[col_orbits.table] = np.arange(col_orbits.table.shape[0])[:, None]
    col = slot[rows.indices]
    row = np.repeat(np.arange(m_r), np.diff(rows.indptr))
    flat = col * m_r + row
    if sec.split:
        by_rank = col_orbits.rank[col] * m_r + row
    elem = elem[rows.indices]
    for blk in sec.blocks:
        if blk.parity < 0:
            continue
        weights = sec.signs[blk.char][elem]
        weights *= rows.data
        out = np.bincount(by_rank if blk.parity else flat, weights=weights,
                          minlength=m_r * m_c)
        out = out.astype(float, copy=False).reshape(m_c, m_r).T
        yield from (_halves(out.T, row_orbits, col_orbits.pair.shape[0])
                    if blk.parity else (out,))


def csr_blocks(op):
    """The sector blocks of L_II, L_IS and L_SS by the cut they were made
    with: the CSR adjacency of the edges, its interior or strip rows, those
    rows' columns in each class, diag(row sums) - cut, then csr_fold_rows."""
    sec = sectors(op)
    adj = _accel.adjacency(_accel.skeleton(op.act_rows, op.act_cols, op.n), op.act_coef)
    rows = adj[op.interior_idx]
    l_is = rows[:, op.strip_idx]
    l_is.data *= -1.0
    l_ii = sp.diags(rows @ np.ones(op.n)) - rows[:, op.interior_idx]
    rows = adj[op.strip_idx]
    l_ss = sp.diags(rows @ np.ones(op.n)) - rows[:, op.strip_idx]
    return [list(csr_fold_rows(sec, l_ii, sec.interior, sec.interior)),
            list(csr_fold_rows(sec, l_is, sec.interior, sec.strip)),
            list(csr_fold_rows(sec, l_ss, sec.strip, sec.strip))]


def assert_folds_match_the_csr_cut(op):
    # the blocks read off the J table against the CSR cut, within 8 eps of
    # each block's largest entry: the fold sums at most |K| table entries
    # and the diagonal takes deg_active, whose sums the CSR rows take in
    # another order. Those of a class with itself are exactly symmetric,
    # and every block is Fortran-ordered for the in-place factors
    sec = sectors(op)
    folds = [list(sec.fold_laplacian(op, sec.interior, sec.interior)),
             list(sec.fold_laplacian(op, sec.interior, sec.strip)),
             list(sec.fold_laplacian(op, sec.strip, sec.strip))]
    for k, (got, want) in enumerate(zip(folds, csr_blocks(op), strict=True)):
        assert len(got) == len(want) == len(sec.blocks)
        for block, ref in zip(got, want):
            assert block.shape == ref.shape
            assert block.flags.f_contiguous and ref.flags.f_contiguous
            assert np.abs(block - ref).max(initial=0.0) <= 8 * EPS * np.abs(ref).max(initial=0.0)
            if k != 1:
                np.testing.assert_array_equal(block, block.T)


def test_folds_match_the_csr_cut(case):
    assert_folds_match_the_csr_cut(case[0])


@pytest.mark.parametrize("build", [
    sf.toy3,
    lambda: sf.toy3(w1=2.0, w2=1.0, edge_mode=sf.FULL),
    lambda: nonuniform_line_op(sf.FULL),
    lambda: nonuniform_line_op(sf.EXCLUDE_STRIP_STRIP),
    # r = R: 64 strip nodes of the square and 2 of the line have no edge
    lambda: make_op(1 / 16, 0.25, sf.tent_kernel(0.25, 2), dim=2),
    lambda: make_op(1 / 64, 0.25, sf.tent_kernel(0.25, 1)),
], ids=["toy3", "toy3-asym-full", "nonuniform-full", "nonuniform", "square-isolated",
        "line-isolated"])
def test_folds_match_the_csr_cut_on_fixtures_and_isolated_nodes(build):
    op = build()
    if op.lattice is not None:
        assert analysis.isolated_strip_nodes(op).shape[0] in (2, 64)
    assert_folds_match_the_csr_cut(op)


@pytest.mark.parametrize("mode", [sf.EXCLUDE_STRIP_STRIP, sf.FULL])
@pytest.mark.parametrize("family", ["tent", "singular"])
def test_folds_match_the_csr_cut_on_a_random_lattice(family, mode):
    # the lattice of test_assembly_takes_a_lattice_with_any_measures_and_classes:
    # random measures and strip nodes scattered at random keep no mirror,
    # and each class's representatives are many short runs, not a few
    # rectangles
    grid = sf.build_grid(BOX2, 1.0 / 16.0, 0.125)
    rng = np.random.default_rng(5)
    grid = replace(grid, mu=rng.uniform(0.5, 2.0, grid.n) * grid.mu,
                   klass=rng.integers(0, 2, grid.n).astype(np.uint8))
    op = sf.assemble(grid, sf.tent_kernel(0.3, 2) if family == "tent" else kernel(family, 2),
                     mode)
    sec = sectors(op)
    assert sec.order == 1 and min(len(sec.strip.rects), len(sec.interior.rects)) > 50
    assert_folds_match_the_csr_cut(op)


def test_schur_blocks_match_the_oracle_and_the_one_block_route(case):
    op, dense = case
    oracle = schur_oracle(op)
    scale = np.abs(oracle).max()
    (whole,) = sf.schur_complement(dense)
    np.testing.assert_array_equal(whole, whole.T)
    blocks = sf.schur_complement(op)
    for block, want, ref in zip(blocks, fold_strip(op, oracle), fold_strip(op, whole),
                                strict=True):
        assert np.abs(block - want).max() <= 1e-14 * scale
        assert np.abs(block - ref).max() <= 1e-14 * scale
        np.testing.assert_array_equal(block, block.T)


def test_gap_matches_the_one_block_route(case):
    op, dense = case
    tol = analysis._eig_tol(op)
    res, ref = sf.spectral_gap_beta(op), sf.spectral_gap_beta(dense)
    assert abs(res.beta - ref.beta) <= tol
    mu_s = op.grid.mu[op.strip_idx]
    m = res.mode.values
    resid = schur_oracle(op) @ m - res.beta * mu_s * m
    assert np.max(np.abs(resid)) <= tol * np.max(mu_s) * np.max(np.abs(m))
    assert abs(np.dot(mu_s, m)) <= op.n_strip * EPS
    assert abs(np.dot(mu_s, m * m) - 1.0) <= op.n_strip * EPS
    # the whole spectrum too, as the eigenmode initial data reads it
    lam, modes = analysis._reduced_modes(op)
    lam_ref = analysis._reduced_modes(dense)[0]
    assert np.abs(lam - lam_ref).max() <= tol
    # eigh's eigenvectors of close eigenvalues are orthogonal to O(n eps /
    # relative gap): about 1e-13 here on either route
    np.testing.assert_allclose(modes.T @ (mu_s[:, None] * modes), np.eye(lam.shape[0]),
                               rtol=0.0, atol=1e-12)


def test_extension_and_trajectories_match_the_one_block_route(case):
    op, dense = case
    rng = np.random.default_rng(5)
    g = sf.StripField(rng.uniform(-2.0, 2.0, op.n_strip), op.grid)
    ext, ext_ref = sf.extend_linear(op, g)[0].values, sf.extend_linear(dense, g)[0].values
    assert np.abs(ext - ext_ref).max() <= 1e-13 * (1.0 + np.abs(g.values).max())
    spec = sf.ProblemSpec("linear" if op.edge_mode == sf.EXCLUDE_STRIP_STRIP else "linear-full",
                          p=2.0)
    if op.spec.family == sf.SINGULAR:
        spec = sf.ProblemSpec("singular", p=2.0)
    dt = 0.5 * sf.stability_bound(op)
    # the flux and one implicit step, each on its own
    flux, flux_ref = _schur_flux(op, g.values), _schur_flux(dense, g.values)
    assert np.abs(flux - flux_ref).max() <= 1e-13 * np.abs(flux_ref).max()
    one, one_ref = (_implicit_linear_values(o, 20.0 * dt, g.values) for o in (op, dense))
    assert np.abs(one - one_ref).max() <= 1e-13 * np.abs(one_ref).max()
    for integrator, step in ((sf.EXPLICIT, dt), (sf.IMPLICIT, 20.0 * dt)):
        traj = sf.evolve(op, spec, g, 10 * step, step, integrator)
        ref = sf.evolve(dense, spec, g, 10 * step, step, integrator)
        scale = np.abs(ref.states).max()
        assert np.abs(traj.states - ref.states).max() <= 1e-13 * scale
        # mass, the distances and the energy
        diag_scale = np.abs(ref.diag).max(axis=0)
        assert np.all(np.abs(traj.diag - ref.diag).max(axis=0) <= 1e-13 * diag_scale)
        c = sf.StripField(np.full(op.n_strip, -1.75), op.grid)
        const = sf.evolve(op, spec, c, 2 * step, step, integrator)
        np.testing.assert_array_equal(const.states, np.full_like(const.states, -1.75))
        assert np.all(const.diag[:, 6] == 0.0)


# the march against the per-step route: the square split by sigma in both
# edge modes, a fixture with G = {e}, a line with one mirror and a wide box
# with two mirrors and no sigma
MARCH_CASES = {
    "2d-16-exclude": (lambda: make_op(1 / 16, 0.125, sf.tent_kernel(0.25, 2), dim=2), 8),
    "2d-16-full": (lambda: make_op(1 / 16, 0.125, sf.tent_kernel(0.25, 2), sf.FULL, 2), 8),
    "toy3": (sf.toy3, 1),
    "1d-32": (lambda: make_op(1 / 32, 0.125, sf.tent_kernel(0.25, 1)), 2),
    "wide-16": (lambda: sf.assemble(sf.build_grid(BOX_WIDE, 1 / 16, 0.125),
                                    sf.tent_kernel(0.25, 2), sf.FULL), 4),
}


@pytest.mark.parametrize("name", MARCH_CASES)
def test_march_matches_the_per_step_route(name):
    # evolve folds u0 once and steps every state in the sector basis; the
    # per-step route folds, steps and unfolds each state on its own
    # (step_explicit and step_implicit, the flux from rhs)
    build, order = MARCH_CASES[name]
    op = build()
    assert sectors(op).order == order
    spec = sf.ProblemSpec("linear" if op.edge_mode == sf.EXCLUDE_STRIP_STRIP else "linear-full")
    u0 = np.random.default_rng(31).standard_normal(op.n_strip) + 2.0
    bound, steps = sf.stability_bound(op), 12
    for integrator, dt in ((sf.EXPLICIT, 0.4 * bound), (sf.IMPLICIT, 5.0 * bound)):
        traj = sf.evolve(op, spec, u0, steps * dt, dt, integrator)
        step = sf.step_explicit if integrator == sf.EXPLICIT else sf.step_implicit
        u, states, diag = sf.StripField(u0, op.grid), [], []
        for _ in range(steps + 1):
            states.append(u.values)
            diag.append(evolution._diag_row(op, spec, u.values, sf.rhs(op, spec, u).values))
            u = step(op, spec, u, dt)
        states, diag = np.array(states), np.array(diag)
        assert np.abs(traj.states - states).max() <= 1e-13 * np.abs(states).max()
        assert np.all(np.abs(traj.diag - diag).max(axis=0) <= 1e-13 * np.abs(diag).max(axis=0))


class _Products(np.ndarray):
    """An S_j that records the shape of the rows it multiplies."""

    shapes = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            assert inputs[1] is self
            self.shapes.append(inputs[0].shape)
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


def test_gap_mode_evolve_steps_only_its_block_column(monkeypatch):
    # the gap mode is one column of the shared block (the sector odd under
    # the first mirror and even under the second), with midrange 0: the
    # march steps that column alone. An explicit run multiplies it by S_j
    # once per state, each step's product giving that state's flux; an
    # implicit run solves with M_j + dt S_j once per step, factors that
    # block alone and takes every state's flux in one product
    op = make_op(1 / 16, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    sec = sectors(op)
    gap = sf.spectral_gap_beta(op)
    march, shift = evolution._march(op, gap.mode.values, 0)
    assert shift == 0.0
    (j, (cols, _)), = march.live.items()
    assert sec.copies(sec.blocks[j]) == 2 and cols.tolist() == [0]
    m = sec.strip.size
    blocks = tuple(block.view(_Products) for block in sf.schur_complement(op))
    monkeypatch.setattr(evolution, "schur_complement", lambda op: blocks)
    monkeypatch.setattr(_Products, "shapes", [])
    solves = []
    real = sla.cho_solve

    def solving(factor, rhs, **kwargs):
        solves.append(rhs.shape)
        return real(factor, rhs, **kwargs)
    monkeypatch.setattr(sla, "cho_solve", solving)
    dt, steps = 0.4 * sf.stability_bound(op), 6
    lin = sf.ProblemSpec("linear")
    explicit = sf.evolve(op, lin, gap.mode, steps * dt, dt, sf.EXPLICIT)
    assert _Products.shapes == [(1, m)] * (steps + 1) and solves == []
    _Products.shapes.clear()
    implicit = sf.evolve(op, lin, gap.mode, steps * dt, dt, sf.IMPLICIT)
    assert _Products.shapes == [(steps + 1, m)] and solves == [(m, 1)] * steps
    assert [f is not None for f in op._cache["implicit_chol"][1]] == [
        k == j for k in range(len(sec.blocks))]
    # and the mode decays by each integrator's factor at beta
    for traj, factor in ((explicit, 1.0 - dt * gap.beta), (implicit, 1.0 / (1.0 + dt * gap.beta))):
        want = factor ** np.arange(steps + 1)[:, None] * gap.mode.values
        assert np.abs(traj.states - want).max() <= 1e-12


def test_p2_evolve_holds_few_state_stacks():
    # with S and the implicit factors cached, a 40-step p = 2 evolve at
    # h = 1/64 allocates, beyond the trajectory it returns, the march's live
    # columns, their fluxes' coefficients (an explicit run's steps make
    # them), the fluxes and the unfold's temporaries, _UNFOLD_STATES states
    # at a time: with every column live (random data) at most 4 stacks of
    # its 41 states (3.4 measured), with the gap mode's one column of 4 at
    # most 2.5 (1.9). Holding the dead columns as well takes the gap mode
    # to 3.5, and unfolding every state at once takes the two to 6.9 and 5.3
    op = make_op(1 / 64, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    dt, steps = 0.4 * sf.stability_bound(op), 40
    lin = sf.ProblemSpec("linear")
    stack = (steps + 1) * op.n_strip * np.dtype(float).itemsize
    cases = ((np.random.default_rng(8).standard_normal(op.n_strip), 4.0),
             (sf.spectral_gap_beta(op).mode.values, 2.5))
    for u0, bound in cases:
        for integrator in (sf.EXPLICIT, sf.IMPLICIT):
            sf.evolve(op, lin, u0, dt, dt, integrator)
            tracemalloc.start()
            try:
                traj = sf.evolve(op, lin, u0, steps * dt, dt, integrator)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert traj.states.nbytes == stack and held <= 1.1 * stack
            assert peak - held <= bound * stack


def test_asymmetric_measures_or_classes_keep_one_sector():
    grid = sf.build_grid(BOX2, 1 / 8, 0.125)
    mu = grid.mu.copy()
    mu[0] *= 1.5
    assert sectors(sf.assemble(replace(grid, mu=mu), sf.tent_kernel(0.25, 2))).order == 1
    # one strip node moved into the interior breaks both mirrors
    klass = grid.klass.copy()
    klass[0] = 1 - STRIP
    assert sectors(sf.assemble(replace(grid, klass=klass), sf.tent_kernel(0.25, 2))).order == 1
    # measures symmetric in one axis only keep that axis's mirror
    mu = np.tile(np.arange(1.0, 9.0), (8, 1)).ravel() / 64.0
    assert sectors(sf.assemble(replace(grid, mu=mu), sf.tent_kernel(0.25, 2))).order == 2


def test_the_transpose_is_kept_only_on_a_symmetric_square():
    spec = sf.tent_kernel(0.25, 2)
    grid = sf.build_grid(BOX2, 1 / 8, 0.125)
    assert sectors(sf.assemble(grid, spec)).order == 8
    # a rectangle keeps its two mirrors
    wide = sf.assemble(sf.build_grid(BOX_WIDE, 1 / 16, 0.125), spec)
    sec = sectors(wide)
    assert sec.order == 4 and len(sec.blocks) == 4
    assert all(blk.parity == 0 and sec.copies(blk) == 1 for blk in sec.blocks)
    # measures invariant under both mirrors but not under the transpose
    mirrored = symmetric_mu_grid(grid, 7)
    assert not np.array_equal(mirrored.mu.reshape(8, 8), mirrored.mu.reshape(8, 8).T)
    assert sectors(sf.assemble(mirrored, spec)).order == 4
    assert sectors(sf.assemble(symmetric_mu_grid(grid, 7, transpose=True), spec)).order == 8
    # classes invariant under both mirrors but not under the transpose:
    # the node (1, 2) and its mirror images join the strip, (2, 1) does not
    klass = grid.klass.reshape(8, 8).copy()
    klass[[1, 1, 6, 6], [2, 5, 2, 5]] = STRIP
    assert sectors(sf.assemble(replace(grid, klass=klass.ravel()), spec)).order == 4
    # a line has one axis to mirror, and nothing to swap it with
    line = make_op(1 / 16, 0.25, sf.tent_kernel(0.5, 1))
    assert sectors(line).order == 2 and len(sectors(line).blocks) == 2


def test_operators_not_assembled_keep_one_sector(toy3_op):
    assert sectors(toy3_op).order == 1
    assert sectors(nonuniform_line_op(sf.FULL)).order == 1
    # the lattice of build_grid, but built from the dense kernel matrix
    grid = line_grid([STRIP] * 2 + [1 - STRIP] * 4 + [STRIP] * 2, np.full(8, 0.125))
    spec = sf.tent_kernel(0.3, 1)
    jmat = spec.cnorm * np.maximum(spec.R - np.abs(grid.nodes - grid.nodes.T), 0.0)
    assert sectors(_operator_from_dense(grid, spec, jmat, sf.FULL)).order == 1
    assert sectors(sf.assemble(grid, spec, sf.FULL)).order == 2


def test_mirrors_are_decided_in_assemble():
    # assembly sums the measures against the J table over the
    # representatives' rectangles, so it works out the sectors and the
    # table; the two folds then read the blocks off that table
    op = make_op(1 / 16, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    assert op._cache["sectors"].order == 8
    assert set(op._cache) == {"sectors", "table"}
    sf.schur_complement(op)
    assert set(op._cache) == {"sectors", "table", "interior", "schur"}


def test_eigensolve_cap_applies_to_the_largest_block(op2d, monkeypatch):
    # op2d has 28 strip nodes: the shared block of 7 and blocks of 4, 3, 4, 3
    assert [rows.shape[0] for rows in sectors(op2d).block_reps(sectors(op2d).strip)] == [
        4, 3, 7, 4, 3]
    monkeypatch.setattr(analysis, "_EIG_NODE_CAP", 7)
    beta = sf.spectral_gap_beta(op2d).beta
    with pytest.raises(InvalidArgument, match="per sector block"):
        sf.spectral_gap_beta(one_block(op2d))
    monkeypatch.setattr(analysis, "_EIG_NODE_CAP", 6)
    with pytest.raises(InvalidArgument, match="per sector block"):
        sf.spectral_gap_beta(op2d)
    monkeypatch.setattr(analysis, "_EIG_NODE_CAP", 28)
    assert abs(sf.spectral_gap_beta(one_block(op2d)).beta - beta) <= analysis._eig_tol(op2d)


def _strip_maps(op):
    """The kept mirrors and the transpose as permutations of strip positions."""
    _, mirrors, transpose = lattice_maps(op)
    pos = np.full(op.n, -1)
    pos[op.strip_idx] = np.arange(op.n_strip)
    return [pos[perm[op.strip_idx]] for _, perm in mirrors], pos[transpose[op.strip_idx]]


def test_a_double_gap_is_the_shared_block_and_takes_its_mode_from_the_first_sector():
    # on the square, beta is double: the block that the two mirror-odd
    # sectors exchanged by the swap of axes share holds it, and the mode
    # comes from the first sector, the one odd under the first mirror
    op = make_op(1 / 16, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    sec = sectors(op)
    tol = analysis._eig_tol(op)
    lows = [sla.eigh(block / np.sqrt(np.outer(op.grid.mu[reps], op.grid.mu[reps])),
                     eigvals_only=True, subset_by_index=[0, 0])[0]
            for block, reps in zip(sf.schur_complement(op), sec.block_reps(sec.strip))]
    shared = [j for j, blk in enumerate(sec.blocks) if sec.copies(blk) == 2]
    assert shared == [2]
    beta = sf.spectral_gap_beta(op)
    assert abs(beta.beta - lows[2]) <= tol
    assert all(low > beta.beta + tol for j, low in enumerate(lows) if j not in (0, 2))
    mirrors, transpose = _strip_maps(op)
    mode = beta.mode.values
    # odd under the first mirror, even under the second
    np.testing.assert_allclose(mode[mirrors[0]], -mode, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(mode[mirrors[1]], mode, rtol=0.0, atol=1e-12)
    # the second eigenpair is the same value, its mode the transpose of the first
    lam, modes = analysis._reduced_modes(op, subset=[0, 1])
    assert lam[0] == lam[1] == beta.beta
    np.testing.assert_array_equal(modes[:, 1], modes[transpose, 0])


@pytest.mark.parametrize("h", [1 / 16, 1 / 32])
def test_block_spectra_make_up_the_oracle_spectrum(h):
    op = make_op(h, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    sec = sectors(op)
    tol = analysis._eig_tol(op)
    root = np.sqrt(op.grid.mu[op.strip_idx])
    want = np.linalg.eigvalsh(schur_oracle(op) / np.outer(root, root))
    got = []
    for block, reps, blk in zip(sf.schur_complement(op), sec.block_reps(sec.strip),
                                sec.blocks):
        vals = np.linalg.eigvalsh(block / np.sqrt(np.outer(op.grid.mu[reps],
                                                           op.grid.mu[reps])))
        got += [vals] * sec.copies(blk)
    assert np.abs(np.sort(np.concatenate(got)) - want).max() <= tol
    # n_S - 1 M-orthonormal mean-zero modes, the constant's eigenvalue 0 left out
    lam, modes = analysis._reduced_modes(op)
    mu_s = op.grid.mu[op.strip_idx]
    assert lam.shape == (op.n_strip - 1,) and modes.shape == (op.n_strip, op.n_strip - 1)
    assert np.abs(lam - want[1:]).max() <= tol
    np.testing.assert_allclose(modes.T @ (mu_s[:, None] * modes), np.eye(op.n_strip - 1),
                               rtol=0.0, atol=1e-12)
    assert np.abs(mu_s @ modes).max() <= op.n_strip * EPS
    # each mode of the sector odd under the first mirror and even under the
    # second has its transpose, bit for bit, among the modes
    mirrors, transpose = _strip_maps(op)
    first = [i for i in range(lam.shape[0])
             if np.abs(modes[mirrors[0], i] + modes[:, i]).max() <= 1e-9
             and np.abs(modes[mirrors[1], i] - modes[:, i]).max() <= 1e-9]
    assert len(first) == sec.strip.size
    columns = {modes[:, i].tobytes() for i in range(lam.shape[0])}
    assert all(modes[transpose, i].tobytes() in columns for i in first)


def test_trivial_block_deflates_the_folded_constants():
    # on the square the constants' coefficients in the trivial block are
    # sqrt(2) times larger on a sigma pair than on the diagonal; deflating
    # sqrt(mu) alone gave 0.0112158 for that block's smallest value at
    # h = 1/64 instead of the 0.0112199 its fully symmetric mode has
    op = make_op(1 / 16, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    sec = sectors(op)
    const = sector_basis(op)[0].T @ np.ones(op.n_strip)
    n_pair = sec.strip.pair.shape[0]
    np.testing.assert_allclose(const[:n_pair], np.sqrt(8.0), rtol=1e-15)
    np.testing.assert_allclose(const[n_pair:], 2.0, rtol=1e-15)
    trivial = sf.schur_complement(op)[0]
    assert np.abs(trivial @ const).max() <= 1e-14 * np.abs(trivial).max()

    op = make_op(1 / 64, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    lam, modes = analysis._reduced_modes(op, subset=[0, 5])
    mirrors, transpose = _strip_maps(op)
    symmetric = [i for i in range(lam.shape[0])
                 if all(np.abs(modes[perm, i] - modes[:, i]).max() <= 1e-9
                        for perm in mirrors + [transpose])]
    assert abs(lam[symmetric[0]] - 0.011219855066526) <= analysis._eig_tol(op)


def test_every_p2_block_product_and_solve_passes_one_seam(monkeypatch):
    # with S, the interior factors and the constants' coefficients cached,
    # every p = 2 block solve and product is a march (Sectors.march): the
    # extension folds once and unfolds its one solved state, a lone
    # implicit step unfolds its stepped state and folds it again for its
    # flux, and an evolve of either integrator folds its first state once
    # and no step folds or unfolds: its states and then their fluxes are
    # unfolded, _UNFOLD_STATES states per unfold. The blocks are solved
    # with cho_solve alone: solve_triangular only forms S. A p < 2
    # extension folds nothing
    op = make_op(1 / 16, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    assert sectors(op).split
    sf.schur_complement(op)
    assert sectors(op).constants.shape == (sf.schur_complement(op)[0].shape[0],)
    calls = {"fold": 0, "unfold": 0, "unfolded": 0}

    def folding(self, *args, real=Sectors.fold):
        calls["fold"] += 1
        return real(self, *args)

    def unfolding(self, parts, orbits, real=Sectors.unfold):
        # the block first in order is never the shared one: (m_0, states)
        calls["unfold"] += 1
        calls["unfolded"] += parts[0].shape[1]
        return real(self, parts, orbits)
    monkeypatch.setattr(Sectors, "fold", folding)
    monkeypatch.setattr(Sectors, "unfold", unfolding)

    def refuse(*args, **kwargs):
        raise AssertionError("the p = 2 blocks are solved with cho_solve alone")
    monkeypatch.setattr(sla, "solve_triangular", refuse)
    g = np.random.default_rng(12).standard_normal(op.n_strip)
    sf.extend_linear(op, g)
    assert calls == {"fold": 1, "unfold": 1, "unfolded": 1}
    dt, per = 0.5 * sf.stability_bound(op), symmetry._UNFOLD_STATES
    calls.update(fold=0, unfold=0, unfolded=0)
    sf.step_implicit(op, sf.ProblemSpec("linear"), g, dt)
    assert calls == {"fold": 2, "unfold": 2, "unfolded": 2}
    for integrator in (sf.EXPLICIT, sf.IMPLICIT):
        for steps in (1, per - 1, 3 * per):
            calls.update(fold=0, unfold=0, unfolded=0)
            sf.evolve(op, sf.ProblemSpec("linear"), g, steps * dt, dt, integrator)
            assert calls == {"fold": 1, "unfold": 2 * -(-(steps + 1) // per),
                             "unfolded": 2 * (steps + 1)}
    calls.update(fold=0, unfold=0, unfolded=0)
    sf.extend_plaplace(op, g, 1.5)
    assert calls == {"fold": 0, "unfold": 0, "unfolded": 0}


@pytest.mark.parametrize("mode", [sf.EXCLUDE_STRIP_STRIP, sf.FULL])
def test_schur_build_holds_few_copies_of_a_fold(mode):
    # with the interior factors cached, what the Schur build allocates
    # beyond the blocks it keeps is at most 3 times one character's fold of
    # L_IS (576 x 448 at h = 1/64): the fold, its rows written in sigma
    # order, and the halves and S_j built from them, each block dropped by
    # fold_laplacian once yielded. A fold reordered on both sides, a dense
    # zero L_SS in exclude mode and yielded blocks kept until the next one
    # took 4.4 times, a reordered copy of the rows 1.6; it is 1.4 to 1.5
    op = make_op(1 / 64, 0.125, sf.tent_kernel(0.25, 2), mode, dim=2)
    sec = sectors(op)
    assert (sec.interior.size, sec.strip.size) == (576, 448)
    _interior(op)
    tracemalloc.start()
    try:
        sf.schur_complement(op)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held <= 3 * 576 * 448 * np.dtype(float).itemsize


def test_interior_factorisation_makes_no_reordered_copy_of_a_fold():
    # what the interior factorisation at h = 1/64 allocates beyond the
    # factors it keeps is at most 1.4 times one character's fold of L_II
    # (576 x 576): _table_fold writes a sigma-split fold's rows in pair,
    # partner, diag order (1.29 times). Reordering a copy of them took 1.51
    op = make_op(1 / 64, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    assert sectors(op).interior.size == 576
    tracemalloc.start()
    try:
        _interior(op)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held <= 1.4 * 576 * 576 * np.dtype(float).itemsize
