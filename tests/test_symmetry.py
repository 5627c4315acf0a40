"""The mirror sectors of the p = 2 dense work: which mirrors an operator
keeps, that an assembled operator really is invariant under them, and that
the sector route gives what the one-block route and the dense elimination
oracle give."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

import stripflow as sf
from stripflow import analysis
from stripflow.errors import InvalidArgument
from stripflow.geometry import STRIP
from stripflow.kernels import NonlocalOperator, _operator_from_dense
from stripflow.symmetry import sectors

from conftest import (BOX1, BOX2, assert_mirror_invariant, line_grid, make_op,
                      nonuniform_line_op, schur_oracle)

EPS = np.finfo(float).eps
BOX_WIDE = sf.DomainBox(2, (0.0, 0.0), (1.5, 1.0))


def one_block(op):
    """The same edges with no lattice: G = {e}, one sector whose blocks are
    the whole L_II, S and M + dt S, which is the dense route."""
    return NonlocalOperator(op.grid, op.spec, op.edge_mode, op.act_rows, op.act_cols,
                            op.act_coef)


def symmetric_mu_grid(grid, seed):
    """The grid with random measures made invariant under both mirrors."""
    shape = (1,) + grid.counts if grid.dim == 1 else grid.counts
    mu = np.random.default_rng(seed).uniform(0.5, 2.0, shape)
    # sums of two, which commute exactly
    mu = mu + mu[::-1]
    mu = mu + mu[:, ::-1]
    return replace(grid, mu=mu.ravel() * grid.h ** grid.dim)


def kernel(family, dim):
    if family == "tent":
        return sf.tent_kernel(0.25, dim)
    if family == "bump":
        return sf.bump_kernel(0.3, dim)
    return sf.singular_kernel(0.5, 2.0, dim)


# box, h, strip width, kernel family, edge mode, random measures, |G|
CASES = [
    (BOX1, 1 / 32, 0.125, "tent", sf.EXCLUDE_STRIP_STRIP, False, 2),
    (BOX1, 1 / 32, 0.125, "bump", sf.FULL, False, 2),
    (BOX1, 1 / 30, 0.1, "singular", sf.EXCLUDE_STRIP_STRIP, True, 2),
    (BOX1, 1 / 31, 0.125, "tent", sf.FULL, False, 1),
    (BOX2, 1 / 16, 0.125, "tent", sf.EXCLUDE_STRIP_STRIP, False, 4),
    (BOX2, 1 / 16, 0.125, "tent", sf.FULL, True, 4),
    (BOX2, 1 / 20, 0.15, "bump", sf.EXCLUDE_STRIP_STRIP, True, 4),
    (BOX2, 1 / 12, 0.25, "singular", sf.EXCLUDE_STRIP_STRIP, False, 4),
    (BOX2, 1 / 15, 0.2, "tent", sf.EXCLUDE_STRIP_STRIP, False, 1),
    (BOX_WIDE, 1 / 16, 0.125, "tent", sf.FULL, False, 4),
    (BOX_WIDE, 1 / 10, 0.2, "bump", sf.EXCLUDE_STRIP_STRIP, True, 2),
]
IDS = [f"{box.dim}d-{round(1 / h)}-{family}-{mode}-{'mu' if rand else 'h'}"
       for box, h, _, family, mode, rand, _ in CASES]


@pytest.fixture(scope="module", params=CASES, ids=IDS)
def case(request):
    box, h, r, family, mode, rand, count = request.param
    grid = sf.build_grid(box, h, r)
    if rand:
        grid = symmetric_mu_grid(grid, 7)
    op = sf.assemble(grid, kernel(family, box.dim), mode)
    assert sectors(op).count == count
    return op, one_block(op)


def test_assembled_operators_are_invariant_bit_for_bit(case):
    assert_mirror_invariant(case[0])


def test_orbits_cover_each_class_once(case):
    op, _ = case
    sec = sectors(op)
    for orbits, idx in ((sec.strip, op.strip_idx), (sec.interior, op.interior_idx)):
        assert orbits.table.shape == (sec.count, idx.shape[0] // sec.count)
        np.testing.assert_array_equal(np.sort(orbits.table.ravel()), np.arange(idx.shape[0]))
        np.testing.assert_array_equal(idx[orbits.table[0]], orbits.reps)
        # the measures are constant on every orbit
        mu = op.grid.mu[idx][orbits.table]
        assert np.all(mu == mu[0])
    vals = np.random.default_rng(3).standard_normal(op.n_strip)
    np.testing.assert_allclose(sec.unfold(sec.fold(vals, sec.strip), sec.strip), vals,
                               rtol=0.0, atol=4 * EPS * np.abs(vals).max())


def test_schur_blocks_match_the_oracle_and_the_one_block_route(case):
    op, dense = case
    s = sf.schur_complement(op)
    scale = np.abs(s).max()
    assert np.abs(s - schur_oracle(op)).max() <= 1e-14 * scale
    assert np.abs(s - sf.schur_complement(dense)).max() <= 1e-14 * scale
    np.testing.assert_array_equal(s, s.T)
    for block in sf.schur_complement(op, blocks=True):
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
    ext, ext_ref = sf.extend_linear(op, g).values, sf.extend_linear(dense, g).values
    assert np.abs(ext - ext_ref).max() <= 1e-13 * (1.0 + np.abs(g.values).max())
    spec = sf.ProblemSpec("linear" if op.edge_mode == sf.EXCLUDE_STRIP_STRIP else "linear-full",
                          p=2.0)
    if op.spec.family == sf.SINGULAR:
        spec = sf.ProblemSpec("singular", p=2.0)
    dt = 0.5 * sf.stability_bound(op)
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


def test_asymmetric_measures_or_classes_keep_one_sector():
    grid = sf.build_grid(BOX2, 1 / 8, 0.125)
    mu = grid.mu.copy()
    mu[0] *= 1.5
    assert sectors(sf.assemble(replace(grid, mu=mu), sf.tent_kernel(0.25, 2))).count == 1
    # one strip node moved into the interior breaks both mirrors
    klass = grid.klass.copy()
    klass[0] = 1 - STRIP
    assert sectors(sf.assemble(replace(grid, klass=klass), sf.tent_kernel(0.25, 2))).count == 1
    # measures symmetric in one axis only keep that axis's mirror
    mu = np.tile(np.arange(1.0, 9.0), (8, 1)).ravel() / 64.0
    assert sectors(sf.assemble(replace(grid, mu=mu), sf.tent_kernel(0.25, 2))).count == 2


def test_operators_not_assembled_keep_one_sector(toy3_op):
    assert sectors(toy3_op).count == 1
    assert sectors(nonuniform_line_op(sf.FULL)).count == 1
    # the lattice of build_grid, but built from the dense kernel matrix
    grid = line_grid([STRIP] * 2 + [1 - STRIP] * 4 + [STRIP] * 2, np.full(8, 0.125))
    spec = sf.tent_kernel(0.3, 1)
    jmat = spec.cnorm * np.maximum(spec.R - np.abs(grid.nodes - grid.nodes.T), 0.0)
    assert sectors(_operator_from_dense(grid, spec, jmat, sf.FULL)).count == 1
    assert sectors(sf.assemble(grid, spec, sf.FULL)).count == 2


def test_mirrors_are_decided_on_first_p2_use_not_in_assemble():
    op = make_op(1 / 16, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    assert "sectors" not in op._cache
    sf.extend_linear(op, np.zeros(op.n_strip))
    assert sectors(op).count == 4


def test_eigensolve_cap_applies_to_the_largest_block(op2d, monkeypatch):
    # op2d has 28 strip nodes in four sectors of 7
    monkeypatch.setattr(analysis, "_EIG_NODE_CAP", 7)
    beta = sf.spectral_gap_beta(op2d).beta
    with pytest.raises(InvalidArgument, match="per sector block"):
        sf.spectral_gap_beta(one_block(op2d))
    monkeypatch.setattr(analysis, "_EIG_NODE_CAP", 6)
    with pytest.raises(InvalidArgument, match="per sector block"):
        sf.spectral_gap_beta(op2d)
    monkeypatch.setattr(analysis, "_EIG_NODE_CAP", 28)
    assert abs(sf.spectral_gap_beta(one_block(op2d)).beta - beta) <= analysis._eig_tol(op2d)


def test_a_double_gap_takes_its_mode_from_the_first_sector():
    # on the square, beta is double: the two mirror-odd sectors that the
    # swap of the axes exchanges hold it, and the mode comes from the first
    # whatever the rounding of the two values
    op = make_op(1 / 16, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    sec = sectors(op)
    tol = analysis._eig_tol(op)
    lows = [sla.eigh(block / np.outer(np.sqrt(op.grid.mu[sec.strip.reps]),
                                      np.sqrt(op.grid.mu[sec.strip.reps])),
                     eigvals_only=True, subset_by_index=[0, 1])
            for block in sf.schur_complement(op, blocks=True)]
    beta = sf.spectral_gap_beta(op)
    assert abs(lows[1][0] - lows[2][0]) <= tol
    assert abs(beta.beta - lows[1][0]) <= tol
    mode = beta.mode.values[sec.strip.table]
    # odd under the first mirror, even under the second
    np.testing.assert_allclose(mode[1], -mode[0], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(mode[2], mode[0], rtol=0.0, atol=1e-12)
