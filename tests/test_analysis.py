import json
import pathlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

import stripflow as sf
from stripflow import _accel, analysis, elliptic
from stripflow.analysis import (DIAG_COLUMNS, EXPONENTIAL, POLYNOMIAL,
                                INVERSE_POWER, SCHUR_EIG)
from stripflow.elliptic import _interior
from stripflow.errors import (ConstantField, EmptyBump, InvalidArgument,
                              NonPositiveData, NotMeanZero, TooFewStripNodes,
                              WindowTooSmall)
from stripflow.evolution import Trajectory
from stripflow.fixtures import toy3_grid
from stripflow.geometry import INTERIOR, STRIP
from stripflow.kernels import _operator_from_dense, laplacian_dense
from stripflow.symmetry import sectors

from conftest import fold_strip, fresh_python, line_grid, make_op, schur_oracle

GOLDEN = pathlib.Path(__file__).parent / "data" / "counterexample_golden.json"


def test_mass_and_distance_on_toy3(toy3_op):
    g = toy3_op.grid
    assert sf.mass(g, np.array([1.0, -1.0])) == 0.0
    assert sf.lq_distance_to_mean(g, np.array([1.0, -1.0]), 2.0) == pytest.approx(
        np.sqrt(2.0), abs=1e-15)
    assert sf.mass(g, np.array([1.0, 0.0])) == 1.0
    assert sf.lq_distance_to_mean(g, np.array([1.0, 0.0]), 1.0) == pytest.approx(
        1.0, abs=1e-15)


def test_constant_field_has_zero_distance(op16):
    g = op16.grid
    c = sf.StripField(3.25 * np.ones(op16.n_strip), g)
    total = np.sum(g.mu[op16.strip_idx])
    assert sf.mass(g, c) == pytest.approx(3.25 * total, rel=1e-14)
    for q in (1.0, 2.0, np.inf):
        assert sf.lq_distance_to_mean(g, c, q) == 0.0
    with pytest.raises(InvalidArgument):
        sf.lq_distance_to_mean(g, c, 0.5)


def test_distances_for_many_exponents_match_one_at_a_time(op16):
    g = op16.grid
    u = np.random.default_rng(8).standard_normal(op16.n_strip)
    qs = (1.0, 1.5, 2.0, 3.0, np.inf)
    got = sf.lq_distance_to_mean(g, u, qs)
    assert got == [sf.lq_distance_to_mean(g, u, q) for q in qs]
    assert sf.lq_distance_to_mean(g, u, np.array(2.0)) == got[2]
    with pytest.raises(InvalidArgument):
        sf.lq_distance_to_mean(g, u, (2.0, 0.5))


def test_nan_exponents_are_rejected(op16):
    # a NaN fails q >= 1 as q < 1 does; no NaN distance is made or looked up
    u = np.random.default_rng(8).standard_normal(op16.n_strip)
    for q in (float("nan"), np.float64("nan"), (2.0, np.float64("nan")), np.array([np.nan])):
        with pytest.raises(InvalidArgument):
            sf.lq_distance_to_mean(op16.grid, u, q)
    with pytest.raises(InvalidArgument):
        sf.ProblemSpec("plaplace", p=3.0, q=float("nan"))


def test_schur_toy3_by_hand(toy3_op):
    # the blocks come from the operator cache; toy3 has one sector, whose
    # block is S itself
    blocks = sf.schur_complement(toy3_op)
    assert sf.schur_complement(toy3_op) is blocks
    assert len(blocks) == 1
    assert np.allclose(blocks[0], [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_schur_annihilates_constants(toy3_op, op16, op2d):
    # the constants fold into the trivial block alone, so S 1 = 0 is the
    # trivial block's product with their fold (the ones on toy3 and the
    # line, sqrt(2) on a sigma pair against 1 on the diagonal on the
    # square); S is exactly symmetric and PSD when every block is
    for op in (toy3_op, op16, op2d):
        blocks = sf.schur_complement(op)
        sec = sectors(op)
        assert len(blocks) == len(sec.blocks)
        (const, *others) = sec.fold(np.ones(op.n_strip), sec.strip)
        assert all(np.all(part == 0.0) for part in others)
        trivial = blocks[0]
        assert np.max(np.abs(trivial @ const)) <= 1e-12 * max(1.0, np.max(np.abs(trivial)))
        for block in blocks:
            np.testing.assert_array_equal(block, block.T)
            assert np.linalg.eigvalsh(block)[0] >= -1e-10


def test_schur_reproduces_linear_rhs(toy3_op, op16, op64):
    # the dense elimination generates the same strip flow as the sector
    # blocks that rhs steps with
    rng = np.random.default_rng(3)
    spec = sf.ProblemSpec("linear")
    for op in (toy3_op, op16, op64):
        s = schur_oracle(op)
        mu_s = op.grid.mu[op.strip_idx]
        for _ in range(3):
            uv = rng.standard_normal(op.n_strip)
            via_blocks = sf.rhs(op, spec, sf.StripField(uv, op.grid))
            via_oracle = -(s @ uv) / mu_s
            denom = np.max(np.abs(via_oracle)) + 1e-30
            assert np.max(np.abs(via_blocks.values - via_oracle)) <= 1e-12 * max(1.0, denom)


def test_schur_toy3_mode_flow(toy3_op):
    out = sf.rhs(toy3_op, sf.ProblemSpec("linear"), np.array([1.0, -1.0]))
    assert np.allclose(out.values, [-1.0, 1.0], atol=1e-15)


def test_schur_without_interior_is_the_strip_block():
    op = make_op(1.0 / 4.0, 0.5, sf.tent_kernel(0.5, 1), edge_mode=sf.FULL,
                 allow_empty=True)
    assert op.n_interior == 0
    lap = laplacian_dense(op)
    want = fold_strip(op, lap[np.ix_(op.strip_idx, op.strip_idx)])
    for block, ref in zip(sf.schur_complement(op), want, strict=True):
        assert np.allclose(block, ref, atol=1e-15)


def test_quotient_without_interior_pairs_the_strip_rows():
    # with no interior there is no extension to report an energy: the
    # numerator is that of g itself, g^T L g at p = 2
    op = make_op(1.0 / 4.0, 0.5, sf.tent_kernel(0.5, 1), edge_mode=sf.FULL,
                 allow_empty=True)
    mu_s = op.grid.mu[op.strip_idx]
    g = np.random.default_rng(6).standard_normal(op.n_strip)
    g -= np.dot(mu_s, g) / np.sum(mu_s)
    lap = laplacian_dense(op)[np.ix_(op.strip_idx, op.strip_idx)]
    assert sf.rayleigh_quotient(op, g, 2.0) == pytest.approx(
        g @ lap @ g / np.dot(mu_s, g * g), rel=1e-12)


def test_schur_complement_keeps_no_extra_copy():
    # The blocks are built one at a time: X_j = U^-T L_IS^j is solved in
    # place in the dense fold of L_IS, and L_SS^j is folded only once X_j
    # is gone, so the build writes no array of the size of the whole S (the
    # dense L_IS alone is 576/448 = 1.29 times that): it peaks at 0.50
    # times the bytes of S, and a second copy of the five blocks (about
    # S/8 in all) would take it past 5/8. Later calls read the cache and
    # allocate nothing
    op = make_op(1.0 / 32.0, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    assert (op.n_strip, op.n_interior) == (448, 576)
    sec = sectors(op)
    sizes = [rows.shape[0] for rows in sec.block_reps(sec.strip)]
    assert sizes == [58, 54, 112, 58, 54]
    whole = op.n_strip ** 2 * np.dtype(float).itemsize
    _interior(op)
    tracemalloc.start()
    try:
        blocks = sf.schur_complement(op)
        held, build = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert sf.schur_complement(op) is blocks
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert build < 0.625 * whole
    assert peak - held < whole / 100
    assert sum(block.nbytes for block in blocks) == sum(m * m for m in sizes) * 8 < whole / 7


def test_schur_complement_holds_a_fraction_of_the_edge_arrays():
    # the sector blocks are folded from the edges out of the representatives
    # (about a quarter of the rows), with no CSR adjacency of the whole grid:
    # on a fresh operator the build holds the interior factors and the
    # blocks of S, 0.19 times the bytes of the edge arrays, and peaks at
    # 0.45 of them; the CSR cut held 0.61 and peaked at 1.17
    op = make_op(1.0 / 32.0, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    edges = op.act_rows.nbytes + op.act_cols.nbytes + op.act_coef.nbytes
    tracemalloc.start()
    try:
        sf.schur_complement(op)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 0.3 * edges
    assert peak < edges


def test_gap_on_toy3(toy3_op):
    res = sf.spectral_gap_beta(toy3_op)
    assert res.method == SCHUR_EIG
    assert res.beta == pytest.approx(1.0, abs=1e-12)
    mv = res.mode.values
    assert np.allclose(mv, [1.0, -1.0] / np.sqrt(2.0), atol=1e-12)


def test_gap_result_invariants(op16, op2d):
    for op in (op16, op2d):
        res = sf.spectral_gap_beta(op)
        mu_s = op.grid.mu[op.strip_idx]
        mv = res.mode.values
        assert abs(np.dot(mu_s, mv)) <= 1e-12
        assert abs(np.sum(mu_s * mv**2) - 1.0) <= 1e-12
        assert sf.rayleigh_quotient(op, res.mode, 2.0) == pytest.approx(
            res.beta, abs=1e-8)


EPS = np.finfo(float).eps

# the benchmark's reference gap of the 2D unit box at h = 1/64
BETA_REF_H64 = 0.011187723639422317


def gap_tol(op):
    # n eps times a Gershgorin bound 2 max(row sum) on the measure-scaled form
    return op.n_strip * EPS * 2.0 * float(np.max(op.deg_active[op.strip_idx]))


def explicit_basis_spectrum(op):
    """Every mean-zero eigenvalue, from the Schur complement by dense
    elimination projected onto an explicit orthonormal basis of the
    complement of sqrt(mu), through one Householder matrix."""
    s = schur_oracle(op)
    root = np.sqrt(op.grid.mu[op.strip_idx])
    v = root / np.linalg.norm(root)
    v[0] += 1.0
    basis = (np.eye(op.n_strip) - 2.0 * np.outer(v, v) / np.dot(v, v))[:, 1:]
    form = basis.T @ (0.5 * (s + s.T) / np.outer(root, root)) @ basis
    return np.linalg.eigh(form)[0]


def nonuniform_line(edge_mode):
    grid = line_grid([STRIP] * 2 + [INTERIOR] * 4 + [STRIP] * 2,
                     np.array([1.0, 2.0, 0.5, 3.0, 1.5, 1.0, 2.5, 0.75]) / 8.0)
    kernel = sf.tent_kernel(0.5, 1)
    dist = np.abs(grid.nodes - grid.nodes.T)
    return _operator_from_dense(grid, kernel, kernel.cnorm * np.maximum(kernel.R - dist, 0.0),
                                edge_mode)


def test_gap_matches_the_explicit_basis_oracle(op16, op16_full, op2d, sing16):
    ops = [op16, op16_full, op2d, sing16(2.0), nonuniform_line(sf.EXCLUDE_STRIP_STRIP),
           nonuniform_line(sf.FULL), make_op(1.0 / 16.0, 0.125, sf.tent_kernel(0.25, 2),
                                             dim=2)]
    for op in ops:
        tol = gap_tol(op)
        res = sf.spectral_gap_beta(op)
        assert abs(res.beta - explicit_basis_spectrum(op)[0]) <= tol
        # the 2D gap is a double eigenvalue, so the mode is checked as a
        # member of the eigenspace rather than against a fixed vector
        mu_s = op.grid.mu[op.strip_idx]
        m = res.mode.values
        resid = schur_oracle(op) @ m - res.beta * mu_s * m
        assert np.max(np.abs(resid)) <= tol * np.max(mu_s) * np.max(np.abs(m))
        assert abs(np.dot(mu_s, m)) <= op.n_strip * EPS
        assert abs(np.dot(mu_s, m * m) - 1.0) <= op.n_strip * EPS


def test_gap_is_one_smallest_eigenpair_solve(op2d, monkeypatch):
    calls = []
    eigh = sla.eigh

    def spy(a, *args, **kwargs):
        calls.append((a.shape, kwargs.get("subset_by_index")))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(sla, "eigh", spy)
    sf.spectral_gap_beta(op2d)
    # one smallest eigenpair per block that a Cholesky cannot rule out, the
    # shared one solved once and the constants deflated from the trivial
    # one, which is solved first: op2d's 28 strip nodes are the shared block
    # of 7 and blocks of 4, 3, 4, 3, and beta lies in the shared block
    sec = sectors(op2d)
    assert sec.order == 8 and sec.strip.size == 7
    assert calls == [((3, 3), [0, 0]), ((7, 7), [0, 0])]


def _eigh_shapes(monkeypatch):
    shapes = []
    eigh = sla.eigh

    def spy(a, *args, **kwargs):
        shapes.append(a.shape[0])
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(sla, "eigh", spy)
    return shapes


@pytest.mark.parametrize("mode", [sf.EXCLUDE_STRIP_STRIP, sf.FULL])
def test_certificate_skips_blocks_and_keeps_beta_bit_for_bit(mode, monkeypatch):
    # the trivial block is solved first; each later block whose Cholesky at
    # best + (blocks) _eig_tol, plus its backward error, succeeds has no
    # eigenvalue that could be beta or tie with it, and is not solved. Beta
    # and the mode are those of solving every block, bit for bit
    op = make_op(1 / 16, 0.125, sf.tent_kernel(0.25, 2), mode, dim=2)
    sec = sectors(op)
    sizes = [rows.shape[0] for rows in sec.block_reps(sec.strip)]
    shapes = _eigh_shapes(monkeypatch)
    res = sf.spectral_gap_beta(op)
    solved = list(shapes)
    monkeypatch.setattr(analysis, "_exceeds", lambda red, floor: False)
    shapes.clear()
    ref = sf.spectral_gap_beta(op)
    assert shapes == [sizes[0] - 1] + sizes[1:]
    assert solved[0] == sizes[0] - 1 and len(solved) < len(sizes)
    assert res.beta == ref.beta
    np.testing.assert_array_equal(res.mode.values, ref.mode.values)
    # every block skipped lies above the margin
    margin = len(sec.blocks) * analysis._eig_tol(op)
    for j, block in enumerate(sf.schur_complement(op)):
        if j and sizes[j] not in solved:
            root = np.sqrt(op.grid.mu[sec.block_reps(sec.strip)[j]])
            low = np.linalg.eigvalsh(block / np.outer(root, root))[0]
            assert low > res.beta + margin


def test_certificate_solves_a_block_within_its_margin(monkeypatch):
    # a block whose smallest eigenvalue is lowered to beta + 2.5 tol, inside
    # the margin of 5 tol over the best value so far, is eigensolved; beta
    # and its mode stay those of the block that holds them
    op = make_op(1 / 16, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    sec = sectors(op)
    res = sf.spectral_gap_beta(op)
    tol, blocks = analysis._eig_tol(op), list(sf.schur_complement(op))
    mu = op.grid.mu[sec.block_reps(sec.strip)[3]]
    low = np.linalg.eigvalsh(blocks[3] / np.sqrt(np.outer(mu, mu)))[0]
    assert low > res.beta + 5 * tol
    blocks[3] = blocks[3] - (low - res.beta - 2.5 * tol) * np.diag(mu)
    monkeypatch.setattr(analysis, "schur_complement", lambda op: tuple(blocks))
    shapes = _eigh_shapes(monkeypatch)
    lowered = sf.spectral_gap_beta(op)
    assert blocks[3].shape[0] in shapes[2:]
    assert lowered.beta == res.beta
    np.testing.assert_array_equal(lowered.mode.values, res.mode.values)


def test_cholesky_certificate_bounds():
    # a diagonal matrix with smallest entry 1: a floor below it by far more
    # than the factor's backward error is exceeded, one that is within that
    # error, or above 1, or not finite is not
    red = np.diag(np.linspace(1.0, 3.0, 200))
    assert analysis._exceeds(red, 1.0 - 1e-9)
    assert not analysis._exceeds(red, 1.0 - 1e-14)
    assert not analysis._exceeds(red, 1.0 + 1e-9)
    assert not analysis._exceeds(red, np.inf)


def test_gap_on_the_benchmark_square():
    op = make_op(1.0 / 64.0, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    assert abs(sf.spectral_gap_beta(op).beta - BETA_REF_H64) <= gap_tol(op)


def test_gap_two_strip_nodes_no_interior():
    from stripflow.geometry import STRIP, DomainBox, Grid
    from stripflow.kernels import _operator_from_dense

    grid = Grid(
        domain=DomainBox(dim=1, lo=np.array([0.0]), hi=np.array([2.0])),
        h=1.0,
        r=0.5,
        nodes=np.array([[0.5], [1.5]]),
        klass=np.array([STRIP, STRIP], dtype=np.uint8),
        mu=np.ones(2),
        bdist=np.array([0.5, 0.5]),
        counts=(2,),
    )
    jmat = np.array([[0.0, 1.0], [1.0, 0.0]])
    op = _operator_from_dense(grid, sf.tent_kernel(4.0, 1), jmat, sf.FULL)
    res = sf.spectral_gap_beta(op)
    # quotient at (a, -a): both ordered pairs contribute (2a)^2/2 to the
    # numerator, the denominator is 2 a^2, so the gap sits at 2; the strip
    # flow du/dt = -(Su)/mu contracts the difference at that same rate
    assert res.beta == pytest.approx(2.0, abs=1e-12)
    (s,) = sf.schur_complement(op)
    out = -(s @ np.array([1.0, -1.0]))
    assert np.allclose(out, [-2.0, 2.0], atol=1e-14)


def test_gap_needs_two_strip_nodes():
    from stripflow.geometry import INTERIOR, STRIP, DomainBox, Grid
    from stripflow.kernels import _operator_from_dense

    grid = Grid(
        domain=DomainBox(dim=1, lo=np.array([0.0]), hi=np.array([2.0])),
        h=1.0,
        r=0.5,
        nodes=np.array([[0.5], [1.5]]),
        klass=np.array([STRIP, INTERIOR], dtype=np.uint8),
        mu=np.ones(2),
        bdist=np.array([0.5, 0.5]),
        counts=(2,),
    )
    op = _operator_from_dense(grid, sf.tent_kernel(4.0, 1),
                              np.array([[0.0, 1.0], [1.0, 0.0]]), sf.FULL)
    with pytest.raises(TooFewStripNodes):
        sf.spectral_gap_beta(op)


def test_gap_rejects_other_exponents(toy3_op):
    with pytest.raises(InvalidArgument):
        sf.spectral_gap_beta(toy3_op, p=3.0)


def test_gap_positive_when_strip_is_thinner_than_reach(op16, op64, op2d):
    for op in (op16, op64, op2d):
        assert sf.spectral_gap_beta(op).beta > 1e-8


def test_mode_scale_invariance(op16):
    res = sf.spectral_gap_beta(op16)
    for c in (-1.0, 2.0):
        scaled = sf.StripField(c * res.mode.values, op16.grid)
        assert sf.rayleigh_quotient(op16, scaled, 2.0) == pytest.approx(
            res.beta, abs=1e-8)


def test_gap_and_quotient_at_h64_peak_under_90_mb():
    # the gap, then the quotient of its mode, in a fresh process measured by
    # its own peak resident size: 166-169 MB while the extension's row sums
    # wrote the whole 2.1M-edge list, about 121 MB with them by FFT on the
    # stencil, 106 MB while the import loaded scipy.integrate and scipy.fft,
    # 89 MB while the convolution loaded scipy.fft and each sigma fold was
    # reordered on both sides, and about 80 MB without either. VmHWM, not
    # ru_maxrss: a child's ru_maxrss keeps the high-water mark of the image
    # it was started from, so under a large test process it reads that
    # process's peak
    script = ("import stripflow as sf; "
              "grid = sf.build_grid(sf.DomainBox(2, (0.0, 0.0), (1.0, 1.0)), 1 / 64, 0.125); "
              "op = sf.assemble(grid, sf.tent_kernel(0.25, 2)); "
              "gap = sf.spectral_gap_beta(op); "
              "print(gap.beta, sf.rayleigh_quotient(op, gap.mode, 2.0), "
              "*[ln.split()[1] for ln in open('/proc/self/status') if ln.startswith('VmHWM')])")
    beta, quotient, peak_kib = fresh_python(["-c", script], 1).stdout.split()
    assert float(quotient) == pytest.approx(float(beta), rel=1e-12)
    assert int(peak_kib) < 90 * 1024


def test_rayleigh_toy3_by_hand(toy3_op):
    g = sf.StripField(np.array([1.0, -1.0]), toy3_op.grid)
    assert sf.rayleigh_quotient(toy3_op, g, 2.0) == pytest.approx(1.0, abs=1e-12)
    # at p = 4 the extension stays at zero by symmetry and the quotient is
    # again (1 + 1) / (1 + 1)
    assert sf.rayleigh_quotient(toy3_op, g, 4.0) == pytest.approx(1.0, abs=1e-10)


def test_rayleigh_input_validation(toy3_op):
    with pytest.raises(NotMeanZero):
        sf.rayleigh_quotient(toy3_op, np.array([1.0, 0.0]), 2.0)
    with pytest.raises(ConstantField):
        sf.rayleigh_quotient(toy3_op, np.array([2.0, 2.0]), 2.0)


def test_inverse_power_matches_eigensolve_at_p2(toy3_op, op16):
    for op in (toy3_op, op16):
        eig = sf.spectral_gap_beta(op)
        est = sf.estimate_beta_p(op, 2.0, restarts=4)
        assert est.method == INVERSE_POWER
        assert est.beta == pytest.approx(eig.beta, abs=1e-6)


def test_inverse_power_p4_on_toy3(toy3_op):
    est = sf.estimate_beta_p(toy3_op, 4.0, restarts=4)
    assert est.beta <= 1.0 + 1e-6
    mu_s = toy3_op.grid.mu[toy3_op.strip_idx]
    mv = est.mode.values
    assert abs(np.dot(mu_s, mv)) <= 1e-10
    assert abs(np.sum(mu_s * np.abs(mv) ** 4) - 1.0) <= 1e-10


def test_inverse_power_argument_checks(toy3_op):
    with pytest.raises(InvalidArgument):
        sf.estimate_beta_p(toy3_op, 2.0, restarts=0)
    with pytest.raises(InvalidArgument):
        sf.estimate_beta_p(toy3_op, 1.0)


def test_inverse_power_quotients_come_from_the_solves(monkeypatch):
    # every quotient is read off the report of the solve that made its
    # state, so no pass over the pairs runs outside a descent solve
    op = make_op(1.0 / 16.0, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    depth, outside = [0], [0]

    def solving(*args, real=elliptic._newton_free, **kwargs):
        depth[0] += 1
        try:
            return real(*args, **kwargs)
        finally:
            depth[0] -= 1

    def balance(*args, real=elliptic._pair_balance):
        outside[0] += depth[0] == 0
        return real(*args)

    for owner in (elliptic, analysis):
        monkeypatch.setattr(owner, "_newton_free", solving)
    monkeypatch.setattr(elliptic, "_pair_balance", balance)
    est = sf.estimate_beta_p(op, 3.0, restarts=2)
    assert outside[0] == 0
    assert sf.rayleigh_quotient(op, est.mode, 3.0) == pytest.approx(est.beta, rel=1e-8)


# estimates of the projected gradient descent that inverse power iteration
# replaced (restarts=4, seed 0); each inverse power estimate must be as good
DESCENT_BETA = {("op16", 3.0): 0.099187799598913, ("op16", 4.0): 0.057605989892636,
                ("op2d", 3.0): 0.011241541746137, ("op2d", 4.0): 0.002953797632988}


@pytest.mark.parametrize("name,p", sorted(DESCENT_BETA))
def test_inverse_power_mode_attains_its_bound(name, p, request):
    op = request.getfixturevalue(name)
    est = sf.estimate_beta_p(op, p, restarts=4)
    assert est.beta <= DESCENT_BETA[name, p] * (1.0 + 2e-9)
    assert sf.rayleigh_quotient(op, est.mode, p) == pytest.approx(est.beta, rel=1e-8)


def test_inverse_power_converges_below_p2(sing16):
    op = sing16(1.5)
    est = sf.estimate_beta_p(op, 1.5, restarts=4)
    assert est.beta > 0.0
    assert sf.rayleigh_quotient(op, est.mode, 1.5) == pytest.approx(est.beta, rel=1e-8)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_inverse_power_isolated_strip_nodes_give_zero(op64_rr, p):
    # the two outermost nodes of the r = R line have no active edge
    assert np.count_nonzero(op64_rr.deg_active[op64_rr.strip_idx] == 0.0) == 2
    est = sf.estimate_beta_p(op64_rr, p, restarts=4)
    assert est.beta == 0.0
    mu_s = op64_rr.grid.mu[op64_rr.strip_idx]
    mv = est.mode.values
    assert abs(np.dot(mu_s, mv)) <= 1e-15
    assert abs(np.sum(mu_s * np.abs(mv) ** p) - 1.0) <= 1e-14


def test_counterexample_matches_recorded_values():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    for case in golden["cases"]:
        kernel = sf.tent_kernel(case["R"], 1)
        grid = sf.build_grid(sf.DomainBox(1, (0.0,), (1.0,)), case["h"], case["r"])
        op = sf.assemble(grid, kernel, sf.EXCLUDE_STRIP_STRIP)
        out = sf.counterexample_sequence(op, case["n"])
        got = np.array([q for _, q in out])
        want = np.array(case["quotient"])
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(want)
        assert (np.diff(got) < 0.0).all()
        assert got[-1] / got[0] <= 0.2


def test_counterexample_validation(op64, op64_rr):
    with pytest.raises(InvalidArgument):
        sf.counterexample_sequence(op64, [4, 8])
    with pytest.raises(EmptyBump):
        sf.counterexample_sequence(op64_rr, [200])
    with pytest.raises(InvalidArgument):
        # radius 1 swallows both wall neighborhoods at once
        sf.counterexample_sequence(op64_rr, [1])
    # the radius is 1/n: n = 4.5 would run at 1/4.5 and be labelled 4
    for n in (0, -4, 4.5, float("nan"), float("inf")):
        with pytest.raises(InvalidArgument, match="positive integer"):
            sf.counterexample_sequence(op64_rr, [8, n])


def test_decay_bound_from_gap(op16):
    beta = sf.spectral_gap_beta(op16).beta
    spec = sf.ProblemSpec("linear")
    dt = 0.1 * sf.stability_bound(op16)
    rng = np.random.default_rng(11)
    for _ in range(5):
        u0 = sf.StripField(rng.standard_normal(op16.n_strip), op16.grid)
        traj = sf.evolve(op16, spec, u0, 40 * dt, dt)
        d2sq = traj.diag[:, 2] ** 2
        bound = d2sq[0] * np.exp(-2.0 * beta * (traj.times - 3.0 * dt)) + 1e-9
        assert (d2sq <= bound).all()


def _synthetic(times, column, values, grid):
    diag = np.zeros((times.shape[0], len(DIAG_COLUMNS)))
    diag[:, DIAG_COLUMNS.index(column)] = values
    states = np.zeros((times.shape[0], 2))
    return Trajectory(times, states, diag, grid)


def test_fit_exact_exponential():
    t = np.linspace(0.0, 5.0, 26)
    traj = _synthetic(t, "d2", np.exp(-2.0 * t), toy3_grid())
    fit = sf.fit_decay(traj, "d2", EXPONENTIAL, (0.0, 5.0))
    assert fit.rate == pytest.approx(2.0, abs=1e-9)
    assert fit.r2 >= 1.0 - 1e-12
    assert fit.window == (0.0, 5.0)


def test_fit_exact_power_law():
    t = np.linspace(1.0, 100.0, 100)
    traj = _synthetic(t, "dq", 1.0 / t, toy3_grid())
    fit = sf.fit_decay(traj, "dq", POLYNOMIAL, (1.0, 100.0))
    assert fit.rate == pytest.approx(1.0, abs=1e-9)
    assert fit.r2 >= 1.0 - 1e-12


def test_fit_toy3_trajectory_rate_is_twice_the_gap(toy3_op):
    spec = sf.ProblemSpec("linear")
    u0 = sf.StripField(np.array([1.0, -1.0]), toy3_op.grid)
    traj = sf.evolve(toy3_op, spec, u0, 1.0, 0.01)
    squared = _synthetic(traj.times, "d2", traj.diag[:, 2] ** 2, toy3_op.grid)
    fit = sf.fit_decay(squared, "d2", EXPONENTIAL, (0.0, 1.0))
    assert fit.rate == pytest.approx(2.0, rel=0.02)


def test_fit_rejects_bad_input(toy3_op):
    t = np.linspace(0.0, 5.0, 26)
    good = _synthetic(t, "d2", np.exp(-t), toy3_grid())
    with pytest.raises(WindowTooSmall):
        sf.fit_decay(good, "d2", EXPONENTIAL, (0.0, 0.5))
    with pytest.raises(InvalidArgument):
        sf.fit_decay(good, "d2", EXPONENTIAL, (1.0, 1.0))
    with pytest.raises(InvalidArgument):
        sf.fit_decay(good, "d2", "cubic", (0.0, 5.0))
    with pytest.raises(InvalidArgument):
        sf.fit_decay(good, "bogus", EXPONENTIAL, (0.0, 5.0))
    for bad in (0.0, np.nan, np.inf):
        vals = np.exp(-t)
        vals[4] = bad
        with pytest.raises(NonPositiveData) as info:
            sf.fit_decay(_synthetic(t, "d2", vals, toy3_grid()), "d2",
                         EXPONENTIAL, (0.0, 5.0))
        assert "finite" in str(info.value)
    with pytest.raises(NonPositiveData):
        sf.fit_decay(good, "d2", POLYNOMIAL, (0.0, 5.0))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 4.0])
def test_monotone_pairings(p, q):
    # the odd power map every flux and solver uses is nondecreasing: a - b,
    # and its odd p-power, pair nonnegatively with the q-power difference
    ab = np.random.default_rng([0, 29]).standard_normal((10**4, 2)) * 2.0
    a, b = ab[:, 0], ab[:, 1]
    odd = _accel._phi(a, q, 0.0) - _accel._phi(b, q, 0.0)
    assert np.min((a - b) * odd) >= -1e-12
    assert np.min(_accel._phi(a - b, p, 0.0) * odd) >= -1e-12
