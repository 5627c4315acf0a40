import json
import pathlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

import stripflow as sf
from stripflow import _accel
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

from conftest import line_grid, make_op, schur_oracle

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


def test_schur_toy3_by_hand(toy3_op):
    s = sf.schur_complement(toy3_op)
    assert np.allclose(s, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)
    # the blocks come from the operator cache; toy3 has one sector, whose
    # block is S itself, and every call unfolds the same S from it
    blocks = sf.schur_complement(toy3_op, blocks=True)
    assert sf.schur_complement(toy3_op, blocks=True) is blocks
    assert len(blocks) == 1
    np.testing.assert_array_equal(blocks[0], s)
    np.testing.assert_array_equal(sf.schur_complement(toy3_op), s)


def test_schur_annihilates_constants(toy3_op, op16, op2d):
    for op in (toy3_op, op16, op2d):
        s = sf.schur_complement(op)
        ones = np.ones(op.n_strip)
        assert np.max(np.abs(s @ ones)) <= 1e-12 * max(1.0, np.max(np.abs(s)))
        assert np.allclose(s, s.T, atol=1e-14)
        evals = np.linalg.eigvalsh(s)
        assert evals[0] >= -1e-10


def test_schur_reproduces_linear_rhs(toy3_op, op16, op64):
    # the reduced matrix generates the same strip flow as the extension path
    rng = np.random.default_rng(3)
    spec = sf.ProblemSpec("linear")
    for op in (toy3_op, op16, op64):
        s = sf.schur_complement(op)
        mu_s = op.grid.mu[op.strip_idx]
        for _ in range(3):
            uv = rng.standard_normal(op.n_strip)
            via_ext = sf.rhs(op, spec, sf.StripField(uv, op.grid))
            via_schur = -(s @ uv) / mu_s
            denom = np.max(np.abs(via_schur)) + 1e-30
            assert np.max(np.abs(via_ext.values - via_schur)) <= 1e-12 * max(1.0, denom)


def test_schur_toy3_mode_flow(toy3_op):
    s = sf.schur_complement(toy3_op)
    out = -(s @ np.array([1.0, -1.0])) / toy3_op.grid.mu[toy3_op.strip_idx]
    assert np.allclose(out, [-1.0, 1.0], atol=1e-15)


def test_schur_without_interior_is_the_strip_block():
    op = make_op(1.0 / 4.0, 0.5, sf.tent_kernel(0.5, 1), edge_mode=sf.FULL,
                 allow_empty=True)
    assert op.n_interior == 0
    s = sf.schur_complement(op)
    lap = laplacian_dense(op)
    assert np.allclose(s, lap[np.ix_(op.strip_idx, op.strip_idx)], atol=1e-15)


def test_schur_complement_keeps_no_extra_copy():
    # The blocks are built one sector at a time: X_chi = U^-T L_IS^chi is
    # solved in place in the dense fold of L_IS, and L_SS^chi is folded only
    # once X_chi is gone, so the build writes no array of the size of the
    # whole S (the dense L_IS alone is 576/448 = 1.29 times that). Unfolding
    # holds the four blocks (S/4), S and two block-sized partial sums (S/8):
    # 1.375 times the bytes of S. A second copy of the blocks adds more than
    # the rest of the bound
    op = make_op(1.0 / 32.0, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    assert (op.n_strip, op.n_interior) == (448, 576)
    assert sectors(op).count == 4
    _interior(op)
    tracemalloc.start()
    try:
        sf.schur_complement(op, blocks=True)
        _, build = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        s = sf.schur_complement(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert build < s.nbytes
    assert peak < 1.5 * s.nbytes
    np.testing.assert_array_equal(s, s.T)


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
        resid = sf.schur_complement(op) @ m - res.beta * mu_s * m
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
    # one smallest eigenpair per sector block, the constants deflated from
    # the trivial one
    sec = sectors(op2d)
    m = sec.strip.size
    assert sec.count == 4 and sec.count * m == op2d.n_strip
    assert calls == [((m - 1, m - 1), [0, 0])] + [((m, m), [0, 0])] * 3


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
    s = sf.schur_complement(op)
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
        out = sf.counterexample_sequence(grid, op, case["n"])
        got = np.array([q for _, q in out])
        want = np.array(case["quotient"])
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(want)
        assert (np.diff(got) < 0.0).all()
        assert got[-1] / got[0] <= 0.2


def test_counterexample_validation(op64, op64_rr):
    with pytest.raises(InvalidArgument):
        sf.counterexample_sequence(op64.grid, op64, [4, 8])
    with pytest.raises(EmptyBump):
        sf.counterexample_sequence(op64_rr.grid, op64_rr, [200])
    with pytest.raises(InvalidArgument):
        # radius 1 swallows both wall neighborhoods at once
        sf.counterexample_sequence(op64_rr.grid, op64_rr, [1])


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
