import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

import stripflow as sf
from stripflow import kernels
from stripflow.elliptic import REG_EPS, _interior, _newton_free, extend_plaplace
from stripflow.errors import (EmptyInterior, NoConvergence, NonConvexExponent,
                              SingularSystem)
from stripflow.geometry import INTERIOR, STRIP
from stripflow.kernels import _operator_from_dense
from stripflow.symmetry import sectors

from conftest import BOX1, add_at_laplacian, line_grid, make_op, schur_oracle

# root of 2(1-u)^3 = u^3, pinned by an independent bracketing solve
P4_ASYM_ROOT = 0.55750666597555787


def test_toy3_linear_extension(toy3_op):
    out = sf.extend_linear(toy3_op, sf.StripField(np.array([0.0, 1.0]), toy3_op.grid))
    assert abs(out.values[0] - 0.5) <= 1e-15
    np.testing.assert_array_equal(out.values[1:], [0.0, 1.0])


def test_toy3_asymmetric_weights(toy3_asym_op):
    g = sf.StripField(np.array([1.0, 0.0]), toy3_asym_op.grid)
    lin = sf.extend_linear(toy3_asym_op, g)
    assert abs(lin.values[0] - 2.0 / 3.0) <= 1e-12
    field, report = extend_plaplace(toy3_asym_op, g, 4.0)
    assert report.converged
    assert abs(field.values[0] - P4_ASYM_ROOT) <= 1e-9


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_constants_extend_to_constants(op16, op2d, p):
    for op in (op16, op2d):
        g = sf.StripField(np.full(op.n_strip, 0.7), op.grid)
        out = sf.extend(op, g, p)
        np.testing.assert_allclose(out.values, 0.7, atol=1e-12)


@pytest.mark.parametrize("p,tol", [(2.0, 1e-10), (3.0, 1e-8)])
def test_linear_profile_survives_boundary_case(p, tol):
    # r = R: strip reach equals kernel reach, and an affine profile is
    # stationary because every interior node sees a symmetric neighborhood
    op = make_op(1.0 / 32.0, 0.25, sf.tent_kernel(0.25, 1))
    x = op.grid.nodes[:, 0]
    g = sf.StripField(x[op.strip_idx], op.grid)
    out = sf.extend(op, g, p)
    assert np.abs(out.values - x).max() <= tol
    assert sf.interior_residual(op, sf.FullField(x, op.grid), 2.0) <= 1e-13


def test_toy3_energy_and_gradient(toy3_op):
    u = sf.FullField(np.array([0.0, 1.0, -1.0]), toy3_op.grid)
    assert sf.energy(toy3_op, u, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert sf.energy(toy3_op, u, 4.0) == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(sf.energy_gradient(toy3_op, u, 2.0).values,
                               [0.0, 1.0, -1.0], atol=1e-15)
    assert sf.interior_residual(toy3_op, u, 2.0) <= 1e-15


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_extension_postcondition(op16, op2d, p):
    rng = np.random.default_rng(21)
    for op in (op16, op2d):
        for _ in range(3):
            g = sf.StripField(rng.standard_normal(op.n_strip), op.grid)
            out = sf.extend(op, g, p)
            bound = 1e-10 * (1.0 + np.abs(g.values).max())
            assert sf.interior_residual(op, out, p) <= bound
            np.testing.assert_array_equal(out.values[op.strip_idx], g.values)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_gradient_against_finite_differences(op16, sing16, p):
    rng = np.random.default_rng(int(p * 10))
    step = 1e-6
    for op in (op16, sing16(p)):
        for _ in range(5):
            u = rng.standard_normal(op.n)
            grad = sf.energy_gradient(op, sf.FullField(u, op.grid), p).values
            fd = np.empty(op.n)
            for i in range(op.n):
                up, dn = u.copy(), u.copy()
                up[i] += step
                dn[i] -= step
                fd[i] = (sf.energy(op, sf.FullField(up, op.grid), p)
                         - sf.energy(op, sf.FullField(dn, op.grid), p)) / (2 * step)
            err = np.abs(fd - grad).max() / np.abs(grad).max()
            assert err <= 1e-6


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_max_principle(op16, sing16, op2d, p):
    rng = np.random.default_rng(int(p * 100))
    for op in (op16, sing16(p), op2d):
        g = sf.StripField(rng.uniform(-2.0, 3.0, op.n_strip), op.grid)
        out = sf.extend(op, g, p)
        assert out.values.min() >= g.values.min() - 1e-9
        assert out.values.max() <= g.values.max() + 1e-9


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_order_preservation(op16, p):
    rng = np.random.default_rng(33)
    for _ in range(3):
        g = rng.standard_normal(op16.n_strip)
        g2 = g + np.abs(rng.standard_normal(op16.n_strip))
        lo = sf.extend(op16, sf.StripField(g, op16.grid), p)
        hi = sf.extend(op16, sf.StripField(g2, op16.grid), p)
        assert (hi.values >= lo.values - 1e-9).all()


def test_extension_norm_is_stable(op16):
    mu = op16.grid.mu
    ws, wi = mu[op16.strip_idx], mu[op16.interior_idx]
    rng = np.random.default_rng(8)
    ratios = []
    for _ in range(100):
        g = rng.standard_normal(op16.n_strip)
        out = sf.extend(op16, sf.StripField(g, op16.grid), 2.0).values
        num = np.sqrt(np.sum(mu * out * out))
        den = np.sqrt(np.sum(ws * g * g))
        ratios.append(num / den)
    ratios = np.asarray(ratios)
    assert np.isfinite(ratios).all()
    # no systematic growth across the sample
    slope = np.polyfit(np.arange(100.0), ratios, 1)[0]
    assert abs(slope) * 100.0 <= 0.5 * ratios.mean()
    assert ratios.max() <= 10.0 * np.median(ratios)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("c", [-1.0, 2.0, 0.5])
def test_homogeneity(op16, p, c):
    rng = np.random.default_rng(4)
    g = rng.standard_normal(op16.n_strip)
    base = sf.extend(op16, sf.StripField(g, op16.grid), p).values
    scaled = sf.extend(op16, sf.StripField(c * g, op16.grid), p).values
    assert np.abs(scaled - c * base).max() <= 1e-9 * max(1.0, abs(c))


def test_plaplace_matches_linear_at_p2(op16, op2d):
    rng = np.random.default_rng(15)
    for op in (op16, op2d):
        g = sf.StripField(rng.standard_normal(op.n_strip), op.grid)
        lin = sf.extend_linear(op, g)
        newt, report = extend_plaplace(op, g, 2.0)
        assert report.converged
        assert np.abs(lin.values - newt.values).max() <= 1e-8


@pytest.mark.parametrize("edge_mode", [sf.EXCLUDE_STRIP_STRIP, sf.FULL])
def test_interior_solves_with_nonuniform_measures(edge_mode):
    # with unequal measures W[x][y] = J mu[y] is not symmetric, but the
    # interior block of mu[x] W[x][y] is, so its Cholesky factor exists
    grid = line_grid([STRIP] * 2 + [INTERIOR] * 4 + [STRIP] * 2,
                      np.array([1.0, 2.0, 0.5, 3.0, 1.5, 1.0, 2.5, 0.75]) / 8.0)
    kernel = sf.tent_kernel(0.5, 1)
    dist = np.abs(grid.nodes - grid.nodes.T)
    op = _operator_from_dense(grid, kernel, kernel.cnorm * np.maximum(kernel.R - dist, 0.0),
                              edge_mode)
    g = sf.StripField(np.array([1.0, -0.5, 2.0, 0.25]), grid)
    assert sf.interior_residual(op, sf.extend_linear(op, g), 2.0) <= 1e-12
    s = sf.schur_complement(op)
    assert np.abs(s - schur_oracle(op)).max() <= 1e-14 * np.abs(s).max()


def test_singular_interior_is_a_solver_error():
    # interior node 2 has no active edge, so L_II has a zero row
    grid = line_grid([STRIP, INTERIOR, INTERIOR, STRIP], np.ones(4))
    jmat = np.zeros((4, 4))
    jmat[[0, 1, 1, 3], [1, 0, 3, 1]] = 1.0
    op = _operator_from_dense(grid, sf.tent_kernel(4.0, 1), jmat, sf.FULL)
    for solve in (lambda: sf.extend_linear(op, np.array([0.0, 1.0])),
                  lambda: sf.schur_complement(op), lambda: sf.spectral_gap_beta(op)):
        with pytest.raises(SingularSystem) as info:
            solve()
        assert info.value.exit_code == 3


def test_one_interior_factorisation_per_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the linear path builds no n x n Laplacian and no LU")
    monkeypatch.setattr(kernels, "laplacian_dense", refuse)
    monkeypatch.setattr(sla, "lu_factor", refuse)
    shapes = []
    real = sla.cho_factor

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)
    monkeypatch.setattr(sla, "cho_factor", counting)
    # op2d built afresh, so nothing is cached on it yet
    op = make_op(1.0 / 8.0, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    g = sf.StripField(np.random.default_rng(4).standard_normal(op.n_strip), op.grid)
    sf.extend_linear(op, g)
    sf.extend_linear(op, g)
    sf.schur_complement(op)
    sf.spectral_gap_beta(op)
    dt = 0.5 * sf.stability_bound(op)
    for integrator in (sf.EXPLICIT, sf.IMPLICIT):
        sf.evolve(op, sf.ProblemSpec("linear"), g, 2.0 * dt, dt, integrator)
    # one factor per sector of L_II, the sector sizes summing to n_I
    sec = sectors(op)
    m = sec.interior.size
    assert sec.count == 4 and sec.count * m == op.n_interior
    assert sec.strip.size != m
    assert shapes.count((m, m)) == sec.count
    assert (op.n_interior, op.n_interior) not in shapes


def test_interior_cache_keeps_l_ii_only_as_its_factor():
    # L_II is cached sparse for the extension's residual gate and its sector
    # blocks are written dense only to be factored in place, so after every
    # p = 2 path the dense interior-block arrays on the operator are the
    # sector factors, one per sector, and none is n_I x n_I
    op = make_op(1.0 / 8.0, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    assert op.n_strip != op.n_interior
    g = sf.StripField(np.random.default_rng(4).standard_normal(op.n_strip), op.grid)
    sf.extend_linear(op, g)
    sf.schur_complement(op)
    sf.spectral_gap_beta(op)
    sf.evolve(op, sf.ProblemSpec("linear"), g, 1.0, 0.5, sf.IMPLICIT)

    def arrays(item):
        if isinstance(item, tuple):
            for part in item:
                yield from arrays(part)
        elif isinstance(item, np.ndarray):
            yield item
    sec = sectors(op)
    m = sec.interior.size
    assert sec.count == 4 and sec.count * m == op.n_interior and sec.strip.size != m
    cached = [a for item in op._cache.values() for a in arrays(item)]
    square = [a for a in cached if a.shape == (m, m)]
    factors = [chol for chol, _ in _interior(op)[1]]
    assert len(square) == sec.count
    assert all(any(a is chol for chol in factors) for a in square)
    assert not any(a.shape == (op.n_interior, op.n_interior) for a in cached)


def test_majoriser_factor_failure_is_a_solver_error(op16, monkeypatch):
    # p < 2 sweeps solve each majorizer by Cholesky; a failed factor must
    # surface, not be retried on a silently shifted matrix
    calls = []
    real = sla.cho_factor

    def first_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise sla.LinAlgError("injected")
        return real(*args, **kwargs)
    monkeypatch.setattr(sla, "cho_factor", first_fails)
    g = sf.StripField(np.random.default_rng(9).standard_normal(op16.n_strip), op16.grid)
    with pytest.raises(SingularSystem) as info:
        extend_plaplace(op16, g, 1.5)
    assert info.value.exit_code == 3
    assert len(calls) == 1


def test_majoriser_is_tangent_to_the_energy(op16, op16_full, op2d, sing16, monkeypatch):
    # the p < 2 step v[free] - A^-1 grad[free] is the majoriser's minimiser
    # A^-1 b only if A v[free] - b = grad[free]; b, the majoriser's right-hand
    # side (the proximal target plus the pinned nodes' pull), is built here from
    # the scatter-add Laplacian of the reweighted edges
    p, dt = 1.5, 0.3
    captured = []
    real = sla.cho_factor

    # the matrix the solver factors, its proximal weights added to the diagonal
    def capture(a, *args, **kwargs):
        captured.append(a.copy())
        return real(a, *args, **kwargs)
    monkeypatch.setattr(sla, "cho_factor", capture)
    rng = np.random.default_rng(12)
    worst = 0.0
    for op in (op16, op16_full, op2d, sing16(p)):
        rows, cols, coef = op.act_rows, op.act_cols, op.act_coef
        mu = op.grid.mu
        target = np.zeros(op.n)
        target[op.strip_idx] = rng.standard_normal(op.n_strip)
        prox = np.zeros(op.n)
        prox[op.strip_idx] = mu[op.strip_idx] / dt
        # (free, proximal weights): the extension and the implicit step, whose
        # weights mu / dt on the strip hold the step's 1/dt
        for free, w in ((op.interior_idx, None), (np.arange(op.n), prox)):
            v = rng.standard_normal(op.n)
            captured.clear()
            with pytest.raises(NoConvergence):
                _newton_free(op, p, v, free, 1, lambda r: False,
                             prox=None if w is None else (w, target))
            mat = captured[0]
            d = v[cols] - v[rows]
            lap = add_at_laplacian(rows, cols, coef * (d * d + REG_EPS ** 2) ** ((p - 2.0) / 2.0),
                                   op.n)
            pinned = np.setdiff1d(np.arange(op.n), free)
            rhs = -lap[np.ix_(free, pinned)] @ v[pinned]
            grad = sf.energy_gradient(op, v, p).values[free]
            if w is not None:
                rhs += w[free] * target[free]
                grad += w[free] * (v[free] - target[free])
            err = np.abs(mat @ v[free] - rhs - grad).max()
            size = (np.abs(mat) @ np.abs(v[free]) + np.abs(rhs)).max()
            worst = max(worst, err / size)
    # both sides sum the same terms in other orders: relative to the row sums of
    # |A| |v| + |b| the worst case seen is 1.7e-16, the bound leaves 60 times that
    assert worst <= 1e-14, worst


def test_singular_p15_extension_meets_its_gate():
    # singular s = 1/2, p = 1.5 at h = 1/32 (ROADMAP item 4): the gate sits about
    # 200 times above the residual's roundoff floor, so the sweeps must reach it
    # within the 100-sweep budget
    op = make_op(1.0 / 32.0, 0.125, sf.singular_kernel(0.5, 1.5, 2), dim=2)
    g = np.random.default_rng([10, 0]).standard_normal(op.n_strip)
    field, report = extend_plaplace(op, g, 1.5, tol=1e-12)
    assert report.converged
    assert report.grad_norm <= 1e-12 * (1.0 + np.abs(g).max())
    # the public residual is the one the solve is gated on
    assert sf.interior_residual(op, field, 1.5) == report.grad_norm


def test_warm_start_is_cheap(op16):
    rng = np.random.default_rng(2)
    g = sf.StripField(rng.standard_normal(op16.n_strip), op16.grid)
    field, _ = extend_plaplace(op16, g, 3.0)
    again, report = extend_plaplace(op16, g, 3.0, x0=field.values[op16.interior_idx])
    assert report.iterations <= 3
    assert np.abs(again.values - field.values).max() <= 1e-8


def test_plaplace_extension_allocates_no_full_matrix():
    # the Newton Hessian is a sparse operator on the 256 interior nodes; one
    # full n x n matrix alone takes 8 n^2 bytes. Nothing edge-sized is cached on
    # the operator either: a copy of the interior edges would stay behind
    op = make_op(1.0 / 32.0, 0.25, sf.tent_kernel(0.25, 2), dim=2)
    assert (op.n, op.n_interior) == (1024, 256)
    g = sf.StripField(np.random.default_rng(6).standard_normal(op.n_strip), op.grid)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        _, report = extend_plaplace(op, g, 3.0)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak < 8 * op.n ** 2
    assert after - before < 8 * op.nnz


def test_solves_cache_no_same_class_edge_copy():
    # every Laplacian block is cut from a CSR adjacency built on demand, so
    # the strip rows the flux reads are the one edge subset cached; the rest
    # are the mirror sectors, the interior blocks and factors, the blocks of
    # S and the strip factors
    op = make_op(1.0 / 16.0, 0.25, sf.tent_kernel(0.5, 1))
    g = sf.StripField(np.random.default_rng(9).standard_normal(op.n_strip), op.grid)
    sf.extend_linear(op, g)
    sf.spectral_gap_beta(op)
    extend_plaplace(op, g, 1.5)
    for p in (2.0, 3.0):
        sf.evolve(op, sf.ProblemSpec("plaplace", p), g, 0.02, 0.01, sf.IMPLICIT)
    sf.evolve(op, sf.ProblemSpec("plaplace", 3.0), g, 0.02, 0.01, sf.EXPLICIT)
    assert set(op._cache) == {"sectors", "interior", "schur", "implicit_chol", "strip_edges"}


def test_no_convergence_carries_best(op16):
    rng = np.random.default_rng(77)
    g = sf.StripField(rng.standard_normal(op16.n_strip), op16.grid)
    with pytest.raises(NoConvergence) as info:
        extend_plaplace(op16, g, 3.0, tol=1e-15, max_iter=1)
    field, report = info.value.best
    assert not report.converged
    assert report.iterations == 1
    np.testing.assert_array_equal(field.values[op16.strip_idx], g.values)
    assert np.isfinite(field.values).all()


def test_a_stalled_descent_stops_at_once():
    # a p = 4 extension whose gate, 9.83e-12, sits below the residual that
    # roundoff leaves, 1.46e-11: F is frozen and the residual sets no new
    # best, so the solve stops after the same work whatever its budget
    op = make_op(1.0 / 8.0, 0.25, sf.singular_kernel(0.75, 4.0, 1))
    g = np.array([-4.21, -8.39, -8.83, 5.72])
    reports = []
    for max_iter in (100, 400, 2000):
        with pytest.raises(NoConvergence, match="stalled") as info:
            extend_plaplace(op, g, 4.0, tol=1e-12, max_iter=max_iter)
        field, report = info.value.best
        assert report.stalled and not report.converged
        assert report.iterations < 100
        assert report.grad_norm == sf.interior_residual(op, field, 4.0)
        # the gate lies below the floor: roundoff alone can keep the residual above it
        assert 1e-12 * (1.0 + np.max(np.abs(g))) < report.floor
        reports.append(report)
    assert all(r == reports[0] for r in reports)


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0])
def test_extension_report_is_the_last_evaluation(op16, op2d, p):
    # the report reuses the F and the residual of the loop's last point; with
    # the strip pinned they are the energy and the gated interior balance
    rng = np.random.default_rng(23)
    for op in (op16, op2d):
        g = sf.StripField(rng.standard_normal(op.n_strip), op.grid)
        field, report = extend_plaplace(op, g, p)
        assert report.converged and not report.stalled and report.floor is None
        assert report.energy == sf.energy(op, field, p)
        assert report.grad_norm == sf.interior_residual(op, field, p)
        # PCG runs on the Newton path only, not on the majoriser's
        assert (report.cg_iterations > 0) == (p > 2.0)
        with pytest.raises(NoConvergence) as info:
            extend_plaplace(op, g, p, tol=1e-15, max_iter=1)
        field, report = info.value.best
        assert report.energy == sf.energy(op, field, p)
        assert report.grad_norm == sf.interior_residual(op, field, p)


def test_bad_exponent(op16):
    g = sf.StripField(np.zeros(op16.n_strip), op16.grid)
    for p in (1.0, 0.5, -2.0):
        with pytest.raises(NonConvexExponent):
            extend_plaplace(op16, g, p)


def test_empty_interior_rejected():
    grid = sf.build_grid(BOX1, 0.25, 0.5, allow_empty_interior=True)
    op = sf.assemble(grid, sf.tent_kernel(0.5, 1), edge_mode=sf.FULL)
    g = sf.StripField(np.arange(4.0), grid)
    with pytest.raises(EmptyInterior):
        sf.extend_linear(op, g)
    with pytest.raises(EmptyInterior):
        extend_plaplace(op, g, 3.0)
