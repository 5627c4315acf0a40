import numpy as np
import pytest

import stripflow as sf
from stripflow import elliptic
from stripflow.elliptic import extend_plaplace
from stripflow.errors import (EmptyInterior, NoConvergence, NonConvexExponent)

from conftest import BOX1, make_op

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
    np.testing.assert_allclose(sf.energy_gradient(toy3_op, u, 2.0).values,
                               sf.apply_graph_laplacian(toy3_op, u).values,
                               atol=1e-16)
    assert sf.interior_residual(toy3_op, u, 2.0) <= 1e-15


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_extension_postcondition(op16, p):
    rng = np.random.default_rng(21)
    for _ in range(3):
        g = sf.StripField(rng.standard_normal(op16.n_strip), op16.grid)
        out = sf.extend(op16, g, p)
        bound = 1e-10 * (1.0 + np.abs(g.values).max())
        assert sf.interior_residual(op16, out, p) <= bound
        np.testing.assert_array_equal(out.values[op16.strip_idx], g.values)


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


def test_conjugate_gradient_path_matches_lu(monkeypatch):
    # above _DENSE_LIMIT interior nodes the interior system is solved by
    # CG; a limit of 0 sends this 144-node interior down that path
    def build():
        return make_op(1.0 / 16.0, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    direct = build()
    g = sf.StripField(np.random.default_rng(8).standard_normal(direct.n_strip), direct.grid)
    lu = sf.extend_linear(direct, g)
    monkeypatch.setattr(elliptic, "_DENSE_LIMIT", 0)
    sparse = build()
    cg = sf.extend_linear(sparse, g)
    assert sparse.n_interior == 144
    assert np.abs(cg.values - lu.values).max() <= 1e-13
    assert sf.interior_residual(sparse, cg, 2.0) <= 1e-12


def test_warm_start_is_cheap(op16):
    rng = np.random.default_rng(2)
    g = sf.StripField(rng.standard_normal(op16.n_strip), op16.grid)
    field, _ = extend_plaplace(op16, g, 3.0)
    again, report = extend_plaplace(op16, g, 3.0, x0=field.values[op16.interior_idx])
    assert report.iterations <= 3
    assert np.abs(again.values - field.values).max() <= 1e-8


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
