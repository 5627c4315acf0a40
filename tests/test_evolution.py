import math

import numpy as np
import pytest
import scipy.linalg as sla

import stripflow as sf
from stripflow import _accel, evolution
from stripflow.elliptic import EXT_TOL
from stripflow.errors import InvalidArgument, NoContraction, SingularSystem, SolverError
from stripflow.evolution import (LINEAR, LINEAR_FULL, PLAPLACE, PLAPLACE_FULL,
                                 SINGULAR_VARIANT, _step_implicit_values)
from stripflow.kernels import laplacian_dense, strip_edges

from conftest import make_op

LIN = sf.ProblemSpec(LINEAR)
P3 = sf.ProblemSpec(PLAPLACE, p=3.0)


def sym(op):
    return sf.StripField(np.array([1.0, -1.0]), op.grid)


def test_rhs_toy3(toy3_op):
    np.testing.assert_allclose(sf.rhs(toy3_op, LIN, sym(toy3_op)).values,
                               [-1.0, 1.0], atol=1e-15)
    p4 = sf.ProblemSpec(PLAPLACE, p=4.0)
    np.testing.assert_allclose(sf.rhs(toy3_op, p4, sym(toy3_op)).values,
                               [-1.0, 1.0], atol=1e-12)


def test_constant_states_are_equilibria(toy3_op, op16, op16_full, sing16):
    cases = [
        (toy3_op, LIN),
        (toy3_op, sf.ProblemSpec(PLAPLACE, p=4.0)),
        (op16, P3),
        (op16_full, sf.ProblemSpec(PLAPLACE_FULL, p=3.0)),
        (sing16(2.0), sf.ProblemSpec(SINGULAR_VARIANT)),
    ]
    for op, spec in cases:
        for level in (2.5, 1.0 / 3.0):
            c = sf.StripField(np.full(op.n_strip, level), op.grid)
            assert np.abs(sf.rhs(op, spec, c).values).max() == 0.0
            np.testing.assert_array_equal(
                sf.step_explicit(op, spec, c, 0.01).values, c.values)
            imp = sf.step_implicit(op, spec, c, 0.5).values
            if spec.p == 2.0:
                # the factorized linear solve rounds at machine level
                assert np.abs(imp - level).max() <= 1e-12
            else:
                np.testing.assert_array_equal(imp, c.values)


def test_step_explicit_toy3(toy3_op):
    u = sym(toy3_op)
    out = sf.step_explicit(toy3_op, LIN, u, 0.1)
    np.testing.assert_allclose(out.values, [0.9, -0.9], atol=1e-15)
    for _ in range(9):
        out = sf.step_explicit(toy3_op, LIN, out, 0.1)
    np.testing.assert_allclose(out.values, [0.9 ** 10, -(0.9 ** 10)], atol=1e-12)


def test_step_explicit_warns_past_bound(toy3_op):
    assert sf.stability_bound(toy3_op) == 1.0
    with pytest.warns(UserWarning):
        sf.step_explicit(toy3_op, LIN, sym(toy3_op), 2.0)


def test_step_implicit_toy3(toy3_op):
    out = sf.step_implicit(toy3_op, LIN, sym(toy3_op), 1.0)
    np.testing.assert_allclose(out.values, [0.5, -0.5], atol=1e-10)
    out = sf.step_implicit(toy3_op, LIN, sym(toy3_op), 0.5)
    np.testing.assert_allclose(out.values, [2.0 / 3.0, -2.0 / 3.0], atol=1e-10)


@pytest.mark.parametrize("dt", [0.1, 1.0, 10.0])
def test_linear_implicit_step_matches_full_grid_solve(
        dt, toy3_op, toy3_full_op, op16, op16_full, op2d, sing16):
    # oracle: backward Euler on the whole grid, (dt L + diag(strip mu)) v = strip mu u,
    # which eliminates the interior by the stationary balance
    empty = make_op(1.0 / 4.0, 0.5, sf.tent_kernel(0.5, 1), edge_mode=sf.FULL,
                    allow_empty=True)
    assert empty.n_interior == 0
    cases = [(toy3_op, LIN), (toy3_full_op, sf.ProblemSpec(LINEAR_FULL)),
             (op16, LIN), (op16_full, sf.ProblemSpec(LINEAR_FULL)), (op2d, LIN),
             (sing16(2.0), sf.ProblemSpec(SINGULAR_VARIANT)),
             (empty, sf.ProblemSpec(LINEAR_FULL))]
    rng = np.random.default_rng(15)
    for op, spec in cases:
        mu_s = op.grid.mu[op.strip_idx]
        m = np.zeros(op.n)
        m[op.strip_idx] = mu_s
        mat = dt * laplacian_dense(op) + np.diag(m)
        u = rng.standard_normal(op.n_strip)
        b = np.zeros(op.n)
        b[op.strip_idx] = mu_s * u
        want = np.linalg.solve(mat, b)
        strip, full = _step_implicit_values(op, spec, u, dt, 1e-10, 60, None)
        tol = 1e-13 * (1.0 + np.abs(u).max())
        assert np.abs(full - want).max() <= tol
        np.testing.assert_array_equal(strip, full[op.strip_idx])
        drift = abs(np.dot(mu_s, strip) - np.dot(mu_s, u))
        assert drift <= 1e-14 * np.sum(mu_s * np.abs(u))


def test_evolve_matches_exponential(toy3_op):
    traj = sf.evolve(toy3_op, LIN, sym(toy3_op), 1.0, 1e-3)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(traj.final.values - np.array([math.exp(-1.0), -math.exp(-1.0)])).max() <= 1e-3


def test_evolve_trajectory_layout(toy3_op):
    traj = sf.evolve(toy3_op, LIN, sym(toy3_op), 0.1, 0.01)
    assert traj.states.shape == (11, 2)
    assert traj.diag.shape == (11, len(sf.DIAG_COLUMNS))
    np.testing.assert_array_equal(traj.states[0], [1.0, -1.0])
    assert (np.diff(traj.times) > 0).all()
    # diagnostics are recomputable from the stored states
    k = 5
    u = traj.field(k)
    assert traj.diag[k, 0] == pytest.approx(sf.mass(toy3_op.grid, u), abs=1e-15)
    assert traj.diag[k, 2] == pytest.approx(
        sf.lq_distance_to_mean(toy3_op.grid, u, 2.0), abs=1e-15)


def test_energy_column_is_the_energy_of_the_extended_state(toy3_op, op16, op2d, sing16):
    # the column pairs the strip flux alone, (1/p) sum_S mu (c - u) flux: it
    # drops the interior rows of Euler's identity, which vanish up to the
    # gate the state was solved to. An extension's W-unit balance is within
    # its gate of 0 on the interior; an implicit p != 2 state's gradient,
    # dt times the coefficient row sums there, is within tol = 1e-10
    rng = np.random.default_rng(17)
    cases = [(toy3_op, LIN), (op16, LIN), (op2d, LIN),
             (sing16(2.0), sf.ProblemSpec(SINGULAR_VARIANT)),
             (toy3_op, sf.ProblemSpec(PLAPLACE, p=4.0)), (op16, P3),
             (op2d, sf.ProblemSpec(PLAPLACE, p=4.0)),
             (sing16(3.0), sf.ProblemSpec(SINGULAR_VARIANT, p=3.0))]
    for op, spec in cases:
        p = spec.p
        mu_i = op.grid.mu[op.interior_idx]
        u0 = sf.StripField(rng.standard_normal(op.n_strip), op.grid)
        for integrator, dt in ((sf.EXPLICIT, 0.4 * sf.stability_bound(op)),
                               (sf.IMPLICIT, 0.1)):
            traj = sf.evolve(op, spec, u0, 5.0 * dt, dt, integrator)
            for uv, col in zip(traj.states, traj.diag[:, 6]):
                want = sf.energy(op, sf.extend(op, uv, p, tol=EXT_TOL), p)
                osc = np.ptp(uv)
                if p == 2.0 or integrator == sf.EXPLICIT:
                    gate = (1e-10 if p == 2.0 else EXT_TOL) * (1.0 + np.max(np.abs(uv)))
                    slack = osc * np.sum(mu_i) * gate / p
                else:
                    slack = osc * op.n_interior * 1e-10 / (p * dt)
                assert abs(col - want) <= slack + 1e-12 * want


@pytest.mark.parametrize("integrator", [sf.EXPLICIT, sf.IMPLICIT])
def test_evolve_makes_one_strip_pass_per_state(op2d, integrator, monkeypatch):
    # one strip flux per state gives its energy and the explicit step; no
    # pass over the whole edge list is made for the diagnostics
    real = _accel.phi_row_sums
    passes = []

    def recording(rows, *args):
        passes.append(rows)
        return real(rows, *args)
    monkeypatch.setattr(_accel, "phi_row_sums", recording)
    u0 = sf.StripField(np.random.default_rng(18).standard_normal(op2d.n_strip), op2d.grid)
    dt = 0.4 * sf.stability_bound(op2d)
    sf.evolve(op2d, LIN, u0, 5.0 * dt, dt, integrator)
    assert len(passes) == 6
    strip_rows = strip_edges(op2d)[0]
    assert all(np.array_equal(rows, strip_rows) for rows in passes)


def test_evolve_mass_column(toy3_op):
    u0 = sf.StripField(np.array([1.0, 0.0]), toy3_op.grid)
    traj = sf.evolve(toy3_op, LIN, u0, 1.0, 0.01)
    np.testing.assert_allclose(traj.diag[:, 0], 1.0, atol=1e-12)


def test_evolve_rejects_bad_grid_of_times(toy3_op):
    with pytest.raises(InvalidArgument):
        sf.evolve(toy3_op, LIN, sym(toy3_op), 1.0, 0.3)
    with pytest.raises(InvalidArgument):
        sf.evolve(toy3_op, LIN, sym(toy3_op), -1.0, 0.1)
    with pytest.raises(InvalidArgument):
        sf.evolve(toy3_op, LIN, sym(toy3_op), 1.0, 0.1, integrator="leapfrog")


def test_mass_conserved_under_explicit_step(op16, op16_full, sing16):
    rng = np.random.default_rng(6)
    cases = [
        (op16, sf.ProblemSpec(LINEAR)),
        (op16, sf.ProblemSpec(PLAPLACE, p=3.0)),
        (op16_full, sf.ProblemSpec(LINEAR_FULL)),
        (op16_full, sf.ProblemSpec(PLAPLACE_FULL, p=3.0)),
        (sing16(2.0), sf.ProblemSpec(SINGULAR_VARIANT)),
        (sing16(1.5), sf.ProblemSpec(SINGULAR_VARIANT, p=1.5)),
    ]
    for op, spec in cases:
        mu_s = op.grid.mu[op.strip_idx]
        for _ in range(3):
            u = rng.standard_normal(op.n_strip)
            out = sf.step_explicit(op, spec, sf.StripField(u, op.grid), 0.01)
            drift = abs(np.dot(mu_s, out.values) - np.dot(mu_s, u))
            assert drift <= 1e-12 * (1.0 + np.sum(mu_s * np.abs(u)))


def test_implicit_mean_deviation_never_grows(op16):
    rng = np.random.default_rng(9)
    for spec in (sf.ProblemSpec(LINEAR), sf.ProblemSpec(PLAPLACE, p=3.0)):
        u0 = sf.StripField(rng.standard_normal(op16.n_strip), op16.grid)
        traj = sf.evolve(op16, spec, u0, 2.0, 0.1, integrator=sf.IMPLICIT)
        d2 = traj.diag[:, 2]
        assert (np.diff(d2) <= 1e-10).all()


def test_explicit_deviation_never_grows_below_bound(op16, op16_full, sing16):
    # the advisory is the Gershgorin bound for the linearized operator, so
    # the guarantee covers exponent-2 dynamics; the p=3 rows are included
    # because the local slope only shrinks as those trajectories flatten
    rng = np.random.default_rng(10)
    cases = [(op16, sf.ProblemSpec(LINEAR)),
             (op16_full, sf.ProblemSpec(LINEAR_FULL)),
             (op16, sf.ProblemSpec(PLAPLACE, p=2.0, q=1.0)),
             (op16_full, sf.ProblemSpec(PLAPLACE_FULL, p=2.0)),
             (sing16(2.0), sf.ProblemSpec(SINGULAR_VARIANT)),
             (op16, sf.ProblemSpec(PLAPLACE, p=3.0)),
             (sing16(3.0), sf.ProblemSpec(SINGULAR_VARIANT, p=3.0))]
    runs = 0
    for op, spec in cases:
        dt = 0.8 * sf.stability_bound(op)
        reps = 2 if spec.p == 2.0 else 1
        for _ in range(reps):
            u0 = sf.StripField(rng.standard_normal(op.n_strip), op.grid)
            traj = sf.evolve(op, spec, u0, 20 * dt, dt)
            dp = traj.diag[:, 3]
            assert (np.diff(dp) <= 1e-12).all()
            runs += 1
    assert runs == 12


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_resolvent_is_nonexpansive_and_ordered(op16, sing16, p):
    rng = np.random.default_rng(int(p * 7))
    mu_s = op16.grid.mu[op16.strip_idx]

    def norm(vals, q):
        if np.isinf(q):
            return np.abs(vals).max()
        return np.sum(mu_s * np.abs(vals) ** q) ** (1.0 / q)

    for op, spec in [(op16, sf.ProblemSpec(PLAPLACE if p != 2.0 else LINEAR, p=p)),
                     (sing16(p), sf.ProblemSpec(SINGULAR_VARIANT, p=p))]:
        for dt in (0.1, 1.0):
            for _ in range(3):
                u = rng.standard_normal(op.n_strip)
                v = rng.standard_normal(op.n_strip)
                ru = sf.step_implicit(op, spec, sf.StripField(u, op.grid), dt).values
                rv = sf.step_implicit(op, spec, sf.StripField(v, op.grid), dt).values
                for q in (1.0, 2.0, np.inf):
                    assert norm(ru - rv, q) <= norm(u - v, q) + 1e-8
                hi = np.maximum(u, v)
                rhi = sf.step_implicit(op, spec, sf.StripField(hi, op.grid), dt).values
                assert (rhi >= ru - 1e-9).all()
                assert (rhi >= rv - 1e-9).all()


def test_rhs_equals_schur_action(op16, op16_full):
    rng = np.random.default_rng(12)
    for op, spec in [(op16, sf.ProblemSpec(LINEAR)),
                     (op16_full, sf.ProblemSpec(LINEAR_FULL))]:
        S = sf.schur_complement(op)
        mu_s = op.grid.mu[op.strip_idx]
        u = rng.standard_normal(op.n_strip)
        got = sf.rhs(op, spec, sf.StripField(u, op.grid)).values
        want = -(S @ u) / mu_s
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_integrators_agree_to_first_order(op16):
    rng = np.random.default_rng(13)
    u0 = sf.StripField(rng.standard_normal(op16.n_strip), op16.grid)
    dt = 1e-3
    mu_s = op16.grid.mu[op16.strip_idx]
    tol = 5.0 * dt * np.sqrt(np.sum(mu_s * u0.values ** 2))
    exp = sf.evolve(op16, LIN, u0, 0.1, dt).final.values
    imp = sf.evolve(op16, LIN, u0, 0.1, dt, integrator=sf.IMPLICIT).final.values
    pic = sf.picard_solve(op16, LIN, u0, 0.1, nt=101).states[-1]
    assert np.abs(exp - imp).max() <= tol
    assert np.abs(exp - pic).max() <= tol
    assert np.abs(imp - pic).max() <= tol


def test_picard_toy3(toy3_op):
    traj = sf.picard_solve(toy3_op, LIN, sym(toy3_op), 0.1)
    assert traj.states.shape == (11, 2)
    target = np.array([math.exp(-0.1), -math.exp(-0.1)])
    assert np.abs(traj.states[-1] - target).max() <= 1e-4


def test_picard_constant_is_immediate(toy3_op):
    c = sf.StripField(np.full(2, 3.0), toy3_op.grid)
    traj = sf.picard_solve(toy3_op, LIN, c, 0.5)
    np.testing.assert_array_equal(traj.states, np.full((11, 2), 3.0))


def test_picard_large_window_fails(toy3_op):
    with pytest.raises(NoContraction):
        sf.picard_solve(toy3_op, LIN, sym(toy3_op), 50.0)


def test_picard_argument_checks(toy3_op, sing16):
    with pytest.raises(InvalidArgument):
        sf.picard_solve(toy3_op, P3, sym(toy3_op), 0.1)
    with pytest.raises(InvalidArgument):
        sf.picard_solve(toy3_op, LIN, sym(toy3_op), 0.1, nt=5)
    with pytest.raises(InvalidArgument):
        sf.picard_solve(toy3_op, LIN, sym(toy3_op), -0.1)


def test_compatibility_checks(op16, op16_full, sing16):
    u = sf.StripField(np.zeros(op16.n_strip), op16.grid)
    with pytest.raises(InvalidArgument):
        sf.rhs(op16, sf.ProblemSpec(LINEAR_FULL), u)
    with pytest.raises(InvalidArgument):
        sf.rhs(op16_full, LIN, sf.StripField(np.zeros(op16_full.n_strip), op16_full.grid))
    with pytest.raises(InvalidArgument):
        sf.rhs(op16, sf.ProblemSpec(SINGULAR_VARIANT), u)
    sg = sing16(2.0)
    with pytest.raises(InvalidArgument):
        sf.rhs(sg, LIN, sf.StripField(np.zeros(sg.n_strip), sg.grid))
    # the singular kernel needs the singular variant, at the kernel's p
    with pytest.raises(InvalidArgument):
        sf.rhs(sg, sf.ProblemSpec(PLAPLACE), sf.StripField(np.zeros(sg.n_strip), sg.grid))
    with pytest.raises(InvalidArgument):
        sf.rhs(sg, sf.ProblemSpec(SINGULAR_VARIANT, p=3.0),
               sf.StripField(np.zeros(sg.n_strip), sg.grid))


def test_problem_spec_validation():
    with pytest.raises(InvalidArgument):
        sf.ProblemSpec("heat")
    with pytest.raises(InvalidArgument):
        sf.ProblemSpec(PLAPLACE, p=1.0)
    with pytest.raises(InvalidArgument):
        sf.ProblemSpec(LINEAR, p=3.0)
    with pytest.raises(InvalidArgument):
        sf.ProblemSpec(PLAPLACE, p=3.0, q=0.5)


def test_solver_failure_carries_partial_trajectory(op16):
    rng = np.random.default_rng(14)
    u0 = sf.StripField(5.0 * rng.standard_normal(op16.n_strip), op16.grid)
    with pytest.raises(SolverError) as info:
        sf.evolve(op16, P3, u0, 20.0, 10.0, integrator=sf.IMPLICIT,
                  tol=1e-13, max_iter=1)
    partial = info.value.partial
    assert partial.times.size >= 1
    assert partial.times[0] == 0.0
    np.testing.assert_array_equal(partial.states[0], u0.values)


def test_explicit_failure_keeps_the_states_before_it(op16, monkeypatch):
    u0 = sf.StripField(np.random.default_rng(15).standard_normal(op16.n_strip), op16.grid)
    dt = 0.5 * sf.stability_bound(op16)
    whole = sf.evolve(op16, P3, u0, 4.0 * dt, dt)
    real = evolution._extended_values
    calls = []

    def third_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise SingularSystem("injected")
        return real(*args, **kwargs)
    monkeypatch.setattr(evolution, "_extended_values", third_fails)
    with pytest.raises(SingularSystem) as info:
        sf.evolve(op16, P3, u0, 4.0 * dt, dt)
    partial = info.value.partial
    np.testing.assert_array_equal(partial.times, whole.times[:2])
    np.testing.assert_array_equal(partial.states, whole.states[:2])
    np.testing.assert_array_equal(partial.diag, whole.diag[:2])


def _square_arrays(obj, n):
    if isinstance(obj, np.ndarray):
        return int(obj.shape == (n, n))
    if isinstance(obj, (tuple, list)):
        return sum(_square_arrays(item, n) for item in obj)
    return 0


def test_implicit_cache_keeps_one_strip_factor():
    op = make_op(1.0 / 8.0, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    u = sf.StripField(np.random.default_rng(16).standard_normal(op.n_strip), op.grid)
    for dt in (0.1, 1.0, 10.0):
        sf.step_implicit(op, LIN, u, dt)
    assert op.n_strip != op.n_interior
    # S itself plus the factor of M + dt S for the last dt only
    assert _square_arrays(list(op._cache.values()), op.n_strip) == 2


def test_implicit_p3_step_from_a_constant_interior(op2d, monkeypatch):
    # the constant interior start leaves every deep interior node, all of whose
    # neighbours are interior, with an all-zero Hessian row at p = 3: PCG
    # signals it, the Levenberg shift takes over and the step still converges
    signals = []
    real = _accel.pcg

    def recording(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except np.linalg.LinAlgError:
            signals.append(None)
            raise
    monkeypatch.setattr(_accel, "pcg", recording)
    uv = np.random.default_rng(31).standard_normal(op2d.n_strip)
    dt, tol = 0.5, 1e-10
    out, full = _step_implicit_values(op2d, P3, uv, dt, tol, 60, None)
    assert signals
    mu_s = op2d.grid.mu[op2d.strip_idx]
    grad = dt * sf.energy_gradient(op2d, full, 3.0).values
    grad[op2d.strip_idx] += mu_s * (out - uv)
    # the step's own gate, recomputed in another order of operations
    assert np.max(np.abs(grad)) <= 1.01 * tol
    np.testing.assert_array_equal(out, full[op2d.strip_idx])


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_implicit_evolve_makes_no_dense_factorisation(op16, op2d, p, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("p >= 2 Newton steps solve with PCG, not Cholesky")
    monkeypatch.setattr(sla, "cho_factor", refuse)
    monkeypatch.setattr(sla, "cho_solve", refuse)
    rng = np.random.default_rng(32)
    for op in (op16, op2d):
        g = sf.StripField(rng.standard_normal(op.n_strip), op.grid)
        traj = sf.evolve(op, sf.ProblemSpec(PLAPLACE, p=p), g, 1.0, 0.25, sf.IMPLICIT)
        assert np.isfinite(traj.states).all()
