import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import stripflow as sf
from stripflow import _accel, elliptic, evolution, kernels
from stripflow.elliptic import EXT_TOL, _extended_values, _midrange, _pairing, eps_for
from stripflow.errors import (InvalidArgument, NoContraction, NoConvergence, SingularSystem,
                              SolverError)
from stripflow.evolution import (LINEAR, LINEAR_FULL, PLAPLACE, PLAPLACE_FULL,
                                 SINGULAR_VARIANT, _schur_flux, _step_implicit_values)
from stripflow.io import write_trajectory_csv
from stripflow.kernels import edge_list, laplacian_dense
from stripflow.symmetry import sectors

from conftest import make_op, nonuniform_line_op, schur_oracle

LIN = sf.ProblemSpec(LINEAR)
P3 = sf.ProblemSpec(PLAPLACE, p=3.0)

# Newton and PCG iterations of the five implicit p = 3 steps of dt = 0.5 on
# op2d from default_rng(18) strip data
NEWTON_ITERS = [4, 4, 4, 4, 4]
PCG_ITERS = [20, 20, 20, 22, 22]


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
        # the strip solve makes no extension and no report; its flux is the
        # Schur flux of the new state. The test extends the result
        strip, vals, flux, report = _step_implicit_values(op, spec, u, dt, 1e-10, 60, None)
        assert vals is None and report is None
        np.testing.assert_array_equal(flux, _schur_flux(op, strip))
        full = _extended_values(op, strip, 2.0)[0]
        tol = 1e-13 * (1.0 + np.abs(u).max())
        assert np.abs(full - want).max() <= tol
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


def test_diagnostics_are_one_call_each_to_the_public_functions(toy3_op, monkeypatch):
    # each state's mass and distances come from one call to mass and one to
    # lq_distance_to_mean, and equal the one-exponent calls bit for bit
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(evolution, "mass", counting(sf.mass))
    monkeypatch.setattr(evolution, "lq_distance_to_mean", counting(sf.lq_distance_to_mean))
    traj = sf.evolve(toy3_op, LIN, sym(toy3_op), 0.1, 0.01)
    assert calls == ["mass", "lq_distance_to_mean"] * 11
    for k in range(11):
        u = traj.field(k)
        assert traj.diag[k, 0] == sf.mass(toy3_op.grid, u)
        want = [sf.lq_distance_to_mean(toy3_op.grid, u, q)
                for q in (1.0, 2.0, LIN.p, LIN.q, np.inf)]
        np.testing.assert_array_equal(traj.diag[k, 1:6], want)


@pytest.mark.parametrize("integrator", [sf.EXPLICIT, sf.IMPLICIT])
def test_p2_evolve_matches_the_extension_route(op16, op16_full, sing16, integrator):
    # oracle: the flux of every state read off its extension, which is how the
    # p = 2 dynamics are defined; the explicit oracle steps with it, and the
    # implicit one solves backward Euler on the whole grid,
    # (dt L + diag(strip mu)) v = strip mu u, which eliminates the interior
    cases = [(op16, LIN), (op16_full, sf.ProblemSpec(LINEAR_FULL)),
             (sing16(2.0), sf.ProblemSpec(SINGULAR_VARIANT)),
             (nonuniform_line_op(LIN.edge_mode), LIN)]
    rng = np.random.default_rng(41)
    eps = np.finfo(float).eps
    nsteps = 20
    for op, spec in cases:
        mu_s = op.grid.mu[op.strip_idx]
        dt = 0.4 * sf.stability_bound(op) if integrator == sf.EXPLICIT else 0.5
        whole = dt * laplacian_dense(op)
        whole[op.strip_idx, op.strip_idx] += mu_s
        b = np.zeros(op.n)
        u0 = rng.standard_normal(op.n_strip) + 3.0
        states, diag = [], []
        u = u0
        for _ in range(nsteps + 1):
            flux = _extended_values(op, u, 2.0)[1]
            states.append(u)
            diag.append(evolution._diag_row(op, spec, u, flux))
            if integrator == sf.EXPLICIT:
                u = u + dt * flux
            else:
                b[op.strip_idx] = mu_s * u
                u = np.linalg.solve(whole, b)[op.strip_idx]
        states, diag = np.array(states), np.array(diag)
        traj = sf.evolve(op, spec, u0, nsteps * dt, dt, integrator)
        assert np.abs(traj.states - states).max() <= 1e-13 * np.abs(states).max()
        assert np.all(np.abs(traj.diag - diag) <= 1e-13 * np.abs(diag).max(axis=0))
        # the mass column itself is a sum of n_S rounded terms
        drift = np.abs(traj.diag[:, 0] - traj.diag[0, 0]).max()
        want = np.abs(diag[:, 0] - diag[0, 0]).max()
        assert drift <= want + op.n_strip * eps * np.dot(mu_s, np.abs(u0))
        # constants are fixed points bit for bit, with energy +0
        c = np.full(op.n_strip, rng.uniform(-5.0, 5.0))
        traj = sf.evolve(op, spec, c, nsteps * dt, dt, integrator)
        assert np.array_equal(traj.states, np.broadcast_to(c, traj.states.shape))
        assert np.all(traj.diag[:, 6] == 0.0) and np.all(np.copysign(1.0, traj.diag[:, 6]) == 1.0)


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


@pytest.mark.parametrize("mode", [sf.EXCLUDE_STRIP_STRIP, sf.FULL])
def test_p_ne_2_work_writes_one_edge_set(mode, monkeypatch):
    # the p != 2 strip flux is read off the balance that the state's
    # extension or implicit step computed, so the pairs x < y are the one
    # edge set that p = 3 evolves of either integrator, rhs, an explicit step
    # and the quotient write: their rows once and their CSR skeleton once,
    # not once per Newton iteration, pass or state. The p = 2 evolves before
    # them write neither
    op = make_op(1.0 / 16.0, 0.125, sf.tent_kernel(0.25, 2), mode, dim=2)
    calls = {"_write_rows": 0, "skeleton": 0}
    for owner, name in ((kernels, "_write_rows"), (_accel, "skeleton")):
        def counting(*args, real=getattr(owner, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, counting)
    full = mode == sf.FULL
    lin = sf.ProblemSpec(LINEAR_FULL if full else LINEAR)
    p3 = sf.ProblemSpec(PLAPLACE_FULL if full else PLAPLACE, p=3.0)
    u0 = sf.StripField(np.random.default_rng(18).standard_normal(op.n_strip), op.grid)
    dt = 0.1 * sf.stability_bound(op)
    for integrator in (sf.EXPLICIT, sf.IMPLICIT):
        sf.evolve(op, lin, u0, 3.0 * dt, dt, integrator)
    assert calls == {"_write_rows": 0, "skeleton": 0}
    for integrator in (sf.EXPLICIT, sf.IMPLICIT):
        sf.evolve(op, p3, u0, 3.0 * dt, dt, integrator)
    sf.rhs(op, p3, u0)
    sf.step_explicit(op, p3, u0, dt)
    mu_s = op.grid.mu[op.strip_idx]
    sf.rayleigh_quotient(op, u0.values - np.dot(mu_s, u0.values) / np.sum(mu_s), 3.0)
    assert calls == {"_write_rows": 1, "skeleton": 1}


@pytest.mark.parametrize("mode", [sf.EXCLUDE_STRIP_STRIP, sf.FULL])
def test_a_pass_buffer_builds_its_transpose_once(mode, monkeypatch):
    # the balances read their column sums and the Hessian products multiply
    # through the transpose view their buffer was made with, not through one
    # built again on every pass
    op = make_op(1.0 / 16.0, 0.125, sf.tent_kernel(0.25, 2), mode, dim=2)
    spec = sf.ProblemSpec(PLAPLACE_FULL if mode == sf.FULL else PLAPLACE, p=3.0)
    u0 = sf.StripField(np.random.default_rng(19).standard_normal(op.n_strip), op.grid)
    calls = {"edge_matrix": 0, "transpose": 0, "_pair_balance": 0}
    for owner, name in ((_accel, "edge_matrix"), (sp.csr_matrix, "transpose"),
                        (elliptic, "_pair_balance")):
        def counting(*args, real=getattr(owner, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    sf.step_implicit(op, spec, u0, 0.1 * sf.stability_bound(op))
    assert calls["edge_matrix"] == 2 and calls["_pair_balance"] > 2
    assert calls["transpose"] <= calls["edge_matrix"]


def _flux_bound(op, vals, p):
    # per strip row, the rounding of a balance as
    # test_pair_balance_and_energy_match_the_edge_list bounds it, plus that
    # of an iterate rounded by eps relative: eps max |v| times the row's
    # W-unit sum of phi_p' (the formula behind EnergyReport.floor)
    rows, cols, coef = edge_list(op)
    mu, eps = op.grid.mu, np.finfo(float).eps
    d = vals[cols] - vals[rows]
    terms = np.abs(coef * _accel._phi(d, p, eps_for(p)))
    slopes = coef * _accel._psi(d, p, eps_for(p))
    bound = ((np.bincount(rows, minlength=op.n) + 1) * eps
             * np.bincount(rows, weights=terms, minlength=op.n) / mu
             + eps * np.max(np.abs(vals)) * np.bincount(rows, weights=slopes, minlength=op.n) / mu)
    return bound[op.strip_idx]


def _assert_flux_of(op, vals, flux, p):
    fresh = elliptic.residual_values(op, vals, p, eps_for(p))[op.strip_idx]
    assert np.all(np.abs(flux - fresh) <= _flux_bound(op, vals, p))
    return fresh


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0])
def test_solve_flux_matches_a_fresh_pass(op2d, p, monkeypatch):
    # rhs, an implicit step and each state of an evolve take the strip flux
    # from the balance their own solve computed; it is a fresh pass's strip
    # rows at the state they return, up to the rounding of the two passes
    # and, for the implicit step, which returns x + c for the balance taken
    # at x, of the shift. The energy column pairs that flux
    ops = (op2d, make_op(1.0 / 8.0, 0.125, sf.tent_kernel(0.25, 2), sf.FULL, 2),
           nonuniform_line_op(sf.EXCLUDE_STRIP_STRIP))
    rng = np.random.default_rng(23)
    seen = []
    for name in ("_extended_values", "_step_implicit_values"):
        def recording(*args, real=getattr(evolution, name), **kwargs):
            out = real(*args, **kwargs)
            seen.append(out if len(out) == 2 else out[1:3])
            return out
        monkeypatch.setattr(evolution, name, recording)
    for op in ops:
        spec = sf.ProblemSpec(PLAPLACE_FULL if op.edge_mode == sf.FULL else PLAPLACE, p=p)
        mu_s = op.grid.mu[op.strip_idx]
        uv = rng.standard_normal(op.n_strip)
        seen.clear()
        flux = sf.rhs(op, spec, uv).values
        (vals, got), = seen
        np.testing.assert_array_equal(got, flux)
        _assert_flux_of(op, vals, flux, p)
        seen.clear()
        out, vals, flux, report = _step_implicit_values(op, spec, uv, 0.5, 1e-10, 60, None)
        assert report.balance.shape == (op.n,)
        np.testing.assert_array_equal(flux, report.balance[op.strip_idx])
        np.testing.assert_array_equal(out, vals[op.strip_idx])
        _assert_flux_of(op, vals, flux, p)
        dt = 0.1 * sf.stability_bound(op)
        for integrator in (sf.EXPLICIT, sf.IMPLICIT):
            seen.clear()
            traj = sf.evolve(op, spec, uv, 4.0 * dt, dt, integrator)
            assert len(seen) == traj.states.shape[0]
            for state, energy, (vals, flux) in zip(traj.states, traj.diag[:, -1], seen):
                np.testing.assert_array_equal(vals[op.strip_idx], state)
                fresh = _assert_flux_of(op, vals, flux, p)
                weight = mu_s * np.abs(_midrange(state) - state)
                slack = (np.dot(weight, _flux_bound(op, vals, p))
                         + op.n_strip * np.finfo(float).eps * np.dot(weight, np.abs(fresh))) / p
                assert abs(energy - _pairing(mu_s, state, fresh, p)) <= slack
    # a solve that gives up reports its balance too
    with pytest.raises(NoConvergence) as info:
        elliptic.extend_plaplace(op2d, rng.standard_normal(op2d.n_strip), p, tol=1e-15,
                                 max_iter=1)
    field, report = info.value.best
    _assert_flux_of(op2d, field.values, report.balance[op2d.strip_idx], p)


def test_the_p2_route_builds_no_csr_adjacency(monkeypatch):
    # the sector blocks of L_II, L_IS and L_SS are folded straight from the
    # edge list, so on a fresh operator the gap and p = 2 evolves of either
    # integrator make no CSR skeleton or adjacency; a p = 3 implicit evolve
    # shows that the counters count
    calls = []
    for name in ("skeleton", "adjacency"):
        def counting(*args, real=getattr(_accel, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(_accel, name, counting)

    def fresh():
        return make_op(1.0 / 16.0, 0.125, sf.tent_kernel(0.25, 2), dim=2)
    sf.spectral_gap_beta(fresh())
    for integrator in (sf.EXPLICIT, sf.IMPLICIT):
        op = fresh()
        u0 = sf.StripField(np.random.default_rng(18).standard_normal(op.n_strip), op.grid)
        dt = 0.4 * sf.stability_bound(op)
        sf.evolve(op, LIN, u0, 5.0 * dt, dt, integrator)
    assert calls == []
    sf.evolve(op, P3, u0, 0.5, 0.5, sf.IMPLICIT)
    assert set(calls) == {"skeleton", "adjacency"}


def test_an_explicit_p4_failure_names_its_step_and_dt():
    # stability_bound is the p = 2 bound 1 / max strip row sum; at p = 4 half
    # of it is too long a step for this data, and the descent that extends
    # the second state stalls: the error says which step and which dt
    op = make_op(1.0 / 16.0, 0.25, sf.tent_kernel(0.5, 1), edge_mode=sf.FULL)
    u0 = sf.StripField(np.random.default_rng(3).standard_normal(op.n_strip), op.grid)
    dt = 0.5 * sf.stability_bound(op)
    with pytest.raises(NoConvergence) as info:
        sf.evolve(op, sf.ProblemSpec(PLAPLACE_FULL, p=4.0), u0, 10 * dt, dt, sf.EXPLICIT)
    message = str(info.value)
    assert message.startswith(f"explicit step 2 of 10 with dt={dt:g} failed: descent stalled")
    assert "stability_bound is the p = 2 advisory only" in message
    assert info.value.exit_code == 3 and info.value.best is not None
    np.testing.assert_array_equal(info.value.partial.times, [0.0, dt])


def test_implicit_p3_evolve_reports_its_iterations(op2d, tmp_path):
    # one Newton and one PCG count per implicit p != 2 step, none at p = 2 or
    # for explicit steps; the CSV holds the diagnostics alone, as before
    u0 = sf.StripField(np.random.default_rng(18).standard_normal(op2d.n_strip), op2d.grid)
    traj = sf.evolve(op2d, P3, u0, 2.5, 0.5, sf.IMPLICIT)
    assert traj.newton_iters.tolist() == NEWTON_ITERS
    assert traj.pcg_iters.tolist() == PCG_ITERS
    bare = sf.Trajectory(traj.times, traj.states, traj.diag, traj.grid)
    write_trajectory_csv(tmp_path / "counted.csv", traj)
    write_trajectory_csv(tmp_path / "bare.csv", bare)
    assert (tmp_path / "counted.csv").read_bytes() == (tmp_path / "bare.csv").read_bytes()
    dt = 0.4 * sf.stability_bound(op2d)
    for spec, integrator in ((LIN, sf.IMPLICIT), (LIN, sf.EXPLICIT), (P3, sf.EXPLICIT)):
        traj = sf.evolve(op2d, spec, u0, 2.0 * dt, dt, integrator)
        assert traj.newton_iters is None and traj.pcg_iters is None


def test_a_failed_evolve_keeps_the_counts_of_its_steps(op2d, monkeypatch):
    # the third step fails: the partial trajectory has three states and the
    # counts of the two steps between them
    real = evolution._newton_free
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise NoConvergence("budget exhausted")
        return real(*args, **kwargs)
    monkeypatch.setattr(evolution, "_newton_free", failing)
    u0 = sf.StripField(np.random.default_rng(18).standard_normal(op2d.n_strip), op2d.grid)
    with pytest.raises(NoConvergence) as info:
        sf.evolve(op2d, P3, u0, 2.5, 0.5, sf.IMPLICIT)
    partial = info.value.partial
    assert partial.states.shape[0] == 3
    assert partial.newton_iters.tolist() == NEWTON_ITERS[:2]
    assert partial.pcg_iters.tolist() == PCG_ITERS[:2]


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


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 4.0])
def test_implicit_evolve_keeps_mass_to_roundoff(op16, op2d, sing16, p):
    # the p != 2 step is solved only to its gradient gate, but every iterate
    # is shifted by the constant that restores the strip mass, so the mass
    # drifts by roundoff alone over the run (the gate allows 1e-10 per step).
    # The p = 2 strip solve is shifted likewise: the rows of the computed S
    # sum to roundoff rather than 0, which a long step scales up
    if p == 2.0:
        rng = np.random.default_rng(13)
        runs = [(sing16(2.0), sf.ProblemSpec(SINGULAR_VARIANT, p=2.0), 500.0, 100.0)]
    else:
        rng = np.random.default_rng(33)
        runs = [(op, sf.ProblemSpec(PLAPLACE, p=p), 5.0, 0.5) for op in (op16, op2d)]
    for op, spec, t_end, dt in runs:
        mu_s = op.grid.mu[op.strip_idx]
        u0 = rng.standard_normal(op.n_strip)
        traj = sf.evolve(op, spec, u0, t_end, dt, sf.IMPLICIT)
        drift = np.abs(traj.diag[:, 0] - traj.diag[0, 0]).max()
        assert drift <= 1e-14 * np.dot(mu_s, np.abs(u0))


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
        S = schur_oracle(op)
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
    with pytest.raises(InvalidArgument, match="p = 2"):
        sf.picard_solve(toy3_op, P3, sym(toy3_op), 0.1)
    with pytest.raises(InvalidArgument):
        sf.picard_solve(toy3_op, LIN, sym(toy3_op), 0.1, nt=5)
    with pytest.raises(InvalidArgument):
        sf.picard_solve(toy3_op, LIN, sym(toy3_op), -0.1)


def test_picard_takes_any_variant_at_p2(op16):
    # linearity is p = 2, whatever the variant's name: the p-Laplacian
    # variant at p = 2 steps bit for bit as the linear one, and so sweeps
    u0 = sf.StripField(np.random.default_rng(21).standard_normal(op16.n_strip), op16.grid)
    assert sf.ProblemSpec(PLAPLACE, p=2.0).is_linear and not P3.is_linear
    lin = sf.picard_solve(op16, LIN, u0, 0.05)
    np.testing.assert_array_equal(
        sf.picard_solve(op16, sf.ProblemSpec(PLAPLACE, p=2.0), u0, 0.05).states, lin.states)


def test_rhs_refuses_strip_values_of_the_wrong_length(op2d):
    with pytest.raises(InvalidArgument, match="strip values"):
        sf.rhs(op2d, LIN, np.zeros(op2d.n_strip + 1))


def test_explicit_evolve_refuses_non_finite_data(op2d):
    u0 = np.zeros(op2d.n_strip)
    u0[1] = np.nan
    dt = 0.4 * sf.stability_bound(op2d)
    with pytest.raises(InvalidArgument, match="finite"):
        sf.evolve(op2d, LIN, u0, 2.0 * dt, dt)


def test_every_entry_point_checks_a_raw_array(toy3_op):
    # each public solver takes a raw array as it takes a StripField or a
    # FullField, and refuses one of the wrong length as the field would
    short = np.zeros(1)
    calls = [lambda: sf.energy(toy3_op, short, 2.0),
             lambda: sf.energy_gradient(toy3_op, short, 3.0),
             lambda: sf.interior_residual(toy3_op, short, 2.0),
             lambda: sf.extend_linear(toy3_op, short),
             lambda: sf.extend_plaplace(toy3_op, short, 3.0),
             lambda: sf.rhs(toy3_op, LIN, short),
             lambda: sf.step_explicit(toy3_op, LIN, short, 0.1),
             lambda: sf.step_implicit(toy3_op, P3, short, 0.1),
             lambda: sf.evolve(toy3_op, LIN, short, 0.2, 0.1),
             lambda: sf.picard_solve(toy3_op, LIN, short, 0.1),
             lambda: sf.rayleigh_quotient(toy3_op, short, 2.0)]
    for call in calls:
        with pytest.raises(InvalidArgument, match="expected"):
            call()


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


def test_p2_failure_keeps_the_marched_states_before_it(op2d, monkeypatch):
    # the third implicit step of a p = 2 march fails: the partial trajectory
    # unfolds the three states marched so far, with their diagnostics
    u0 = sf.StripField(np.random.default_rng(18).standard_normal(op2d.n_strip), op2d.grid)
    whole = sf.evolve(op2d, LIN, u0, 2.0, 0.5, integrator=sf.IMPLICIT)
    real, calls = evolution._step_implicit_values, []

    def third_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise SingularSystem("forced")
        return real(*args, **kwargs)
    monkeypatch.setattr(evolution, "_step_implicit_values", third_fails)
    with pytest.raises(SingularSystem) as info:
        sf.evolve(op2d, LIN, u0, 2.0, 0.5, integrator=sf.IMPLICIT)
    partial = info.value.partial
    np.testing.assert_array_equal(partial.times, whole.times[:3])
    np.testing.assert_array_equal(partial.states, whole.states[:3])
    np.testing.assert_allclose(partial.diag, whole.diag[:3], rtol=1e-14, atol=0.0)


def test_implicit_failure_carries_the_last_field_and_report(op16):
    # every descent solve fails with the (FullField, EnergyReport) pair it
    # returns on success, for its last iterate; evolve adds the partial run
    u0 = sf.StripField(np.random.default_rng(14).standard_normal(op16.n_strip), op16.grid)
    with pytest.raises(NoConvergence) as step:
        sf.step_implicit(op16, P3, u0, 0.5, max_iter=1)
    with pytest.raises(NoConvergence) as run:
        sf.evolve(op16, P3, u0, 1.0, 0.5, integrator=sf.IMPLICIT, max_iter=1)
    np.testing.assert_array_equal(run.value.partial.states[0], u0.values)
    for exc in (step.value, run.value):
        field, report = exc.best
        assert isinstance(field, sf.FullField) and isinstance(report, sf.EnergyReport)
        assert not report.converged
        assert report.iterations == 1


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
    sec = sectors(op)
    assert sec.order == 8
    assert [rows.shape[0] for rows in sec.block_reps(sec.strip)] == [4, 3, 7, 4, 3]
    assert [rows.shape[0] for rows in sec.block_reps(sec.interior)] == [6, 3, 9, 6, 3]
    # the blocks of S plus the factors of M + dt S_j for the last dt only,
    # every size pinned, the interior factors among them
    cache = list(op._cache.values())
    assert op._cache["implicit_chol"][0] == 10.0
    assert ({m: _square_arrays(cache, m) for m in (9, 7, 6, 4, 3)}
            == {9: 1, 7: 2, 6: 2, 4: 4, 3: 6})
    assert _square_arrays(cache, op.n_strip) == 0


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
    out, full = _step_implicit_values(op2d, P3, uv, dt, tol, 60, None)[:2]
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
