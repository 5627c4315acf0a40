"""End-to-end gate: eight go/no-go checks at desk scale.

Each check prints one `[criterion N] PASS/FAIL - <label>` line and, on
failure, lists the violated subchecks. Tolerances and runtime caps are
part of the check; nothing here is tuned per machine.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import stripflow as sf
from stripflow import elliptic as el
from stripflow.analysis import counterexample_sequence, fit_decay, spectral_gap_beta
from stripflow.evolution import Trajectory

from conftest import schur_oracle

GOLDEN = Path(__file__).parent / "data" / "counterexample_golden.json"


def report(num, label, failures, elapsed, cap):
    if elapsed > cap:
        failures.append(f"runtime {elapsed:.1f}s exceeds the {cap:.0f}s cap")
    verdict = "PASS" if not failures else "FAIL"
    print(f"\n[criterion {num}] {verdict} - {label} ({elapsed:.1f}s)")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def pair16():
    grid = sf.build_grid(sf.DomainBox(1, (0.0,), (1.0,)), 1.0 / 16.0, 0.25)
    return {"tent": sf.assemble(grid, sf.tent_kernel(0.5, 1),
                                sf.EXCLUDE_STRIP_STRIP),
            "bump": sf.assemble(grid, sf.bump_kernel(0.5, 1),
                                sf.EXCLUDE_STRIP_STRIP)}


def test_criterion_1_mass_conservation(op64, op64_full, sing64):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    cases = [(op64, sf.ProblemSpec("linear")),
             (op64_full, sf.ProblemSpec("linear-full")),
             (op64, sf.ProblemSpec("plaplace", p=3.0)),
             (op64_full, sf.ProblemSpec("plaplace-full", p=3.0)),
             (sing64(2.0), sf.ProblemSpec("singular", p=2.0))]
    failures = []
    for op, spec in cases:
        u0 = sf.StripField(rng.standard_normal(op.n_strip), op.grid)
        traj = sf.evolve(op, spec, u0, 5.0, 1e-3)
        m = traj.diag[:, 0]
        drift = float(np.max(np.abs(m - m[0])))
        if drift > 1e-10 * (1.0 + abs(m[0])):
            failures.append(f"{spec.variant}: mass drift {drift:.3e}")
    report(1, "mass conserved by explicit stepping in all five variants",
           failures, time.perf_counter() - t0, 30.0)


def test_criterion_2_exponential_rate(op64):
    t0 = time.perf_counter()
    failures = []
    gap = spectral_gap_beta(op64)
    beta = gap.beta
    traj = sf.evolve(op64, sf.ProblemSpec("linear"), gap.mode, 12.0, 0.01)
    diag = traj.diag.copy()
    diag[:, 2] = traj.diag[:, 2] ** 2
    fit = fit_decay(Trajectory(traj.times, traj.states, diag, op64.grid),
                    "d2", "exponential", (0.0, 1.0 / beta))
    rel = abs(fit.rate - 2.0 * beta) / (2.0 * beta)
    if rel > 0.02:
        failures.append(f"rate {fit.rate:.6g} vs 2*beta {2 * beta:.6g}, "
                        f"rel {rel:.3e}")
    if fit.r2 < 0.999:
        failures.append(f"r2 {fit.r2:.6f} below 0.999")
    report(2, "eigenmode squared distance decays at twice the gap",
           failures, time.perf_counter() - t0, 10.0)


def test_criterion_3_flat_profile_quotients(op64_rr):
    t0 = time.perf_counter()
    failures = []
    rows = counterexample_sequence(op64_rr, [4, 8, 16, 32])
    quot = np.array([q for _, q in rows])
    case = next(c for c in json.loads(GOLDEN.read_text())["cases"]
                if c["h"] == 0.015625)
    want = np.array(case["quotient"])
    if np.max(np.abs(quot - want)) > 1e-9 * np.max(want):
        failures.append(f"quotients {quot} drifted from the recorded {want}")
    if not (np.diff(quot) < 0.0).all():
        failures.append(f"sequence not strictly decreasing: {quot}")
    ratio = quot[-1] / quot[0]
    if ratio > 0.2:
        failures.append(f"final/first {ratio:.3f} above 0.2")
    report(3, "wall-bump quotient sequence collapses when r equals R",
           failures, time.perf_counter() - t0, 10.0)


def test_criterion_4_polynomial_envelope(op64):
    t0 = time.perf_counter()
    failures = []
    spec = sf.ProblemSpec("plaplace", p=3.0, q=2.0)
    alpha = (spec.p + spec.q - 2.0) / spec.q - 1.0
    rng = np.random.default_rng(0)
    u0 = sf.StripField(rng.standard_normal(op64.n_strip), op64.grid)
    traj = sf.evolve(op64, spec, u0, 50.0, 0.01, integrator="implicit")
    t = traj.times
    dp = traj.diag[:, 3]
    dq = traj.diag[:, 4]
    i1 = int(np.searchsorted(t, 1.0))
    sa = dp ** spec.p * t
    sb = dq ** spec.q * t ** alpha
    if np.max(sa[i1:]) > 10.0 * sa[i1]:
        failures.append(f"dp^p * t peaks at {np.max(sa[i1:]) / sa[i1]:.2f}x "
                        "its t=1 value")
    if np.max(sb[i1:]) > 10.0 * sb[i1]:
        failures.append(f"dq^q * t^alpha peaks at "
                        f"{np.max(sb[i1:]) / sb[i1]:.2f}x its t=1 value")
    worst = float(np.max(np.diff(dp), initial=-np.inf))
    if worst > 1e-10:
        failures.append(f"dp increases by {worst:.3e} at some step")
    report(4, "implicit p-Laplace run stays inside the polynomial envelope",
           failures, time.perf_counter() - t0, 120.0)


def test_criterion_5_singular_kernel_decay(sing64):
    t0 = time.perf_counter()
    failures = []
    op = sing64(2.0)
    rng = np.random.default_rng(0)
    u0 = sf.StripField(rng.uniform(-1.0, 1.0, op.n_strip), op.grid)
    traj = sf.evolve(op, sf.ProblemSpec("singular", p=2.0, q=2.0),
                     u0, 20.0, 1e-3)
    t = traj.times
    d2 = traj.diag[:, 2]
    m = traj.diag[:, 0]
    i1 = int(np.searchsorted(t, 1.0))
    s = d2 ** 2 * t
    if np.max(s[i1:]) > 10.0 * s[i1]:
        failures.append(f"d2^2 * t peaks at {np.max(s[i1:]) / s[i1]:.2f}x "
                        "its t=1 value")
    drift = float(np.max(np.abs(m - m[0])))
    if drift > 1e-10 * (1.0 + abs(m[0])):
        failures.append(f"mass drift {drift:.3e}")
    report(5, "singular kernel flow decays and conserves mass",
           failures, time.perf_counter() - t0, 60.0)


def _weighted_qnorm(op, vals, q):
    if np.isinf(q):
        return float(np.max(np.abs(vals)))
    mu = op.grid.mu[op.strip_idx]
    return float(np.sum(mu * np.abs(vals) ** q) ** (1.0 / q))


def test_criterion_6_resolvent_nonexpansive(pair16):
    t0 = time.perf_counter()
    failures = []
    combos = [(p, k) for p in (1.5, 2.0, 3.0) for k in ("tent", "bump")]
    dts = (0.05, 0.1, 0.2)
    rng = np.random.default_rng(0)
    worst_gap = -np.inf
    worst_order = -np.inf
    for j in range(200):
        p, kname = combos[j % 6]
        op = pair16[kname]
        spec = sf.ProblemSpec("plaplace", p=p)
        dt = dts[j % 3]
        u = rng.standard_normal(op.n_strip)
        v = rng.standard_normal(op.n_strip)
        w = u + np.abs(rng.standard_normal(op.n_strip))
        Ru, Rv, Rw = (sf.step_implicit(op, spec,
                                       sf.StripField(x, op.grid), dt).values
                      for x in (u, v, w))
        for q in (1.0, 2.0, np.inf):
            gap = (_weighted_qnorm(op, Ru - Rv, q)
                   - _weighted_qnorm(op, u - v, q))
            worst_gap = max(worst_gap, gap)
        worst_order = max(worst_order, float(np.max(Ru - Rw)))
    if worst_gap > 1e-8:
        failures.append(f"contraction violated by {worst_gap:.3e}")
    if worst_order > 1e-9:
        failures.append(f"ordering violated by {worst_order:.3e}")
    report(6, "implicit step contracts every weighted q-norm and "
              "preserves order", failures, time.perf_counter() - t0, 60.0)


def test_criterion_7_three_node_oracle(toy3_op):
    t0 = time.perf_counter()
    failures = []
    op = toy3_op
    spec = sf.ProblemSpec("linear")
    inode = op.interior_idx[0]

    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        g = rng.standard_normal(2)
        out = sf.extend_linear(op, sf.StripField(g, op.grid))[0]
        worst = max(worst, abs(out.values[inode] - (0.5 * g[0] + 0.5 * g[1])))
    if worst > 1e-15:
        failures.append(f"extension off the strip mean by {worst:.3e}")

    u0 = sf.StripField(np.array([1.0, -1.0]), op.grid)
    final = sf.evolve(op, spec, u0, 1.0, 1e-3).final.values
    closed = np.exp(-1.0) * np.array([1.0, -1.0])
    err = float(np.max(np.abs(final - closed)))
    if err > 1e-3:
        failures.append(f"explicit endpoint off exp(-t) by {err:.3e}")

    onestep = sf.step_implicit(op, spec, u0, 1.0).values
    err = float(np.max(np.abs(onestep - [0.5, -0.5])))
    if err > 1e-10:
        failures.append(f"implicit step off (0.5, -0.5) by {err:.3e}")

    beta = spectral_gap_beta(op).beta
    if abs(beta - 1.0) > 1e-10:
        failures.append(f"gap {beta!r} is not 1")

    pic = sf.picard_solve(op, spec, u0, 0.1)
    err = float(np.max(np.abs(pic.final.values
                              - np.exp(-0.1) * np.array([1.0, -1.0]))))
    if err > 1e-4:
        failures.append(f"integral-form endpoint off exp(-0.1) by {err:.3e}")

    report(7, "three-node fixture matches its closed forms",
           failures, time.perf_counter() - t0, 1.0)


def _regularized_energy(op, vals, p, eps):
    d = vals[op.act_cols] - vals[op.act_rows]
    return 0.5 / p * float(np.dot(op.act_coef, (d * d + eps * eps) ** (p / 2.0)))


def test_criterion_8_gradient_and_reduction(pair16, op64, op64_full):
    t0 = time.perf_counter()
    failures = []

    # this seed keeps every active edge difference away from the p < 2
    # regularization kink, so central differences resolve the gradient
    rng = np.random.default_rng(0)
    ops = (pair16["tent"], pair16["bump"])
    delta = 1e-6
    worst = 0.0
    for _ in range(20):
        fields = [rng.standard_normal(op.n) for op in ops]
        for op, vals in zip(ops, fields):
            for p in (1.5, 2.0, 3.0, 4.0):
                eps = el.eps_for(p)
                grad = sf.energy_gradient(op, sf.FullField(vals, op.grid),
                                          p).values
                fd = np.empty(op.n)
                for i in range(op.n):
                    up = vals.copy()
                    up[i] += delta
                    dn = vals.copy()
                    dn[i] -= delta
                    fd[i] = (_regularized_energy(op, up, p, eps)
                             - _regularized_energy(op, dn, p, eps)) / (2 * delta)
                worst = max(worst, float(np.max(np.abs(fd - grad))
                                         / np.max(np.abs(grad))))
    if worst > 1e-6:
        failures.append(f"finite differences disagree at rel {worst:.3e}")

    worst = 0.0
    for op, variant in ((op64, "linear"), (op64_full, "linear-full")):
        schur = schur_oracle(op)
        mu_s = op.grid.mu[op.strip_idx]
        spec = sf.ProblemSpec(variant)
        for _ in range(5):
            u = rng.standard_normal(op.n_strip)
            reduced = -(schur @ u) / mu_s
            direct = sf.rhs(op, spec, sf.StripField(u, op.grid)).values
            worst = max(worst, float(np.max(np.abs(reduced - direct))
                                     / np.max(np.abs(direct))))
    if worst > 1e-12:
        failures.append(f"reduced derivative disagrees at rel {worst:.3e}")

    report(8, "gradients match finite differences and the reduced form",
           failures, time.perf_counter() - t0, 30.0)
