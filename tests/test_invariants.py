"""Structural invariants of the discrete problems on randomly drawn small
problems: reciprocity of the stored coefficients, the edge energy's
gradient on constants and in total, the energy as the pairing of the
balance (Euler's identity), the edge list's invariance under the
lattice's mirrors, the extension's constants and maximum principle, mass
conservation, L1(mu) nonexpansiveness and order preservation of the
steps, constants fixed by both steps, implicit steps that raise neither
the energy nor the L2(mu) distance to the mean, and at p = 2 the decay the
spectral gap promises through the eliminated interior (the Schur
complement S). Reciprocity is also checked exactly on a line grid with
measures that are not dyadic.

Draws are derandomized and no example database is written, so every run
checks the same problems.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stripflow as sf
from stripflow.analysis import _reduced_modes
from stripflow.elliptic import EXT_TOL, _extended_values, _strip_flux
from stripflow.evolution import _step_implicit_values
from stripflow.geometry import INTERIOR, STRIP
from stripflow.kernels import _operator_from_dense

from conftest import BOX1, BOX2, assert_mirror_invariant, line_grid, nonuniform_line_op

CHECKS = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                  suppress_health_check=[HealthCheck.too_slow])

# the p != 2 implicit step stops at a gradient of size tol = 1e-10, which
# bounds what its contraction and its order can miss by
STEP_TOL = 1e-10


@dataclass
class Problem:
    op: object
    spec: object
    rng: object

    @property
    def p(self):
        return self.spec.p

    def strip_data(self):
        return self.rng.uniform(-1.0, 1.0, self.op.n_strip) * self.rng.uniform(0.1, 10.0)


@st.composite
def problems(draw, exponents=(2.0, 2.5, 3.0, 4.0)):
    """A grid, a kernel, an edge mode and a variant: dim 1 or 2, h = 1/m,
    k strip layers (r = k h), R >= r, p drawn from exponents."""
    dim = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(8, 40) if dim == 1 else st.integers(6, 14))
    h = 1.0 / m
    k = draw(st.integers(1, (m - 1) // 2))
    r = k * h
    p = draw(st.sampled_from(exponents))
    family = draw(st.sampled_from([sf.TENT, sf.BUMP, sf.SINGULAR]))
    full = draw(st.booleans()) and family != sf.SINGULAR
    if family == sf.SINGULAR:
        kernel = sf.singular_kernel(draw(st.sampled_from([0.25, 0.5, 0.75])), p, dim)
        variant = "singular"
    else:
        # R = r is allowed; R = h would leave a node with no neighbour
        R = max(r + draw(st.integers(0, 6)) * h / 2.0, 1.5 * h)
        kernel = (sf.tent_kernel if family == sf.TENT else sf.bump_kernel)(R, dim)
        variant = ("linear" if p == 2.0 else "plaplace") + ("-full" if full else "")
    spec = sf.ProblemSpec(variant, p=p)
    grid = sf.build_grid(BOX1 if dim == 1 else BOX2, h, r)
    op = sf.assemble(grid, kernel, spec.edge_mode)
    return Problem(op, spec, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@CHECKS
@given(problems())
def test_coefficients_and_gradient(prob):
    op, p = prob.op, prob.p
    coef = np.zeros((op.n, op.n))
    coef[op.act_rows, op.act_cols] = op.act_coef
    assert np.array_equal(coef, coef.T)
    assert_mirror_invariant(op)
    c = prob.rng.uniform(-5.0, 5.0)
    assert not np.any(sf.energy_gradient(op, np.full(op.n, c), p).values)
    grad = sf.energy_gradient(op, prob.rng.uniform(-1.0, 1.0, op.n), p).values
    assert abs(np.sum(grad)) <= 1e-13 * np.sum(np.abs(grad))


@CHECKS
@given(problems(), st.sampled_from([0.0, 100.0]))
def test_energy_matches_the_direct_edge_sum(prob, offset):
    op = prob.op
    v = prob.rng.uniform(-1.0, 1.0, op.n) + offset
    d = v[op.act_cols] - v[op.act_rows]
    const = np.full(op.n, prob.rng.uniform(-5.0, 5.0))
    for p in (1.5, 2.0, 3.0, 4.0):
        direct = np.sum(op.act_coef * np.abs(d) ** p) / (2.0 * p)
        assert abs(sf.energy(op, v, p) - direct) <= 1e-14 * direct
        zero = sf.energy(op, const, p)
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0


@CHECKS
@given(problems())
def test_extension_constants_and_maximum_principle(prob):
    op, p = prob.op, prob.p
    c = prob.rng.uniform(-5.0, 5.0)
    assert np.array_equal(sf.extend(op, np.full(op.n_strip, c), p).values,
                          np.full(op.n, c))
    g = prob.strip_data()
    ext = sf.extend(op, g, p, tol=EXT_TOL).values
    slack = 1e-10 * (1.0 + np.max(np.abs(g)))
    assert np.min(g) - slack <= np.min(ext) and np.max(ext) <= np.max(g) + slack


@CHECKS
@given(problems(), st.sampled_from([0.01, 0.1, 1.0]))
def test_steps_conserve_mass_and_implicit_contracts(prob, dt):
    op, spec = prob.op, prob.spec
    g, g2 = prob.strip_data(), prob.strip_data()
    mu_s = op.grid.mu[op.strip_idx]
    scale = 1.0 + np.dot(mu_s, np.abs(g))
    # every implicit step keeps its mass to roundoff (the p != 2 solve shifts
    # each iterate by the constant that restores it), but the p != 2 state
    # stops at a gradient of size STEP_TOL, which bounds what its contraction
    # and its order can miss by
    miss = 1e-13 if spec.p == 2.0 else STEP_TOL
    m0 = np.dot(mu_s, g)
    if spec.p == 2.0:
        ex = sf.step_explicit(op, spec, g, 0.4 * sf.stability_bound(op)).values
        assert abs(np.dot(mu_s, ex) - m0) <= 1e-13 * scale
    im = sf.step_implicit(op, spec, g, dt, tol=STEP_TOL).values
    assert abs(np.dot(mu_s, im) - m0) <= 1e-13 * scale
    im2 = sf.step_implicit(op, spec, g2, dt, tol=STEP_TOL).values
    before = np.dot(mu_s, np.abs(g - g2))
    assert np.dot(mu_s, np.abs(im - im2)) <= before + 1e-13 * scale + 2.0 * miss
    # order preservation: each step misses by at most miss in its strip
    # gradient, so by miss over the smallest strip measure in value
    top = sf.step_implicit(op, spec, np.maximum(g, g2), dt, tol=STEP_TOL).values
    assert np.all(top >= np.maximum(im, im2) - 2.0 * miss / np.min(mu_s))


@CHECKS
@given(problems(), st.sampled_from([0.01, 0.1, 1.0]))
def test_constants_are_fixed_and_implicit_steps_descend(prob, dt):
    op, spec = prob.op, prob.spec
    mu_s = op.grid.mu[op.strip_idx]
    # the p != 2 implicit step stops at a gradient of size STEP_TOL, so it
    # misses the exact step by at most STEP_TOL / min mu at each node (the
    # p = 2 strip solve misses by roundoff, far less)
    miss = STEP_TOL / np.min(mu_s)
    c = np.full(op.n_strip, prob.rng.uniform(-5.0, 5.0))
    assert np.array_equal(sf.step_explicit(op, spec, c, 0.4 * sf.stability_bound(op)).values, c)
    assert np.max(np.abs(sf.step_implicit(op, spec, c, dt, tol=STEP_TOL).values - c)) <= miss
    # the exact step from u is the proximal map of the strip energy
    # E(u) = min E_p over interior completions: it lowers E + |v - u|^2 / (2 dt)
    # below E(u), which the step's own field f (whose strip part is u) bounds
    # above, and it keeps the weighted mean m, so moves no closer to m than u
    # is. A miss of size miss per node moves the L2(mu) distance by at most
    # miss sqrt(sum mu) and, E_p being convex, E_p of the field by at most
    # miss times the l1 norm of its gradient there. Two chained steps compare
    # fields made by the step alone; the p = 2 strip solve makes none, so the
    # test extends its result
    def step(u, warm):
        out, full = _step_implicit_values(op, spec, u, dt, STEP_TOL, 60, warm)
        return out, (_extended_values(op, out, 2.0) if full is None else full)

    u0 = prob.strip_data()
    u1, f1 = step(u0, None)
    u2, f2 = step(u1, f1[op.interior_idx])
    d0, d1, d2 = (sf.lq_distance_to_mean(op.grid, u, 2.0) for u in (u0, u1, u2))
    dist_slack = miss * math.sqrt(np.sum(mu_s))
    assert d1 <= d0 + dist_slack and d2 <= d1 + dist_slack
    energy_slack = miss * np.sum(np.abs(sf.energy_gradient(op, f2, prob.p).values))
    assert sf.energy(op, f2, prob.p) <= sf.energy(op, f1, prob.p) + energy_slack


@pytest.mark.parametrize("mode", [sf.EXCLUDE_STRIP_STRIP, sf.FULL])
def test_reciprocity_is_exact_for_any_measures(mode):
    # (J mu[y]) mu[x] and (J mu[x]) mu[y] can differ in the last bit when the
    # measures are not dyadic; J (mu[x] mu[y]) is one product from either end
    grid = line_grid([STRIP] * 2 + [INTERIOR] * 4 + [STRIP] * 2,
                     [0.1, 0.3, 0.7, 0.11, 0.13, 0.17, 0.19, 0.23])
    kernel = sf.tent_kernel(1.0, 1)
    jmat = kernel.cnorm * np.maximum(kernel.R - np.abs(grid.nodes - grid.nodes.T), 0.0)
    op = _operator_from_dense(grid, kernel, jmat, mode)
    coef = np.zeros((op.n, op.n))
    coef[op.act_rows, op.act_cols] = op.act_coef
    assert np.array_equal(coef, coef.T)
    s = sf.schur_complement(op)
    assert np.array_equal(s, s.T)


EPS = np.finfo(float).eps


def check_p2_decay(op, spec, g, dt):
    """The p = 2 decay bounds, each up to a slack derived from roundoff.

    The dense eigensolve's backward error, n_S eps times the Gershgorin bound
    2 max(row sum) on the measure-scaled form (the benchmark's eig_tol),
    bounds the error of beta, of every lambda_k and the residual of the unit
    gap mode; a step of length dt turns it into dt eig_tol. The strip solve
    with M + dt S, measure-scaled, has condition number at most 1 + 2 dt
    max(row sum), which times n_S eps bounds its relative error; one more
    n_S eps covers the weighted sums that give the mean and the norms. The
    flux and the elimination each sum at most n terms of size max(1,
    max(row sum)) (1 + max |g|)."""
    mu_s = op.grid.mu[op.strip_idx]
    deg = float(np.max(op.deg_active[op.strip_idx]))
    eig_tol = op.n_strip * EPS * 2.0 * deg
    solve_tol = op.n_strip * EPS * (2.0 + 2.0 * dt * deg)
    sum_tol = op.n * EPS * 2.0 * max(1.0, deg) * (1.0 + np.max(np.abs(g)))

    def norm(x):
        return math.sqrt(np.dot(mu_s, x * x))

    mean = np.dot(mu_s, g) / np.sum(mu_s)
    d0, size = norm(g - mean), norm(g)
    gap = sf.spectral_gap_beta(op)
    beta, mode = gap.beta, gap.mode.values

    # one implicit step contracts the distance to the mean by 1/(1 + dt beta)
    im = sf.step_implicit(op, spec, g, dt).values
    assert norm(im - mean) <= d0 / (1.0 + dt * beta) + dt * eig_tol * d0 + solve_tol * size
    # ... with equality on the gap mode
    im = sf.step_implicit(op, spec, mode, dt).values
    assert norm(im - mode / (1.0 + dt * beta)) <= dt * eig_tol + solve_tol
    # one explicit step contracts it by max_k |1 - dt lambda_k|
    dt_ex = 0.4 * sf.stability_bound(op)
    lam = _reduced_modes(op)[0]
    ex = sf.step_explicit(op, spec, g, dt_ex).values
    factor = np.max(np.abs(1.0 - dt_ex * lam))
    flux_err = dt_ex * sum_tol * math.sqrt(np.sum(mu_s))
    assert norm(ex - mean) <= (factor + dt_ex * eig_tol) * d0 + flux_err
    # the strip flux of the extension is the eliminated form; rhs is that
    # form itself, so the flux is read off the extension route
    want = -(sf.schur_complement(op) @ g) / mu_s
    flux = _strip_flux(op, _extended_values(op, g, 2.0), 2.0)
    assert np.max(np.abs(flux - want)) <= sum_tol


@CHECKS
@given(problems(exponents=(2.0,)), st.sampled_from([0.01, 0.1, 1.0]))
def test_p2_steps_decay_at_the_gap(prob, dt):
    check_p2_decay(prob.op, prob.spec, prob.strip_data(), dt)


@pytest.mark.parametrize("variant", ["linear", "linear-full"])
def test_p2_steps_decay_at_the_gap_with_nonuniform_measures(variant):
    # every drawn grid has uniform mu; here mu varies by a factor of 6
    spec = sf.ProblemSpec(variant)
    op = nonuniform_line_op(spec.edge_mode)
    rng = np.random.default_rng(21)
    for dt in (0.01, 0.1, 1.0):
        check_p2_decay(op, spec, rng.uniform(-3.0, 3.0, op.n_strip), dt)
