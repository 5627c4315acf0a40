"""Structural invariants of the discrete problems on randomly drawn small
problems: reciprocity of the stored coefficients, the edge energy's
gradient on constants and in total, the energy as the pairing of the
balance (Euler's identity), the extension's constants and maximum
principle, and mass conservation, L1(mu) nonexpansiveness and order
preservation of the steps.

Draws are derandomized and no example database is written, so every run
checks the same problems.
"""

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stripflow as sf
from stripflow.elliptic import EXT_TOL

from conftest import BOX1, BOX2

CHECKS = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                  suppress_health_check=[HealthCheck.too_slow])

# the p != 2 implicit step stops at a gradient of size tol = 1e-10, which
# bounds what its mass and its contraction can miss by
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
def problems(draw):
    """A grid, a kernel, an edge mode and a variant: dim 1 or 2, h = 1/m,
    k strip layers (r = k h), R >= r, p in {2, 2.5, 3, 4}."""
    dim = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(8, 40) if dim == 1 else st.integers(6, 14))
    h = 1.0 / m
    k = draw(st.integers(1, (m - 1) // 2))
    r = k * h
    p = draw(st.sampled_from([2.0, 2.5, 3.0, 4.0]))
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
    miss = 1e-13 if spec.p == 2.0 else STEP_TOL
    m0 = np.dot(mu_s, g)
    if spec.p == 2.0:
        ex = sf.step_explicit(op, spec, g, 0.4 * sf.stability_bound(op)).values
        assert abs(np.dot(mu_s, ex) - m0) <= 1e-13 * scale
    im = sf.step_implicit(op, spec, g, dt, tol=STEP_TOL).values
    assert abs(np.dot(mu_s, im) - m0) <= miss * scale
    im2 = sf.step_implicit(op, spec, g2, dt, tol=STEP_TOL).values
    before = np.dot(mu_s, np.abs(g - g2))
    assert np.dot(mu_s, np.abs(im - im2)) <= before + 1e-13 * scale + 2.0 * miss
    # order preservation: each step misses by at most miss in mass, so by
    # miss over the smallest strip measure in value
    top = sf.step_implicit(op, spec, np.maximum(g, g2), dt, tol=STEP_TOL).values
    assert np.all(top >= np.maximum(im, im2) - 2.0 * miss / np.min(mu_s))
