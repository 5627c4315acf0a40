"""Stationary interior solves: extend strip data to the whole grid.

Interior nodes satisfy the stationary nonlocal balance against every other
node; strip values stay pinned. For exponent 2 that balance is a linear
system in the interior block L_II, solved with one Cholesky factor of L_II
made per operator. For general p > 1 it is the Euler-Lagrange condition of
a strictly convex edge energy, minimized by one descent loop that steps
against the energy gradient with a curvature matrix chosen by p: the
Levenberg-damped Newton Hessian for p >= 2, solved inexactly by Jacobi-PCG
on its sparse matvec (_accel.hessian_accumulate, _accel.pcg), and the
tangent quadratic majoriser (reweighted least squares) for p < 2, factored
densely. The implicit p != 2 step and estimate_beta_p run the same loop.
L_II and the majoriser matrix are each written by _accel.laplacian_block
from the whole edge list, given only the free nodes; L_IS is masked from
it too. Balances are in W units, coefficient row sums over mu[x]. Energies
come from the same row sums by Euler's identity: E_p is p-homogeneous, the
coefficients symmetric and phi_p odd, so for the balance r of any v and any
constant c, E_p(v) = (1/p) <mu (c - v), r>. An extended state's interior
rows vanish, so its energy pairs the strip flux alone.
"""

from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import _accel
from .errors import EmptyInterior, NoConvergence, NonConvexExponent, SingularSystem
from .fields import EnergyReport, FullField, StripField
from .geometry import INTERIOR, STRIP
from .kernels import strip_edges

__all__ = [
    "StripField", "FullField", "EnergyReport", "REG_EPS",
    "energy", "energy_gradient", "interior_residual",
    "extend_linear", "extend_plaplace",
]

# Regularization width for the gradient and Hessian when 1 < p < 2; the
# reported energy itself is never regularized.
REG_EPS = 1e-10

# Tolerance of every extension made inside a time step or a diagnostic.
EXT_TOL = 1e-12


def eps_for(p):
    return REG_EPS if p < 2.0 else 0.0


def _pairing(mu, vals, resid, p):
    """(1/p) sum mu (c - vals) resid: the energy of vals when resid is its
    unregularized balance. c, the midrange of vals, only stops cancellation."""
    c = 0.5 * (np.max(vals) + np.min(vals))
    return float(np.dot(mu * (c - vals), resid)) / p


def energy_values(op, vals, p):
    return _pairing(op.grid.mu, vals, residual_values(op, vals, p, 0.0), p)


def residual_values(op, vals, p, eps):
    """Per-node weighted sums r[x] = sum_y W[x][y] phi_p(u[y] - u[x])."""
    sums = _accel.phi_row_sums(op.act_rows, op.act_cols, op.act_coef, vals, p, eps, op.n)
    return np.divide(sums, op.grid.mu, out=sums)


def _strip_flux(op, vals, p):
    """Per strip node x, sum_y W[x][y] phi_p(vals[y] - vals[x]) over its
    active edges: the strip rows' coefficient sums divided by mu[x],
    regularized with REG_EPS for p < 2."""
    rows, cols, coef = strip_edges(op)
    sums = _accel.phi_row_sums(rows, cols, coef, vals, p, eps_for(p), op.n)
    return sums[op.strip_idx] / op.grid.mu[op.strip_idx]


def energy(op, u, p):
    """Edge energy (1/2p) sum over active ordered pairs of
    mu[x] W[x][y] |u[y] - u[x]|**p, read off the balance of u (Euler's identity)."""
    vals = u.values if isinstance(u, FullField) else np.asarray(u, dtype=float)
    return float(energy_values(op, vals, p))


def energy_gradient(op, u, p):
    """Gradient of the edge energy with respect to every nodal value.

    For 1 < p < 2 the modulus in the derivative is regularized with
    REG_EPS; for p >= 2 the exact derivative is used.
    """
    vals = u.values if isinstance(u, FullField) else np.asarray(u, dtype=float)
    return FullField(-op.grid.mu * residual_values(op, vals, p, eps_for(p)), op.grid)


def interior_residual(op, u, p):
    """Sup-norm over interior nodes of the stationary balance: the residual
    extend_plaplace is gated on and reports as grad_norm. For 1 < p < 2 it
    is the balance regularized with REG_EPS, as in energy_gradient."""
    if op.n_interior == 0:
        return 0.0
    vals = u.values if isinstance(u, FullField) else np.asarray(u, dtype=float)
    resid = residual_values(op, vals, p, eps_for(p))
    return float(np.max(np.abs(resid[op.interior_idx])))


def _interior(op):
    """(L_II, its Cholesky factor, L_IS), made once per operator: the interior
    rows of the symmetric Laplacian with edge coefficients mu[x] W[x][y].
    L_II is dense, L_IS is CSR; the extension and S both solve with the factor."""
    if "interior" not in op._cache:
        l_ii = _accel.laplacian_block(op.act_rows, op.act_cols, op.act_coef,
                                      op.interior_idx)
        try:
            factor = sla.cho_factor(l_ii)
        except sla.LinAlgError as exc:
            raise SingularSystem(f"interior system is singular: {exc}") from exc
        klass = op.grid.klass
        keep = (klass[op.act_rows] == INTERIOR) & (klass[op.act_cols] == STRIP)
        coef = op.act_coef[keep]
        # negated in place: one more edge-sized temporary raised the benchmark's
        # peak RSS at 2D h = 1/64 from 600 to 643 MB (heap left fragmented)
        l_is = sp.csr_matrix((np.negative(coef, out=coef),
                              (np.searchsorted(op.interior_idx, op.act_rows[keep]),
                               np.searchsorted(op.strip_idx, op.act_cols[keep]))),
                             shape=(op.n_interior, op.n_strip))
        op._cache["interior"] = (l_ii, factor, l_is)
    return op._cache["interior"]


def extend_linear(op, g):
    """Extend strip values by the linear stationary balance.

    Returns a full field equal to g on the strip whose interior values
    satisfy L_II u = -L_IS g, i.e. diag(row sums) u - W_II u = W_IS g.
    """
    if op.n_interior == 0:
        raise EmptyInterior("linear extension needs interior nodes")
    gv = g.values if isinstance(g, StripField) else np.asarray(g, dtype=float)
    # solve anchored at the midrange of g: shifting out the constant mode keeps
    # constant data exactly constant, c - (c + c)/2 = 0, and costs nothing
    shift = 0.5 * (np.max(gv) + np.min(gv))
    l_ii, factor, l_is = _interior(op)
    rhs = -(l_is @ (gv - shift))
    # the cached factor is finite; checking it would scan n_I^2 entries per solve
    sol = sla.cho_solve(factor, rhs, check_finite=False)
    # gated in W units (row x of L_II is mu[x] times the balance); NaN fails too
    resid = np.max(np.abs(l_ii @ sol - rhs) / op.grid.mu[op.interior_idx])
    if not resid <= 1e-10 * (1.0 + np.max(np.abs(gv), initial=0.0)):
        raise SingularSystem(f"interior residual {resid:.3e} after interior solve")
    out = np.empty(op.n)
    out[op.strip_idx] = gv
    out[op.interior_idx] = sol + shift
    return FullField(out, op.grid)


def _interior_start(op, gv):
    """Start of the p != 2 interior solves: the mu-weighted mean of gv,
    anchored at gv[0] so constant data starts (and stays) exact."""
    mu_s = op.grid.mu[op.strip_idx]
    return gv[0] + np.dot(mu_s, gv - gv[0]) / np.sum(mu_s)


class NewtonResult(NamedTuple):
    """_newton_free's last point, its F and residual, and the iterations."""
    v: np.ndarray
    f: float
    resid: np.ndarray
    iterations: int
    cg_iterations: int


def _newton_free(op, p, v0, free, quad_mass, quad_target, energy_scale,
                 max_iter, converged, lin=None):
    """Minimize F(v) = energy_scale * (E_p(v) - <lin, v>) + quadratic penalty
    over v[free] with the remaining coordinates held fixed. free is every
    node, every node but one, or the interior; the strip is pinned in the
    last case. lin is an optional linear forcing, one value per node in the
    units of the gradient; None leaves it out. The residual passed to
    `converged`, and used to judge steps whose energy change is below
    roundoff, is -grad / (energy_scale mu): the W-unit balance of the energy,
    plus lin / mu, minus the penalty's pull.

    One descent loop serves every p: each pass steps v[free] -= M^-1 grad[free]
    and only the curvature matrix M depends on p. For p >= 2, M is the
    Hessian with adaptive Levenberg damping (the plain Hessian degenerates
    wherever neighboring values coincide), never formed: Jacobi-PCG solves
    with its matvec until ||r|| <= eta ||grad[free]||, eta = min(0.1,
    sqrt(||grad[free]||)), and a damping too small shows as a non-positive
    diagonal or curvature, which raises lambda. For p < 2 Newton overshoots the
    creases of the nearly nonsmooth landscape, so M is the quadratic majorizer
    tangent to F at v, with reweighted edge coefficients (d^2 + eps^2)^((p-2)/2);
    the step lands on its minimizer and descends monotonically. Those plain
    sweeps contract the error by roughly (2 - p) per pass, so every sweep
    also tries the Aitken jump to the limit of the measured geometric tail,
    kept only when it descends. Each point evaluated gets F, gradient and
    residual from one evaluation: one phi_row_sums pass at p >= 2, where F
    pairs the residual, and two at p < 2, whose gradient alone is regularized.
    `converged(grad_free, resid_free)` decides termination. Returns the
    NewtonResult of the minimizer. Raises NoConvergence carrying the
    NewtonResult of the last iterate when the budget runs out (every
    accepted step lowers F, up to roundoff), and SingularSystem at once
    when a majorizer factor fails.
    """
    eps = eps_for(p)
    v = v0.copy()
    mu = op.grid.mu
    qf = None if quad_mass is None else quad_mass[free]

    def evaluate(x):
        resid = residual_values(op, x, p, 0.0)
        f = energy_scale * _pairing(mu, x, resid, p)
        if eps > 0.0:
            resid = residual_values(op, x, p, eps)
        if lin is not None:
            f -= energy_scale * float(np.dot(lin, x))
            resid += lin / mu
        grad = -energy_scale * mu * resid
        if quad_mass is not None:
            f += 0.5 * float(np.dot(quad_mass, (x - quad_target) ** 2))
            pull = quad_mass * (x - quad_target)
            grad = grad + pull
            resid -= pull / (energy_scale * mu)
        return f, grad, resid

    def majorizer(x):
        d = x[op.act_cols] - x[op.act_rows]
        return _accel.laplacian_block(op.act_rows, op.act_cols,
                                      op.act_coef * (d * d + eps * eps) ** ((p - 2.0) / 2.0),
                                      free, energy_scale, qf)

    def moved(step):
        x = v.copy()
        x[free] = v[free] + step
        return (x,) + evaluate(x)

    f, grad, resid = evaluate(v)
    lam = 0.0
    prev_step = None
    cg_iters = 0
    for it in range(max_iter):
        if converged(grad[free], resid[free]):
            return NewtonResult(v, f, resid, it, cg_iters)
        gfree = grad[free]
        fnoise = 1e-12 * (1.0 + abs(f))
        found = None
        if p < 2.0:
            try:
                factor = sla.cho_factor(majorizer(v), overwrite_a=True)
            except sla.LinAlgError as exc:
                raise SingularSystem(f"majorizer system is singular: {exc}") from exc
            step = -sla.cho_solve(factor, gfree)
            cand = moved(step)
            if cand[1] <= f + fnoise:
                found = cand
                den = 0.0 if prev_step is None else float(np.linalg.norm(prev_step))
                rho = float(np.linalg.norm(step)) / den if den > 0.0 else 1.0
                if 0.05 < rho < 0.995:
                    jump = moved(step / (1.0 - rho))
                    if jump[1] <= cand[1]:
                        found, step = jump, None
                prev_step = step
        else:
            diag, hess = _accel.hessian_accumulate(op.act_rows, op.act_cols, op.act_coef, v,
                                                   p, eps, free, energy_scale, qf)
            dscale = max(np.mean(diag), 1e-30)
            resid_sup = np.max(np.abs(resid[free]), initial=0.0)
            # inexact Newton: the forcing term shrinks with the gradient
            # (Eisenstat and Walker, SIAM J. Sci. Comput. 17(1), 1996)
            forcing = min(0.1, np.sqrt(np.linalg.norm(gfree)))
            for _ in range(40):
                shift = lam * dscale
                try:
                    sol, its = _accel.pcg(lambda x: hess(x) + shift * x, diag + shift,
                                          gfree, forcing)
                except sla.LinAlgError:
                    lam = max(10.0 * lam, 1e-10)
                    continue
                cg_iters += its
                step = -sol
                cand = moved(step)
                if cand[1] <= f + 1e-4 * np.dot(gfree, step):
                    found = cand
                    break
                # energy differences below roundoff: judge the step by the
                # stationarity residual instead
                if (abs(cand[1] - f) <= fnoise
                        and np.max(np.abs(cand[3][free]), initial=0.0) <= 0.9 * resid_sup):
                    found = cand
                    break
                lam = max(10.0 * lam, 1e-8)
            lam *= 0.33
            if lam < 1e-14:
                lam = 0.0
        if found is None:
            break
        v, f, grad, resid = found
    last = NewtonResult(v, f, resid, max_iter, cg_iters)
    if converged(grad[free], resid[free]):
        return last
    raise NoConvergence(f"no convergence in {max_iter} iterations", best=last)


def extend_plaplace(op, g, p, tol=1e-10, max_iter=100, x0=None):
    """Extend strip values by minimizing the p-edge energy.

    Interior values minimize the edge energy with the strip pinned to g.
    Convergence is declared on the sup-norm of the weighted stationary
    balance over interior nodes, scaled by (1 + max |g|).

    Returns
    -------
    (FullField, EnergyReport)
    """
    if p <= 1.0:
        raise NonConvexExponent(f"exponent must exceed 1, got {p}")
    if op.n_interior == 0:
        raise EmptyInterior("extension needs interior nodes")
    gv = g.values if isinstance(g, StripField) else np.asarray(g, dtype=float)

    v0 = np.empty(op.n)
    v0[op.strip_idx] = gv
    v0[op.interior_idx] = _interior_start(op, gv) if x0 is None else x0

    scale = tol * (1.0 + np.max(np.abs(gv), initial=0.0))

    def converged(grad_free, resid_free):
        return np.max(np.abs(resid_free), initial=0.0) <= scale

    def report(res, done):
        # with free = interior, no lin and no penalty, F and the residual of
        # the last evaluation are energy_values and the interior_residual balance
        return FullField(res.v, op.grid), EnergyReport(
            energy=res.f,
            grad_norm=float(np.max(np.abs(res.resid[op.interior_idx]))),
            iterations=res.iterations,
            converged=done,
            cg_iterations=res.cg_iterations,
        )

    try:
        res = _newton_free(op, p, v0, op.interior_idx, None, None, 1.0, max_iter, converged)
    except NoConvergence as exc:
        raise NoConvergence(str(exc), best=report(exc.best, False)) from None
    return report(res, True)


def extend(op, g, p, tol=1e-10, max_iter=100, x0=None):
    """Extension by the appropriate path: linear solve at p = 2, energy
    minimization otherwise. Returns only the field."""
    return extend_with_report(op, g, p, tol=tol, max_iter=max_iter, x0=x0)[0]


def _extended_values(op, gv, p, x0=None):
    """Nodal values of the extension of strip values gv at tolerance EXT_TOL,
    or gv itself on a grid with no interior."""
    if op.n_interior == 0:
        return gv
    return extend(op, gv, p, tol=EXT_TOL, x0=x0).values


def extend_with_report(op, g, p, tol=1e-10, max_iter=100, x0=None):
    """The one choice between the two extension paths: extend_linear at
    p = 2, extend_plaplace otherwise.

    Returns (field, report). The report is extend_plaplace's EnergyReport,
    or None from the linear path, which does no iterations and whose
    energy the caller computes only if it wants it.
    """
    if p == 2.0:
        return extend_linear(op, g), None
    return extend_plaplace(op, g, p, tol=tol, max_iter=max_iter, x0=x0)
