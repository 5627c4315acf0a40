"""Stationary interior solves: extend strip data to the whole grid.

Interior nodes satisfy the stationary nonlocal balance against every other
node; strip values stay pinned. For exponent 2 that balance is a linear
system in the interior block L_II. The box's coordinate mirrors split it
into one block per sector (symmetry.sectors: up to 2^d blocks of 1/2^d
the size on an assembled box, one block otherwise), and each block's
Cholesky factor is made once per operator. For general p > 1 it is the
Euler-Lagrange condition of a strictly convex edge energy E_p.
_newton_free is the one descent solve for p != 2: it minimizes
F(v) = E_p(v) - <lin, v> + (1/2) sum w (v - t)^2 over the free nodes, is
gated on one residual r, the W-unit balance of F (whose gradient is
-mu r), and returns one (FullField, EnergyReport) pair, which
NoConvergence carries too. The extension pins the strip and drops
lin and (w, t); the implicit p != 2 step frees every node with w = mu / dt
and t = u on the strip, and each of its iterates is shifted by the constant
that keeps the strip mass; estimate_beta_p pins one node and adds lin. L_II
and L_IS are cut from the edges' CSR adjacency (_accel.adjacency) by scipy
indexing, the majoriser by _accel.laplacian_block, which adds no diagonal
term. Balances are in W units, coefficient row sums over mu[x]. Energies
come from the same row sums by Euler's identity: E_p is p-homogeneous, the
coefficients symmetric and phi_p odd, so for the balance r of any v and any
constant c, E_p(v) = (1/p) <mu (c - v), r>. An extended state's interior
rows vanish, so its energy pairs the strip flux alone.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import _accel
from .errors import EmptyInterior, NoConvergence, NonConvexExponent, SingularSystem
from .fields import EnergyReport, FullField, StripField
from .kernels import strip_edges
from .symmetry import sectors

__all__ = [
    "StripField", "FullField", "EnergyReport", "REG_EPS",
    "energy", "energy_gradient", "interior_residual",
    "extend_linear", "extend_plaplace",
]

# Relative roundoff of an iterate, for the floor a stalled solve reports.
_EPS = float(np.finfo(float).eps)

# Regularization width for the gradient and Hessian when 1 < p < 2; the
# reported energy itself is never regularized.
REG_EPS = 1e-10

# Tolerance of every extension made inside a time step or a diagnostic.
EXT_TOL = 1e-12

# A descent stalls when this many accepted points in a row neither lower F
# beyond roundoff nor set a new best residual.
STALL_STEPS = 5


def eps_for(p):
    return REG_EPS if p < 2.0 else 0.0


def _midrange(vals):
    """Anchor of the shift-invariant p = 2 solves and of the pairing: it
    makes constant data exactly 0 after the shift, c - (c + c)/2 = 0."""
    return 0.5 * (np.max(vals) + np.min(vals))


def _pairing(mu, vals, resid, p):
    """(1/p) sum mu (c - vals) resid: the energy of vals when resid is its
    unregularized balance. c, the midrange of vals, only stops cancellation."""
    return float(np.dot(mu * (_midrange(vals) - vals), resid)) / p


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
    """(L_II, its sector factors, L_IS), made once per operator: the interior
    rows of the Laplacian of the coefficients mu[x] W[x][y], cut from their
    CSR adjacency, and the Cholesky factor of each sector block L_II^chi of
    L_II (symmetry.sectors), folded from the rows of L_II at the interior
    representatives and written dense only to be factored in place. The
    CSR L_II and L_IS serve the extension's right-hand side and residual
    and the folds of the Schur complement."""
    if "interior" not in op._cache:
        sec = sectors(op)
        rows = _accel.adjacency(op.act_rows, op.act_cols, op.act_coef, op.n)[op.interior_idx]
        l_is = rows[:, op.strip_idx]
        l_is.data *= -1.0
        l_ii = sp.diags(rows @ np.ones(op.n)) - rows[:, op.interior_idx]
        del rows  # so that the sector blocks have only L_II and L_IS beside them
        try:
            factors = tuple(sla.cho_factor(block, overwrite_a=True) for block in
                            sec.fold_rows(l_ii, sec.interior, sec.interior))
        except sla.LinAlgError as exc:
            raise SingularSystem(f"interior system is singular: {exc}") from exc
        op._cache["interior"] = (l_ii, factors, l_is)
    return op._cache["interior"]


def extend_linear(op, g):
    """Extend strip values by the linear stationary balance.

    Returns a full field equal to g on the strip whose interior values
    satisfy L_II u = -L_IS g, i.e. diag(row sums) u - W_II u = W_IS g,
    solved sector by sector with the factors of _interior. The residual is
    that of the whole CSR L_II, so the gate checks the fold too.
    """
    if op.n_interior == 0:
        raise EmptyInterior("linear extension needs interior nodes")
    gv = g.values if isinstance(g, StripField) else np.asarray(g, dtype=float)
    # solve anchored at the midrange of g: shifting out the constant mode keeps
    # constant data exactly constant and costs nothing
    shift = _midrange(gv)
    l_ii, factors, l_is = _interior(op)
    sec = sectors(op)
    rhs = -(l_is @ (gv - shift))
    parts = sec.fold(rhs, sec.interior)
    for part, (chol, lower) in zip(parts, factors):
        # L_II^chi = U^T U with U the upper factor: two triangular solves take
        # half the time of cho_solve's potrs for one right-hand side. The
        # cached factor is finite; checking it would scan its entries per solve
        sol = sla.solve_triangular(chol, part, trans="T", lower=lower, check_finite=False)
        part[:] = sla.solve_triangular(chol, sol, lower=lower, overwrite_b=True,
                                       check_finite=False)
    sol = sec.unfold(parts, sec.interior)
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


def _newton_free(op, p, v0, free, max_iter, converged, *, lin=None, prox=None):
    """Minimize F(v) = E_p(v) - <lin, v> + (1/2) sum w (v - t)^2 over v[free],
    with prox = (w, t) and the other coordinates of v0 held fixed. free is
    every node, every node but one, or the interior; the strip is pinned in
    the last case. lin (one value per node, in the units of the gradient)
    and prox are optional; None leaves the term out. The one residual is r,
    the W-unit balance of F: the balance of E_p plus (lin - w (v - t)) / mu,
    so the gradient of F is -mu r. `converged(r[free])` decides termination,
    and r also judges the steps whose change of F is below roundoff.

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
    kept only when it descends. The edge builders give the Laplacian of the
    edge weights alone; the loop adds w to its diagonal, beside the Levenberg
    shift. Each point evaluated gets F and r from one evaluation: one
    phi_row_sums pass at p >= 2, where F pairs the balance, and two at p < 2,
    whose residual alone is regularized.

    With prox and every node free, each accepted point is shifted by the
    constant c = -sum w (v - t) / sum w. E_p and its balance do not change
    under the shift, F restricted to the constants is a quadratic in c that
    this c minimizes, and sum w (v - t) = 0 after it: the implicit step
    keeps its strip mass exactly. F and r are updated in closed form.

    Returns (FullField, EnergyReport) at the minimizer: energy is F and
    grad_norm is max |r[free]|. Raises NoConvergence carrying the same pair
    for the last iterate, with converged False, when the budget runs out
    (every accepted step lowers F, up to roundoff) or at once when the
    descent stalls: STALL_STEPS accepted points in a row that lower F by
    no more than roundoff and set no new best max |r[free]|. A stalled
    report has stalled True and its floor estimate set. SingularSystem is
    raised at once when a majorizer factor fails.
    """
    eps = eps_for(p)
    v = v0.copy()
    mu = op.grid.mu
    muf = mu[free]
    wf = 0.0 if prox is None else prox[0][free]
    # sum w where every node is free to take the constant shift, 0 where none is made
    wsum = float(np.sum(prox[0])) if prox is not None and free.shape[0] == op.n else 0.0

    def evaluate(x):
        resid = residual_values(op, x, p, 0.0)
        f = _pairing(mu, x, resid, p)
        if eps > 0.0:
            resid = residual_values(op, x, p, eps)
        if lin is not None:
            f -= float(np.dot(lin, x))
            resid += lin / mu
        if prox is not None:
            d = x - prox[1]
            f += 0.5 * float(np.dot(prox[0], d * d))
            resid -= prox[0] * d / mu
        return f, resid

    def majorizer(x):
        d = x[op.act_cols] - x[op.act_rows]
        w = op.act_coef * (d * d + eps * eps) ** ((p - 2.0) / 2.0)
        mat = _accel.laplacian_block(op.act_rows, op.act_cols, w, free)
        mat[np.diag_indices_from(mat)] += wf
        return mat

    def moved(step):
        x = v.copy()
        x[free] = v[free] + step
        return (x,) + evaluate(x)

    def recentered(x, fx, rx):
        # F(x + c) - F(x) = c sum w d + c^2 sum w / 2 = -c^2 sum w / 2 at the minimizing c
        c = -float(np.dot(prox[0], x - prox[1])) / wsum
        return x + c, fx - 0.5 * c * c * wsum, rx - prox[0] * (c / mu)

    def floor():
        # sensitivity of r to a relative perturbation eps of v: eps max |v|
        # times the largest W-unit row sum of the edge weights phi_p'(d)
        diag, _ = _accel.hessian_accumulate(op.act_rows, op.act_cols, op.act_coef, v,
                                            p, eps, free)
        return _EPS * float(np.max(np.abs(v))) * float(np.max(diag / muf, initial=0.0))

    def result(iterations, done, stalled=False):
        return FullField(v, op.grid), EnergyReport(
            energy=f, grad_norm=float(np.max(np.abs(resid[free]), initial=0.0)),
            iterations=iterations, converged=done, cg_iterations=cg_iters,
            stalled=stalled, floor=floor() if stalled else None)

    f, resid = evaluate(v)
    lam = 0.0
    prev_step = None
    cg_iters = 0
    best_sup = np.max(np.abs(resid[free]), initial=0.0)
    flat = 0
    for it in range(max_iter):
        if converged(resid[free]):
            return result(it, True)
        if flat == STALL_STEPS:
            stalled = result(it, False, stalled=True)
            raise NoConvergence(
                f"descent stalled after {it} iterations at residual "
                f"{stalled[1].grad_norm:.3e}, roundoff floor {stalled[1].floor:.3e}",
                best=stalled)
        gfree = -muf * resid[free]
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
                                                   p, eps, free)
            dscale = max(np.mean(diag + wf), 1e-30)
            resid_sup = np.max(np.abs(resid[free]), initial=0.0)
            # inexact Newton: the forcing term shrinks with the gradient
            # (Eisenstat and Walker, SIAM J. Sci. Comput. 17(1), 1996)
            forcing = min(0.1, np.sqrt(np.linalg.norm(gfree)))
            for _ in range(40):
                shift = wf + lam * dscale
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
                # changes of F below roundoff: judge the step by the
                # residual instead
                if (abs(cand[1] - f) <= fnoise
                        and np.max(np.abs(cand[2][free]), initial=0.0) <= 0.9 * resid_sup):
                    found = cand
                    break
                lam = max(10.0 * lam, 1e-8)
            lam *= 0.33
            if lam < 1e-14:
                lam = 0.0
        if found is None:
            break
        f_prev = f
        v, f, resid = found
        if wsum > 0.0:
            v, f, resid = recentered(v, f, resid)
        sup = np.max(np.abs(resid[free]), initial=0.0)
        flat = 0 if f < f_prev - fnoise or sup < best_sup else flat + 1
        best_sup = min(best_sup, sup)
    if converged(resid[free]):
        return result(max_iter, True)
    raise NoConvergence(f"no convergence in {max_iter} iterations",
                        best=result(max_iter, False))


def extend_plaplace(op, g, p, tol=1e-10, max_iter=100, x0=None):
    """Extend strip values by minimizing the p-edge energy.

    Interior values minimize the edge energy with the strip pinned to g
    (_newton_free with free = the interior, no lin and no prox). Convergence
    is declared on the sup-norm of the weighted stationary balance over
    interior nodes, scaled by (1 + max |g|).

    Returns
    -------
    (FullField, EnergyReport)
        The report's energy is the edge energy and its grad_norm the
        interior_residual of the field. NoConvergence carries the same pair
        for the last iterate.
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
    return _newton_free(op, p, v0, op.interior_idx, max_iter,
                        lambda r: np.max(np.abs(r), initial=0.0) <= scale)


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
