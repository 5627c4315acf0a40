"""Stationary interior solves: extend strip data to the whole grid.

Interior nodes satisfy the stationary nonlocal balance against every other
node; strip values stay pinned. For exponent 2 that balance is a linear
system. For general p > 1 it is the Euler-Lagrange condition of a strictly
convex edge energy, minimized here by damped Newton with backtracking.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _accel
from .errors import EmptyInterior, NoConvergence, NonConvexExponent, SingularSystem
from .fields import EnergyReport, FullField, StripField
from .geometry import INTERIOR, STRIP
from .kernels import edge_block

__all__ = [
    "StripField", "FullField", "EnergyReport", "REG_EPS",
    "energy", "energy_gradient", "interior_residual",
    "extend_linear", "extend_plaplace",
]

# Regularization width for the gradient and Hessian when 1 < p < 2; the
# reported energy itself is never regularized.
REG_EPS = 1e-10

_DENSE_LIMIT = 3000


def eps_for(p):
    return REG_EPS if p < 2.0 else 0.0


def energy_values(op, vals, p):
    return 0.5 / p * _accel.edge_power_sum(op.act_rows, op.act_cols, op.act_coef, vals, p)


def residual_values(op, vals, p, eps):
    """Per-node weighted sums r[x] = sum_y W[x][y] phi_p(u[y] - u[x])."""
    return _accel.phi_row_sums(op.act_rows, op.act_cols, op.act_w, vals, vals, p, eps, op.n)


def gradient_values(op, vals, p, eps):
    return -op.grid.mu * residual_values(op, vals, p, eps)


def energy(op, u, p):
    """Edge energy (1/2p) sum over active ordered pairs of
    mu[x] W[x][y] |u[y] - u[x]|**p."""
    vals = u.values if isinstance(u, FullField) else np.asarray(u, dtype=float)
    return float(energy_values(op, vals, p))


def energy_gradient(op, u, p):
    """Gradient of the edge energy with respect to every nodal value.

    For 1 < p < 2 the modulus in the derivative is regularized with
    REG_EPS; for p >= 2 the exact derivative is used.
    """
    vals = u.values if isinstance(u, FullField) else np.asarray(u, dtype=float)
    return FullField(gradient_values(op, vals, p, eps_for(p)), op.grid)


def interior_residual(op, u, p):
    """Sup-norm over interior nodes of the stationary balance."""
    if op.n_interior == 0:
        return 0.0
    vals = u.values if isinstance(u, FullField) else np.asarray(u, dtype=float)
    resid = residual_values(op, vals, p, 0.0)
    return float(np.max(np.abs(resid[op.interior_idx])))


def _interior_system(op):
    """The linear interior balance A u = B g: A = diag(row sums) - W_II,
    the interior block of the Laplacian with weights W, dense up to
    _DENSE_LIMIT interior nodes and CSR above; B = W_IS as CSR."""
    if "interior_system" not in op._cache:
        i_idx = op.interior_idx
        if op.n_interior <= _DENSE_LIMIT:
            lap = _accel.laplacian_fill(op.act_rows, op.act_cols, op.act_w,
                                        np.zeros((op.n, op.n)))
            mat = lap[np.ix_(i_idx, i_idx)]
        else:
            rows, cols, w = edge_block(op, INTERIOR, INTERIOR)
            adj = sp.csr_matrix((w, (rows, cols)), shape=(op.n_interior,) * 2)
            mat = (sp.diags(op.deg_active[i_idx]) - adj).tocsr()
        rows, cols, w = edge_block(op, INTERIOR, STRIP)
        coupling = sp.csr_matrix((w, (rows, cols)), shape=(op.n_interior, op.n_strip))
        op._cache["interior_system"] = (mat, coupling)
    return op._cache["interior_system"]


def _interior_solve(op, mat, rhs):
    if op.n_interior <= _DENSE_LIMIT:
        if "interior_lu" not in op._cache:
            try:
                op._cache["interior_lu"] = sla.lu_factor(mat)
            except sla.LinAlgError as exc:
                raise SingularSystem(f"interior system is singular: {exc}") from exc
        sol = sla.lu_solve(op._cache["interior_lu"], rhs)
    else:
        precond = spla.LinearOperator(mat.shape, lambda x: x / mat.diagonal())
        sol, info = spla.cg(mat, rhs, rtol=1e-14, atol=0.0, maxiter=20 * op.n_interior,
                            M=precond)
        if info != 0:
            raise SingularSystem(f"conjugate gradient did not converge (info={info})")
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("interior solve produced non-finite values")
    return sol


def extend_linear(op, g):
    """Extend strip values by the linear stationary balance.

    Returns a full field equal to g on the strip whose interior values
    satisfy diag(row sums) u - W_II u = W_IS g.
    """
    if op.n_interior == 0:
        raise EmptyInterior("linear extension needs interior nodes")
    gv = g.values if isinstance(g, StripField) else np.asarray(g, dtype=float)
    # solve anchored at g[0]: shifting out the constant mode keeps constant
    # data exactly constant and costs nothing for general data
    shift = gv[0]
    mat, coupling = _interior_system(op)
    rhs = coupling @ (gv - shift)
    sol = _interior_solve(op, mat, rhs)
    resid = np.max(np.abs(mat @ sol - rhs)) if op.n_interior else 0.0
    if resid > 1e-10 * (1.0 + np.max(np.abs(gv), initial=0.0)):
        raise SingularSystem(f"interior residual {resid:.3e} after direct solve")
    out = np.empty(op.n)
    out[op.strip_idx] = gv
    out[op.interior_idx] = sol + shift
    return FullField(out, op.grid)


def _spd_solve(mat, rhs):
    """Cholesky solve with escalating diagonal shifts as a last resort."""
    try:
        return sla.cho_solve(sla.cho_factor(mat), rhs)
    except sla.LinAlgError:
        pass
    shift = 1e-12 * (1.0 + np.trace(mat) / mat.shape[0])
    for _ in range(10):
        try:
            shifted = mat + shift * np.eye(mat.shape[0])
            return sla.cho_solve(sla.cho_factor(shifted), rhs)
        except sla.LinAlgError:
            shift *= 100.0
    raise SingularSystem("stationarity system is numerically indefinite")


def _newton_free(op, p, v0, free, quad_mass, quad_target, energy_scale,
                 max_iter, converged):
    """Minimize F(v) = energy_scale * E_p(v) + quadratic penalty over
    v[free] with the remaining coordinates held fixed.

    For p >= 2 this runs Newton with adaptive Levenberg damping (the plain
    Hessian degenerates wherever neighboring values coincide). For p < 2
    Newton overshoots the creases of the nearly nonsmooth landscape, so the
    sweeps reweight the quadratic majorizer instead, which descends
    monotonically. `converged(grad_free, resid_free)` decides termination.
    Raises NoConvergence carrying the best iterate when the budget runs out.
    """
    eps = eps_for(p)
    v = v0.copy()
    mu = op.grid.mu
    pinned = np.setdiff1d(np.arange(op.n), free)

    def value(x):
        f = energy_scale * energy_values(op, x, p)
        if quad_mass is not None:
            f += 0.5 * float(np.dot(quad_mass, (x - quad_target) ** 2))
        return f

    def grads(x):
        resid = residual_values(op, x, p, eps)
        grad = -energy_scale * mu * resid
        if quad_mass is not None:
            grad = grad + quad_mass * (x - quad_target)
        return grad, resid

    f = value(v)
    grad, resid = grads(v)
    best_v, best_f = v.copy(), f

    if p < 2.0:
        driver = _reweighted_sweeps
    else:
        driver = _levenberg_newton
    v, f, grad, resid, it = driver(op, p, eps, v, free, pinned, quad_mass,
                                   quad_target, energy_scale, max_iter,
                                   converged, value, grads, f, grad, resid)
    if converged(grad[free], resid[free]):
        return v, it, f
    if f < best_f:
        best_v, best_f = v, f
    raise NoConvergence(f"no convergence in {max_iter} iterations", best=(best_v, best_f))


def _reweighted_sweeps(op, p, eps, v, free, pinned, quad_mass, quad_target,
                       energy_scale, max_iter, converged, value, grads,
                       f, grad, resid):
    """Majorize the regularized p-energy by a weighted quadratic at the
    current iterate and solve that exactly; repeat. Monotone for p < 2.

    The plain sweeps contract the error by roughly (2 - p) per pass, which
    gets slow as p drops toward 1, so every sweep tries the Aitken jump to
    the limit of the measured geometric tail, kept only when it descends.
    """
    prev_delta = None
    for it in range(max_iter):
        if converged(grad[free], resid[free]):
            return v, f, grad, resid, it
        d = v[op.act_cols] - v[op.act_rows]
        w = op.act_coef * (d * d + eps * eps) ** ((p - 2.0) / 2.0)
        H = _accel.laplacian_fill(op.act_rows, op.act_cols, w, np.zeros((op.n, op.n)))
        H *= energy_scale
        mat = H[np.ix_(free, free)]
        rhs = np.zeros(free.shape[0])
        if quad_mass is not None:
            qf = quad_mass[free]
            mat = mat + np.diag(qf)
            rhs += qf * quad_target[free]
        if pinned.size:
            rhs -= H[np.ix_(free, pinned)] @ v[pinned]
        vnew = v.copy()
        vnew[free] = _spd_solve(mat, rhs)
        fnew = value(vnew)
        if fnew > f + 1e-12 * (1.0 + abs(f)):
            break
        delta = vnew[free] - v[free]
        if prev_delta is not None:
            den = float(np.linalg.norm(prev_delta))
            rho = float(np.linalg.norm(delta)) / den if den > 0.0 else 1.0
            if 0.05 < rho < 0.995:
                cand = vnew.copy()
                cand[free] = cand[free] + delta * (rho / (1.0 - rho))
                fcand = value(cand)
                if fcand <= fnew:
                    vnew, fnew, delta = cand, fcand, None
        prev_delta = delta
        v, f = vnew, fnew
        grad, resid = grads(v)
    return v, f, grad, resid, max_iter


def _levenberg_newton(op, p, eps, v, free, pinned, quad_mass, quad_target,
                      energy_scale, max_iter, converged, value, grads,
                      f, grad, resid):
    lam = 0.0
    for it in range(max_iter):
        if converged(grad[free], resid[free]):
            return v, f, grad, resid, it
        hess = np.zeros((op.n, op.n))
        _accel.hessian_accumulate(op.act_rows, op.act_cols, op.act_coef, v, p, eps, hess)
        hess *= energy_scale
        if quad_mass is not None:
            hess[np.diag_indices_from(hess)] += quad_mass
        hess = hess[np.ix_(free, free)]  # frees the full matrix before factoring
        gfree = grad[free]
        dscale = max(np.trace(hess) / hess.shape[0], 1e-30)
        resid_sup = np.max(np.abs(resid[free]), initial=0.0)
        fnoise = 1e-12 * (1.0 + abs(f))
        found = None
        for _ in range(40):
            # cho_factor factors a Fortran-ordered array in place; a C-ordered one it copies
            shifted = np.array(hess, order="F")
            shifted[np.diag_indices_from(shifted)] += lam * dscale
            try:
                step = -sla.cho_solve(sla.cho_factor(shifted, overwrite_a=True), gfree)
            except sla.LinAlgError:
                lam = max(10.0 * lam, 1e-10)
                continue
            cand = v.copy()
            cand[free] = v[free] + step
            fcand = value(cand)
            if fcand <= f + 1e-4 * np.dot(gfree, step):
                found = (cand, fcand, None, None)
                break
            if abs(fcand - f) <= fnoise:
                # energy differences are below roundoff here; judge the
                # step by the stationarity residual instead
                gcand, rcand = grads(cand)
                if np.max(np.abs(rcand[free]), initial=0.0) <= 0.9 * resid_sup:
                    found = (cand, fcand, gcand, rcand)
                    break
            lam = max(10.0 * lam, 1e-8)
        if found is None:
            break
        v, f, gnew, rnew = found
        lam *= 0.33
        if lam < 1e-14:
            lam = 0.0
        if gnew is None:
            grad, resid = grads(v)
        else:
            grad, resid = gnew, rnew
    return v, f, grad, resid, max_iter


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
    if x0 is not None:
        v0[op.interior_idx] = x0
    else:
        # weighted mean, anchored so constant data starts (and stays) exact
        mu_s = op.grid.mu[op.strip_idx]
        v0[op.interior_idx] = gv[0] + np.dot(mu_s, gv - gv[0]) / np.sum(mu_s)

    scale = tol * (1.0 + np.max(np.abs(gv), initial=0.0))
    free = op.interior_idx

    def converged(grad_free, resid_free):
        return np.max(np.abs(resid_free), initial=0.0) <= scale

    try:
        v, iters, _ = _newton_free(op, p, v0, free, None, None, 1.0,
                                   max_iter, converged)
    except NoConvergence as exc:
        best_v, _ = exc.best
        report = EnergyReport(
            energy=float(energy_values(op, best_v, p)),
            grad_norm=float(np.max(np.abs(residual_values(op, best_v, p, eps_for(p))[free]))),
            iterations=max_iter,
            converged=False,
        )
        raise NoConvergence(str(exc), best=(FullField(best_v, op.grid), report)) from None

    report = EnergyReport(
        energy=float(energy_values(op, v, p)),
        grad_norm=float(np.max(np.abs(residual_values(op, v, p, eps_for(p))[free]))),
        iterations=iters,
        converged=True,
    )
    return FullField(v, op.grid), report


def extend(op, g, p, tol=1e-10, max_iter=100, x0=None):
    """Extension by the appropriate path: linear solve at p = 2, energy
    minimization otherwise. Returns only the field."""
    return extend_with_report(op, g, p, tol=tol, max_iter=max_iter, x0=x0)[0]


def _extended_values(op, gv, p, tol, x0=None):
    """Nodal values of the extension of strip values gv, or gv itself on a
    grid with no interior."""
    if op.n_interior == 0:
        return gv
    return extend(op, gv, p, tol=tol, x0=x0).values


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
