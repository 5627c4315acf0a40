"""Diagnostics on strip data: the reduced quadratic form and its smallest
eigenvalue, Rayleigh quotients with stationary extension, the shrinking
two-bump sequence that degenerates the gap when the strip is as wide as
the kernel support, and decay-rate fitting."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .elliptic import _extended_values, energy_values, gradient_values, eps_for
from .errors import (ConstantField, EmptyBump, InvalidArgument, NoConvergence,
                     NonPositiveData, NotMeanZero, SingularInterior,
                     TooFewStripNodes, WindowTooSmall)
from .fields import StripField
from .geometry import STRIP
from .kernels import laplacian_dense

SCHUR_EIG = "schur-eig"
VARIATIONAL_DESCENT = "variational-descent"

EXPONENTIAL = "exponential"
POLYNOMIAL = "polynomial"

# Trajectory diagnostic columns, in file order after (step, t).
DIAG_COLUMNS = ("mass", "d1", "d2", "dp", "dq", "dinf", "energy")

_EIG_NODE_CAP = 2000


@dataclass(frozen=True)
class GapResult:
    """Smallest quotient found, with the strip mode attaining it."""

    beta: float
    mode: StripField
    method: str


@dataclass(frozen=True)
class DecayFit:
    """Fitted decay rate. Exponential fits -log y against t, polynomial
    against log t."""

    model: str
    rate: float
    window: tuple
    r2: float


def mass(grid, u):
    """Weighted sum of the strip values."""
    uv = u.values if isinstance(u, StripField) else np.asarray(u, dtype=float)
    mu_s = grid.mu[grid.klass == STRIP]
    return float(np.dot(mu_s, uv))


def lq_distance_to_mean(grid, u, q):
    """Weighted L^q distance from the strip values to their weighted mean.

    q = inf gives the unweighted sup distance.
    """
    if q < 1.0:
        raise InvalidArgument(f"q must be >= 1, got {q}")
    uv = u.values if isinstance(u, StripField) else np.asarray(u, dtype=float)
    mu_s = grid.mu[grid.klass == STRIP]
    mean = np.dot(mu_s, uv) / np.sum(mu_s)
    if np.isinf(q):
        return float(np.max(np.abs(uv - mean), initial=0.0))
    return _lp_norm(mu_s, uv - mean, q)


def _lp_norm(mu, vals, p):
    """Weighted L^p norm (sum of mu |vals|^p)^(1/p)."""
    return float(np.sum(mu * np.abs(vals) ** p) ** (1.0 / p))


def schur_complement(op):
    """Strip-reduced matrix of the active-edge quadratic form.

    Eliminates the interior block of the Laplacian: S = L_SS minus
    L_SI L_II^{-1} L_IS. Symmetric PSD and annihilates constants. With no
    interior nodes the strip block is returned as is.
    """
    if "schur" in op._cache:
        return op._cache["schur"]
    lap = laplacian_dense(op)
    s_idx, i_idx = op.strip_idx, op.interior_idx
    l_ss = lap[np.ix_(s_idx, s_idx)]
    if i_idx.shape[0] == 0:
        schur = l_ss.copy()
    else:
        l_ii = lap[np.ix_(i_idx, i_idx)]
        l_is = lap[np.ix_(i_idx, s_idx)]
        try:
            solved = sla.cho_solve(sla.cho_factor(l_ii), l_is)
        except sla.LinAlgError as exc:
            raise SingularInterior(f"interior block cannot be eliminated: {exc}") from exc
        schur = l_ss - l_is.T @ solved
    schur = 0.5 * (schur + schur.T)
    op._cache["schur"] = schur
    return schur


def _mean_zero_basis(w):
    """Orthonormal basis of the complement of w, via one reflection."""
    v = w.copy()
    v[0] += np.sign(w[0]) if w[0] != 0 else 1.0
    house = np.eye(w.shape[0]) - 2.0 * np.outer(v, v) / np.dot(v, v)
    return house[:, 1:]


def _signed(vals):
    lead = np.flatnonzero(np.abs(vals) > 1e-12 * np.max(np.abs(vals), initial=0.0))
    if lead.shape[0] and vals[lead[0]] < 0.0:
        return -vals
    return vals


def _reduced_modes(op):
    """Eigenpairs of the reduced form against the strip measures, on the
    mean-zero subspace. Returns ascending eigenvalues and the matching
    modes as columns, each with unit weighted 2-norm and zero weighted
    mean by construction."""
    if op.n_strip < 2:
        raise TooFewStripNodes("gap needs at least two strip nodes")
    if op.n_strip > _EIG_NODE_CAP:
        raise InvalidArgument(f"dense eigensolve capped at {_EIG_NODE_CAP} strip nodes")
    schur = schur_complement(op)
    root = np.sqrt(op.grid.mu[op.strip_idx])
    scaled = schur / np.outer(root, root)
    basis = _mean_zero_basis(root / np.linalg.norm(root))
    evals, evecs = sla.eigh(basis.T @ scaled @ basis)
    return evals, (basis @ evecs) / root[:, None]


def spectral_gap_beta(op, p=2.0):
    """Smallest eigenvalue of the reduced form over mean-zero strip data.

    Solves the generalized symmetric problem S v = beta M v with M the
    diagonal of strip measures, after deflating the constant vector in the
    M-inner product. Exponent 2 only; see estimate_beta_p for other p.
    """
    if p != 2.0:
        raise InvalidArgument("eigenvalue path is exponent-2 only; use estimate_beta_p")
    evals, modes = _reduced_modes(op)
    beta = max(float(evals[0]), 0.0)
    mode_vals = _signed(modes[:, 0])
    return GapResult(beta=beta, mode=StripField(mode_vals, op.grid), method=SCHUR_EIG)


def rayleigh_quotient(op, g, p):
    """Quotient of the extended edge energy against the strip p-norm.

    The numerator is half the weighted sum of |u_hat[y] - u_hat[x]|^p over
    active ordered pairs, with u_hat the stationary extension of g. The
    caller must supply mean-zero data; no mean is subtracted here.
    """
    gv = g.values if isinstance(g, StripField) else np.asarray(g, dtype=float)
    sup = float(np.max(np.abs(gv), initial=0.0))
    if sup == 0.0 or np.ptp(gv) == 0.0:
        raise ConstantField("quotient is undefined for constant strip data")
    mu_s = op.grid.mu[op.strip_idx]
    mean = np.dot(mu_s, gv) / np.sum(mu_s)
    if abs(mean) > 1e-9 * sup:
        raise NotMeanZero(f"weighted mean {mean:.3e} exceeds 1e-9 * max |g|")
    full = _extended_values(op, gv, p, 1e-12)
    numerator = p * energy_values(op, full, p)
    denominator = float(np.sum(mu_s * np.abs(gv) ** p))
    return numerator / denominator


def _project_mean_zero(gv, mu_s):
    return gv - np.dot(mu_s, gv) / np.sum(mu_s)


def estimate_beta_p(op, p, restarts=8, tol=1e-9, max_iter=2000, seed=0):
    """Upper bound on the mean-zero quotient infimum by projected descent.

    Runs `restarts` seeded gradient descents of the quotient over the set
    of mean-zero strip fields with unit weighted p-norm and keeps the best
    endpoint (ties broken by restart index). The quotient gradient uses
    the stationarity of the extension, so the interior solve is never
    differentiated through.
    """
    if restarts <= 0:
        raise InvalidArgument("need at least one restart")
    if p <= 1.0:
        raise InvalidArgument(f"exponent must exceed 1, got {p}")
    if op.n_strip < 2:
        raise TooFewStripNodes("gap needs at least two strip nodes")
    mu_s = op.grid.mu[op.strip_idx]
    eps = eps_for(p)

    def quotient_and_grad(gv):
        full = _extended_values(op, gv, p, 1e-12)
        numerator = p * energy_values(op, full, p)
        denominator = float(np.sum(mu_s * np.abs(gv) ** p))
        quot = numerator / denominator
        grad_num = p * gradient_values(op, full, p, eps)[op.strip_idx]
        phi = np.abs(gv) ** (p - 2.0) * gv if p != 2.0 else gv
        grad_den = p * mu_s * phi
        return quot, (grad_num - quot * grad_den) / denominator

    best = None
    for j in range(restarts):
        rng = np.random.default_rng([seed, 17, j])
        gv = rng.standard_normal(op.n_strip)
        gv = _project_mean_zero(gv, mu_s)
        while np.sum(mu_s * np.abs(gv) ** p) < 1e-24:
            gv = _project_mean_zero(rng.standard_normal(op.n_strip), mu_s)
        gv = gv / _lp_norm(mu_s, gv, p)

        quot, grad = quotient_and_grad(gv)
        eta = 1.0
        stall = 0
        it = 0
        while it < max_iter and stall < 5:
            it += 1
            direction = _project_mean_zero(grad, mu_s)
            accepted = False
            while eta > 1e-18:
                trial = _project_mean_zero(gv - eta * direction, mu_s)
                tnorm = np.sum(mu_s * np.abs(trial) ** p)
                if tnorm > 1e-24:
                    trial = trial / _lp_norm(mu_s, trial, p)
                    tq, tg = quotient_and_grad(trial)
                    if tq < quot:
                        accepted = True
                        break
                eta *= 0.5
            if not accepted:
                stall = 5
                break
            drop = (quot - tq) / max(quot, 1e-300)
            gv, quot, grad = trial, tq, tg
            eta *= 1.5
            stall = stall + 1 if drop <= tol else 0
        if stall < 5:
            raise NoConvergence(f"descent still progressing after {max_iter} iterations "
                                f"(restart {j})")
        if best is None or quot < best[0]:
            best = (quot, gv)

    mode_vals = _signed(best[1])
    return GapResult(beta=best[0], mode=StripField(mode_vals, op.grid),
                     method=VARIATIONAL_DESCENT)


def counterexample_sequence(grid, op, n_list):
    """Quotients of shrinking two-bump differences on an r = R grid.

    The bumps sit at strip nodes closest to the outer boundary, where the
    coupling into the interior vanishes as the supports shrink, so the
    quotient sequence collapses toward zero. Bumps are sharp indicators,
    weighted to zero mean and unit weighted 2-norm.
    """
    if not op.spec.compact:
        raise InvalidArgument("the shrinking-bump sequence needs a compact kernel")
    if abs(grid.r - op.spec.R) > 1e-12:
        raise InvalidArgument(f"needs strip width equal to the kernel radius, "
                              f"got r={grid.r}, R={op.spec.R}")
    s_idx = op.strip_idx
    if s_idx.shape[0] < 2:
        raise TooFewStripNodes("need at least two strip nodes")
    pos = grid.nodes[s_idx]
    bd = grid.bdist[s_idx]
    outer = np.flatnonzero(bd <= bd.min() + 1e-12)
    a = outer[0]
    dist_from_a = np.linalg.norm(pos[outer] - pos[a], axis=1)
    b = outer[np.argmax(dist_from_a)]
    mu_s = grid.mu[s_idx]

    out = []
    for n in n_list:
        radius = 1.0 / n
        if radius < grid.h / 2.0:
            raise EmptyBump(f"bump radius 1/{n} is below half the spacing {grid.h}")
        in_a = np.linalg.norm(pos - pos[a], axis=1) <= radius
        in_b = np.linalg.norm(pos - pos[b], axis=1) <= radius
        if np.any(in_a & in_b):
            raise InvalidArgument(f"bumps of radius 1/{n} overlap")
        f = in_a / np.dot(mu_s, in_a) - in_b / np.dot(mu_s, in_b)
        f = _project_mean_zero(f, mu_s)
        f = f / _lp_norm(mu_s, f, 2.0)
        out.append((int(n), rayleigh_quotient(op, f, 2.0)))
    return out


def fit_decay(traj, column, model, window):
    """Least-squares decay rate of one diagnostic column on a time window.

    Exponential regresses -log y on t; polynomial regresses -log y on
    log t. Needs at least 10 strictly positive samples in the window.
    """
    if model not in (EXPONENTIAL, POLYNOMIAL):
        raise InvalidArgument(f"unknown model {model!r}")
    if column not in DIAG_COLUMNS:
        raise InvalidArgument(f"unknown column {column!r}")
    t_lo, t_hi = float(window[0]), float(window[1])
    if not t_lo < t_hi:
        raise InvalidArgument("window must satisfy t_lo < t_hi")
    times = np.asarray(traj.times, dtype=float)
    values = np.asarray(traj.diag, dtype=float)[:, DIAG_COLUMNS.index(column)]
    keep = (times >= t_lo) & (times <= t_hi)
    if np.count_nonzero(keep) < 10:
        raise WindowTooSmall(f"only {np.count_nonzero(keep)} samples in [{t_lo}, {t_hi}]")
    t = times[keep]
    y = values[keep]
    if np.any(y <= 0.0):
        raise NonPositiveData("decay fit needs strictly positive samples")
    if model == POLYNOMIAL:
        if np.any(t <= 0.0):
            raise NonPositiveData("polynomial fit needs strictly positive times")
        x = np.log(t)
    else:
        x = t
    z = -np.log(y)
    slope, intercept = np.polyfit(x, z, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((z - fitted) ** 2))
    ss_tot = float(np.sum((z - np.mean(z)) ** 2))
    if ss_tot <= 1e-300:
        r2 = 1.0 if ss_res <= 1e-300 else 0.0
    else:
        r2 = min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)
    return DecayFit(model=model, rate=float(slope), window=(t_lo, t_hi), r2=r2)


def monotonicity_spot_check(p, q, samples, seed=0):
    """Sign check of the pairing between differences and odd powers.

    Draws random pairs (a, b) and verifies that (a - b) paired with the
    odd q-power difference is nonnegative, with and without the extra
    |a - b|^(p-2) factor, to within -1e-12.
    """
    if p < 1.0 or q < 1.0:
        raise InvalidArgument("exponents must be >= 1")
    rng = np.random.default_rng([seed, 29])
    ab = rng.standard_normal((int(samples), 2)) * 2.0

    def odd_power(x, expo):
        out = np.zeros_like(x)
        nz = x != 0.0
        out[nz] = np.abs(x[nz]) ** (expo - 2.0) * x[nz]
        return out

    a, b = ab[:, 0], ab[:, 1]
    diff = a - b
    pair = diff * (odd_power(a, q) - odd_power(b, q))
    if np.min(pair, initial=0.0) < -1e-12:
        return False
    scale = np.zeros_like(diff)
    nz = diff != 0.0
    scale[nz] = np.abs(diff[nz]) ** (p - 2.0)
    if np.min(scale * pair, initial=0.0) < -1e-12:
        return False
    return True
