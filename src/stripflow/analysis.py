"""Diagnostics on strip data: the reduced quadratic form and its smallest
eigenvalue, Rayleigh quotients with stationary extension, the shrinking
two-bump sequence that degenerates the gap when the strip is as wide as
the kernel support, and decay-rate fitting. The reduced form S and its
eigenproblem are worked sector by sector under the box's coordinate
mirrors (symmetry.sectors): one dense block per sector, each with its own
triangular solve, rank-k update and eigh."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import _accel
from .elliptic import (_EPS, _extended_values, _interior, _newton_free, _pairing,
                       _strip_flux, energy_values)
from .errors import (ConstantField, EmptyBump, InvalidArgument, NoConvergence,
                     NonPositiveData, NotMeanZero, TooFewStripNodes, WindowTooSmall)
from .fields import StripField
from .geometry import STRIP
from .symmetry import sectors

SCHUR_EIG = "schur-eig"
INVERSE_POWER = "inverse-power"

EXPONENTIAL = "exponential"
POLYNOMIAL = "polynomial"

# Trajectory diagnostic columns, in file order after (step, t).
DIAG_COLUMNS = ("mass", "d1", "d2", "dp", "dq", "dinf", "energy")

# Largest sector block the dense eigensolve takes.
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


def schur_complement(op, blocks=False):
    """Strip-reduced matrix of the active-edge quadratic form.

    Eliminates the interior block, S = L_SS - L_SI L_II^{-1} L_IS, sector
    by sector (symmetry.sectors): S_chi = L_SS^chi - X^T X with
    L_II^chi = U^T U from the factor the linear extension shares
    (elliptic._interior) and X = U^{-T} L_IS^chi, one triangular solve in
    the dense fold of L_IS and one symmetric rank-k update. The blocks are
    made once per operator and cached; blocks=True returns them, one per
    sector in the order of the characters, and the default unfolds them
    into the dense n_S x n_S S, a fresh array per call. The coefficients
    are exactly symmetric, and so is every block and S. PSD, annihilates
    constants; with no interior nodes it is the strip block.
    """
    if "schur" not in op._cache:
        op._cache["schur"] = _schur_blocks(op)
    if blocks:
        return op._cache["schur"]
    sec = sectors(op)
    return sec.unfold_matrix(op._cache["schur"], sec.strip)


def _schur_blocks(op):
    """The blocks S_chi, built one sector at a time, so that one X is live."""
    sec = sectors(op)
    rows = _accel.adjacency(op.act_rows, op.act_cols, op.act_coef, op.n)[op.strip_idx]
    l_ss = sp.diags(rows @ np.ones(op.n)) - rows[:, op.strip_idx]
    del rows
    l_ss = sec.fold_rows(l_ss, sec.strip, sec.strip)
    if op.n_interior:
        _, factors, l_is = _interior(op)
        l_is = sec.fold_rows(l_is, sec.interior, sec.strip)
    out = []
    for k in range(sec.count):
        if op.n_interior:
            chol, lower = factors[k]
            x = sla.solve_triangular(chol, next(l_is), trans="T", lower=lower,
                                     overwrite_b=True, check_finite=False)
            block = x.T @ x
            del x  # so that the peak is X^T X and L_SS^chi, without X beside them
            np.negative(block, out=block)
            block += next(l_ss)
        else:
            block = next(l_ss)
        out.append(block)
    return tuple(out)


def _signed(vals):
    lead = np.flatnonzero(np.abs(vals) > 1e-12 * np.max(np.abs(vals), initial=0.0))
    if lead.shape[0] and vals[lead[0]] < 0.0:
        return -vals
    return vals


def _eig_tol(op):
    """Backward error of the dense symmetric eigensolve: n_S eps times a
    Gershgorin bound 2 max(row sum) on the measure-scaled reduced form."""
    return op.n_strip * _EPS * 2.0 * float(np.max(op.deg_active[op.strip_idx]))


def _reduced_modes(op, subset=None):
    """Eigenpairs of the reduced form against the strip measures, on the
    mean-zero subspace: ascending eigenvalues and modes as columns, each
    with unit weighted 2-norm and zero weighted mean. `subset` is eigh's
    subset_by_index [lo, hi] over the whole spectrum; None gives all
    n_S - 1.

    Each sector block is solved on its own, with its own eigh: the measures
    are constant on orbits, so the block of M is diag(mu) at the
    representatives. The constants lie in the trivial sector only, and are
    deflated there: the reflection H = I - tau v v^T taking sqrt(mu) to a
    multiple of e_0 is applied one side at a time, in O(m^2), and a mode y
    of the trailing block of H A H maps back to H [0; y]. The sectors'
    eigenvalues are merged in ascending order; eigenvalues within _eig_tol
    of their neighbours in that order count as tied and keep the order of
    their sectors, so that the mode of a multiple eigenvalue split across
    sectors does not hang on roundoff.
    """
    if op.n_strip < 2:
        raise TooFewStripNodes("gap needs at least two strip nodes")
    sec = sectors(op)
    if sec.strip.size > _EIG_NODE_CAP:
        raise InvalidArgument(f"dense eigensolve capped at {_EIG_NODE_CAP} strip nodes "
                              f"per sector block")
    root = np.sqrt(op.grid.mu[sec.strip.reps])
    top = None if subset is None else subset[1]
    evals, modes, owner = [], [], []
    for k, block in enumerate(schur_complement(op, blocks=True)):
        red = block / np.outer(root, root)
        deflate = k == 0
        if deflate:
            v = root / np.linalg.norm(root)
            v[0] += 1.0  # v[0] > 0, so the shift cannot cancel
            tv = (2.0 / np.dot(v, v)) * v
            red -= np.outer(tv, v @ red)
            red -= np.outer(red @ v, tv)
            red = red[1:, 1:]
        if red.shape[0] == 0:
            continue
        last = red.shape[0] - 1 if top is None else min(top, red.shape[0] - 1)
        vals, vecs = sla.eigh(red, subset_by_index=[0, last])
        if deflate:
            vecs = np.vstack([np.zeros(vecs.shape[1]), vecs])
            vecs -= np.outer(tv, v @ vecs)
        # unfolded with the orthonormal basis's |G|^(-1/2), so that each mode
        # keeps its unit weighted norm
        full = np.empty((op.n_strip, vals.shape[0]))
        full[sec.strip.table] = np.multiply.outer(sec.signs[k] / np.sqrt(sec.count),
                                                  vecs / root[:, None])
        evals.append(vals)
        modes.append(full)
        owner.append(np.full(vals.shape[0], k))
    evals, owner = np.concatenate(evals), np.concatenate(owner)
    order = np.argsort(evals, kind="stable")
    cluster = np.concatenate(([0], np.cumsum(np.diff(evals[order]) > _eig_tol(op))))
    order = order[np.lexsort((owner[order], cluster))]
    lo, hi = (0, order.shape[0] - 1) if subset is None else subset
    order = order[lo:hi + 1]
    return evals[order], np.concatenate(modes, axis=1)[:, order]


def spectral_gap_beta(op, p=2.0):
    """Smallest eigenvalue of the reduced form over mean-zero strip data.

    Solves the generalized symmetric problem S v = beta M v with M the
    diagonal of strip measures, sector by sector, after deflating the
    constant vector in the M-inner product of the trivial sector, and
    computes only the smallest eigenpair of each block (_reduced_modes).
    Exponent 2 only; see estimate_beta_p for other p.
    """
    if p != 2.0:
        raise InvalidArgument("eigenvalue path is exponent-2 only; use estimate_beta_p")
    evals, modes = _reduced_modes(op, subset=[0, 0])
    beta = max(float(evals[0]), 0.0)
    mode_vals = _signed(modes[:, 0])
    return GapResult(beta=beta, mode=StripField(mode_vals, op.grid), method=SCHUR_EIG)


def rayleigh_quotient(op, g, p):
    """Quotient of the extended edge energy against the strip p-norm.

    The numerator is half the weighted sum of |u_hat[y] - u_hat[x]|^p over
    active ordered pairs, with u_hat the stationary extension of g, read off
    its strip flux. The caller must supply mean-zero data. At p = 2 this
    route (extension, then an edge pass) stays apart from the Schur
    complement that spectral_gap_beta and the p = 2 dynamics use, so the
    quotient of the gap mode checks beta independently.
    """
    gv = g.values if isinstance(g, StripField) else np.asarray(g, dtype=float)
    sup = float(np.max(np.abs(gv), initial=0.0))
    if sup == 0.0 or np.ptp(gv) == 0.0:
        raise ConstantField("quotient is undefined for constant strip data")
    mu_s = op.grid.mu[op.strip_idx]
    mean = np.dot(mu_s, gv) / np.sum(mu_s)
    if abs(mean) > 1e-9 * sup:
        raise NotMeanZero(f"weighted mean {mean:.3e} exceeds 1e-9 * max |g|")
    full = _extended_values(op, gv, p)
    numerator = p * _pairing(mu_s, gv, _strip_flux(op, full, p), p)
    denominator = float(np.sum(mu_s * np.abs(gv) ** p))
    return numerator / denominator


def isolated_strip_nodes(op):
    """Strip positions of the strip nodes with no active edge (beta is 0)."""
    return np.flatnonzero(op.deg_active[op.strip_idx] == 0.0)


def _project_mean_zero(gv, mu_s):
    return gv - np.dot(mu_s, gv) / np.sum(mu_s)


def estimate_beta_p(op, p, restarts=8, tol=1e-9, max_iter=2000, seed=0):
    """Upper bound on the mean-zero quotient infimum by inverse power iteration.

    Runs `restarts` seeded nonlinear inverse power iterations (Hein and
    Buehler, NeurIPS 2010) over mean-zero strip fields f with unit weighted
    p-norm and keeps the best endpoint (ties broken by restart index). One
    step minimizes E_p(w) - <s, w_S> with elliptic._newton_free over every
    node but the first strip node, held at 0, where s = mu phi_p(f) shifted
    by a multiple of mu to sum to 0. The strip part of the minimizer, made
    mean-zero and of unit p-norm, is the next f; its interior already is the
    extension of f, so the quotient is p E_p of it. A restart ends when the
    quotient drops by at most tol relative, and raises NoConvergence after
    max_iter steps. An isolated strip node (no active edge) leaves the step
    unbounded; then beta is 0.0 and the mode is that node's indicator, made
    mean-zero.
    """
    if restarts <= 0:
        raise InvalidArgument("need at least one restart")
    if p <= 1.0:
        raise InvalidArgument(f"exponent must exceed 1, got {p}")
    if op.n_strip < 2:
        raise TooFewStripNodes("gap needs at least two strip nodes")
    mu_s = op.grid.mu[op.strip_idx]
    isolated = isolated_strip_nodes(op)
    if isolated.shape[0]:
        gv = _project_mean_zero(np.arange(op.n_strip) == isolated[0], mu_s)
        mode_vals = _signed(gv / _lp_norm(mu_s, gv, p))
        return GapResult(beta=0.0, mode=StripField(mode_vals, op.grid), method=INVERSE_POWER)

    pin = op.strip_idx[0]
    free = np.delete(np.arange(op.n), pin)
    lin = np.zeros(op.n)
    best = None
    for j in range(restarts):
        rng = np.random.default_rng([seed, 17, j])
        gv = rng.standard_normal(op.n_strip)
        gv = _project_mean_zero(gv, mu_s)
        while np.sum(mu_s * np.abs(gv) ** p) < 1e-24:
            gv = _project_mean_zero(rng.standard_normal(op.n_strip), mu_s)
        gv = gv / _lp_norm(mu_s, gv, p)
        v = _extended_values(op, gv, p)
        quot = p * energy_values(op, v, p)

        for _ in range(max_iter):
            s = mu_s * _accel._phi(gv, p, 0.0)
            s -= mu_s * (np.sum(s) / np.sum(mu_s))
            lin[op.strip_idx] = s
            gate = tol * (1.0 + np.max(np.abs(s / mu_s)))
            # <s, gv> = 1, so this scale minimizes the objective on the ray of v
            v0 = (v - v[pin]) * quot ** (-1.0 / (p - 1.0))
            v = _newton_free(op, p, v0, free, 100, lambda r: np.max(np.abs(r)) <= gate,
                             lin=lin)[0].values
            v -= np.dot(mu_s, v[op.strip_idx]) / np.sum(mu_s)
            v /= _lp_norm(mu_s, v[op.strip_idx], p)
            gv = v[op.strip_idx]
            prev, quot = quot, p * energy_values(op, v, p)
            if prev - quot <= tol * prev:
                break
        else:
            raise NoConvergence(f"inverse power iteration still progressing after "
                                f"{max_iter} steps (restart {j})")
        if best is None or quot < best[0]:
            best = (quot, gv)

    mode_vals = _signed(best[1])
    return GapResult(beta=best[0], mode=StripField(mode_vals, op.grid),
                     method=INVERSE_POWER)


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
    # NaN compares false both ways, so test for the good samples
    if not np.all(np.isfinite(y) & (y > 0.0)):
        raise NonPositiveData("decay fit needs strictly positive, finite samples")
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

