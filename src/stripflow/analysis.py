"""Diagnostics on strip data: the reduced quadratic form and its smallest
eigenvalue, Rayleigh quotients with stationary extension, the shrinking
two-bump sequence that degenerates the gap when the strip is as wide as
the kernel support, and decay-rate fitting. The reduced form S and its
eigenproblem are worked block by block under the box's symmetries
(symmetry.sectors: its coordinate mirrors, and on a square the swap of
its axes): one dense block each, with its own triangular solve, rank-k
update and eigh, the block that two sectors share solved once; the gap
skips the eigh of each block that a Cholesky shows to lie above it."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import _accel
from .elliptic import (_EPS, EXT_TOL, _extended_values, _extension_energy, _interior,
                       _newton_free, extend_with_report)
from .errors import (ConstantField, EmptyBump, InvalidArgument, NoConvergence,
                     NonPositiveData, NotMeanZero, TooFewStripNodes, WindowTooSmall)
from .fields import StripField
from .symmetry import sectors

SCHUR_EIG = "schur-eig"
INVERSE_POWER = "inverse-power"

EXPONENTIAL = "exponential"
POLYNOMIAL = "polynomial"

# Trajectory diagnostic columns, in file order after (step, t).
DIAG_COLUMNS = ("mass", "d1", "d2", "dp", "dq", "dinf", "energy")

# Largest sector block the dense eigensolve takes.
_EIG_NODE_CAP = 2000

# Relative quotient drop that ends an inverse power restart, and its step budget.
_POWER_TOL = 1e-9
_POWER_MAX_ITER = 2000


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


def _strip_values(grid, u):
    """u's values; a raw array must have the length of the cached grid.strip_mu."""
    uv = u.values if isinstance(u, StripField) else np.asarray(u, dtype=float)
    if uv.shape != grid.strip_mu.shape:
        raise InvalidArgument(f"expected {grid.strip_mu.shape[0]} strip values, got {uv.shape}")
    return uv


def mass(grid, u):
    """Weighted sum of the strip values."""
    return float(np.dot(grid.strip_mu, _strip_values(grid, u)))


def lq_distance_to_mean(grid, u, q):
    """Weighted L^q distance from the strip values to their weighted mean.

    q = inf gives the unweighted sup distance. Given a sequence of
    exponents, returns the list of their distances, all from one weighted
    mean, each distinct exponent computed once.
    """
    single = np.ndim(q) == 0
    qs = (q,) if single else tuple(q)
    for qi in qs:
        if not qi >= 1.0:  # NaN too
            raise InvalidArgument(f"q must be >= 1, got {qi}")
    uv, mu_s = _strip_values(grid, u), grid.strip_mu
    dev = np.abs(uv - np.dot(mu_s, uv) / np.sum(mu_s))
    dists = {}
    for qi in qs:
        if float(qi) not in dists:
            dists[float(qi)] = (float(np.max(dev, initial=0.0)) if np.isinf(qi)
                                else _lp_norm(mu_s, dev, qi))
    out = [dists[float(qi)] for qi in qs]
    return out[0] if single else out


def _lp_norm(mu, vals, p):
    """Weighted L^p norm (sum of mu |vals|^p)^(1/p)."""
    return float(np.sum(mu * np.abs(vals) ** p) ** (1.0 / p))


def schur_complement(op):
    """Strip-reduced form S = L_SS - L_SI L_II^{-1} L_IS of the active-edge
    quadratic form, as one dense block per entry of sectors(op).blocks, in
    that order and in the orthonormal basis of Sectors.fold: S_j = Q_j^T S
    Q_j over the strip representatives that index block j. On the unit
    square that order is the sigma-even and sigma-odd blocks of the
    mirror-even sector, the block shared by the two mixed sectors, then
    the sigma-even and sigma-odd blocks of the mirror-odd one; without the
    swap of axes, one block per mirror character. Each is S_j = L_SS^j -
    X^T X with L_II^j = U^T U from the factor the linear extension shares
    (elliptic._interior) and X = U^{-T} L_IS^j: one triangular solve in the
    dense fold of L_IS and one symmetric rank-k update. The tuple is made
    once per operator and cached; no dense n_S x n_S S is formed. Every
    block is exactly symmetric and PSD, and the trivial one annihilates the
    constants. With no interior nodes they are the blocks of L_SS.
    """
    if "schur" not in op._cache:
        op._cache["schur"] = _schur_blocks(op)
    return op._cache["schur"]


def _schur_blocks(op):
    """The blocks S_j, built one at a time, so that one X is live. L_SS and
    L_IS are read off the stencil's J table (Sectors.fold_laplacian); an
    L_SS that is its diagonal alone is added as that, with no dense block."""
    sec = sectors(op)
    factors = _interior(op) if op.n_interior else ()
    l_ss = sec.fold_laplacian(op, sec.strip, sec.strip)
    l_is = sec.fold_laplacian(op, sec.interior, sec.strip)
    diagonal = sec.degrees(op, sec.strip) if sec.diagonal_only(op, sec.strip) else None
    out = []
    for j, (chol, lower) in enumerate(factors):
        x = sla.solve_triangular(chol, next(l_is), trans="T", lower=lower,
                                 overwrite_b=True, check_finite=False)
        block = x.T @ x
        del x  # so that the peak is X^T X and L_SS^chi, without X beside them
        if diagonal is None:
            np.negative(block, out=block)
            block += next(l_ss)
        else:
            # 0 - v equals -v + 0, the sum with L_SS's zero entries, to the sign of a zero
            np.subtract(0.0, block, out=block)
            block[np.diag_indices_from(block)] += diagonal[j]
        out.append(block)
    return tuple(out) if factors else tuple(l_ss)


def _signed(vals):
    lead = np.flatnonzero(np.abs(vals) > 1e-12 * np.max(np.abs(vals), initial=0.0))
    if lead.shape[0] and vals[lead[0]] < 0.0:
        return -vals
    return vals


def _eig_tol(op):
    """Backward error of the dense symmetric eigensolve: n_S eps times a
    Gershgorin bound 2 max(row sum) on the measure-scaled reduced form."""
    return op.n_strip * _EPS * 2.0 * float(np.max(op.deg_active[op.strip_idx]))


def _exceeds(red, floor):
    """Whether every eigenvalue of the symmetric matrix red exceeds floor,
    certified by a Cholesky of red - s I with s above floor by a bound on
    its backward error: it succeeds only if red - s I is positive definite
    up to that error (Sylvester's law of inertia; Parlett, The Symmetric
    Eigenvalue Problem, SIAM 1998). The computed factor R has R^T R = A + E
    with |E| <= gamma_(n+1) |R^T| |R| for A = red - s I (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.3), so ||E||_2 <= gamma
    trace(R^T R) <= gamma / (1 - gamma) trace(A); forming each a_ii - s, s
    included, rounds by u (|a_ii| + 2 |s|) more. The margin is twice that
    bound, which covers the margin's own share of s. A floor that is not
    finite is never exceeded."""
    if not np.isfinite(floor):
        return False
    n, u = red.shape[0], 0.5 * _EPS
    gamma = (n + 1) * u / (1.0 - (n + 1) * u)
    diag = np.diagonal(red)
    error = (gamma / (1.0 - gamma) * max(float(np.sum(diag)) - n * floor, 0.0)
             + u * (float(np.max(np.abs(diag))) + 2.0 * abs(floor)))
    shifted = np.array(red, order="F")
    shifted[np.diag_indices(n)] -= floor + 2.0 * error
    return sla.lapack.dpotrf(shifted, overwrite_a=1, clean=0)[1] == 0


def _reduced_modes(op, subset=None):
    """Eigenpairs of the reduced form against the strip measures, on the
    mean-zero subspace: ascending eigenvalues and modes as columns, each
    with unit weighted 2-norm and zero weighted mean. `subset` is eigh's
    subset_by_index [lo, hi] over the whole spectrum; None gives all
    n_S - 1.

    Each block is solved on its own, with its own eigh: the measures are
    constant on orbits, so the block of M is diag(mu) at the representatives
    that index its rows. Divided by sqrt(mu), a solved block's eigenvectors
    are coefficients in the orthonormal basis, |K|^(-1/2) times those of
    Sectors.fold, and leave the sector basis as states do, through one
    Sectors.unfold; the block two sectors share gives each eigenpair twice,
    the second mode (the fold's second column) the transpose of the first.
    The constants lie in the trivial block only, with the coefficients of
    their fold (uniform without the swap of axes; sqrt(2) times larger on a
    sigma pair than on the diagonal with it), and are deflated there: the
    reflection H = I - tau v v^T taking sqrt(mu) times those coefficients to
    a multiple of e_0 is applied one side at a time, in O(m^2), and a mode y
    of the trailing block of H A H maps back to H [0; y]. The blocks'
    eigenvalues are merged in ascending order; eigenvalues within _eig_tol
    of their neighbours in that order count as tied and keep the order of
    their blocks, so that the mode of a multiple eigenvalue split across
    blocks does not hang on roundoff.

    With subset [0, 0] (the gap) the trivial block is solved first, and a
    later block is solved only if no Cholesky certifies (_exceeds) that
    its every eigenvalue exceeds best + (number of blocks) _eig_tol, best
    the smallest eigenvalue found so far: such a block can neither hold
    the smallest eigenvalue nor tie with it through a chain of ties, so
    beta and its mode are those of solving every block, bit for bit.
    """
    if op.n_strip < 2:
        raise TooFewStripNodes("gap needs at least two strip nodes")
    sec = sectors(op)
    reps = sec.block_reps(sec.strip)
    if max(rows.shape[0] for rows in reps) > _EIG_NODE_CAP:
        raise InvalidArgument(f"dense eigensolve capped at {_EIG_NODE_CAP} strip nodes "
                              f"per sector block")
    top = None if subset is None else subset[1]
    # at the gap, only the blocks that may hold beta or tie with it are solved
    certify, best = subset is not None and tuple(subset) == (0, 0), np.inf
    evals, modes, owner = [], [], []
    for j, block in enumerate(schur_complement(op)):
        root = np.sqrt(op.grid.mu[reps[j]])
        red = np.outer(root, root)
        np.divide(block, red, out=red)
        deflate = j == 0
        if deflate:
            v = root * sec.constants
            v /= np.linalg.norm(v)
            v[0] += 1.0  # v[0] > 0, so the shift cannot cancel
            tv = (2.0 / np.dot(v, v)) * v
            red -= np.outer(tv, v @ red)
            red -= np.outer(red @ v, tv)
            red = red[1:, 1:]
        if red.shape[0] == 0:
            continue
        if certify and _exceeds(red, best + len(sec.blocks) * _eig_tol(op)):
            continue
        last = red.shape[0] - 1 if top is None else min(top, red.shape[0] - 1)
        vals, vecs = sla.eigh(red, subset_by_index=[0, last])
        best = min(best, vals[0])
        if deflate:
            vecs = np.vstack([np.zeros(vecs.shape[1]), vecs])
            vecs -= np.outer(tv, v @ vecs)
        # |K| times the orthonormal basis vectors' entries, exactly; sector c in column c
        coef = vecs / root[:, None] * (1.0 / np.sqrt(len(sec.signs))) * len(sec.signs)
        copies, r = sec.copies(sec.blocks[j]), vals.shape[0]
        parts = [np.zeros((rows.shape[0],) + (2,) * (sec.copies(blk) - 1) + (copies * r,))
                 for rows, blk in zip(reps, sec.blocks)]
        parts[j].reshape(-1, copies, copies, r)[:, range(copies), range(copies)] = coef[:, None]
        full = sec.unfold(parts, sec.strip)
        del parts
        evals += [vals] * copies
        modes += np.hsplit(full, copies)
        owner += [np.full(r, len(owner) + copy) for copy in range(copies)]
    evals, owner = np.concatenate(evals), np.concatenate(owner)
    order = np.argsort(evals, kind="stable")
    cluster = np.concatenate(([0], np.cumsum(np.diff(evals[order]) > _eig_tol(op))))
    order = order[np.lexsort((owner[order], cluster))]
    lo, hi = (0, order.shape[0] - 1) if subset is None else subset
    order = order[lo:hi + 1]
    return evals[order], np.concatenate(modes, axis=1).take(order, axis=1)


def spectral_gap_beta(op, p=2.0):
    """Smallest eigenvalue of the reduced form over mean-zero strip data.

    Solves the generalized symmetric problem S v = beta M v with M the
    diagonal of strip measures, block by block, after deflating the
    constant vector in the M-inner product of the trivial block. It
    computes the smallest eigenpair of the trivial block and of each later
    block that a Cholesky does not certify to lie above the smallest
    eigenvalue so far and its tie margin; a certified block is not solved
    (_reduced_modes). Exponent 2 only; see estimate_beta_p for other p.
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
    active ordered pairs, with u_hat the stationary extension of g: p times
    the energy its report holds, which pairs its strip flux. The caller
    must supply mean-zero data. At p = 2 this
    route (extension, then the strip row sums) stays apart from the Schur
    complement that spectral_gap_beta and the p = 2 dynamics use, so the
    quotient of the gap mode checks beta independently.
    """
    gv = g.values if isinstance(g, StripField) else StripField(g, op.grid).values
    sup = float(np.max(np.abs(gv), initial=0.0))
    if sup == 0.0 or np.ptp(gv) == 0.0:
        raise ConstantField("quotient is undefined for constant strip data")
    mu_s = op.grid.mu[op.strip_idx]
    mean = np.dot(mu_s, gv) / np.sum(mu_s)
    if abs(mean) > 1e-9 * sup:
        raise NotMeanZero(f"weighted mean {mean:.3e} exceeds 1e-9 * max |g|")
    # the extension's report holds its energy; with no interior there is no
    # extension, and the energy pairs the strip rows of one pass
    energy = (extend_with_report(op, gv, p, tol=EXT_TOL)[1].energy if op.n_interior
              else _extension_energy(op, *_extended_values(op, gv, p), p))
    numerator = p * energy
    denominator = float(np.sum(mu_s * np.abs(gv) ** p))
    return numerator / denominator


def isolated_strip_nodes(op):
    """Strip positions of the strip nodes with no active edge (beta is 0)."""
    return np.flatnonzero(op.deg_active[op.strip_idx] == 0.0)


def _project_mean_zero(gv, mu_s):
    return gv - np.dot(mu_s, gv) / np.sum(mu_s)


def estimate_beta_p(op, p, restarts=8, seed=0):
    """Upper bound on the mean-zero quotient infimum by inverse power iteration.

    Runs `restarts` seeded nonlinear inverse power iterations (Hein and
    Buehler, NeurIPS 2010) over mean-zero strip fields f with unit weighted
    p-norm and keeps the best endpoint (ties broken by restart index). One
    step minimizes E_p(w) - <s, w_S> with elliptic._newton_free over every
    node but the first strip node, held at 0, where s = mu phi_p(f) shifted
    by a multiple of mu to sum to 0. The strip part of the minimizer, made
    mean-zero and of unit p-norm, is the next f; its interior already is the
    extension of f, so the quotient is p E_p of it, read off the step's
    report rather than summed again. A restart ends when the
    quotient drops by at most _POWER_TOL relative, and raises NoConvergence
    after _POWER_MAX_ITER steps. An isolated strip node (no active edge)
    leaves the step unbounded; then beta is 0.0 and the mode is that node's
    indicator, made mean-zero.
    """
    if not (isinstance(restarts, (int, np.integer)) and restarts >= 1):
        raise InvalidArgument(f"restarts must be positive and an integer, got {restarts!r}")
    if not 1.0 < p < np.inf:  # NaN too
        raise InvalidArgument(f"exponent must exceed 1 and be finite, got {p}")
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
        field, report = extend_with_report(op, gv, p, tol=EXT_TOL)
        v, quot = field.values, p * report.energy

        for _ in range(_POWER_MAX_ITER):
            s = mu_s * _accel._phi(gv, p, 0.0)
            s -= mu_s * (np.sum(s) / np.sum(mu_s))
            lin[op.strip_idx] = s
            gate = _POWER_TOL * (1.0 + np.max(np.abs(s / mu_s)))
            # <s, gv> = 1, so this scale minimizes the objective on the ray of v
            v0 = (v - v[pin]) * quot ** (-1.0 / (p - 1.0))
            field, report = _newton_free(op, p, v0, free, 100,
                                         lambda r: np.max(np.abs(r)) <= gate, lin=lin)
            v = field.values
            # the report's energy is E_p(v) - <lin, v>; E_p does not change
            # under the shift below and scales by the p-th power of the divisor
            e_p = report.energy + float(np.dot(lin, v))
            v -= np.dot(mu_s, v[op.strip_idx]) / np.sum(mu_s)
            norm = _lp_norm(mu_s, v[op.strip_idx], p)
            v /= norm
            gv = v[op.strip_idx]
            prev, quot = quot, p * e_p / norm ** p
            if prev - quot <= _POWER_TOL * prev:
                break
        else:
            raise NoConvergence(f"inverse power iteration still progressing after "
                                f"{_POWER_MAX_ITER} steps (restart {j})")
        if best is None or quot < best[0]:
            best = (quot, gv)

    mode_vals = _signed(best[1])
    return GapResult(beta=best[0], mode=StripField(mode_vals, op.grid),
                     method=INVERSE_POWER)


def counterexample_sequence(op, n_list):
    """Quotients of shrinking two-bump differences on an r = R grid.

    The bumps sit at strip nodes closest to the outer boundary, where the
    coupling into the interior vanishes as the supports shrink, so the
    quotient sequence collapses toward zero. Bumps are sharp indicators,
    weighted to zero mean and unit weighted 2-norm. Each n of n_list is a
    positive integer, the bumps' radius 1/n.
    """
    grid = op.grid
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
        if not (n >= 1 and float(n).is_integer()):  # NaN too
            raise InvalidArgument(f"bump index n must be a positive integer, got {n}")
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

