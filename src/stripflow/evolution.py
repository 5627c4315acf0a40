"""Time stepping for the strip dynamics.

The strip values evolve; interior values follow instantaneously through the
stationary extension. At p = 2 that extension is linear, so the strip
evolves by u' = -M^-1 S u with S the Schur complement of the interior and
M the strip measures: the flux is one product with the cached S, and no
step of either integrator extends. Explicit Euler steps u + dt flux; the
implicit step solves the strip system (M + dt S) v = M u. Both work on the
blocks of S under the box's symmetries (symmetry.sectors), as a march
(symmetry.March): u less its midrange is folded once into coefficient
columns per block, two for the block that two sectors share on the unit
square; every step multiplies each block's live columns by S_j, or solves
with the factor of M_j + dt S_j, in the sector basis; and at the end each
state and its flux is unfolded once. An explicit step's product is its
state's flux, so only the last state's is left to make; an implicit run
makes all of them in one product S_j X_j per block. A column of exact
zeros is never stepped, so the gap mode steps one column of one block. A
single flux is a march of no step, and a single implicit step a march of
one step that unfolds its new state alone. For p != 2 the
explicit flux is that of the extended state (_state gives both for any p),
re-solved after each step, and the implicit step minimizes
dt * E_p(v) + (1/2) sum_strip mu (v - u)^2 jointly over all nodes, which
reproduces backward Euler on the strip and the stationary balance on the
interior in one convex solve: elliptic._newton_free on that objective
over dt, with proximal weights mu / dt on the strip. The fixed point
integrator rebuilds the solution on a whole time window from its integral
form and only contracts on short windows; its cumulative trapezoid rule is
written out in numpy, so the module imports no scipy.integrate.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import (DIAG_COLUMNS, _lp_norm, lq_distance_to_mean, mass,
                       schur_complement)
from .elliptic import (StripField, _cho_solve, _cholesky, _extended_values,
                       _interior_start, _midrange, _newton_free, _pairing)
from .errors import (InvalidArgument, NoContraction, SingularSystem, SolverError)
from .kernels import EXCLUDE_STRIP_STRIP, FULL, SINGULAR
from .symmetry import March, sectors

LINEAR = "linear"
LINEAR_FULL = "linear-full"
PLAPLACE = "plaplace"
PLAPLACE_FULL = "plaplace-full"
SINGULAR_VARIANT = "singular"

VARIANTS = (LINEAR, LINEAR_FULL, PLAPLACE, PLAPLACE_FULL, SINGULAR_VARIANT)
_FULL_MODE_VARIANTS = (LINEAR_FULL, PLAPLACE_FULL)

EXPLICIT = "explicit"
IMPLICIT = "implicit"


@dataclass(frozen=True)
class ProblemSpec:
    """Evolution variant plus its exponents.

    p drives the nonlinearity (fixed at 2 for the linear variants);
    q is the diagnostic exponent reported in trajectories.
    """

    variant: str
    p: float = 2.0
    q: float = 2.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidArgument(f"unknown variant {self.variant!r}")
        if not 1.0 < self.p < np.inf:  # NaN too
            raise InvalidArgument(f"exponent p must exceed 1 and be finite, got {self.p}")
        if self.variant in (LINEAR, LINEAR_FULL) and self.p != 2.0:
            raise InvalidArgument("linear variants fix p = 2")
        if not self.q >= 1.0:  # NaN too
            raise InvalidArgument(f"diagnostic exponent q must be >= 1, got {self.q}")

    @property
    def edge_mode(self):
        return FULL if self.variant in _FULL_MODE_VARIANTS else EXCLUDE_STRIP_STRIP

    @property
    def is_linear(self):
        """Whether the dynamics are linear: p = 2, in any variant."""
        return self.p == 2.0


@dataclass(frozen=True)
class Trajectory:
    """Strip states over time with per-step diagnostics.

    states has one row per time, columns ordered like the strip nodes.
    diag columns follow DIAG_COLUMNS. newton_iters and pcg_iters hold, per
    step, the descent iterations of an implicit p != 2 step and the PCG
    iterations inside them (EnergyReport.iterations and cg_iterations);
    both are None for p = 2 and for explicit steps.
    """

    times: np.ndarray
    states: np.ndarray
    diag: np.ndarray
    grid: object
    newton_iters: np.ndarray | None = None
    pcg_iters: np.ndarray | None = None

    def field(self, k):
        return StripField(self.states[k], self.grid)

    @property
    def final(self):
        return self.field(self.states.shape[0] - 1)


def check_kernel(kernel, spec):
    """The one kernel/variant rule: the singular kernel and the singular
    variant require each other, and a singular kernel is built for spec.p."""
    if (kernel.family == SINGULAR) != (spec.variant == SINGULAR_VARIANT):
        raise InvalidArgument(
            f"kernel family {kernel.family!r} does not match variant "
            f"{spec.variant!r}: the singular kernel and the singular variant "
            f"require each other")
    if kernel.family == SINGULAR and kernel.p != spec.p:
        raise InvalidArgument(f"singular kernel built for p = {kernel.p:g}, not {spec.p:g}")


def check_compatible(op, spec):
    """Operator and problem must agree on edge mode and kernel (check_kernel)."""
    if op.edge_mode != spec.edge_mode:
        raise InvalidArgument(
            f"variant {spec.variant!r} needs edge mode {spec.edge_mode!r}, "
            f"operator was assembled with {op.edge_mode!r}")
    check_kernel(op.spec, spec)


def _block_mu(op):
    """Per block of S, the strip measures at the representatives that index
    its rows: its block of M."""
    sec = sectors(op)
    return [op.grid.mu[rows] for rows in sec.block_reps(sec.strip)]


def _march(op, uv, steps):
    """(march, c): the strip values uv less their midrange c, folded once
    into a March with room for steps more states. Constant data folds to
    exact zeros, so no block is stepped and every state is c bit for
    bit."""
    sec = sectors(op)
    shift = _midrange(uv)
    return March(sec, uv - shift, sec.strip, steps), shift


def _rate(block, mu, x, out=None):
    """-(S_j X) / mu_j for the coefficient rows x (..., m_j) of block j, as
    rows, into out if given: one product x S_j, S_j being symmetric."""
    prod = np.matmul(x.reshape(-1, x.shape[-1]), block,
                     out=None if out is None else out.reshape(-1, x.shape[-1]))
    np.negative(prod, out=prod)
    return np.divide(prod, mu, out=prod).reshape(x.shape)


def _explicit_step(op, dt, march):
    """(step, rates): the forward Euler step of a march's block j, x + dt f
    with f = -M_j^-1 S_j x, and per live block an array like its states
    whose row k the step fills with f of the state k it steps from (the
    march's last, count - 1), so that a run's fluxes are all made by its
    steps but the last state's (_fluxes)."""
    blocks, mu = schur_complement(op), _block_mu(op)
    rates = {j: np.empty_like(states) for j, (_, states) in march.live.items()}

    def step(j, x):
        return x + dt * _rate(blocks[j], mu[j], x, rates[j][march.count - 1])
    return step, rates


def _implicit_factor(op, dt, j):
    """The Cholesky factor (elliptic._cholesky) of M_j + dt S_j, made when
    block j is first solved with: one set per operator, for the last dt,
    since a set per dt ever used adds up."""
    last, factors = op._cache.get("implicit_chol", (None, None))
    if last != dt:
        op._cache.pop("implicit_chol", None)
        factors = (None,) * len(sectors(op).blocks)
    if factors[j] is None:
        # S_j is exactly symmetric, and its transpose is the Fortran order
        # cho_factor overwrites
        mat = dt * schur_complement(op)[j].T
        mat[np.diag_indices_from(mat)] += _block_mu(op)[j]
        factors = factors[:j] + _cholesky([mat], "implicit system") + factors[j + 1:]
        op._cache["implicit_chol"] = (dt, factors)
    return factors[j]


def _implicit_step(op, dt):
    """The backward Euler step of a march's block j: solve (M_j + dt S_j) x'
    = M_j x with cho_solve, the rows x taken as its columns. The rows of
    the computed S sum to roundoff rather than 0, which a long step scales
    up, so in the trivial block, the one that holds the constants and the
    mass sum_S mu u, x' then moves along the constants' coefficients e by
    the multiple that restores the mass of x, as the p != 2 step shifts its
    iterates."""
    mu, ones = _block_mu(op), sectors(op).constants
    # the mass of the trivial block's coefficients x is x @ weight / |K|
    weight = mu[0] * ones

    def step(j, x):
        out = _cho_solve(_implicit_factor(op, dt, j), (x * mu[j]).T).T
        if j == 0:
            out += np.outer((x - out) @ weight / np.dot(weight, ones), ones)
        if not np.all(np.isfinite(out)):
            raise SingularSystem("implicit solve produced non-finite values")
        return out
    return step


def _fluxes(op, march, rates=None):
    """(count, n_S) the strip flux -M^-1 S u of every state of a march,
    unfolded once: per block one product S_j X_j over all its states, or,
    with the rates of an explicit run (_explicit_step), over its last
    state alone."""
    blocks, mu = schur_complement(op), _block_mu(op)

    def flux(j, x):
        if rates is None:
            return _rate(blocks[j], mu[j], x)
        out = rates[j][:x.shape[0]]
        _rate(blocks[j], mu[j], x[-1], out[-1])
        return out
    return march.unfold(flux)


def _schur_flux(op, uv):
    """The p = 2 strip flux -M^-1 S u: that of a march of uv with no step,
    anchored at the midrange of uv as extend_linear is, so that constant
    data gives exactly +0."""
    return _fluxes(op, _march(op, uv, 0)[0])[0]


def _state(op, spec, uv, warm=None):
    """(full values, strip flux) of the strip values uv: at p = 2 no
    extension (None) and the Schur flux; otherwise the extension, its
    interior solve started from warm, and the strip rows of its balance."""
    if spec.p == 2.0:
        return None, _schur_flux(op, uv)
    return _extended_values(op, uv, spec.p, warm)


def rhs(op, spec, u):
    """Time derivative of the strip values.

    For strip node x this is the weighted sum of phi_p(u_hat[y] - u[x])
    over its active neighbors y, with u_hat the stationary extension of u.
    At p = 2 it is -(S u) / mu with S the Schur complement, which is the
    same flux with the interior eliminated.
    """
    check_compatible(op, spec)
    uv = u.values if isinstance(u, StripField) else StripField(u, op.grid).values
    return StripField(_state(op, spec, uv)[1], op.grid)


def stability_bound(op):
    """Advisory explicit step bound 1 / max strip row sum, for p = 2 only."""
    deg = op.deg_active[op.strip_idx]
    top = float(np.max(deg, initial=0.0))
    return np.inf if top == 0.0 else 1.0 / top


def step_explicit(op, spec, u, dt):
    """Forward Euler step u + dt * rhs(u)."""
    check_compatible(op, spec)
    if not 0.0 < dt < np.inf:  # NaN too
        raise InvalidArgument(f"dt must be positive and finite, got {dt}")
    bound = stability_bound(op)
    if dt > bound:
        warnings.warn(f"dt={dt} exceeds the stability advisory {bound:.6g}")
    uv = u.values if isinstance(u, StripField) else StripField(u, op.grid).values
    return StripField(uv + dt * _state(op, spec, uv)[1], op.grid)


def _step_implicit_values(op, spec, uv, dt, tol, max_iter, warm):
    """(strip values, full values, strip flux, EnergyReport) after one
    implicit step, the flux read off the report's balance. At p = 2 the
    step is one _implicit_step of a march, the strip values v with (M + dt
    S) v = M u solved block by block, M being constant on orbits; it makes
    no extension, and the full values, the flux and the report are None.
    uv is then either the March of a run, which the step advances in place
    and returns with no value unfolded (evolve unfolds every state at the
    end), or a lone step's values, marched one step and the new state
    alone unfolded."""
    if spec.p == 2.0:
        march, shift = (uv, None) if isinstance(uv, March) else _march(op, uv, 1)
        march.advance(_implicit_step(op, dt))
        return (march if shift is None else march.unfold(start=1)[0] + shift), None, None, None

    # F = E_p + (1/2) sum (mu_S / dt) (v - u)^2 is the step's objective over dt
    target = np.zeros(op.n)
    target[op.strip_idx] = uv
    weight = np.zeros(op.n)
    weight[op.strip_idx] = op.grid.mu[op.strip_idx] / dt
    v0 = target.copy()
    if op.n_interior > 0:
        v0[op.interior_idx] = _interior_start(op, uv) if warm is None else warm

    def converged(resid):
        # gated on the gradient of the dt-scaled objective, -dt mu r
        grad = dt * op.grid.mu * resid
        return (np.max(np.abs(grad), initial=0.0) <= tol
                and abs(np.sum(grad)) <= tol)

    field, report = _newton_free(op, spec.p, v0, np.arange(op.n), max_iter, converged,
                                 prox=(weight, target))
    return (field.values[op.strip_idx], field.values, report.balance[op.strip_idx],
            report)


def step_implicit(op, spec, u, dt, tol=1e-10, max_iter=60):
    """Backward Euler step on the strip values.

    At p = 2 this solves the Schur-reduced strip system (M + dt S) v = M u.
    For p != 2 it is the joint proximal minimization: the strip part of the
    minimizer of dt * E_p(v) + (1/2) sum over strip nodes of mu (v - u)^2 is
    the new state.
    """
    check_compatible(op, spec)
    if not 0.0 < dt < np.inf:  # NaN too
        raise InvalidArgument(f"dt must be positive and finite, got {dt}")
    uv = u.values if isinstance(u, StripField) else StripField(u, op.grid).values
    out = _step_implicit_values(op, spec, uv, dt, tol, max_iter, None)[0]
    return StripField(out, op.grid)


def _diag_row(op, spec, uv, flux):
    """The DIAG_COLUMNS of one state: mass, the distances of
    lq_distance_to_mean from one weighted mean, and the energy."""
    return np.array([mass(op.grid, uv),
                     *lq_distance_to_mean(op.grid, uv, (1.0, 2.0, spec.p, spec.q, np.inf)),
                     _pairing(op.grid.mu[op.strip_idx], uv, flux, spec.p)])


def evolve(op, spec, u0, t_end, dt, integrator=EXPLICIT, tol=1e-10, max_iter=60):
    """March the strip dynamics from u0 to t_end in steps of dt.

    dt must divide t_end within 1e-9. At p = 2 no state is extended: the
    flux is the product with the cached Schur complement S, and the
    implicit step is the strip solve alone, each step a step of the march
    of u0 in the sector basis, whose states are unfolded when the run ends
    or fails. For p != 2, u0 is extended once,
    and each step of either integrator then starts its interior solve from
    the previous extended state. Diagnostics (mass, distances to the
    weighted mean, edge energy of the extended state) are recorded at every
    time; the energy is read off the strip flux that also drives the
    explicit step, which for p != 2 the state's extension or implicit step
    computed. Implicit p != 2 steps also record their Newton and PCG
    iteration counts (Trajectory.newton_iters, pcg_iters). On a solver
    failure mid-run the raised error carries the partial trajectory in its
    ``partial`` attribute.
    """
    check_compatible(op, spec)
    if not (0.0 < t_end < np.inf and 0.0 < dt < np.inf):  # NaN too
        raise InvalidArgument(f"t_end and dt must be positive and finite, got {t_end} and {dt}")
    nsteps = int(round(t_end / dt))
    if nsteps < 1 or abs(nsteps * dt - t_end) > 1e-9:
        raise InvalidArgument(f"dt={dt} does not divide t_end={t_end}")
    if integrator not in (EXPLICIT, IMPLICIT):
        raise InvalidArgument(f"unknown integrator {integrator!r}")

    uv = (u0.values if isinstance(u0, StripField) else StripField(u0, op.grid).values).copy()
    if integrator == EXPLICIT:
        bound = stability_bound(op)
        if dt > bound:
            warnings.warn(f"dt={dt} exceeds the stability advisory {bound:.6g}")

    times = np.arange(nsteps + 1) * dt
    # at p = 2 the march's unfold makes the states
    states = np.empty((0 if spec.p == 2.0 else nsteps + 1, op.n_strip))
    diag = np.empty((nsteps + 1, len(DIAG_COLUMNS)))
    # each step's Newton and PCG iterations, where a step reports them
    newton = pcg = None
    if integrator == IMPLICIT and spec.p != 2.0:
        newton, pcg = np.zeros(nsteps, dtype=np.int64), np.zeros(nsteps, dtype=np.int64)

    complete = 0
    try:
        if spec.p == 2.0:
            # S is built before the first state, so that its failure leaves none
            schur_complement(op)
            march, shift = _march(op, uv, nsteps)
            explicit = rates = None
            if integrator == EXPLICIT:
                explicit, rates = _explicit_step(op, dt, march)
            try:
                for _ in range(nsteps):
                    if integrator == EXPLICIT:
                        march.advance(explicit)
                    else:
                        _step_implicit_values(op, spec, march, dt, tol, max_iter, None)
            finally:
                complete = march.count
                states = march.unfold()
                states += shift
                for k, flux in enumerate(_fluxes(op, march, rates)):
                    diag[k] = _diag_row(op, spec, states[k], flux)
            return Trajectory(times, states, diag, op.grid)
        full, flux = _state(op, spec, uv)
        for k in range(nsteps + 1):
            states[k] = uv
            diag[k] = _diag_row(op, spec, uv, flux)
            complete = k + 1
            if k == nsteps:
                break
            warm = full[op.interior_idx] if op.n_interior > 0 else None
            if integrator == EXPLICIT:
                uv = uv + dt * flux
                full, flux = _state(op, spec, uv, warm)
            else:
                uv, full, flux, report = _step_implicit_values(op, spec, uv, dt, tol,
                                                               max_iter, warm)
                if newton is not None:
                    newton[k], pcg[k] = report.iterations, report.cg_iterations
    except SolverError as exc:
        if integrator == EXPLICIT and spec.p != 2.0 and complete:
            exc.args = (f"explicit step {complete} of {nsteps} with dt={dt:g} failed: {exc}; "
                        f"stability_bound is the p = 2 advisory only: try a smaller dt",)
        steps = max(complete - 1, 0)
        exc.partial = Trajectory(times[:complete], states[:complete].copy(),
                                 diag[:complete].copy(), op.grid,
                                 None if newton is None else newton[:steps].copy(),
                                 None if pcg is None else pcg[:steps].copy())
        raise
    return Trajectory(times, states, diag, op.grid, newton, pcg)


def picard_solve(op, spec, u0, window, nt=11, tol=1e-10, max_iter=50):
    """Rebuild the solution on [0, window] from its integral form.

    Iterates u_new(t) = u0 + integral of the strip derivative of the
    previous iterate, with composite trapezoid quadrature on nt nodes.
    Converges only on windows short enough for the map to contract;
    otherwise raises NoContraction (shrink the window and retry).
    """
    check_compatible(op, spec)
    if not spec.is_linear:
        raise InvalidArgument("the integral-form iteration is defined for p = 2 only")
    if not (isinstance(nt, (int, np.integer)) and nt >= 11):
        raise InvalidArgument(f"nt must be positive, an integer and at least 11, got {nt!r}")
    if not 0.0 < window < np.inf:  # NaN too
        raise InvalidArgument(f"window must be positive and finite, got {window}")

    uv0 = u0.values if isinstance(u0, StripField) else StripField(u0, op.grid).values
    times = np.linspace(0.0, window, nt)
    mu_s = op.grid.mu[op.strip_idx]
    u_iter = np.tile(uv0, (nt, 1))

    for _ in range(max_iter):
        deriv = np.empty_like(u_iter)
        for k in range(nt):
            deriv[k] = _state(op, spec, u_iter[k])[1]
        # scipy's cumulative_trapezoid with initial 0, term for term
        integral = np.zeros_like(deriv)
        integral[1:] = np.cumsum(np.diff(times)[:, None] * (deriv[1:] + deriv[:-1]) / 2.0,
                                 axis=0)
        u_next = uv0[None, :] + integral
        # np.max, unlike max, keeps a NaN distance
        delta = np.max([_lp_norm(mu_s, u_next[k] - u_iter[k], spec.p) for k in range(nt)])
        u_iter = u_next
        if delta <= tol:
            diag = np.empty((nt, len(DIAG_COLUMNS)))
            for k in range(nt):
                diag[k] = _diag_row(op, spec, u_iter[k], _state(op, spec, u_iter[k])[1])
            return Trajectory(times, u_iter, diag, op.grid)
        if not np.all(np.isfinite(u_iter)) or delta > 1e100:
            break
    raise NoContraction(
        f"integral-form iteration did not contract in {max_iter} sweeps "
        f"on window {window}; shrink the window")
