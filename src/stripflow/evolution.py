"""Time stepping for the strip dynamics.

The strip values evolve; interior values follow instantaneously through the
stationary extension. At p = 2 that extension is linear, so the strip
evolves by u' = -M^-1 S u with S the Schur complement of the interior and
M the strip measures: the flux is one product with the cached S, and no
step of either integrator extends. Explicit Euler steps u + dt flux; the
implicit step solves the strip system (M + dt S) v = M u. Both work on the
blocks of S under the box's symmetries (symmetry.sectors), through the seam
Sectors.blockwise: u is folded into one coefficient vector per block, two
for the block that two sectors share on the unit square, multiplied by S_j
or solved with the factor of M_j + dt S_j, and unfolded. For p != 2 the
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
from .symmetry import sectors

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
        if self.p <= 1.0:
            raise InvalidArgument(f"exponent p must exceed 1, got {self.p}")
        if self.variant in (LINEAR, LINEAR_FULL) and self.p != 2.0:
            raise InvalidArgument("linear variants fix p = 2")
        if self.q < 1.0:
            raise InvalidArgument(f"diagnostic exponent q must be >= 1, got {self.q}")

    @property
    def edge_mode(self):
        return FULL if self.variant in _FULL_MODE_VARIANTS else EXCLUDE_STRIP_STRIP

    @property
    def is_linear(self):
        return self.variant in (LINEAR, LINEAR_FULL)


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


def _schur_flux(op, uv):
    """The p = 2 strip flux -M^-1 S u, anchored at the midrange c of u as
    extend_linear is: S (c - u) is exactly +0 for constant data. The
    product is taken block by block (Sectors.blockwise with the blocks S_j)."""
    sec = sectors(op)
    prod = sec.blockwise(_midrange(uv) - uv, sec.strip, schur_complement(op), np.matmul)
    return prod / op.grid.mu[op.strip_idx]


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
    uv = u.values if isinstance(u, StripField) else np.asarray(u, dtype=float)
    return StripField(_state(op, spec, uv)[1], op.grid)


def stability_bound(op):
    """Advisory explicit step bound 1 / max strip row sum, for p = 2 only."""
    deg = op.deg_active[op.strip_idx]
    top = float(np.max(deg, initial=0.0))
    return np.inf if top == 0.0 else 1.0 / top


def step_explicit(op, spec, u, dt):
    """Forward Euler step u + dt * rhs(u)."""
    check_compatible(op, spec)
    if dt <= 0.0:
        raise InvalidArgument("dt must be positive")
    bound = stability_bound(op)
    if dt > bound:
        warnings.warn(f"dt={dt} exceeds the stability advisory {bound:.6g}")
    uv = u.values if isinstance(u, StripField) else np.asarray(u, dtype=float)
    return StripField(uv + dt * _state(op, spec, uv)[1], op.grid)


def _implicit_linear_values(op, dt, uv):
    """Backward Euler at p = 2 on the strip: solve (M + dt S) v = M u with
    S the Schur complement and M the strip measures, for v - c with c the
    midrange of u, so that constant data stays exactly constant. M is
    constant on orbits, so the system splits into one (M_j + dt S_j) per
    block, each factored once (elliptic._cholesky, for the last dt) and
    solved with cho_solve through Sectors.blockwise. The rows of the
    computed S sum to roundoff rather than 0, so v is then shifted by the
    constant sum mu (u - v) / sum mu that restores the strip mass, as the
    p != 2 step shifts its iterates; constant data gives a zero shift."""
    sec = sectors(op)
    mu_s = op.grid.mu[op.strip_idx]
    # one set of factors per operator, for the last dt: a set per dt ever used adds up
    if op._cache.get("implicit_chol", (None,))[0] != dt:
        op._cache.pop("implicit_chol", None)

        def blocks():
            for block, reps in zip(schur_complement(op), sec.block_reps(sec.strip)):
                # S_j is exactly symmetric, and its transpose is the Fortran
                # order cho_factor overwrites
                mat = dt * block.T
                mat[np.diag_indices_from(mat)] += op.grid.mu[reps]
                yield mat
        op._cache["implicit_chol"] = (dt, _cholesky(blocks(), "implicit system"))
    shift = _midrange(uv)
    v = sec.blockwise(mu_s * (uv - shift), sec.strip, op._cache["implicit_chol"][1],
                      _cho_solve)
    if not np.all(np.isfinite(v)):
        raise SingularSystem("implicit solve produced non-finite values")
    v += shift
    v += np.dot(mu_s, uv - v) / np.sum(mu_s)
    return v


def _step_implicit_values(op, spec, uv, dt, tol, max_iter, warm):
    """(strip values, full values, strip flux, EnergyReport) after one
    implicit step, the flux read off the report's balance; at p = 2 the
    strip solve makes no extension, the flux is the new state's Schur flux
    and the full values and the report are None."""
    if spec.p == 2.0:
        out = _implicit_linear_values(op, dt, uv)
        return out, None, _schur_flux(op, out), None

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
    if dt <= 0.0:
        raise InvalidArgument("dt must be positive")
    uv = u.values if isinstance(u, StripField) else np.asarray(u, dtype=float)
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
    implicit step is the strip solve alone. For p != 2, u0 is extended once,
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
    if t_end <= 0.0 or dt <= 0.0:
        raise InvalidArgument("t_end and dt must be positive")
    nsteps = int(round(t_end / dt))
    if nsteps < 1 or abs(nsteps * dt - t_end) > 1e-9:
        raise InvalidArgument(f"dt={dt} does not divide t_end={t_end}")
    if integrator not in (EXPLICIT, IMPLICIT):
        raise InvalidArgument(f"unknown integrator {integrator!r}")

    uv = (u0.values if isinstance(u0, StripField) else np.asarray(u0, dtype=float)).copy()
    if integrator == EXPLICIT:
        bound = stability_bound(op)
        if dt > bound:
            warnings.warn(f"dt={dt} exceeds the stability advisory {bound:.6g}")

    times = np.arange(nsteps + 1) * dt
    states = np.empty((nsteps + 1, op.n_strip))
    diag = np.empty((nsteps + 1, len(DIAG_COLUMNS)))
    # each step's Newton and PCG iterations, where a step reports them
    newton = pcg = None
    if integrator == IMPLICIT and spec.p != 2.0:
        newton, pcg = np.zeros(nsteps, dtype=np.int64), np.zeros(nsteps, dtype=np.int64)

    # at p = 2 full stays None: the Schur flux and the strip solve need no extension
    complete = 0
    try:
        full, flux = _state(op, spec, uv)
        for k in range(nsteps + 1):
            states[k] = uv
            diag[k] = _diag_row(op, spec, uv, flux)
            complete = k + 1
            if k == nsteps:
                break
            warm = full[op.interior_idx] if full is not None and op.n_interior > 0 else None
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
        raise InvalidArgument("the integral-form iteration is defined for linear variants")
    if nt < 11:
        raise InvalidArgument(f"need at least 11 time nodes, got {nt}")
    if window <= 0.0:
        raise InvalidArgument("window must be positive")

    uv0 = u0.values if isinstance(u0, StripField) else np.asarray(u0, dtype=float)
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
        delta = max(_lp_norm(mu_s, u_next[k] - u_iter[k], spec.p)
                    for k in range(nt))
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
