"""Workloads, timed rounds and output checks of the stripflow benchmark.

A run first times a batch of set-ups (build the grid, assemble the
operator) back to back, then runs a fixed number of rounds. A round sets
up afresh, runs the workload's solves from that operator (solve), and then
checks the outputs (untimed). Round k of a run uses inputs drawn from
(seed, k) only. How many set-ups and rounds a run makes follows from its
time budget and constants of the workload, never from how fast the code
runs, so every version of the code measures the same inputs.
"""

import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import stripflow as sf
from stripflow import analysis, evolution, io

import spans

BOX = sf.DomainBox(2, (0.0, 0.0), (1.0, 1.0))
STRIP_WIDTH = 0.125
EPS = float(np.finfo(float).eps)

# Interior residual the linear extension accepts, relative to 1 + max|g|
# (elliptic.extend_linear); every linear-path tolerance derives from it.
EXT_GATE = 1e-10
# Default stationarity tolerance of evolve's implicit solves.
STEP_TOL = 1e-10
# Times of single calls in a round, in the units the untraced run prints
# them with. The traced run reports them from its untraced rounds.
STAGE_METRICS = {"beta_s": "s", "explicit_steps_per_s": "steps/s",
                 "implicit_steps_per_s": "steps/s"}
# Share of a run's budget for the batch of set-ups that setup_s is the
# median of; the rounds get the rest.
SETUP_SHARE = 0.1


@dataclass(frozen=True)
class Workload:
    """One benchmark input family.

    ``dt`` None means 0.4 times the explicit stability bound. ``beta_ref``
    is the spectral gap recorded from the dense path, for linear workloads.
    ``setup_s`` and ``round_s`` are nominal lengths of one set-up and one
    round on a 2-vCPU x86_64 VM; they size a run from its budget.
    """

    name: str
    h: float
    kernel: sf.KernelSpec
    problem: sf.ProblemSpec
    steps: int
    setup_s: float
    round_s: float
    dt: float = None
    beta_ref: float = None
    fit_model: str = sf.EXPONENTIAL

    @property
    def linear(self):
        return self.problem.is_linear

    def setups(self, seconds):
        return max(3, round(SETUP_SHARE * seconds / self.setup_s))

    def rounds(self, seconds):
        return max(1, int((1.0 - SETUP_SHARE) * seconds / self.round_s))


WORKLOADS = {w.name: w for w in (
    Workload("linear-h64", h=1 / 64, kernel=sf.tent_kernel(0.25, 2),
             problem=sf.ProblemSpec("linear"), steps=40, setup_s=0.65, round_s=8.0,
             beta_ref=0.011187723639422317),
    Workload("plaplace-h32", h=1 / 32, kernel=sf.tent_kernel(0.25, 2),
             problem=sf.ProblemSpec("plaplace", p=3.0), steps=10, setup_s=0.05,
             round_s=3.5, dt=0.5, fit_model=sf.POLYNOMIAL),
)}


class Tally:
    """Operations attempted and failed in a run, with what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def ops(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(what)

    def check(self, what, ok):
        self.ops(1, 0 if ok else 1, what)


def random_strip(grid, seed):
    """Standard normal strip data, drawn as the config ``random`` preset does."""
    n_strip = int(np.count_nonzero(grid.klass == sf.STRIP))
    return sf.StripField(np.random.default_rng([seed, 0]).standard_normal(n_strip), grid)


def round_seed(seed, k):
    """Data seed of round k; round 0 uses the run's seed itself."""
    return seed + (k << 32)


def setup(w):
    t0 = time.perf_counter()
    grid = sf.build_grid(BOX, w.h, STRIP_WIDTH)
    op = sf.assemble(grid, w.kernel, w.problem.edge_mode)
    return op, time.perf_counter() - t0


def _evolve(op, w, u0, dt, integrator, tally):
    """Timed evolve call. Returns the trajectory, None when steps were lost
    to a SolverError (they count as failed), and steps per second."""
    t0 = time.perf_counter()
    try:
        traj = sf.evolve(op, w.problem, u0, w.steps * dt, dt, integrator)
    except sf.SolverError as exc:
        traj = getattr(exc, "partial", None)
    wall = time.perf_counter() - t0
    done = 0 if traj is None else max(traj.times.shape[0] - 1, 0)
    tally.ops(w.steps, w.steps - done, f"{integrator} evolve: {w.steps - done} steps lost")
    return (traj if done == w.steps else None), done / wall


def _write_and_fit(traj, w, dt, path):
    io.write_trajectory_csv(path, traj)
    lo = dt if w.fit_model == sf.POLYNOMIAL else 0.0
    return analysis.fit_decay(traj, "d2", w.fit_model, (lo, w.steps * dt))


def solve_linear(op, w, tally, out_dir):
    """Gap, explicit and implicit decay from the gap mode, CSVs and fits."""
    res = {"explicit_steps_per_s": None, "implicit_steps_per_s": None}
    t0 = time.perf_counter()
    try:
        gap = analysis.spectral_gap_beta(op)
    except sf.SolverError:
        gap = None
    res["beta_s"] = time.perf_counter() - t0
    tally.ops(1, gap is None, "spectral_gap_beta raised")
    dt = 0.4 * evolution.stability_bound(op)
    res.update(gap=gap, dt=dt)
    if gap is None:
        tally.ops(2 * w.steps, 2 * w.steps, "no gap mode: both evolves lost")
        return res
    for integrator in (sf.EXPLICIT, sf.IMPLICIT):
        traj, rate = _evolve(op, w, gap.mode, dt, integrator, tally)
        res[f"{integrator}_steps_per_s"] = rate
        res[integrator] = traj
        if traj is not None:
            path = out_dir / f"{w.name}-{integrator}.csv"
            res[f"{integrator}_fit"] = _write_and_fit(traj, w, dt, path)
            res[f"{integrator}_csv"] = path
    return res


def solve_nonlinear(op, w, tally, out_dir, seed):
    u0 = random_strip(op.grid, seed)
    traj, rate = _evolve(op, w, u0, w.dt, sf.IMPLICIT, tally)
    res = {"implicit_steps_per_s": rate, "implicit": traj, "dt": w.dt}
    if traj is not None:
        path = out_dir / f"{w.name}-implicit.csv"
        res["implicit_fit"] = _write_and_fit(traj, w, w.dt, path)
        res["implicit_csv"] = path
    return res


# ---------------------------------------------------------------- checks


def _csv_round_trip(res, integrator):
    table = io.read_trajectory_csv(res[f"{integrator}_csv"])
    traj = res[integrator]
    return (np.array_equal(table.times, traj.times)
            and np.array_equal(table.diag, traj.diag))


def eig_tol(op):
    """Backward error of the dense symmetric eigensolve: n eps times a
    Gershgorin bound 2 max(row sum) on the measure-scaled reduced form."""
    deg = float(np.max(op.deg_active[op.strip_idx]))
    return op.n_strip * EPS * 2.0 * deg


def check_linear(op, w, res, tally):
    gap = res["gap"]
    names = ["beta matches reference", "rayleigh quotient equals beta",
             "explicit d2 rate", "implicit d2 rate", "explicit mass drift",
             "implicit mass drift", "explicit csv round trip", "implicit csv round trip"]
    if gap is None:
        for name in names:
            tally.check(name, False)
        return
    beta, dt = gap.beta, res["dt"]
    tol = eig_tol(op)
    tally.check(names[0], abs(beta - w.beta_ref) <= tol)
    quotient = analysis.rayleigh_quotient(op, gap.mode, 2.0)
    tally.check(names[1], abs(quotient - beta) <= tol + EXT_GATE * beta)
    # A relative error of EXT_GATE per step moves the fitted slope of
    # -log d2 by at most EXT_GATE / dt.
    rate_tol = EXT_GATE / dt + tol
    expected = {sf.EXPLICIT: -math.log(1.0 - dt * beta) / dt,
                sf.IMPLICIT: math.log(1.0 + dt * beta) / dt}
    for k, integrator in enumerate((sf.EXPLICIT, sf.IMPLICIT)):
        traj = res[integrator]
        fit = res.get(f"{integrator}_fit")
        tally.check(names[2 + k], fit is not None
                    and abs(fit.rate - expected[integrator]) <= rate_tol)
        if traj is None:
            tally.check(names[4 + k], False)
            tally.check(names[6 + k], False)
            continue
        # Explicit: mass moves by dt times the interior residual mass each
        # step. Implicit: by the residual of a backward-stable Cholesky
        # solve of M + dt L.
        mu = op.grid.mu
        scale = 1.0 + np.max(np.abs(traj.states[0]))
        interior = dt * np.sum(mu[op.interior_idx]) * EXT_GATE * scale
        cholesky = (op.n * EPS * (1.0 + 2.0 * dt * np.max(op.deg_active))
                    * np.sum(mu[op.strip_idx] * np.abs(traj.states[0])))
        per_step = interior if integrator == sf.EXPLICIT else cholesky
        drift = np.abs(traj.diag[:, 0] - traj.diag[0, 0])
        tally.check(names[4 + k], np.all(drift <= np.arange(drift.shape[0]) * per_step
                                         + op.n_strip * EPS * scale))
        tally.check(names[6 + k], _csv_round_trip(res, integrator))


def step_error_bound(op):
    """Sup-norm error of an implicit step solved to STEP_TOL: the strip
    gradient is within STEP_TOL and the proximal term has curvature min mu."""
    return STEP_TOL / float(np.min(op.grid.mu))


def backward_euler_bound(op):
    """Bound on |u_N - u_(N-1) - dt rhs(u_N)|: the strip gradient of the
    last step contributes STEP_TOL / min mu, and the interior gradient,
    also within STEP_TOL, moves dt rhs by as much again."""
    return 2.0 * step_error_bound(op)


def check_nonlinear(op, w, res, tally, backward_euler):
    names = ["mass conserved", "energy and distances nonincreasing",
             "decay fit positive", "csv round trip", "backward Euler residual"]
    traj = res["implicit"]
    if traj is None:
        for name in names[:4 + backward_euler]:
            tally.check(name, False)
        return
    p = w.problem.p
    mu_s = op.grid.mu[op.strip_idx]
    states, diag = traj.states, traj.diag
    dv = step_error_bound(op)
    steps = np.arange(states.shape[0])
    # Each step's gradient sum, which is the mass change, is within STEP_TOL.
    mass_slack = steps * STEP_TOL + op.n_strip * EPS * np.sum(mu_s * np.abs(states), axis=1)
    tally.check(names[0], np.all(np.abs(diag[:, 0] - diag[0, 0]) <= mass_slack))
    # A step error of dv in sup norm moves an Lq distance to the mean by at
    # most 2 dv |mu|^(1/q), and the energy by at most dv sum(coef osc^(p-1)).
    exps = [1.0, 2.0, p, w.problem.q]
    slack = [2.0 * dv * np.sum(mu_s) ** (1.0 / q) for q in exps] + [2.0 * dv]
    osc = np.ptp(states, axis=1)[:-1]
    energy_slack = dv * np.sum(op.act_coef) * osc ** (p - 1.0) + EPS * np.abs(diag[:-1, 6])
    rises = np.diff(diag, axis=0)
    ok = all(np.all(rises[:, 1 + j] <= slack[j]) for j in range(5))
    tally.check(names[1], ok and np.all(rises[:, 6] <= energy_slack))
    tally.check(names[2], res["implicit_fit"].rate > 0.0)
    tally.check(names[3], _csv_round_trip(res, sf.IMPLICIT))
    if backward_euler:
        u_prev, u_last = states[-2], states[-1]
        drift = u_last - u_prev - res["dt"] * evolution.rhs(op, w.problem, u_last).values
        tally.check(names[4], np.max(np.abs(drift)) <= backward_euler_bound(op))


# ---------------------------------------------------------------- rounds


def run_round(w, seed, k, tally, out_dir, tracer=None):
    """One set-up, solve and check. Returns timings and, when traced, the
    per-layer metrics of the set-up and solve."""
    gc.collect()
    t0 = time.perf_counter()
    if tracer is not None:
        with tracer.installed():
            op, setup_s = setup(w)
            res = _solve(op, w, tally, out_dir, round_seed(seed, k))
    else:
        op, setup_s = setup(w)
        res = _solve(op, w, tally, out_dir, round_seed(seed, k))
    wall = time.perf_counter() - t0
    res["setup_s"] = setup_s
    res["solve_s"] = wall - setup_s
    if w.linear:
        check_linear(op, w, res, tally)
    else:
        check_nonlinear(op, w, res, tally, backward_euler=(k == 0))
    if tracer is not None:
        res["layers"] = spans.layer_metrics(tracer, wall)
    return res


def _solve(op, w, tally, out_dir, data_seed):
    if w.linear:
        return solve_linear(op, w, tally, out_dir)
    return solve_nonlinear(op, w, tally, out_dir, data_seed)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def measure(w, seed, seconds, out_dir):
    """Untraced run: the end-to-end metrics with their samples."""
    tally = Tally()
    setups = []
    for _ in range(w.setups(seconds)):
        op, setup_s = setup(w)
        setups.append(setup_s)
        del op
    results = [run_round(w, seed, k, tally, out_dir) for k in range(w.rounds(seconds))]
    samples = {
        "setup_s": setups,
        "solve_s": [r["solve_s"] for r in results],
    }
    samples.update({name: [r.get(name) for r in results] for name in STAGE_METRICS})
    metrics = {name: _median(vals) for name, vals in samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["failed_frac"] = tally.failed / max(tally.attempted, 1)
    return metrics, samples, tally


def measure_traced(w, seed, seconds, out_dir):
    """Traced run: rounds k = 0, 1, ... each run untraced and traced on the
    same inputs, the untraced one first when k is even; then round 0 is
    traced once more. Times are medians over the traced rounds; counts are
    those of round 0, and its repeat must give the same counts."""
    tally = Tally()
    plain, traced, span_log = [], [], []

    def traced_round(k):
        tracer = spans.Tracer(w.problem.p)
        res = run_round(w, seed, k, tally, out_dir, tracer)
        span_log.append((k, tracer.spans))
        return res

    for k in range(max(1, w.rounds(seconds) // 2)):
        for traced_turn in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_turn:
                traced.append(traced_round(k))
            else:
                plain.append(run_round(w, seed, k, tally, out_dir))
    repeat = traced_round(0)
    layers = [r["layers"] for r in traced]
    metrics = {}
    for name in layers[0]:
        if name in spans.ROUND0_COUNTS:
            metrics[name] = layers[0][name]
        else:
            metrics[name] = _median([lay[name] for lay in layers])
    metrics["trace.overhead_frac"] = (_median([r["solve_s"] for r in traced])
                                      / _median([r["solve_s"] for r in plain]) - 1.0)
    for name in STAGE_METRICS:
        metrics[name] = _median([r.get(name) for r in plain])
    metrics["trace.count_drift"] = count_drift(layers[0], repeat["layers"], tally)
    write_spans(out_dir / f"spans-{w.name}-seed{seed}.jsonl", span_log)
    return metrics, tally


def count_drift(first, second, tally):
    """Compare the exact counts of two traced runs of the same round, with
    the same code and inputs. Returns how many differ."""
    drift = sorted(name for name in spans.EXACT_COUNTS if first[name] != second[name])
    tally.check(f"counts repeat exactly (drifted: {', '.join(drift)})", not drift)
    return len(drift)


def write_spans(path, span_log):
    with open(path, "w", encoding="utf-8") as fh:
        for trace, (k, round_spans) in enumerate(span_log):
            for name, parent, start, end in round_spans:
                fh.write(json.dumps({"trace": trace, "round": k, "name": name,
                                     "parent": parent, "start": start, "end": end}) + "\n")


# ---------------------------------------------------------------- environment


def _git_commit(root):
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_name():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def environment(root, blas_threads):
    return {
        "commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(),
        "blas_threads": blas_threads,
        "backend": sf.backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
    }


def report(w, metrics, samples, tally, env, out_path, units):
    """Human-readable table and the stamped result file."""
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, unit in units.items():
        if samples is not None and name in samples:
            vals = [v for v in samples[name] if v is not None]
            if not vals:
                print(f"{w.name}  {name:<38} {'n/a':>14}")
                continue
            print(f"{w.name}  {name:<38} {metrics[name]:>14.6g} {unit}  n={len(vals)}"
                  f" min={min(vals):.6g} max={max(vals):.6g}")
        else:
            print(f"{w.name}  {name:<38} {metrics[name]:>14.6g} {unit}")
    for what in tally.failures:
        print(f"FAILED: {what}", file=sys.stderr)
    Path(out_path).write_text(json.dumps({
        "workload": w.name, "env": env, "metrics": metrics, "samples": samples,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.failures}, indent=1, sort_keys=True) + "\n")
