"""Command line front end.

Every subcommand reads a JSON config (see the README for the schema),
runs one experiment, and writes CSV or SVG artifacts. Identical config
and seed give byte-identical outputs. Exit codes: 0 success, 2 bad
config or input, 3 solver failure, 4 I/O failure.
"""

import contextlib
import dataclasses
import functools
import sys

import click
import numpy as np

from . import io as iox
from .analysis import (DIAG_COLUMNS, EXPONENTIAL, POLYNOMIAL,
                       counterexample_sequence, fit_decay, isolated_strip_nodes,
                       schur_complement, spectral_gap_beta, estimate_beta_p)
from .config import PICARD, build_geometry, build_problem, initial_field, load_config
from .elliptic import (_extended_values, _strip_flux, energy, extend_with_report,
                       interior_residual)
from .errors import SolverError, StripflowError
from .evolution import (EXPLICIT, IMPLICIT, evolve, picard_solve, stability_bound,
                        step_explicit, step_implicit)
from .fields import EnergyReport
from .geometry import strip_indices
from .svg import write_svg
from .symmetry import sectors


def _fail(exc):
    click.echo(f"error [{type(exc).__name__}] {exc}", err=True)
    sys.exit(exc.exit_code)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except StripflowError as exc:
            _fail(exc)
        except OSError as exc:
            click.echo(f"error [io] {exc}", err=True)
            sys.exit(4)

    return wrapper


def _load(config_path, seed):
    cfg = load_config(config_path)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


def _common(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(exists=False), help="JSON config file.")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Override the config seed.")(fn)
    fn = click.option("--quiet", is_flag=True, help="Suppress summary lines.")(fn)
    return fn


@click.group()
def main():
    """Nonlocal diffusion experiments with dynamic boundary strips."""


@main.command("grid")
@_common
@click.option("--out", required=True, type=click.Path(), help="Grid CSV path.")
@_guarded
def grid_cmd(config_path, seed, quiet, out):
    """Write the node table of the configured grid."""
    cfg = _load(config_path, seed)
    grid = build_geometry(cfg)
    iox.write_grid_csv(out, grid)
    if not quiet:
        ns = strip_indices(grid).shape[0]
        click.echo(f"grid: {grid.n} nodes, {ns} strip, {grid.n - ns} interior -> {out}")
        _, op = build_problem(cfg)
        deg = op.deg_active
        click.echo(f"operator: nnz={op.nnz} deg_active=[{deg.min():.6g}, "
                   f"{deg.max():.6g}] stability_bound={stability_bound(op):.6g}")


@main.command("solve-elliptic")
@_common
@click.option("--values", "values_path", type=click.Path(), default=None,
              help="Strip values CSV (index,value); defaults to the config preset.")
@click.option("--out", required=True, type=click.Path(), help="Full-field CSV path.")
@_guarded
def solve_elliptic_cmd(config_path, seed, quiet, values_path, out):
    """Extend strip data into the interior and report the energy."""
    cfg = _load(config_path, seed)
    grid, op = build_problem(cfg)
    if values_path is None:
        g = initial_field(cfg, grid, op=op)
    else:
        g = iox.read_strip_csv(values_path, grid)
    p = cfg.problem.p
    field, report = extend_with_report(op, g, p, tol=cfg.tol, max_iter=cfg.max_iter)
    if report is None:
        report = EnergyReport(energy=energy(op, field, p),
                              grad_norm=interior_residual(op, field, p),
                              iterations=1, converged=True)
    iox.write_field_csv(out, field)
    click.echo(f"energy={iox.fmt(report.energy)} grad_norm={iox.fmt(report.grad_norm)} "
               f"iterations={report.iterations} converged={report.converged}")


def _run_evolution(cfg, op, u0):
    if cfg.integrator == PICARD:
        nt = int(round(cfg.t_end / cfg.dt)) + 1
        return picard_solve(op, cfg.problem, u0, cfg.t_end, nt=nt,
                            tol=cfg.tol, max_iter=cfg.max_iter)
    return evolve(op, cfg.problem, u0, cfg.t_end, cfg.dt,
                  integrator=cfg.integrator, tol=cfg.tol, max_iter=cfg.max_iter)


@main.command("evolve")
@_common
@click.option("--out", required=True, type=click.Path(), help="Trajectory CSV path.")
@click.option("--svg", "svg_path", type=click.Path(), default=None,
              help="Optional decay plot.")
@click.option("--fit", "fit_column", type=click.Choice(DIAG_COLUMNS), default=None,
              help="Also fit an exponential rate to this column over the "
                   "second half of the run.")
@_guarded
def evolve_cmd(config_path, seed, quiet, out, svg_path, fit_column):
    """Run the configured initial value problem."""
    cfg = _load(config_path, seed)
    grid, op = build_problem(cfg)
    u0 = initial_field(cfg, grid, op=op)
    try:
        traj = _run_evolution(cfg, op, u0)
    except SolverError as exc:
        partial = getattr(exc, "partial", None)
        if partial is not None and partial.times.shape[0] > 0:
            iox.write_trajectory_csv(out, partial)
            click.echo(f"wrote partial trajectory ({partial.times.shape[0]} rows) "
                       f"to {out}", err=True)
        raise
    iox.write_trajectory_csv(out, traj)
    if svg_path is not None:
        cols = ("d2", "energy")
        series, labels = [], []
        for name in cols:
            y = traj.diag[:, DIAG_COLUMNS.index(name)]
            series.append((traj.times, y))
            labels.append(name)
        log_y = all(np.all(s[1] > 0.0) for s in series)
        write_svg(svg_path, series,
                  {"log_y": log_y, "labels": list(labels), "xlabel": "t",
                   "title": f"{cfg.problem.variant}, p={cfg.problem.p:g}"})
    if not quiet:
        drift = abs(traj.diag[-1, 0] - traj.diag[0, 0])
        parts = [f"evolve: {traj.times.shape[0] - 1} steps to t={iox.fmt(traj.times[-1])}",
                 f"mass_drift={drift:.3e}",
                 f"final_d2={iox.fmt(traj.diag[-1, DIAG_COLUMNS.index('d2')])}"]
        if fit_column is not None:
            fit = fit_decay(traj, fit_column, EXPONENTIAL,
                            (traj.times[-1] / 2.0, traj.times[-1]))
            parts.append(f"rate[{fit_column}]={iox.fmt(fit.rate)} r2={fit.r2:.6f}")
        click.echo(" ".join(parts))


@main.command("beta")
@_common
@click.option("--out", type=click.Path(), default=None,
              help="Optional CSV path for the extremal mode (index,value).")
@click.option("--restarts", type=int, default=8, show_default=True,
              help="Seeded inverse power restarts when p is not 2.")
@_guarded
def beta_cmd(config_path, seed, quiet, out, restarts):
    """Print the mean-zero decay constant of the configured operator."""
    cfg = _load(config_path, seed)
    grid, op = build_problem(cfg)
    p = cfg.problem.p
    if p == 2.0:
        res = spectral_gap_beta(op)
    else:
        res = estimate_beta_p(op, p, restarts=restarts, seed=cfg.seed)
    click.echo(iox.fmt(res.beta))
    if out is not None:
        iox.write_strip_csv(out, res.mode)
    if not quiet:
        # at p = 2, the mirror sectors the eigensolve ran on: count x block size
        sec = sectors(op)
        split = f"sectors={sec.count}x{sec.strip.size} " if p == 2.0 else ""
        click.echo(f"beta: method={res.method} p={p:g} strip_nodes={op.n_strip} {split}"
                   f"isolated={isolated_strip_nodes(op).shape[0]}", err=True)


@main.command("counterexample")
@_common
@click.option("--out", type=click.Path(), default=None,
              help="CSV path for the (n, quotient) table.")
@click.option("--svg", "svg_path", type=click.Path(), default=None,
              help="Optional quotient-vs-n plot.")
@click.option("--n", "n_list", type=int, multiple=True,
              help="Bump sharpness values; default 4 8 16 32.")
@_guarded
def counterexample_cmd(config_path, seed, quiet, out, svg_path, n_list):
    """Quotients of shrinking two-bump data on an r = R configuration."""
    cfg = _load(config_path, seed)
    grid, op = build_problem(cfg)
    pairs = counterexample_sequence(grid, op, list(n_list) or [4, 8, 16, 32])
    text = iox.counterexample_csv(pairs)
    if svg_path is not None:
        ns = np.array([float(n) for n, _ in pairs])
        qs = np.array([q for _, q in pairs])
        write_svg(svg_path, [(ns, qs)],
                  {"log_y": bool(np.all(qs > 0.0)), "xlabel": "n",
                   "ylabel": "quotient", "labels": ["quotient"]})
    if out is not None:
        iox.atomic_write_text(out, text)
        if not quiet:
            click.echo(f"counterexample: {len(pairs)} quotients -> {out}")
    else:
        click.echo(text, nl=False)


@main.command("decay-fit")
@click.option("--traj", "traj_path", required=True, type=click.Path(),
              help="Trajectory CSV written by evolve.")
@click.option("--column", type=click.Choice(DIAG_COLUMNS), default="d2",
              show_default=True)
@click.option("--model", type=click.Choice([EXPONENTIAL, POLYNOMIAL]),
              default=EXPONENTIAL, show_default=True)
@click.option("--window", nargs=2, type=float, default=None,
              help="Fit window t_lo t_hi; defaults to the whole file.")
@_guarded
def decay_fit_cmd(traj_path, column, model, window):
    """Fit a decay rate to one trajectory column."""
    table = iox.read_trajectory_csv(traj_path)
    if window is None:
        window = (float(table.times[0]), float(table.times[-1]))
    fit = fit_decay(table, column, model, window)
    click.echo(iox.fit_csv(fit), nl=False)


def _coarsened(cfg):
    """Configured problem shrunk to validation size by doubling the spacing
    while that still tiles the box and keeps strip and interior inhabited."""
    if cfg.fixture is not None:
        return cfg, False
    sides = cfg.domain.sides

    def counts(hh):
        return [int(round(s / hh)) for s in sides]

    h = cfg.h
    reduced = False
    while True:
        total = int(np.prod(counts(h)))
        if total <= 2500:
            break
        cand = 2.0 * h
        if any(c % 2 for c in counts(h)):
            break
        if cand / 2.0 > cfg.r + 1e-12:
            break
        if not cfg.allow_empty_interior and min(sides) / 2.0 - cand / 2.0 <= cfg.r + 1e-9:
            break
        h = cand
        reduced = True
    if not reduced:
        return cfg, False
    return dataclasses.replace(cfg, h=h), True


def _ratio_check(d_coarse, d_fine, scale):
    floor = 1e-11 * (1.0 + scale)
    if d_coarse <= floor:
        return d_fine <= floor
    return d_fine <= 0.75 * d_coarse + floor


@main.command("validate")
@_common
@_guarded
def validate_cmd(config_path, seed, quiet):
    """Cross-check the configured problem at reduced size.

    Failures are report content, not process failures; the exit code is
    0 whenever the checks run at all. A check whose solver fails reports
    "fail" with the error, and the remaining checks still run. The gap is
    expected near zero when a strip node has no active edge (is isolated),
    and positive otherwise.
    """
    cfg = _load(config_path, seed)
    small, was_reduced = _coarsened(cfg)
    grid, op = build_problem(small)
    spec = small.problem
    u0 = initial_field(small, grid, op=op)
    scale = float(np.max(np.abs(u0.values), initial=0.0))
    if not quiet and was_reduced:
        click.echo(f"note: checks run at spacing h={small.h:g} ({grid.n} nodes)")

    lines = []

    @contextlib.contextmanager
    def check(name):
        # a solver failure inside a check is that check's "fail" line
        try:
            yield lambda ok, detail: lines.append((name, "pass" if ok else "fail", detail))
        except SolverError as exc:
            lines.append((name, "fail", f"{type(exc).__name__}: {exc}"))

    # the strip flux of the p = 2 extension against the eliminated-interior
    # form that the p = 2 dynamics step with; the p = 2 flux of this
    # operator, even where its singular kernel was built for p != 2
    mu_s = grid.mu[op.strip_idx]
    with check("quadratic reduction") as report:
        rng = np.random.default_rng([small.seed, 3])
        g = rng.standard_normal(op.n_strip)
        direct = _strip_flux(op, _extended_values(op, g, 2.0), 2.0)
        reduced_rhs = -(schur_complement(op) @ g) / mu_s
        dmax = float(np.max(np.abs(direct - reduced_rhs), initial=0.0))
        ok = dmax <= 1e-8 * (1.0 + float(np.max(np.abs(g))))
        report(ok, f"max deviation {dmax:.3e}")

    # explicit and implicit drift together as the step shrinks
    bound = stability_bound(op)
    dt_c = min(small.dt, 0.45 * bound) if np.isfinite(bound) else small.dt
    t_hor = 5.0 * dt_c

    @functools.lru_cache(maxsize=None)
    def final(integrator, dt):
        return evolve(op, spec, u0, t_hor, dt, integrator=integrator, tol=small.tol,
                      max_iter=small.max_iter).states[-1]

    def gap(a, b):
        return float(np.max(np.abs(a - b), initial=0.0))

    with check("integrator agreement") as report:
        d_coarse = gap(final(EXPLICIT, dt_c), final(IMPLICIT, dt_c))
        d_fine = gap(final(EXPLICIT, dt_c / 2.0), final(IMPLICIT, dt_c / 2.0))
        report(_ratio_check(d_coarse, d_fine, scale),
               f"explicit-implicit gap {d_coarse:.3e} -> {d_fine:.3e} on halving")

    # fixed-point sweep against the stepped solutions (linear problems)
    with check("fixed-point agreement") as report:
        if spec.is_linear:
            pic = picard_solve(op, spec, u0, t_hor, nt=11, tol=small.tol).states[-1]
            dp_coarse = gap(final(EXPLICIT, dt_c), pic)
            dp_fine = gap(final(EXPLICIT, dt_c / 2.0), pic)
            report(_ratio_check(dp_coarse, dp_fine, scale),
                   f"gap to sweep solution {dp_coarse:.3e} -> {dp_fine:.3e}")
        else:
            lines.append(("fixed-point agreement", "skipped",
                          "sweep path applies to the linear variants only"))

    # conservation over one step of each scheme
    with check("mass conservation") as report:
        m0 = float(np.dot(mu_s, u0.values))
        m_ex = float(np.dot(mu_s, step_explicit(op, spec, u0, dt_c).values))
        m_im = float(np.dot(mu_s, step_implicit(op, spec, u0, dt_c, tol=small.tol,
                                                max_iter=small.max_iter).values))
        drift = max(abs(m_ex - m0), abs(m_im - m0))
        report(drift <= max(1e-8, 10.0 * small.tol) * (1.0 + abs(m0)),
               f"one-step drift {drift:.3e}")

    # spectral gap; S annihilates the indicator of an isolated strip node
    with check("spectral gap") as report:
        beta = spectral_gap_beta(op).beta
        isolated = isolated_strip_nodes(op).shape[0]
        if isolated:
            report(beta <= 1e-12, f"near-zero gap expected ({isolated} isolated strip "
                                  f"nodes); beta={beta:.6e}")
        else:
            report(beta > 1e-12, f"beta={beta:.6e}")

    # advisory only: configured step against the explicit stability bound
    if cfg.integrator == EXPLICIT and np.isfinite(bound) and cfg.dt > bound:
        lines.append(("time step", "advisory",
                      f"dt={cfg.dt:g} exceeds the explicit stability bound "
                      f"{bound:.6g}; expect growth, or use the implicit integrator"))
    else:
        lines.append(("time step", "pass", f"dt={cfg.dt:g}, bound {bound:.6g}"))

    for name, status, detail in lines:
        click.echo(f"check {name}: {status} ({detail})")
    bad = sum(1 for _, status, _ in lines if status == "fail")
    if not quiet:
        click.echo(f"{len(lines)} checks, {bad} failed")


if __name__ == "__main__":
    main()
