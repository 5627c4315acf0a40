import json

import numpy as np
import pytest
from click.testing import CliRunner

import stripflow as sf
from stripflow.analysis import fit_decay
from stripflow import cli, kernels
from stripflow.cli import main
from stripflow.config import build_problem, parse_config
from stripflow.io import fit_csv, read_strip_csv, read_trajectory_csv

from conftest import fresh_python

TOY3_LINEAR = {
    "fixture": "toy3",
    "problem": {"variant": "linear"},
    "time": {"t_end": 1.0, "dt": 0.001},
    "initial": {"preset": "two-bump"},
    "seed": 0,
}

GRID16 = {
    "domain": {"dim": 1, "lo": 0.0, "hi": 1.0},
    "h": 1.0 / 16.0,
    "r": 0.25,
    "kernel": {"family": "tent", "R": 0.5},
    "problem": {"variant": "linear"},
    "time": {"t_end": 0.5, "dt": 0.01},
    "initial": {"preset": "random"},
    "seed": 3,
}

# the benchmark's linear square: 2D h = 1/64, whose sector blocks (up to 448
# strip rows) are large enough for OpenBLAS to thread; 20 steps of dt = 0.5
SQUARE64 = {
    "domain": {"dim": 2, "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
    "h": 1.0 / 64.0,
    "r": 0.125,
    "kernel": {"family": "tent", "R": 0.25},
    "problem": {"variant": "linear"},
    "time": {"t_end": 10.0, "dt": 0.5},
    "initial": {"preset": "random"},
    "seed": 3,
}


@pytest.fixture()
def runner():
    return CliRunner()


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_grid_subcommand(runner, tmp_path):
    cfg = write_cfg(tmp_path, GRID16)
    out = tmp_path / "grid.csv"
    res = runner.invoke(main, ["grid", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,x,class,bdist,mu"
    assert len(lines) == 17
    assert "16 nodes, 8 strip, 8 interior" in res.stdout
    assert "stability_bound=" in res.stdout

    quiet = runner.invoke(main, ["grid", "--config", cfg, "--out", str(out),
                                 "--quiet"])
    assert quiet.exit_code == 0
    assert quiet.stdout == ""


def test_solve_elliptic_toy3(runner, tmp_path):
    cfg = write_cfg(tmp_path, TOY3_LINEAR)
    out = tmp_path / "field.csv"
    res = runner.invoke(main, ["solve-elliptic", "--config", cfg,
                               "--out", str(out)])
    assert res.exit_code == 0
    assert "energy=1 " in res.stdout
    rows = out.read_text().splitlines()
    # interior node sits at the mean of the two strip values
    assert rows[1] == "0,1.5,interior,0"
    assert rows[2] == "1,0.5,strip,1"
    assert rows[3] == "2,2.5,strip,-1"


def test_solve_elliptic_from_values_file(runner, tmp_path):
    cfg = write_cfg(tmp_path, GRID16)
    vals = tmp_path / "strip.csv"
    grid = sf.build_grid(sf.DomainBox(1, (0.0,), (1.0,)), 1.0 / 16.0, 0.25)
    s_idx = np.flatnonzero(grid.klass == 1)
    vals.write_text("index,value\n" +
                    "".join(f"{i},2.5\n" for i in s_idx))
    out = tmp_path / "field.csv"
    res = runner.invoke(main, ["solve-elliptic", "--config", cfg,
                               "--values", str(vals), "--out", str(out)])
    assert res.exit_code == 0
    # constant data extends to the constant, with zero energy
    assert "energy=0 " in res.stdout
    for row in out.read_text().splitlines()[1:]:
        assert row.endswith(",2.5")


def test_evolve_writes_deterministic_artifacts(runner, tmp_path):
    cfg = write_cfg(tmp_path, GRID16)
    args = lambda k: ["evolve", "--config", cfg, "--out",
                      str(tmp_path / f"t{k}.csv"), "--svg",
                      str(tmp_path / f"p{k}.svg"), "--quiet"]
    assert runner.invoke(main, args(1)).exit_code == 0
    assert runner.invoke(main, args(2)).exit_code == 0
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
    assert (tmp_path / "p1.svg").read_bytes() == (tmp_path / "p2.svg").read_bytes()

    seeded = runner.invoke(main, ["evolve", "--config", cfg, "--seed", "4",
                                  "--out", str(tmp_path / "t3.csv"), "--quiet"])
    assert seeded.exit_code == 0
    assert (tmp_path / "t3.csv").read_bytes() != (tmp_path / "t1.csv").read_bytes()


def test_evolve_toy3_matches_closed_form(runner, tmp_path):
    cfg = write_cfg(tmp_path, TOY3_LINEAR)
    out = tmp_path / "traj.csv"
    res = runner.invoke(main, ["evolve", "--config", cfg, "--out", str(out),
                               "--fit", "d2"])
    assert res.exit_code == 0
    table = read_trajectory_csv(out)
    want = np.sqrt(2.0) * np.exp(-1.0)
    assert abs(table.diag[-1, 2] - want) <= 1e-3
    assert "mass_drift=" in res.stdout
    # the mode decays like e^-t, so the fitted rate sits near 1
    rate = float(res.stdout.split("rate[d2]=")[1].split()[0])
    assert abs(rate - 1.0) <= 0.01


def test_evolve_picard_integrator(runner, tmp_path):
    doc = dict(TOY3_LINEAR, time={"t_end": 0.1, "dt": 0.01,
                                  "integrator": "picard"})
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "picard.csv"
    res = runner.invoke(main, ["evolve", "--config", cfg, "--out", str(out),
                               "--quiet"])
    assert res.exit_code == 0
    table = read_trajectory_csv(out)
    want = np.sqrt(2.0) * np.exp(-0.1)
    assert abs(table.diag[-1, 2] - want) <= 1e-4


def test_evolve_solver_failure_exits_3_with_partial(runner, tmp_path):
    doc = dict(GRID16,
               problem={"variant": "plaplace", "p": 3.0},
               time={"t_end": 20.0, "dt": 10.0, "integrator": "implicit"},
               tolerances={"tol": 1e-13, "max_iter": 1})
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "partial.csv"
    res = runner.invoke(main, ["evolve", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 3
    assert "partial trajectory" in res.stderr
    table = read_trajectory_csv(out)
    assert table.times[0] == 0.0


def test_beta_subcommand(runner, tmp_path):
    cfg = write_cfg(tmp_path, TOY3_LINEAR)
    out = tmp_path / "mode.csv"
    res = runner.invoke(main, ["beta", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0
    assert res.stdout.splitlines()[0] == "1"
    assert "method=schur-eig" in res.stderr
    # toy3 is not a lattice: one block, the whole strip
    assert "sectors=1x2" in res.stderr
    op = sf.toy3()
    mode = read_strip_csv(out, op.grid)
    assert np.allclose(np.abs(mode.values), 1.0 / np.sqrt(2.0), atol=1e-12)


def test_beta_descent_path(runner, tmp_path):
    doc = dict(TOY3_LINEAR, problem={"variant": "plaplace", "p": 4.0})
    cfg = write_cfg(tmp_path, doc)
    res = runner.invoke(main, ["beta", "--config", cfg, "--restarts", "4",
                               "--quiet"])
    assert res.exit_code == 0
    beta = float(res.stdout.strip())
    assert beta <= 1.0 + 1e-6
    assert beta > 0.0


def _r_equals_R_doc():
    return {
        "domain": {"dim": 1, "lo": 0.0, "hi": 1.0},
        "h": 1.0 / 64.0,
        "r": 0.25,
        "kernel": {"family": "tent", "R": 0.25},
        "problem": {"variant": "linear"},
        "time": {"t_end": 0.1, "dt": 0.001},
        "initial": {"preset": "random"},
        "seed": 0,
        "allow_r_equal_R": True,
    }


def test_counterexample_subcommand(runner, tmp_path):
    cfg = write_cfg(tmp_path, _r_equals_R_doc())
    out = tmp_path / "ce.csv"
    res = runner.invoke(main, ["counterexample", "--config", cfg,
                               "--out", str(out), "--svg",
                               str(tmp_path / "ce.svg"), "--quiet"])
    assert res.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,quotient"
    quot = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert len(quot) == 4
    assert (np.diff(quot) < 0.0).all()
    assert (tmp_path / "ce.svg").read_text().count("<polyline") == 1

    # without --out the table goes to stdout
    direct = runner.invoke(main, ["counterexample", "--config", cfg])
    assert direct.exit_code == 0
    assert direct.stdout == out.read_text()


def test_counterexample_needs_degenerate_width(runner, tmp_path):
    cfg = write_cfg(tmp_path, GRID16)
    res = runner.invoke(main, ["counterexample", "--config", cfg])
    assert res.exit_code == 2
    assert "error [InvalidArgument]" in res.stderr

    sharp = write_cfg(tmp_path, _r_equals_R_doc(), "rr.json")
    res = runner.invoke(main, ["counterexample", "--config", sharp,
                               "--n", "200"])
    assert res.exit_code == 2
    assert "error [EmptyBump]" in res.stderr


@pytest.mark.parametrize("seed, override", [(-3, []), (3, ["--seed", "-3"])],
                         ids=["config", "override"])
def test_negative_seed_is_bad_config(runner, tmp_path, seed, override):
    cfg = write_cfg(tmp_path, dict(GRID16, seed=seed))
    res = runner.invoke(main, ["evolve", "--config", cfg, *override,
                               "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 2
    assert res.stderr == "error [ConfigInvalid] seed: must be nonnegative, got -3\n"


def test_counterexample_refuses_a_zero_bump_index(runner, tmp_path):
    cfg = write_cfg(tmp_path, _r_equals_R_doc())
    res = runner.invoke(main, ["counterexample", "--config", cfg, "--n", "0"])
    assert res.exit_code == 2
    assert res.stderr == ("error [InvalidArgument] bump index n must be a positive "
                          "integer, got 0\n")


def test_decay_fit_round_trip(runner, tmp_path):
    cfg = write_cfg(tmp_path, TOY3_LINEAR)
    out = tmp_path / "traj.csv"
    assert runner.invoke(main, ["evolve", "--config", cfg, "--out", str(out),
                                "--quiet"]).exit_code == 0
    res = runner.invoke(main, ["decay-fit", "--traj", str(out),
                               "--column", "d2", "--window", "0.0", "1.0"])
    assert res.exit_code == 0
    table = read_trajectory_csv(out)
    want = fit_csv(fit_decay(table, "d2", "exponential", (0.0, 1.0)))
    assert res.stdout == want


def test_validate_toy3_all_pass(runner, tmp_path):
    cfg = write_cfg(tmp_path, TOY3_LINEAR)
    res = runner.invoke(main, ["validate", "--config", cfg])
    assert res.exit_code == 0
    assert "0 failed" in res.stdout
    assert res.stdout.count("pass") >= 5
    assert "fail" not in res.stdout.replace("0 failed", "")


def test_validate_surfaces_dt_advisory(runner, tmp_path):
    doc = dict(GRID16, time={"t_end": 100.0, "dt": 50.0})
    cfg = write_cfg(tmp_path, doc)
    res = runner.invoke(main, ["validate", "--config", cfg])
    assert res.exit_code == 0
    assert "advisory" in res.stdout
    assert "exceeds the explicit stability bound" in res.stdout


def test_validate_degenerate_width_switches_expectation(runner, tmp_path):
    cfg = write_cfg(tmp_path, _r_equals_R_doc())
    res = runner.invoke(main, ["validate", "--config", cfg])
    assert res.exit_code == 0
    assert "near-zero gap expected" in res.stdout


def test_validate_expects_a_gap_at_r_equals_R_without_isolated_strip_nodes(runner, tmp_path):
    # strip-strip edges keep every strip node coupled, so S has only the
    # constants in its kernel although the strip is as wide as the kernel
    doc = dict(_r_equals_R_doc(), problem={"variant": "linear-full"})
    res = runner.invoke(main, ["validate", "--config", write_cfg(tmp_path, doc)])
    assert res.exit_code == 0
    assert "check spectral gap: pass (beta=5.893557e-02)" in res.stdout


ISOLATED_CORNERS = {
    "domain": {"dim": 2, "lo": 0.0, "hi": 1.0},
    "h": 1.0 / 32.0,
    "r": 0.171875,
    "kernel": {"family": "tent", "R": 0.25},
    "problem": {"variant": "linear"},
    "time": {"t_end": 0.5, "dt": 0.25, "integrator": "implicit"},
    "initial": {"preset": "random"},
    "seed": 1,
}


def test_validate_expects_no_gap_with_isolated_strip_nodes(runner, tmp_path):
    # the four corner nodes lie farther than R from every interior node, so
    # each one's indicator is a mean-zero null direction of S
    res = runner.invoke(main, ["validate", "--config", write_cfg(tmp_path, ISOLATED_CORNERS)])
    assert res.exit_code == 0
    head = "check spectral gap: pass (near-zero gap expected (4 isolated strip nodes); beta="
    line = next(ln for ln in res.stdout.splitlines() if ln.startswith(head))
    # the computed gap is roundoff, whose digits depend on BLAS threading;
    # validate's rule is beta <= 1e-12
    assert 0.0 <= float(line[len(head):].rstrip(")")) <= 1e-12
    assert "6 checks, 0 failed" in res.stdout


def test_beta_reports_isolated_strip_nodes(runner, tmp_path):
    res = runner.invoke(main, ["beta", "--config", write_cfg(tmp_path, ISOLATED_CORNERS)])
    assert res.exit_code == 0
    # the unit square's blocks: the shared one of 156, then the sigma-even
    # and sigma-odd ones, largest first
    assert ("beta: method=schur-eig p=2 strip_nodes=624 sectors=1x156,2x81,2x75 isolated=4"
            in res.stderr)
    doc = dict(ISOLATED_CORNERS, r=0.15625)
    res = runner.invoke(main, ["beta", "--config", write_cfg(tmp_path, doc)])
    assert res.stderr.rstrip().endswith(" isolated=0")
    # a rectangle keeps its four mirror blocks
    doc = dict(ISOLATED_CORNERS, domain={"dim": 2, "lo": 0.0, "hi": [1.5, 1.0]}, h=1.0 / 16.0,
               r=0.125)
    res = runner.invoke(main, ["beta", "--config", write_cfg(tmp_path, doc)])
    assert res.exit_code == 0
    assert " strip_nodes=144 sectors=4x36 " in res.stderr


def test_beta_reports_the_smallest_strip_degree(runner, tmp_path):
    # the exact bound beta <= deg_active[x] / (1 - mu_x / sum mu_S) makes the
    # smallest strip degree the ceiling of the gap; on the square it sits at
    # the corner node (h/2, h/2), the first of the four that tie exactly
    res = runner.invoke(main, ["beta", "--config", write_cfg(tmp_path, SQUARE64)])
    assert res.exit_code == 0
    _, op = build_problem(parse_config(SQUARE64))
    deg = op.deg_active[op.strip_idx]
    low = float(np.min(deg))
    assert f"beta: min_strip_degree={low:.6g} at=(0.0078125, 0.0078125)\n" in res.stderr
    assert f"{low:.6g}" == "0.0112045"
    assert op.strip_idx[np.argmin(deg)] == 0
    # beta sits just under it: 0.9985 of it at h = 1/64
    assert 0.998 * low < float(res.stdout) < low


def test_validate_expects_a_gap_without_isolated_strip_nodes(runner, tmp_path):
    doc = dict(ISOLATED_CORNERS, r=0.15625)
    res = runner.invoke(main, ["validate", "--config", write_cfg(tmp_path, doc)])
    assert res.exit_code == 0
    assert "check spectral gap: pass (beta=2.435469e-03)" in res.stdout
    assert "6 checks, 0 failed" in res.stdout


def test_validate_singular_kernel_away_from_p2(runner, tmp_path):
    # the quadratic reduction check takes the p = 2 flux of an operator whose
    # singular kernel was built for p = 1.5, which rhs itself refuses
    doc = dict(GRID16, kernel={"family": "singular", "s": 0.5},
               problem={"variant": "singular", "p": 1.5},
               time={"t_end": 0.1, "dt": 0.01, "integrator": "implicit"})
    res = runner.invoke(main, ["validate", "--config", write_cfg(tmp_path, doc)])
    assert res.exit_code == 0
    assert "check quadratic reduction: pass" in res.stdout
    assert "6 checks, 0 failed" in res.stdout


def test_validate_sweeps_the_p_laplace_variant_at_p2(runner, tmp_path):
    # linearity is p = 2, whatever the variant's name, so the fixed-point
    # check runs for the p-Laplacian variant at p = 2
    doc = dict(GRID16, problem={"variant": "plaplace", "p": 2.0})
    res = runner.invoke(main, ["validate", "--config", write_cfg(tmp_path, doc)])
    assert res.exit_code == 0
    assert "check fixed-point agreement: pass" in res.stdout
    assert "6 checks, 0 failed" in res.stdout


def test_validate_checks_the_flux_the_integrators_step_with(runner, tmp_path, monkeypatch):
    # the quadratic reduction check reads the production Schur flux, so a
    # relative error of 1e-6 in it fails the check and nothing else
    flux = cli._schur_flux
    monkeypatch.setattr(cli, "_schur_flux", lambda op, uv: (1.0 + 1e-6) * flux(op, uv))
    res = runner.invoke(main, ["validate", "--config", write_cfg(tmp_path, GRID16)])
    assert res.exit_code == 0
    assert "check quadratic reduction: fail" in res.stdout
    assert "1 failed" in res.stdout


@pytest.mark.parametrize("name", ["step_explicit", "step_implicit"])
def test_validate_catches_a_step_that_leaks_mass(runner, tmp_path, monkeypatch, name):
    # the bound is what the solvers leave, about 6e-15 here: a step that
    # leaks 1e-12 (1 + |m0|) of mass fails, where max(1e-8, 10 tol) (1 + |m0|)
    # let it pass
    step = getattr(cli, name)

    def leaking(op, spec, u, dt, **kwargs):
        mu_s = op.grid.mu[op.strip_idx]
        m0 = float(np.dot(mu_s, u.values))
        out = step(op, spec, u, dt, **kwargs).values
        return sf.StripField(out + 1e-12 * (1.0 + abs(m0)) / np.sum(mu_s), op.grid)
    res = runner.invoke(main, ["validate", "--config", write_cfg(tmp_path, GRID16)])
    assert "check mass conservation: pass" in res.stdout
    monkeypatch.setattr(cli, name, leaking)
    res = runner.invoke(main, ["validate", "--config", write_cfg(tmp_path, GRID16)])
    assert res.exit_code == 0
    assert "check mass conservation: fail" in res.stdout
    assert "1 failed" in res.stdout


def test_validate_reports_a_failing_solver_as_a_failed_check(runner, tmp_path):
    # explicit p = 4 steps at 0.45 of the p-blind stability bound blow up and
    # the next extension stalls at a residual below its roundoff floor, which
    # the error names with its step and dt; the other checks must still run
    doc = dict(GRID16, problem={"variant": "plaplace-full", "p": 4.0},
               time={"t_end": 1.0, "dt": 0.5, "integrator": "implicit"})
    res = runner.invoke(main, ["validate", "--config", write_cfg(tmp_path, doc)])
    assert res.exit_code == 0
    assert ("check integrator agreement: fail (NoConvergence: explicit step 3 of 5 with "
            "dt=0.5 failed: descent stalled after " in res.stdout)
    assert "check mass conservation: pass" in res.stdout
    assert "check spectral gap: pass" in res.stdout
    assert "6 checks, 1 failed" in res.stdout


def test_exit_codes_for_bad_input(runner, tmp_path):
    missing = runner.invoke(main, ["grid", "--config",
                                   str(tmp_path / "absent.json"),
                                   "--out", str(tmp_path / "g.csv")])
    assert missing.exit_code == 4

    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    res = runner.invoke(main, ["grid", "--config", str(broken),
                               "--out", str(tmp_path / "g.csv")])
    assert res.exit_code == 2
    assert "error [ConfigInvalid]" in res.stderr

    bad = write_cfg(tmp_path, dict(GRID16, r=0.75), "bad.json")
    res = runner.invoke(main, ["evolve", "--config", bad,
                               "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 2


def test_evolve_rejects_a_nan_config_number(runner, tmp_path):
    # json.dumps writes NaN, a literal json.loads reads back as a float
    cfg = write_cfg(tmp_path, dict(GRID16, time={"t_end": float("nan"), "dt": 0.01}))
    res = runner.invoke(main, ["evolve", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 2
    assert "error [ConfigInvalid]" in res.stderr
    assert "time.t_end" in res.stderr


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # one process per command and thread setting, one after another; each
    # writes its file and stdout, and all three settings must agree byte for byte
    cfgs = {k: write_cfg(tmp_path, dict(SQUARE64, time=dict(SQUARE64["time"], integrator=k)),
                         f"{k}.json") for k in ("explicit", "implicit")}
    runs = {"beta": ["beta", "--config", cfgs["explicit"]],
            "explicit": ["evolve", "--config", cfgs["explicit"]],
            "implicit": ["evolve", "--config", cfgs["implicit"]]}
    seen = {}
    for threads in (1, 2, None):
        for name, args in runs.items():
            out = tmp_path / f"{name}-{threads}.csv"
            res = fresh_python(["-m", "stripflow.cli", *args, "--out", str(out)], threads)
            seen.setdefault(name, set()).add((res.stdout, res.stderr, out.read_bytes()))
    assert {name: len(outs) for name, outs in seen.items()} == dict.fromkeys(runs, 1)
    # the gap at 1 BLAS thread, which the unpinned 2-thread run missed by 2.8e-17
    (beta,) = seen["beta"]
    assert beta[0] == "0.011187723639422392\n"


def test_grid_and_beta_build_no_edge_list(runner, tmp_path, monkeypatch):
    # grid reads nnz and deg_active, beta reads its blocks off the J table:
    # neither builds the edge list, and nnz is the list's length
    built = []
    monkeypatch.setattr(kernels, "edge_list", built.append)
    doc = dict(SQUARE64, h=1.0 / 32.0)
    cfg = write_cfg(tmp_path, doc)
    grid = runner.invoke(main, ["grid", "--config", cfg, "--out", str(tmp_path / "g.csv")])
    beta = runner.invoke(main, ["beta", "--config", cfg])
    assert grid.exit_code == beta.exit_code == 0 and not built
    monkeypatch.undo()
    _, op = build_problem(parse_config(doc))
    assert f"nnz={kernels.edge_list(op)[0].shape[0]} " in grid.stdout


def test_linear_solve_elliptic_and_validate_build_no_edge_list(runner, tmp_path, monkeypatch):
    # the p = 2 extension sums its interior rows on the stencil, its energy
    # pairs the strip flux and its residual is the extension's own gate, so
    # neither command builds the edge list, and nor does the public p = 2
    # energy, whose interior rows are FFT row sums and whose strip rows are
    # the strip edges; the figures printed are the edge list's to roundoff
    built = []
    monkeypatch.setattr(kernels, "edge_list", built.append)
    doc = dict(SQUARE64, h=1.0 / 32.0)
    cfg, out = write_cfg(tmp_path, doc), tmp_path / "field.csv"
    res = runner.invoke(main, ["solve-elliptic", "--config", cfg, "--out", str(out)])
    checks = runner.invoke(main, ["validate", "--config", cfg])
    assert res.exit_code == checks.exit_code == 0 and not built
    _, op = build_problem(parse_config(doc))
    vals = np.array([float(row.rsplit(",", 1)[1]) for row in out.read_text().splitlines()[1:]])
    stats = dict(item.split("=") for item in res.stdout.split())
    energy = sf.energy(op, vals, 2.0)
    assert not built and op._edges is None
    assert float(stats["energy"]) == pytest.approx(energy, rel=1e-12)
    assert float(stats["grad_norm"]) <= 1e-13 * (1.0 + np.abs(vals).max())
    monkeypatch.undo()
    rows, cols, coef = kernels.edge_list(op)
    d = vals[cols] - vals[rows]
    assert energy == pytest.approx(0.25 * float(np.dot(coef, d * d)), rel=1e-12)


def test_beta_at_h96_peaks_under_170_mb(tmp_path):
    # the whole beta command in a fresh process, measured by its own peak
    # resident size (KiB on Linux): 450 MB while assembly wrote the whole
    # edge list, about 205 MB from the representatives' rows, 164 MB with
    # no row written, and about 137 MB with each sigma fold reordered once
    # and each block dropped once yielded. VmHWM, not ru_maxrss: a child's
    # ru_maxrss keeps the high-water mark of the process that started it
    cfg = write_cfg(tmp_path, dict(SQUARE64, h=1.0 / 96.0))
    script = ("from stripflow.cli import main; "
              f"main(['beta', '--config', {cfg!r}, '--quiet'], standalone_mode=False); "
              "print(*[ln.split()[1] for ln in open('/proc/self/status') "
              "if ln.startswith('VmHWM')])")
    res = fresh_python(["-c", script], 1)
    beta, peak_kib = res.stdout.split()
    assert float(beta) == 0.0098430473422315128
    assert int(peak_kib) < 170 * 1024
