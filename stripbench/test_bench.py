"""Smoke test of the benchmark on tiny grids.

    python3 -m pytest -q stripbench

Shows that every metric BENCHMARK.json names is emitted, that counts
repeat when a traced run repeats its first round, that how many rounds a
run makes does not depend on the speed of the code, and that a corrupted
result, a drifting count or a SolverError shows up as failed operations.
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import stripflow as sf  # noqa: E402
from stripflow import analysis, evolution  # noqa: E402

import bench  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

# The workloads on 16 x 16 grids; the gap reference is the dense path's
# value at h = 1/16.
TINY = {
    "linear-h64": replace(bench.WORKLOADS["linear-h64"], h=1 / 16, steps=10,
                          beta_ref=0.02759793604241729),
    "plaplace-h32": replace(bench.WORKLOADS["plaplace-h32"], h=1 / 16),
}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("name", TINY)
def test_every_end_to_end_metric_and_no_failure(name, tmp_path):
    metrics, samples, tally = bench.measure(TINY[name], 7, 0.2, tmp_path)
    assert set(END_TO_END) <= set(metrics)
    assert all(metrics[m] > 0 for m in END_TO_END)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.failures
    assert metrics["failed_frac"] == 0.0


def test_rounds_do_not_depend_on_speed(monkeypatch, tmp_path):
    w = replace(TINY["plaplace-h32"], setup_s=0.01, round_s=0.05)
    real = sf.evolve

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return real(*args, **kwargs)
    _, fast, _ = bench.measure(w, 7, 0.2, tmp_path)
    monkeypatch.setattr(sf, "evolve", slow)
    _, slowed, _ = bench.measure(w, 7, 0.2, tmp_path)
    assert len(fast["solve_s"]) == len(slowed["solve_s"]) == w.rounds(0.2) == 3
    assert len(fast["setup_s"]) == len(slowed["setup_s"]) == w.setups(0.2)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """A traced run per workload."""
    out = {}
    for name, w in TINY.items():
        out_dir = tmp_path_factory.mktemp(name)
        out[name] = bench.measure_traced(w, 5, 0.2, out_dir) + (out_dir,)
    return out


@pytest.mark.parametrize("name", TINY)
def test_every_layer_metric_and_counts_repeat(name, traced):
    metrics, tally, out_dir = traced[name]
    assert set(PER_LAYER) <= set(metrics)
    assert tally.failed == 0, tally.failures
    assert metrics["trace.count_drift"] == 0
    assert (out_dir / f"spans-{name}-seed5.jsonl").stat().st_size > 0


def test_layer_split(traced):
    """Each workload does its work in the layers it is meant to exercise."""
    m = {name: run[0] for name, run in traced.items()}
    assert m["linear-h64"]["analysis.eigh_s"] > 0.0
    assert m["linear-h64"]["evolution.solve_s"] > 0.0
    assert m["linear-h64"]["beta_s"] > 0.0
    assert m["plaplace-h32"]["analysis.eigh_s"] == 0.0
    assert m["plaplace-h32"]["evolution.solve_s"] == 0.0
    assert m["plaplace-h32"]["elliptic.extend_plaplace_calls"] == 1
    assert m["plaplace-h32"]["elliptic.newton_iters"] > 0
    assert m["linear-h64"]["accel.hessian_accumulate_calls"] == 0


def test_drifting_count_is_a_failure(monkeypatch, tmp_path):
    """A count that differs when round 0 is traced again is a failed check."""
    real = bench.spans.layer_metrics
    calls = []

    def drifting(tracer, wall_s):
        out = real(tracer, wall_s)
        out["elliptic.newton_iters"] += len(calls)
        calls.append(wall_s)
        return out
    monkeypatch.setattr(bench.spans, "layer_metrics", drifting)
    metrics, tally = bench.measure_traced(TINY["plaplace-h32"], 5, 0.0, tmp_path)
    assert metrics["trace.count_drift"] == 1
    assert tally.failed == 1


def _corrupt_beta(monkeypatch):
    real = analysis.spectral_gap_beta

    def off(op, p=2.0):
        gap = real(op, p)
        return replace(gap, beta=gap.beta * (1.0 + 1e-6))
    monkeypatch.setattr(analysis, "spectral_gap_beta", off)


def _corrupt_mass(monkeypatch):
    real = sf.evolve

    def leaky(*args, **kwargs):
        traj = real(*args, **kwargs)
        traj.diag[-1, 0] += 1e-6
        return traj
    monkeypatch.setattr(sf, "evolve", leaky)


def _force_solver_error(monkeypatch):
    def fail(*args, **kwargs):
        raise sf.NoConvergence("forced")
    monkeypatch.setattr(evolution, "_step_implicit_values", fail)


@pytest.mark.parametrize("name,fault", [
    ("linear-h64", _corrupt_beta),
    ("plaplace-h32", _corrupt_mass),
    ("linear-h64", _force_solver_error),
    ("plaplace-h32", _force_solver_error),
])
def test_faults_raise_failed_frac(name, fault, monkeypatch, tmp_path):
    fault(monkeypatch)
    metrics, _, tally = bench.measure(TINY[name], 7, 0.0, tmp_path)
    assert metrics["failed_frac"] > 0.0
    assert tally.failed > 0


def test_output_line(monkeypatch, capsys):
    monkeypatch.setattr(bench, "WORKLOADS", TINY)
    assert run.main(["--workload", "plaplace-h32", "--seed", "3", "--seconds", "0.1",
                     "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert list(last["metrics"]) == END_TO_END
    for m in SPEC["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert np.isfinite(last["metrics"][m["name"]]["value"])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "stripbench", tmp_path / "stripbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "stripbench/run.py", "--workload", "linear-h64",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
