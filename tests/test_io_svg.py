import os
import pathlib

import numpy as np
import pytest

import stripflow as sf
from stripflow.errors import EmptySeries, InvalidArgument
from stripflow.fixtures import toy3_grid
from stripflow.io import (atomic_write_text, counterexample_csv, field_csv,
                          fit_csv, fmt, grid_csv, read_strip_csv,
                          read_trajectory_csv, strip_csv, trajectory_csv,
                          write_strip_csv, write_trajectory_csv)
from stripflow.svg import emit_svg, write_svg

DATA = pathlib.Path(__file__).parent / "data"


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(5)
    samples = np.concatenate([
        rng.standard_normal(500),
        rng.standard_normal(500) * 1e300,
        rng.standard_normal(500) * 1e-300,
        np.array([0.0, -0.0, 1.0, -1.0, np.pi, 2.0/3.0]),
    ])
    for x in samples:
        assert float(fmt(x)) == x


def test_grid_csv_layout():
    text = grid_csv(toy3_grid())
    lines = text.splitlines()
    assert lines[0] == "index,x,class,bdist,mu"
    assert len(lines) == 4
    assert lines[1].startswith("0,1.5,interior,")
    assert lines[2].startswith("1,0.5,strip,")
    assert text.endswith("\n")


def test_field_csv_layout(toy3_op):
    f = sf.FullField(np.array([0.5, 1.0, -1.0]), toy3_op.grid)
    lines = field_csv(f).splitlines()
    assert lines[0] == "index,x,class,value"
    assert lines[1] == "0,1.5,interior,0.5"
    assert lines[3] == "2,2.5,strip,-1"


def test_strip_csv_round_trip(op16, tmp_path):
    rng = np.random.default_rng(1)
    field = sf.StripField(rng.standard_normal(op16.n_strip), op16.grid)
    path = tmp_path / "strip.csv"
    write_strip_csv(path, field)
    back = read_strip_csv(path, op16.grid)
    assert (back.values == field.values).all()


def test_strip_csv_accepts_any_row_order(op16, tmp_path):
    rng = np.random.default_rng(2)
    field = sf.StripField(rng.standard_normal(op16.n_strip), op16.grid)
    lines = strip_csv(field).splitlines()
    shuffled = [lines[0]] + list(reversed(lines[1:]))
    path = tmp_path / "shuffled.csv"
    path.write_text("\n".join(shuffled) + "\n")
    back = read_strip_csv(path, op16.grid)
    assert (back.values == field.values).all()


def test_strip_csv_rejections(op16, tmp_path):
    s_idx = np.flatnonzero(op16.grid.klass == 1)
    good_rows = [f"{i},1.0" for i in s_idx]

    def attempt(header, rows, match=None):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([header] + rows) + "\n")
        with pytest.raises(InvalidArgument, match=match):
            read_strip_csv(path, op16.grid)

    attempt("node,value", good_rows)
    attempt("index,value", good_rows[:-1])
    attempt("index,value", good_rows + [good_rows[0]])
    attempt("index,value", good_rows[:-1] + ["0,1.0"])
    attempt("index,value", good_rows[:-1] + ["1,2,3"])
    attempt("index,value", good_rows[:-1] + [f"{s_idx[-1]},spam"])
    n = len(good_rows)
    attempt("index,value", good_rows[:-1] + [f"{s_idx[-1]},nan"], f"line {n + 1}: .* not finite")
    attempt("index,value", [f"{s_idx[0]},nan"] + good_rows, "line 2: .* not finite")


def test_trajectory_csv_round_trip(toy3_op, tmp_path):
    spec = sf.ProblemSpec("linear")
    u0 = sf.StripField(np.array([1.0, -1.0]), toy3_op.grid)
    traj = sf.evolve(toy3_op, spec, u0, 0.5, 0.05)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    table = read_trajectory_csv(path)
    assert (table.times == traj.times).all()
    assert (table.diag == traj.diag).all()

    text = trajectory_csv(traj)
    assert text.splitlines()[0] == "step,t,mass,d1,d2,dp,dq,dinf,energy"


def test_trajectory_csv_rejections(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("step,t,mass\n0,0,1\n")
    with pytest.raises(InvalidArgument):
        read_trajectory_csv(path)
    path.write_text("step,t,mass,d1,d2,dp,dq,dinf,energy\n0,0,1\n")
    with pytest.raises(InvalidArgument):
        read_trajectory_csv(path)
    path.write_text("step,t,mass,d1,d2,dp,dq,dinf,energy\n")
    with pytest.raises(InvalidArgument):
        read_trajectory_csv(path)


def test_counterexample_and_fit_layout():
    text = counterexample_csv([(4, 0.5), (8, 0.25)])
    assert text == "n,quotient\n4,0.5\n8,0.25\n"
    fit = sf.DecayFit(model="exponential", rate=2.0, window=(0.0, 5.0), r2=1.0)
    assert fit_csv(fit) == "model,rate,r2,t_lo,t_hi\nexponential,2,1,0,5\n"


def test_atomic_write_leaves_no_temp(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "payload\n")
    assert target.read_text() == "payload\n"
    assert os.listdir(tmp_path) == ["out.txt"]

    with pytest.raises(TypeError):
        atomic_write_text(tmp_path / "broken.txt", 123)
    assert sorted(os.listdir(tmp_path)) == ["out.txt"]


def _series(n=20):
    t = np.linspace(0.0, 1.0, n)
    return [(t, np.exp(-t)), (t, np.exp(-2.0 * t))]


def test_svg_one_polyline_per_series():
    doc = emit_svg(_series())
    assert doc.count("<polyline") == 2
    assert doc.startswith("<svg ")
    assert doc.rstrip().endswith("</svg>")

    single = emit_svg([(np.array([0.0, 1.0]), np.array([1.0, 2.0]))])
    assert single.count("<polyline") == 1
    # two points make exactly one coordinate pair separator
    poly = [ln for ln in single.splitlines() if "<polyline" in ln][0]
    assert poly.count(",") == 2


def test_svg_byte_determinism():
    a = emit_svg(_series(), {"title": "demo", "log_y": True,
                             "labels": ["a", "b"]})
    b = emit_svg(_series(), {"title": "demo", "log_y": True,
                             "labels": ["a", "b"]})
    assert a == b


def test_svg_style_text():
    doc = emit_svg(_series(), {"title": "rates", "xlabel": "t",
                               "ylabel": "d2", "labels": ["slow", "fast"]})
    for snippet in (">rates<", ">t<", ">d2<", ">slow<", ">fast<"):
        assert snippet in doc


def test_svg_rejections():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(EmptySeries):
        emit_svg([])
    with pytest.raises(EmptySeries):
        emit_svg([(t[:1], t[:1])])
    with pytest.raises(EmptySeries):
        emit_svg([(t, t[:-1])])
    with pytest.raises(EmptySeries):
        emit_svg([(t, np.where(t > 0.5, np.nan, t))])
    with pytest.raises(EmptySeries):
        emit_svg([(t, t - 0.5)], {"log_y": True})


def test_svg_write_is_atomic(tmp_path):
    path = tmp_path / "plot.svg"
    write_svg(path, _series())
    assert path.read_text().startswith("<svg ")
    assert os.listdir(tmp_path) == ["plot.svg"]


def test_toy3_decay_golden(toy3_op):
    spec = sf.ProblemSpec("linear")
    u0 = sf.StripField(np.array([1.0, -1.0]), toy3_op.grid)
    traj = sf.evolve(toy3_op, spec, u0, 1.0, 0.01)
    doc = emit_svg([(traj.times, traj.diag[:, 2])],
                   {"title": "toy3 distance decay", "xlabel": "t",
                    "ylabel": "d2", "log_y": True, "labels": ["d2"]})
    want = (DATA / "toy3_decay.svg").read_text()
    assert doc == want
    # the distance itself is monotone, so the drawn path is too
    assert (np.diff(traj.diag[:, 2]) <= 0.0).all()
