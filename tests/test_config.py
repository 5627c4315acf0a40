import copy
import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg as sla

import stripflow as sf
from stripflow.analysis import _reduced_modes
from stripflow.config import (ExperimentConfig, build_geometry, build_problem,
                              initial_field, load_config, parse_config)
from stripflow.errors import ConfigInvalid

BASE = {
    "domain": {"dim": 1, "lo": 0.0, "hi": 1.0},
    "h": 1.0 / 16.0,
    "r": 0.25,
    "kernel": {"family": "tent", "R": 0.5},
    "problem": {"variant": "linear"},
    "time": {"t_end": 1.0, "dt": 0.1},
    "initial": {"preset": "random"},
    "seed": 7,
}


def cfg_doc(**overrides):
    doc = copy.deepcopy(BASE)
    for key, val in overrides.items():
        if val is None:
            doc.pop(key, None)
        else:
            doc[key] = val
    return doc


def test_minimal_document_parses():
    cfg = parse_config(cfg_doc())
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.problem.variant == "linear"
    assert cfg.integrator == "explicit"
    assert cfg.tol == 1e-10 and cfg.max_iter == 60
    assert cfg.seed == 7
    grid, op = build_problem(cfg)
    assert grid is op.grid
    assert op.n_strip == 8 and op.n_interior == 8


def test_fixture_document_parses():
    doc = {"fixture": "toy3", "problem": {"variant": "linear"},
           "time": {"t_end": 1.0, "dt": 0.1},
           "initial": {"preset": "constant", "c": 2.0}}
    cfg = parse_config(doc)
    assert cfg.fixture == "toy3"
    grid, op = build_problem(cfg)
    assert grid is op.grid
    assert op.n_strip == 2 and op.n_interior == 1
    u0 = initial_field(cfg, grid)
    assert (u0.values == 2.0).all()


@pytest.mark.parametrize("mangle,field", [
    (dict(problem=None), "problem"),
    (dict(problem={"variant": "heat"}), "problem.variant"),
    (dict(problem={"variant": "linear", "p": 3.0}), "problem"),
    (dict(time={"t_end": -1.0, "dt": 0.1}), "time.t_end"),
    (dict(time={"t_end": 1.0, "dt": 0.0}), "time.dt"),
    (dict(time={"t_end": 1.0, "dt": 0.1, "integrator": "leapfrog"}),
     "time.integrator"),
    (dict(time={"t_end": "1", "dt": 0.1}), "time.t_end"),
    (dict(initial={"preset": "wavelet"}), "initial.preset"),
    (dict(initial={"preset": "constant"}), "initial.c"),
    (dict(initial={"preset": "eigenmode", "k": -1}), "initial.k"),
    (dict(tolerances={"tol": 0.0}), "tolerances.tol"),
    (dict(tolerances={"max_iter": 0}), "tolerances.max_iter"),
    (dict(output={"png": "x.png"}), "output.png"),
    (dict(output={"csv": 17}), "output.csv"),
    (dict(h=None), "h"),
    (dict(h=-0.1), "h"),
    (dict(r=0.0), "r"),
    (dict(domain={"dim": 3, "lo": 0.0, "hi": 1.0}), "domain.dim"),
    (dict(domain={"dim": 1, "lo": 0.0, "hi": [1.0, 2.0]}), "domain.hi"),
    (dict(kernel={"family": "gauss", "R": 0.5}), "kernel.family"),
    (dict(kernel={"family": "tent"}), "kernel.R"),
    (dict(kernel={"family": "singular"}), "kernel.s"),
    (dict(kernel={"family": "tent", "R": 0.5, "cnorm": -1.0}), "kernel.cnorm"),
    (dict(seed="abc"), "seed"),
    (dict(tolerance={"tol": 1e-8}), "tolerance"),
    (dict(time={"t_end": 1.0, "dt": 0.1, "integrater": "implicit"}), "time.integrater"),
    (dict(problem={"variant": "linear", "pp": 3.0}), "problem.pp"),
    # json reads the NaN and Infinity literals as floats
    (dict(time={"t_end": float("nan"), "dt": 0.1}), "time.t_end"),
    (dict(domain={"dim": 1, "lo": 0.0, "hi": float("inf")}), "domain.hi"),
    (dict(problem={"variant": "plaplace", "p": float("nan")}), "problem.p"),
    (dict(tolerances={"tol": float("nan")}), "tolerances.tol"),
])
def test_rejections_name_the_field(mangle, field):
    with pytest.raises(ConfigInvalid) as err:
        parse_config(cfg_doc(**mangle))
    assert err.value.field == field


def test_top_level_must_be_object():
    with pytest.raises(ConfigInvalid) as err:
        parse_config([1, 2])
    assert err.value.field == "<document>"


def test_kernel_variant_mismatch():
    doc = cfg_doc(kernel={"family": "singular", "s": 0.5})
    with pytest.raises(ConfigInvalid) as err:
        parse_config(doc)
    assert err.value.field == "kernel/variant"

    doc = cfg_doc(problem={"variant": "singular", "p": 2.0})
    with pytest.raises(ConfigInvalid) as err:
        parse_config(doc)
    assert err.value.field == "kernel/variant"


def test_singular_pair_parses():
    doc = cfg_doc(kernel={"family": "singular", "s": 0.5},
                  problem={"variant": "singular", "p": 2.0})
    cfg = parse_config(doc)
    assert cfg.kernel.family == "singular"
    assert cfg.kernel.p == 2.0


def test_strip_wider_than_kernel_rejected():
    with pytest.raises(ConfigInvalid) as err:
        parse_config(cfg_doc(r=0.75))
    assert err.value.field == "r"


def test_degenerate_width_needs_override():
    with pytest.raises(ConfigInvalid) as err:
        parse_config(cfg_doc(r=0.5))
    assert err.value.field == "r"
    cfg = parse_config(cfg_doc(r=0.5, allow_r_equal_R=True))
    assert cfg.allow_r_equal_R


def test_fixture_excludes_grid_keys():
    doc = {"fixture": "toy3", "h": 0.5, "problem": {"variant": "linear"},
           "time": {"t_end": 1.0, "dt": 0.1}, "initial": {"preset": "random"}}
    with pytest.raises(ConfigInvalid) as err:
        parse_config(doc)
    assert err.value.field == "h"

    doc = {"fixture": "toy3", "problem": {"variant": "singular"},
           "time": {"t_end": 1.0, "dt": 0.1}, "initial": {"preset": "random"}}
    with pytest.raises(ConfigInvalid):
        parse_config(doc)

    doc = {"fixture": "spiral", "problem": {"variant": "linear"},
           "time": {"t_end": 1.0, "dt": 0.1}, "initial": {"preset": "random"}}
    with pytest.raises(ConfigInvalid) as err:
        parse_config(doc)
    assert err.value.field == "fixture"


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg_doc()))
    cfg = load_config(path)
    assert cfg.h == BASE["h"]

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigInvalid) as err:
        load_config(bad)
    assert err.value.field == "<document>"


def test_full_variant_selects_full_edges():
    cfg = parse_config(cfg_doc(problem={"variant": "linear-full"}))
    _, op = build_problem(cfg)
    assert op.edge_mode == sf.FULL


def test_constant_preset(op16):
    cfg = parse_config(cfg_doc(initial={"preset": "constant", "c": -1.5}))
    u0 = initial_field(cfg, op16.grid)
    assert (u0.values == -1.5).all()


def test_bump_preset_peaks_at_anchor(op16):
    cfg = parse_config(cfg_doc(initial={"preset": "bump"}))
    u0 = initial_field(cfg, op16.grid)
    vals = u0.values
    assert vals[0] == 1.0
    assert (vals > 0.0).all() and (vals <= 1.0).all()
    assert np.argmax(vals) == 0


def test_two_bump_preset_is_a_spike_pair(op16):
    cfg = parse_config(cfg_doc(initial={"preset": "two-bump"}))
    u0 = initial_field(cfg, op16.grid)
    vals = u0.values
    pos = op16.grid.nodes[op16.strip_idx]
    far = int(np.argmax(np.linalg.norm(pos - pos[0], axis=1)))
    assert vals[0] == 1.0 and vals[far] == -1.0
    mask = np.ones(vals.shape[0], dtype=bool)
    mask[[0, far]] = False
    assert (vals[mask] == 0.0).all()


def test_random_preset_reproducible(op16):
    cfg = parse_config(cfg_doc(initial={"preset": "random"}, seed=42))
    a = initial_field(cfg, op16.grid)
    b = initial_field(cfg, op16.grid)
    assert (a.values == b.values).all()
    # the draw comes from the documented split [seed, 0]
    want = np.random.default_rng([42, 0]).standard_normal(op16.n_strip)
    assert (a.values == want).all()
    c = initial_field(dataclasses.replace(cfg, seed=43), op16.grid)
    assert not (a.values == c.values).all()


def test_eigenmode_preset(op16):
    cfg = parse_config(cfg_doc(initial={"preset": "eigenmode", "k": 0}))
    u0 = initial_field(cfg, op16.grid, op=op16)
    _, modes = _reduced_modes(op16)
    assert np.allclose(u0.values, modes[:, 0], atol=0.0)

    with pytest.raises(ConfigInvalid) as err:
        initial_field(cfg, op16.grid)
    assert err.value.field == "initial.preset"

    high = parse_config(cfg_doc(initial={"preset": "eigenmode", "k": 99}))
    with pytest.raises(ConfigInvalid) as err:
        initial_field(high, op16.grid, op=op16)
    assert err.value.field == "initial.k"


def test_eigenmode_range_is_checked_before_the_eigensolve(op16, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an out-of-range mode index needs no eigensolve")

    monkeypatch.setattr(sla, "eigh", refuse)
    # op16 has 8 strip nodes, so mode indices run from 0 to 6
    cfg = parse_config(cfg_doc(initial={"preset": "eigenmode", "k": 7}))
    with pytest.raises(ConfigInvalid) as err:
        initial_field(cfg, op16.grid, op=op16)
    assert err.value.field == "initial.k"
    assert "mode 7 out of range; 7 mean-zero modes" in str(err.value)


def test_build_geometry_only(op16):
    cfg = parse_config(cfg_doc())
    grid = build_geometry(cfg)
    assert np.array_equal(grid.klass, op16.grid.klass)
