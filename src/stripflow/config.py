"""Experiment configuration: a single flat JSON document describing the
grid, the kernel, the problem variant, the time stepping, and the initial
strip data. Every validation failure is a ConfigInvalid naming the field."""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import fixtures
from .analysis import _reduced_modes
from .errors import ConfigInvalid, InvalidArgument, StripflowError
from .evolution import (EXPLICIT, IMPLICIT, SINGULAR_VARIANT, VARIANTS,
                        ProblemSpec, check_kernel)
from .fields import StripField
from .geometry import DomainBox, build_grid, strip_indices
from .kernels import (BUMP, SINGULAR, TENT, KernelSpec, assemble,
                      bump_kernel, singular_kernel, tent_kernel)

PICARD = "picard"
INTEGRATORS = (EXPLICIT, IMPLICIT, PICARD)

PRESETS = ("constant", "bump", "two-bump", "random", "eigenmode")

_FIXTURES = ("toy3",)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description. Build one with parse_config."""

    problem: ProblemSpec
    t_end: float
    dt: float
    integrator: str
    initial: dict
    seed: int
    tol: float
    max_iter: int
    domain: DomainBox = None
    h: float = 0.0
    r: float = 0.0
    kernel: KernelSpec = None
    fixture: str = None
    allow_empty_interior: bool = False
    allow_r_equal_R: bool = False

    def __post_init__(self):
        # numpy's default_rng refuses a negative seed; the CLI's --seed
        # override (dataclasses.replace) is checked here too
        if self.seed < 0:
            raise ConfigInvalid("seed", f"must be nonnegative, got {self.seed}")


def load_config(path):
    """Read and validate a JSON config file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid("<document>", f"not valid JSON: {exc}") from exc
    return parse_config(doc)


def _fields(doc, known, where=""):
    """doc, once every field it holds is one of known."""
    for key in doc:
        if key not in known:
            raise ConfigInvalid(f"{where}.{key}" if where else str(key), "unknown field")
    return doc


def _finite(val):
    """float(val) for a finite JSON number, else None. json accepts the NaN
    and Infinity literals, and an integer literal may overflow a float."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return None
    try:
        val = float(val)
    except OverflowError:
        return None
    return val if math.isfinite(val) else None


def _need(doc, key, kind, where=""):
    label = f"{where}.{key}" if where else key
    if key not in doc:
        raise ConfigInvalid(label, "missing required field")
    val = doc[key]
    if kind is float:
        num = _finite(val)
        if num is None:
            raise ConfigInvalid(label, f"expected a finite number, got {val!r}")
        return num
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigInvalid(label, f"expected an integer, got {val!r}")
        return val
    if not isinstance(val, kind):
        raise ConfigInvalid(label, f"expected {kind.__name__}, got {type(val).__name__}")
    return val


def _optional(doc, key, kind, default, where=""):
    if key not in doc:
        return default
    return _need(doc, key, kind, where)


def _parse_domain(section):
    _fields(section, ("dim", "lo", "hi"), "domain")
    dim = _need(section, "dim", int, "domain")
    if dim not in (1, 2):
        raise ConfigInvalid("domain.dim", f"must be 1 or 2, got {dim}")

    def side(key):
        val = section.get(key)
        nums = [_finite(v) for v in (val if isinstance(val, list) else [val] * dim)]
        if len(nums) == dim and None not in nums:
            return tuple(nums)
        raise ConfigInvalid(f"domain.{key}", "expected a finite number or a list of "
                            f"{dim} finite numbers, got {val!r}")

    lo, hi = side("lo"), side("hi")
    try:
        return DomainBox(dim=dim, lo=lo, hi=hi)
    except StripflowError as exc:
        raise ConfigInvalid("domain", str(exc)) from exc


def _parse_kernel(section, dim, problem_p):
    _fields(section, ("family", "R", "s", "cnorm"), "kernel")
    family = _need(section, "family", str, "kernel")
    if family not in (TENT, BUMP, SINGULAR):
        raise ConfigInvalid("kernel.family", f"unknown family {family!r}")
    cnorm = _optional(section, "cnorm", float, None, "kernel")
    if cnorm is not None and cnorm <= 0.0:
        raise ConfigInvalid("kernel.cnorm", "must be positive")
    try:
        if family == SINGULAR:
            s = _need(section, "s", float, "kernel")
            return singular_kernel(s, problem_p, dim,
                                   cnorm=1.0 if cnorm is None else cnorm)
        R = _need(section, "R", float, "kernel")
        factory = tent_kernel if family == TENT else bump_kernel
        spec = factory(R, dim)
        if cnorm is not None:
            spec = KernelSpec(family=family, dim=dim, cnorm=cnorm, R=R)
        return spec
    except ConfigInvalid:
        raise
    except StripflowError as exc:
        raise ConfigInvalid("kernel", str(exc)) from exc


def _parse_initial(section):
    _fields(section, ("preset", "c", "k"), "initial")
    preset = _need(section, "preset", str, "initial")
    if preset not in PRESETS:
        raise ConfigInvalid("initial.preset", f"unknown preset {preset!r}")
    out = {"preset": preset}
    if preset == "constant":
        out["c"] = _need(section, "c", float, "initial")
    if preset == "eigenmode":
        k = _need(section, "k", int, "initial")
        if k < 0:
            raise ConfigInvalid("initial.k", "mode index must be nonnegative")
        out["k"] = k
    return out


def parse_config(doc):
    """Validate a config document and cross-check its parts."""
    if not isinstance(doc, dict):
        raise ConfigInvalid("<document>", "top level must be a JSON object")
    _fields(doc, ("problem", "time", "initial", "seed", "tolerances", "output",
                  "allow_empty_interior", "allow_r_equal_R", "fixture", "domain", "h",
                  "r", "kernel"))

    prob_sec = _fields(_need(doc, "problem", dict), ("variant", "p", "q"), "problem")
    variant = _need(prob_sec, "variant", str, "problem")
    if variant not in VARIANTS:
        raise ConfigInvalid("problem.variant", f"unknown variant {variant!r}")
    p = _optional(prob_sec, "p", float, 2.0, "problem")
    q = _optional(prob_sec, "q", float, 2.0, "problem")
    try:
        problem = ProblemSpec(variant=variant, p=p, q=q)
    except StripflowError as exc:
        raise ConfigInvalid("problem", str(exc)) from exc

    time_sec = _fields(_need(doc, "time", dict), ("t_end", "dt", "integrator"), "time")
    t_end = _need(time_sec, "t_end", float, "time")
    dt = _need(time_sec, "dt", float, "time")
    if t_end <= 0.0:
        raise ConfigInvalid("time.t_end", "must be positive")
    if dt <= 0.0:
        raise ConfigInvalid("time.dt", "must be positive")
    integrator = _optional(time_sec, "integrator", str, EXPLICIT, "time")
    if integrator not in INTEGRATORS:
        raise ConfigInvalid("time.integrator", f"unknown integrator {integrator!r}")

    initial = _parse_initial(_need(doc, "initial", dict))
    seed = _optional(doc, "seed", int, 0)

    tol_sec = _fields(_optional(doc, "tolerances", dict, {}), ("tol", "max_iter"),
                      "tolerances")
    tol = _optional(tol_sec, "tol", float, 1e-10, "tolerances")
    max_iter = _optional(tol_sec, "max_iter", int, 60, "tolerances")
    if tol <= 0.0:
        raise ConfigInvalid("tolerances.tol", "must be positive")
    if max_iter < 1:
        raise ConfigInvalid("tolerances.max_iter", "must be at least 1")

    for key in _optional(doc, "output", dict, {}):
        raise ConfigInvalid(f"output.{key}", "not read by any command; pass --out")

    allow_empty = _optional(doc, "allow_empty_interior", bool, False)
    allow_eq = _optional(doc, "allow_r_equal_R", bool, False)

    fixture = _optional(doc, "fixture", str, None)
    if fixture is not None:
        if fixture not in _FIXTURES:
            raise ConfigInvalid("fixture", f"unknown fixture {fixture!r}")
        for key in ("domain", "h", "r", "kernel"):
            if key in doc:
                raise ConfigInvalid(key, "not allowed together with a fixture")
        if variant == SINGULAR_VARIANT:
            raise ConfigInvalid("problem.variant",
                                "fixtures carry a compact kernel; singular variant needs one")
        return ExperimentConfig(problem=problem, t_end=t_end, dt=dt,
                                integrator=integrator, initial=initial, seed=seed,
                                tol=tol, max_iter=max_iter, fixture=fixture,
                                allow_empty_interior=allow_empty,
                                allow_r_equal_R=allow_eq)

    domain = _parse_domain(_need(doc, "domain", dict))
    h = _need(doc, "h", float)
    r = _need(doc, "r", float)
    if h <= 0.0:
        raise ConfigInvalid("h", "must be positive")
    if r <= 0.0:
        raise ConfigInvalid("r", "must be positive")
    kernel = _parse_kernel(_need(doc, "kernel", dict), domain.dim, problem.p)

    try:
        check_kernel(kernel, problem)
    except InvalidArgument as exc:
        raise ConfigInvalid("kernel/variant", str(exc)) from exc
    if kernel.compact:
        if r > kernel.R + 1e-12:
            raise ConfigInvalid("r", f"strip width {r} exceeds kernel radius {kernel.R}")
        if abs(r - kernel.R) <= 1e-12 and not allow_eq:
            raise ConfigInvalid("r", "equal to the kernel radius; set "
                                     "allow_r_equal_R to run the degenerate case")

    return ExperimentConfig(problem=problem, t_end=t_end, dt=dt,
                            integrator=integrator, initial=initial, seed=seed,
                            tol=tol, max_iter=max_iter, domain=domain, h=h, r=r,
                            kernel=kernel, allow_empty_interior=allow_empty,
                            allow_r_equal_R=allow_eq)


def build_geometry(cfg):
    """Materialize just the grid from a validated config."""
    if cfg.fixture == "toy3":
        return fixtures.toy3_grid()
    return build_grid(cfg.domain, cfg.h, cfg.r,
                      allow_empty_interior=cfg.allow_empty_interior)


def build_problem(cfg):
    """Materialize (grid, operator) from a validated config."""
    if cfg.fixture == "toy3":
        op = fixtures.toy3(edge_mode=cfg.problem.edge_mode)
    else:
        op = assemble(build_geometry(cfg), cfg.kernel, cfg.problem.edge_mode)
    return op.grid, op


def initial_field(cfg, grid, op=None):
    """Construct the configured initial strip data.

    Presets: constant(c); bump, a smooth hump at the anchor strip node;
    two-bump, opposite unit spikes at the anchor node and the strip node
    farthest from it; random, standard normal draws from rng([seed, 0]);
    eigenmode(k), the k-th mode of the reduced quadratic form (needs op).
    The anchor node is the lowest-index strip node.
    """
    preset = cfg.initial["preset"]
    s_idx = strip_indices(grid)
    ns = s_idx.shape[0]
    if preset == "constant":
        return StripField(np.full(ns, cfg.initial["c"]), grid)
    if preset == "random":
        rng = np.random.default_rng([cfg.seed, 0])
        return StripField(rng.standard_normal(ns), grid)

    pos = grid.nodes[s_idx]
    if preset == "bump":
        width = max(2.0 * grid.h, grid.r)
        d = np.linalg.norm(pos - pos[0], axis=1)
        return StripField(np.exp(-((d / width) ** 2)), grid)
    if preset == "two-bump":
        d = np.linalg.norm(pos - pos[0], axis=1)
        b = int(np.argmax(d))
        vals = np.zeros(ns)
        vals[0] = 1.0
        vals[b] = -1.0
        return StripField(vals, grid)

    k = cfg.initial["k"]
    if op is None:
        raise ConfigInvalid("initial.preset", "eigenmode preset needs the operator")
    n_modes = op.n_strip - 1
    if k >= n_modes:
        raise ConfigInvalid("initial.k", f"mode {k} out of range; {n_modes} mean-zero modes")
    _, modes = _reduced_modes(op)
    return StripField(modes[:, k].copy(), grid)
