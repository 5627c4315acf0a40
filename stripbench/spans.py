"""Span tracing of stripflow from outside the package.

A Tracer replaces, for the length of a ``with tracer.installed()`` block,
every public function of the traced stripflow modules and the dense
scipy.linalg calls they make by a wrapper that records a span: name,
parent span, start and end. Spans stay in memory; ``layer_metrics`` turns
them into self times and counts once the traced work is done.

A dense LAPACK call is charged to the module that makes it. Its enclosing
span names that module, with one exception: inside ``evolution`` at p != 2
the factorisations come from the Newton and majoriser loops, which live in
``elliptic`` but are private there and so have no span of their own.
"""

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

TRACED_MODULES = ("geometry", "kernels", "_accel", "elliptic", "evolution",
                  "analysis", "io")

# scipy.linalg entry points stripflow calls, by the kind of work they do
LAPACK_KINDS = {"lu_factor": "factor", "cho_factor": "factor",
                "lu_solve": "solve", "cho_solve": "solve", "eigh": "eigh"}

# Metric names cannot start with "_", so the _accel layer reports as accel.
_LAYER_NAMES = {"_accel": "accel"}

# self-time metric -> spans it sums
TIME_METRICS = {
    "geometry.build_grid_s": ("geometry.build_grid",),
    "kernels.assemble_s": ("kernels.assemble",),
    "kernels.laplacian_dense_s": ("kernels.laplacian_dense",),
    "analysis.spectral_gap_beta_s": ("analysis.spectral_gap_beta",),
    "analysis.schur_complement_s": ("analysis.schur_complement",),
    "analysis.eigh_s": ("analysis.eigh",),
    "analysis.diagnostics_s": ("analysis.mass", "analysis.lq_distance_to_mean"),
    "analysis.fit_decay_s": ("analysis.fit_decay",),
    "accel.phi_row_sums_s": ("accel.phi_row_sums",),
    "accel.edge_power_sum_s": ("accel.edge_power_sum",),
    "accel.hessian_accumulate_s": ("accel.hessian_accumulate",),
    "elliptic.extend_linear_s": ("elliptic.extend_linear",),
    "elliptic.extend_plaplace_s": ("elliptic.extend_plaplace",),
    "elliptic.factor_s": ("elliptic.factor",),
    "elliptic.solve_s": ("elliptic.solve",),
    "evolution.factor_s": ("evolution.factor",),
    "evolution.solve_s": ("evolution.solve",),
    "evolution.evolve_self_s": ("evolution.evolve",),
    "io.write_s": ("io.write_trajectory_csv", "io.trajectory_csv", "io.fmt",
                   "io.atomic_write_text"),
}

LAYERS = ("geometry", "kernels", "accel", "elliptic", "evolution", "analysis", "io")

# count metric -> spans whose calls it counts
CALL_METRICS = {
    "accel.phi_row_sums_calls": "accel.phi_row_sums",
    "accel.edge_power_sum_calls": "accel.edge_power_sum",
    "accel.hessian_accumulate_calls": "accel.hessian_accumulate",
    "elliptic.extend_linear_calls": "elliptic.extend_linear",
    "elliptic.extend_plaplace_calls": "elliptic.extend_plaplace",
    "elliptic.factor_calls": "elliptic.factor",
    "evolution.factor_calls": "evolution.factor",
    "evolution.solve_calls": "evolution.solve",
}

# counts accumulated by the wrappers from argument sizes
WORK_COUNTS = ("kernels.edges", "accel.edges_visited", "accel.bytes_computed",
               "elliptic.factor_flops", "evolution.factor_flops",
               "evolution.solve_bytes", "io.bytes_written")

# Every count above repeats exactly for the same inputs.
EXACT_COUNTS = tuple(CALL_METRICS) + WORK_COUNTS + ("elliptic.newton_iters", "trace.spans")
# Metrics a traced run takes from round 0 rather than as medians over rounds.
ROUND0_COUNTS = EXACT_COUNTS + ("elliptic.factor_attempts_per_iter",)


def _accel_bytes(name, args):
    """Computed bytes an edge kernel moves: its three edge arrays, two
    gathered node values per edge, and its writes (one scatter per edge for
    the row sums, a read-modify-write of two matrix entries per edge for
    the Hessian)."""
    rows, cols, data = args[0], args[1], args[2]
    edges = rows.shape[0]
    moved = rows.nbytes + cols.nbytes + data.nbytes + 16 * edges
    if name == "phi_row_sums":
        moved += 8 * edges
    elif name == "hessian_accumulate":
        moved += 32 * edges
    return moved


class Tracer:
    """Spans and counts of one traced stretch of work.

    ``p`` is the workload's exponent; it decides where the dense
    factorisations made inside ``evolution`` are charged.
    """

    def __init__(self, p):
        self.p = p
        self.spans = []  # [name, parent index, start, end]
        self.counts = Counter()
        self._stack = []

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _leave(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._leave(span)
            if count is not None:
                count(args, out)
            return out
        return wrapper

    def _lapack_layer(self):
        if not self._stack:
            return "bench"
        layer = self.spans[self._stack[-1]][0].split(".", 1)[0]
        if layer == "evolution" and self.p != 2.0:
            return "elliptic"
        return layer

    def _wrap_lapack(self, fname, fn):
        kind = LAPACK_KINDS[fname]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = self._lapack_layer()
            span = self._enter(f"{layer}.{kind}")
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(span)
                mat = args[0]
                if kind == "factor":
                    n = mat.shape[0]
                    self.counts[f"{layer}.factor_flops"] += (
                        n ** 3 // 3 if fname == "cho_factor" else 2 * n ** 3 // 3)
                elif kind == "solve":
                    self.counts[f"{layer}.solve_bytes"] += mat[0].nbytes + args[1].nbytes
        return wrapper

    def _counter(self, layer, fname):
        if layer == "accel" and fname in ("phi_row_sums", "edge_power_sum",
                                          "hessian_accumulate"):
            def count(args, out):
                self.counts["accel.edges_visited"] += args[0].shape[0]
                self.counts["accel.bytes_computed"] += _accel_bytes(fname, args)
            return count
        if layer == "kernels" and fname == "assemble":
            def count(args, out):
                self.counts["kernels.edges"] += out.nnz
            return count
        if layer == "io" and fname == "atomic_write_text":
            def count(args, out):
                self.counts["io.bytes_written"] += len(args[1].encode("utf-8"))
            return count
        return None

    @contextlib.contextmanager
    def installed(self):
        """Route every reference to a traced function through its wrapper,
        in every loaded stripflow module, and restore them on exit."""
        wrappers = {}
        for mod_name in TRACED_MODULES:
            module = sys.modules[f"stripflow.{mod_name}"]
            layer = _LAYER_NAMES.get(mod_name, mod_name)
            for fname, fn in vars(module).items():
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn,
                                              self._counter(layer, fname))
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "stripflow" and not mod_name.startswith("stripflow."):
                continue
            for attr, val in list(vars(module).items()):
                if id(val) in wrappers:
                    patched.append((module, attr, val))
                    setattr(module, attr, wrappers[id(val)])
        for fname in LAPACK_KINDS:
            fn = getattr(scipy.linalg, fname)
            patched.append((scipy.linalg, fname, fn))
            setattr(scipy.linalg, fname, self._wrap_lapack(fname, fn))
        try:
            yield self
        finally:
            for module, attr, val in reversed(patched):
                setattr(module, attr, val)


def self_times(spans):
    """Self time per span name: duration minus the time of child spans."""
    child = np.zeros(len(spans))
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for k, (name, parent, start, end) in enumerate(spans):
        out[name] += (end - start) - child[k]
    return out


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of one traced round lasting ``wall_s`` seconds."""
    selfs = self_times(tracer.spans)
    calls = Counter(span[0] for span in tracer.spans)
    out = {name: sum(selfs.get(s, 0.0) for s in spans)
           for name, spans in TIME_METRICS.items()}
    for layer in LAYERS:
        out[f"{layer}.total_s"] = sum(v for k, v in selfs.items()
                                      if k.split(".", 1)[0] == layer)
    top = sum(end - start for _, parent, start, end in tracer.spans if parent < 0)
    out["trace.outside_s"] = wall_s - top
    for name, span in CALL_METRICS.items():
        out[name] = calls.get(span, 0)
    for name in WORK_COUNTS:
        out[name] = tracer.counts.get(name, 0)
    # every Newton iteration accumulates one Hessian; the majoriser none
    iters = calls.get("accel.hessian_accumulate", 0)
    out["elliptic.newton_iters"] = iters
    out["elliptic.factor_attempts_per_iter"] = (
        out["elliptic.factor_calls"] / iters if iters else 0.0)
    out["trace.spans"] = len(tracer.spans)
    return out
