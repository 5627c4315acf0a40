"""CSV input and output.

All files are comma separated with a mandatory header row, '.' decimal
point, and 17 significant digits, so identical data produces identical
bytes. Writes go through a temporary file in the target directory and a
rename, so readers never observe a partial file.
"""

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .fields import StripField
from .geometry import KLASS_NAMES, strip_indices

_DIAG_HEADER = "step,t,mass,d1,d2,dp,dq,dinf,energy"


def fmt(x):
    """17-significant-digit decimal form of one float."""
    return "%.17g" % float(x)


def atomic_write_text(path, text):
    """Write text to path via a sibling temp file and an atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _coord_header(dim):
    return "x,y" if dim == 2 else "x"


def grid_csv(grid):
    lines = [f"index,{_coord_header(grid.dim)},class,bdist,mu"]
    for i in range(grid.n):
        coords = ",".join(fmt(c) for c in grid.nodes[i])
        lines.append(f"{i},{coords},{KLASS_NAMES[grid.klass[i]]},"
                     f"{fmt(grid.bdist[i])},{fmt(grid.mu[i])}")
    return "\n".join(lines) + "\n"


def write_grid_csv(path, grid):
    atomic_write_text(path, grid_csv(grid))


def field_csv(field):
    grid = field.grid
    lines = [f"index,{_coord_header(grid.dim)},class,value"]
    for i in range(grid.n):
        coords = ",".join(fmt(c) for c in grid.nodes[i])
        lines.append(f"{i},{coords},{KLASS_NAMES[grid.klass[i]]},{fmt(field.values[i])}")
    return "\n".join(lines) + "\n"


def write_field_csv(path, field):
    atomic_write_text(path, field_csv(field))


def strip_csv(field):
    """Strip values keyed by global node index."""
    s_idx = strip_indices(field.grid)
    lines = ["index,value"]
    for pos, i in enumerate(s_idx):
        lines.append(f"{i},{fmt(field.values[pos])}")
    return "\n".join(lines) + "\n"


def write_strip_csv(path, field):
    atomic_write_text(path, strip_csv(field))


def read_strip_csv(path, grid):
    """Read strip values (index,value) and order them against the grid.

    The index set must exactly match the grid's strip nodes; any order
    is accepted.
    """
    s_idx = strip_indices(grid)
    pos_of = {int(i): k for k, i in enumerate(s_idx)}
    vals = np.full(s_idx.shape[0], np.nan)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "index,value":
            raise InvalidArgument(f"expected header 'index,value', got {header!r}")
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise InvalidArgument(f"line {ln}: expected 2 fields, got {len(parts)}")
            try:
                idx, val = int(parts[0]), float(parts[1])
            except ValueError as exc:
                raise InvalidArgument(f"line {ln}: {exc}") from exc
            if idx not in pos_of:
                raise InvalidArgument(f"line {ln}: node {idx} is not a strip node")
            if not np.isnan(vals[pos_of[idx]]):
                raise InvalidArgument(f"line {ln}: node {idx} appears twice")
            vals[pos_of[idx]] = val
    missing = np.flatnonzero(np.isnan(vals))
    if missing.shape[0]:
        raise InvalidArgument(f"missing values for {missing.shape[0]} strip nodes "
                              f"(first: node {int(s_idx[missing[0]])})")
    return StripField(vals, grid)


def trajectory_csv(traj):
    lines = [_DIAG_HEADER]
    for k in range(traj.times.shape[0]):
        row = ",".join(fmt(v) for v in traj.diag[k])
        lines.append(f"{k},{fmt(traj.times[k])},{row}")
    return "\n".join(lines) + "\n"


def write_trajectory_csv(path, traj):
    atomic_write_text(path, trajectory_csv(traj))


@dataclass(frozen=True)
class TrajectoryTable:
    """Times and diagnostic columns re-read from a trajectory file."""

    times: np.ndarray
    diag: np.ndarray


def read_trajectory_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != _DIAG_HEADER:
            raise InvalidArgument(f"expected header {_DIAG_HEADER!r}, got {header!r}")
        times, rows = [], []
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 9:
                raise InvalidArgument(f"line {ln}: expected 9 fields, got {len(parts)}")
            try:
                times.append(float(parts[1]))
                rows.append([float(v) for v in parts[2:]])
            except ValueError as exc:
                raise InvalidArgument(f"line {ln}: {exc}") from exc
    if not rows:
        raise InvalidArgument("trajectory file has no data rows")
    return TrajectoryTable(times=np.asarray(times), diag=np.asarray(rows))


def counterexample_csv(pairs):
    lines = ["n,quotient"]
    for n, quot in pairs:
        lines.append(f"{n},{fmt(quot)}")
    return "\n".join(lines) + "\n"


def fit_csv(fit):
    """Two-line CSV form of a decay fit."""
    return ("model,rate,r2,t_lo,t_hi\n"
            f"{fit.model},{fmt(fit.rate)},{fmt(fit.r2)},"
            f"{fmt(fit.window[0])},{fmt(fit.window[1])}\n")
