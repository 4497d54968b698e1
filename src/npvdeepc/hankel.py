"""Hankel machinery for behavioral data-driven control.

Builds block Hankel matrices from vector sequences, checks persistence of
excitation via numerical rank, partitions data into past/future blocks and
tests window membership in the column span of a data Hankel, which is the
operational form of the fundamental lemma for LTI behaviors.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "DimensionError",
    "RankDeficientError",
    "Trajectory",
    "HankelSet",
    "Window",
    "build_hankel",
    "check_pe",
    "partition",
    "willems_membership",
    "load_trajectory_csv",
    "save_trajectory_csv",
]

TRAJECTORY_CSV_HEADER = ("k", "P", "q", "Ts", "Tg", "d")


class DimensionError(ValueError):
    """Shapes, lengths or horizons do not line up."""


class RankDeficientError(ValueError):
    """Data lack the rank a construction needs, as data that are not persistently exciting do."""


def _as_sequence(seq) -> np.ndarray:
    arr = np.asarray(seq, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise DimensionError(f"expected a nonempty (L, n_z) sequence, got shape {np.shape(seq)}")
    return arr


@dataclass
class Trajectory:
    """Time-ordered (input, output, parameter) samples at a fixed rate.

    Arrays are (n_samples, n_channel); scalars channels may be passed 1-d.
    """

    u: np.ndarray
    y: np.ndarray
    p: np.ndarray
    dt: float

    def __post_init__(self):
        self.u = _as_sequence(self.u)
        self.y = _as_sequence(self.y)
        self.p = _as_sequence(self.p)
        n = self.u.shape[0]
        if self.y.shape[0] != n or self.p.shape[0] != n:
            raise DimensionError(
                f"sample counts differ: u {self.u.shape[0]}, y {self.y.shape[0]}, p {self.p.shape[0]}"
            )
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    @property
    def n_samples(self) -> int:
        return self.u.shape[0]

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.u.shape[1], self.y.shape[1], self.p.shape[1])


@dataclass
class Window:
    """One past/future window cut from a trajectory, stored as flat stacks."""

    u_ini: np.ndarray
    y_ini: np.ndarray
    u_f: np.ndarray
    y_f: np.ndarray
    p_hist: np.ndarray | None = None

    @classmethod
    def from_trajectory(cls, traj: Trajectory, start: int, t_ini: int, horizon: int) -> "Window":
        depth = t_ini + horizon
        if start < 0 or start + depth > traj.n_samples:
            raise DimensionError(
                f"window [{start}, {start + depth}) outside trajectory of length {traj.n_samples}"
            )
        mid = start + t_ini
        return cls(
            u_ini=traj.u[start:mid].ravel(),
            y_ini=traj.y[start:mid].ravel(),
            u_f=traj.u[mid:start + depth].ravel(),
            y_f=traj.y[mid:start + depth].ravel(),
            p_hist=traj.p[start:mid].ravel(),
        )

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.u_ini, self.y_ini, self.u_f, self.y_f])


@dataclass
class HankelSet:
    """Past/future partition of the input and output Hankel matrices.

    ``up``/``yp`` hold the first ``t_ini`` block rows, ``uf``/``yf`` the
    remaining ``horizon`` block rows; all share ``n_cols`` columns.
    """

    up: np.ndarray
    yp: np.ndarray
    uf: np.ndarray
    yf: np.ndarray
    t_ini: int
    horizon: int
    n_u: int
    n_y: int
    k_source: int = field(default=0)

    @property
    def n_cols(self) -> int:
        return self.up.shape[1]

    def stacked(self) -> np.ndarray:
        """col(up, yp, uf, yf), the full behavioral data matrix."""
        return np.vstack([self.up, self.yp, self.uf, self.yf])

    def past_future_stack(self) -> np.ndarray:
        """col(up, yp, uf), the rows defining the data-consistency subspace."""
        return np.vstack([self.up, self.yp, self.uf])


def build_hankel(seq, depth: int) -> np.ndarray:
    """Block Hankel matrix of a vector sequence.

    Column j stacks ``depth`` consecutive samples starting at sample j, so a
    length-L sequence with n_z channels yields an (n_z*depth, L-depth+1)
    matrix.
    """
    arr = _as_sequence(seq)
    length, n_z = arr.shape
    if depth < 1:
        raise DimensionError(f"depth must be >= 1, got {depth}")
    if depth > length:
        raise DimensionError(f"depth {depth} exceeds sequence length {length}")
    cols = length - depth + 1
    return np.vstack([arr[i:i + cols].T for i in range(depth)])


def check_pe(seq, depth: int, tol: float | None = None) -> tuple[bool, int]:
    """Persistence-of-excitation check of a given order.

    The sequence is persistently exciting of order ``depth`` when its depth-D
    Hankel matrix has full row rank n_z*D.  Rank is the count of singular
    values above ``tol * sigma_max`` (default tol: max(rows, cols) * eps).

    Returns:
        (is_pe, numerical_rank)

    Raises:
        DimensionError: if the sequence is shorter than the structural lower
            bound (n_z + 1) * depth - 1, below which full row rank is
            impossible.
    """
    arr = _as_sequence(seq)
    length, n_z = arr.shape
    bound = (n_z + 1) * depth - 1
    if length < bound:
        raise DimensionError(
            f"insufficient length: L={length} < (n_z+1)*D-1 = {bound} "
            f"for n_z={n_z}, D={depth}"
        )
    h = build_hankel(arr, depth)
    svals = np.linalg.svd(h, compute_uv=False)
    if tol is None:
        tol = max(h.shape) * np.finfo(float).eps
    cutoff = tol * (svals[0] if svals.size else 0.0)
    rank = int(np.sum(svals > cutoff))
    return rank == n_z * depth, rank


def partition(traj: Trajectory, t_ini: int, horizon: int, n_cols: int | None = None) -> HankelSet:
    """Split depth-(t_ini + horizon) input/output Hankels into past/future blocks.

    Uses the first ``n_cols + t_ini + horizon - 1`` samples of the trajectory;
    by default all samples are consumed.
    """
    if t_ini < 1 or horizon < 1:
        raise DimensionError(f"horizons must be >= 1, got t_ini={t_ini}, horizon={horizon}")
    depth = t_ini + horizon
    max_cols = traj.n_samples - depth + 1
    if max_cols < 1:
        raise DimensionError(
            f"trajectory of length {traj.n_samples} too short for depth {depth}"
        )
    if n_cols is None:
        n_cols = max_cols
    if not 1 <= n_cols <= max_cols:
        raise DimensionError(f"n_cols={n_cols} outside [1, {max_cols}]")
    k_source = n_cols + depth - 1
    n_u, n_y, _ = traj.dims
    hu = build_hankel(traj.u[:k_source], depth)
    hy = build_hankel(traj.y[:k_source], depth)
    split_u = n_u * t_ini
    split_y = n_y * t_ini
    return HankelSet(
        up=hu[:split_u],
        yp=hy[:split_y],
        uf=hu[split_u:],
        yf=hy[split_y:],
        t_ini=t_ini,
        horizon=horizon,
        n_u=n_u,
        n_y=n_y,
        k_source=k_source,
    )


def willems_membership(hs: HankelSet, w: Window, tol: float = 1e-8) -> tuple[bool, float]:
    """Least-squares distance of a window from the data Hankel column span.

    A window is a trajectory of the underlying LTI behavior exactly when it is
    a linear combination of Hankel columns; the residual is the Euclidean
    distance from the span, computed with a minimum-norm SVD solve.
    """
    mat = hs.stacked()
    target = w.stacked()
    if mat.shape[0] != target.size:
        raise DimensionError(
            f"window stack length {target.size} does not match Hankel rows {mat.shape[0]}"
        )
    g, *_ = np.linalg.lstsq(mat, target, rcond=None)
    residual = float(np.linalg.norm(mat @ g - target))
    return residual <= tol, residual


def save_trajectory_csv(traj: Trajectory, path) -> None:
    """Write a trajectory as ``k,P,q,Ts,Tg,d`` rows (2 inputs, 2 outputs, 1 parameter)."""
    n_u, n_y, n_p = traj.dims
    if (n_u, n_y, n_p) != (2, 2, 1):
        raise DimensionError(
            f"trajectory CSV format expects dims (2, 2, 1), got ({n_u}, {n_y}, {n_p})"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_CSV_HEADER)
        for k in range(traj.n_samples):
            writer.writerow(
                [k]
                + [repr(float(v)) for v in traj.u[k]]
                + [repr(float(v)) for v in traj.y[k]]
                + [repr(float(traj.p[k, 0]))]
            )


def load_trajectory_csv(path, dt: float) -> Trajectory:
    """Read a ``k,P,q,Ts,Tg,d`` file back into a Trajectory.

    The sample period is not stored in the file; it travels with the run
    configuration.  A NaN or infinite value raises ValueError naming its line.
    """
    path = Path(path)
    rows = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != TRAJECTORY_CSV_HEADER:
            raise DimensionError(f"unexpected trajectory header {header}")
        for row in reader:
            if len(row) != len(header):
                raise DimensionError(f"line {reader.line_num} of {path} has {len(row)} fields, not {len(header)}")
            values = [float(v) for v in row[1:]]
            if not all(map(math.isfinite, values)):
                raise ValueError(f"line {reader.line_num} of {path} holds a non-finite value")
            rows.append(values)
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        raise DimensionError(f"empty trajectory file {path}")
    return Trajectory(u=data[:, 0:2], y=data[:, 2:4], p=data[:, 4:5], dt=dt)
