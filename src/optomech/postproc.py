"""Observable time series: fast-oscillation filtering, comparison, CSV export.

The coherent-averaging approximation leaves spurious oscillations at the
beat period 2 pi / |omega_p - omega_c| on top of slower physics; a centered
moving average over exactly that window removes them while leaving the
envelope intact, which is how analytic and numeric curves are meant to be
compared.
"""
from __future__ import annotations

import functools
import math
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .errors import OutputError

PROVENANCES = ("analytic", "numeric", "filtered")


@dataclass(frozen=True)
class ObservableSeries:
    """One real observable sampled on a strictly ascending time grid."""

    t: np.ndarray
    y: np.ndarray
    label: str
    provenance: str

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.t.ndim != 1 or self.t.shape != self.y.shape:
            raise ValueError("t and y must be 1-d arrays of equal length")
        if self.t.size < 1:
            raise ValueError("series must not be empty")
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("t must be strictly ascending")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"provenance must be one of {PROVENANCES}")

    def __len__(self) -> int:
        return self.t.size


def grid_step(x, name: str) -> float:
    """The step (x[-1] - x[0]) / (size - 1) of the evenly spaced grid x.

    ValueError, naming the grid, unless x has at least 2 points, ascends and
    lies within 16 ulp of np.linspace(x[0], x[-1], size): every time grid
    and Wigner axis the program builds is such a grid.
    """
    x = np.asarray(x, dtype=float)
    step = (x[-1] - x[0]) / (x.size - 1) if x.ndim == 1 and x.size > 1 else 0.0
    if not (step > 0.0 and np.abs(x - np.linspace(x[0], x[-1], x.size)).max()
            <= 16 * np.spacing(np.abs(x).max())):
        raise ValueError(f"{name} must be evenly spaced and ascending, with at least 2 points")
    return step


def variance_over_mean(mean, second):
    """(<x^2> - <x>^2) / <x>, the Mandel parameter of both routes: 1 on a
    coherent state, and taken as 1 where the mean vanishes."""
    mean = np.asarray(mean, dtype=float)
    out = np.ones_like(mean)
    np.divide(second - mean ** 2, mean, out=out, where=mean > 0)
    return out[()]


def require_window(step: float, window: float) -> None:
    """ValueError unless the window is at least twice the grid step."""
    if window < 2.0 * step:
        raise ValueError(f"window {window:g} must be at least twice the grid step {step:g}")


def filter_fast(series: ObservableSeries, window: float) -> ObservableSeries:
    """Centered moving average over the given time window, on an evenly
    spaced grid that the window covers twice over (`require_window`).

    Near the edges the window shrinks symmetrically so the average stays
    centered; the result carries provenance "filtered".
    """
    step = grid_step(series.t, "t")
    require_window(step, window)
    t, y = series.t, series.y
    half = np.minimum(window / 2.0, np.minimum(t - t[0], t[-1] - t))
    eps = step * 1e-9
    lo = np.searchsorted(t, t - half - eps, side="left")
    hi = np.searchsorted(t, t + half + eps, side="right")
    csum = np.concatenate(([0.0], np.cumsum(y)))
    smoothed = (csum[hi] - csum[lo]) / (hi - lo)
    return replace(series, y=smoothed, provenance="filtered")


def compare(a: ObservableSeries, b: ObservableSeries) -> dict:
    """Pointwise metrics of two series on one evenly spaced time grid.

    Returns {"rmse", "max_abs", "relative_l2"}; relative_l2 uses the mean of
    the two series norms in the denominator so the metric is symmetric.
    ValueError unless both series share the grid.
    """
    grid_step(a.t, "t")
    if not np.array_equal(a.t, b.t):
        raise ValueError("compared series must share one time grid")
    diff = a.y - b.y
    denom = 0.5 * (np.linalg.norm(a.y) + np.linalg.norm(b.y))
    rel = float(np.linalg.norm(diff) / denom) if denom > 0 else (
        0.0 if not np.any(diff) else math.inf)
    return {
        "rmse": float(np.sqrt(np.mean(diff ** 2))),
        "max_abs": float(np.max(np.abs(diff))),
        "relative_l2": rel,
    }


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus rename, with the mode
    open(path, "w") gives, 0o666 less the umask, not the temp file's 0o600.
    A write the OS refuses raises OutputError naming path and the OS error."""
    d = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        with os.fdopen(fd, "w") as f:
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(f.fileno(), 0o666 & ~umask)
            f.write(text)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


@functools.lru_cache(maxsize=4)
def _rows_template(t_bytes: bytes) -> str:
    """`t,%.17g` rows of one time grid, each t formatted once per grid.

    Keyed by the grid's bytes, so -0.0 and 0.0 stay apart; a job's series
    share one or two grids, so four entries cover every job.
    """
    t = np.frombuffer(t_bytes, dtype=float)
    return "".join([f"{v:.17g},%.17g\n" for v in t.tolist()])


def write_series(series: ObservableSeries, path: str) -> None:
    """One series per file: header `t,<label>,<provenance>`, 17 significant digits."""
    rows = _rows_template(series.t.tobytes()) % tuple(series.y.tolist())
    atomic_write_text(path, f"t,{series.label},{series.provenance}\n" + rows)
