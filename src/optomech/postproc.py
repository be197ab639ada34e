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


def median(values) -> float:
    """np.median of a non-empty array, by a sort, without importing numpy.ma.

    np.median loads numpy.ma on its first call, 17-21 ms per process. Like
    it, this returns the middle element, the mean (a + b) / 2 of the middle
    two for even sizes, and nan when any value is nan (sorted last).
    """
    s = np.sort(np.asarray(values, dtype=float).ravel())
    mid = s.size // 2
    if np.isnan(s[-1]):
        return math.nan
    # Python floats overflow to inf as numpy's do, without its RuntimeWarning.
    return float(s[mid]) if s.size % 2 else (float(s[mid - 1]) + float(s[mid])) / 2.0


def require_window(t: np.ndarray, window: float) -> float:
    """The median spacing of grid t; ValueError unless the window is at least twice it."""
    spacing = median(np.diff(t)) if t.size > 1 else 0.0
    if window < 2.0 * spacing or spacing == 0.0:
        raise ValueError(
            f"window {window:g} must be at least twice the median spacing {spacing:g}"
        )
    return spacing


def filter_fast(series: ObservableSeries, window: float) -> ObservableSeries:
    """Centered moving average over the given time window (`require_window`).

    Near the edges the window shrinks symmetrically so the average stays
    centered; the result carries provenance "filtered".
    """
    spacing = require_window(series.t, window)
    t, y = series.t, series.y
    half = np.minimum(window / 2.0, np.minimum(t - t[0], t[-1] - t))
    eps = spacing * 1e-9
    lo = np.searchsorted(t, t - half - eps, side="left")
    hi = np.searchsorted(t, t + half + eps, side="right")
    csum = np.concatenate(([0.0], np.cumsum(y)))
    smoothed = (csum[hi] - csum[lo]) / (hi - lo)
    return replace(series, y=smoothed, provenance="filtered")


def _union(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.union1d(x, y) without np.unique, which loads numpy.ma."""
    both = np.sort(np.concatenate([x, y]))
    return both[np.concatenate(([True], both[1:] != both[:-1]))]


def compare(a: ObservableSeries, b: ObservableSeries) -> dict:
    """Pointwise metrics after linear resampling to the common time range.

    Returns {"rmse", "max_abs", "relative_l2"}; relative_l2 uses the mean of
    the two series norms in the denominator so the metric is symmetric.
    """
    lo = max(a.t[0], b.t[0])
    hi = min(a.t[-1], b.t[-1])
    if hi <= lo:
        raise ValueError("series time ranges do not overlap")
    grid = _union(a.t, b.t)
    grid = grid[(grid >= lo) & (grid <= hi)]
    ya = np.interp(grid, a.t, a.y)
    yb = np.interp(grid, b.t, b.y)
    diff = ya - yb
    denom = 0.5 * (np.linalg.norm(ya) + np.linalg.norm(yb))
    rel = float(np.linalg.norm(diff) / denom) if denom > 0 else (
        0.0 if not np.any(diff) else math.inf)
    return {
        "rmse": float(np.sqrt(np.mean(diff ** 2))),
        "max_abs": float(np.max(np.abs(diff))),
        "relative_l2": rel,
    }


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus rename, with the mode
    open(path, "w") gives, 0o666 less the umask, not the temp file's 0o600."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
