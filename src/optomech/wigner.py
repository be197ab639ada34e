"""Wigner functions of reduced density matrices on continuous phase-space grids.

Quadrature convention, fixed project-wide: beta = (q + i p) / sqrt(2), so a
coherent state |amp> peaks at (q, p) = (sqrt(2) Re amp, sqrt(2) Im amp) and
the vacuum is W(q,p) = exp(-q^2 - p^2) / pi with peak 1/pi.

The continuous function is the displaced-parity expectation written as a
Laguerre series (Johansson, Nation and Nori, Comput. Phys. Commun. 184, 1234
(2013), QuTiP's "clenshaw" method). With gamma = 2 beta and b = |gamma|^2,

    W(q,p) = (1/pi) Re sum_L gamma^L / sqrt(L!) f_L(b),
    f_L(b) = sum_n c_{L,n} e^{-b/2} (-1)^n sqrt(n! L!/(n+L)!) L_n^L(b),

where c_{L,n} = rho[n, n+L], doubled for L > 0 (the subdiagonals are the
conjugates). Each f_L is a Clenshaw sum down the L-th superdiagonal; the
sum over L is a Horner sum in gamma around it. The radial part depends on b
only, so f_L is evaluated once per distinct radius of the grid and gathered
to the points. The axes are mirror-exact (grid_axis) and b is summed from
the squared axes, so the 4 to 8 mirror images of a radius on a symmetric
square grid are one float, not a handful that differ in the last bit: a
161^2 grid has at most 81 * 82 / 2 = 3,321 distinct radii (about 2,900 on a
snapshot grid). The Clenshaw sums are still most of a grid's time, 16-24 ms
per 161^2 snapshot grid at dims 22 to 29.

The factor e^{-b/2} is folded into every Clenshaw coefficient rather than
applied at the end: the bare Laguerre partial sums grow like e^{b/2} and
overflow for dim of about 300 at b of about 1,500, where the product would
be inf * 0. The folded sum holds while e^{-b/2} is a normal float, i.e. for
b below -2 ln(smallest normal), about 1,417 (|beta|^2 about 354). Level n
reaches out to its turning point b = 4n + 2 and a decaying tail beyond, so a
grid that extends past b = 1,417 is served for states populated up to about
n = 310. wigner_continuous raises IntegrationError when a grid extends past
that radius while rho has population in levels that reach it, and when a
value breaks |W| <= 1/pi, which every density matrix obeys. The tests pin
the series to the textbook integral definition

    W(q,p) = (1/pi) Integral dx e^{2 i x p} <q - x| rho |q + x>

by brute quadrature at small dimension.
"""
from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import driven as _driven
from . import oracle as _oracle
from .errors import IntegrationError
from .fock import (
    DensityMatrix,
    FockDims,
    partial_trace_field,
    partial_trace_mirror,
)
from .postproc import atomic_write_text
from .system import SystemParams

BOUNDARY_WARN_LEVEL = 1e-4
# e^{-b/2} is a normal float only for radii b = |2 beta|^2 below this (~1416.8)
_UNDERFLOW_RADIUS = -2.0 * math.log(np.finfo(float).tiny)
# population allowed in levels that reach past _UNDERFLOW_RADIUS
UNDERFLOW_MASS_TOL = 1e-10
# Distinct radii per Clenshaw pass. It bounds the (dim, block) work arrays:
# three complex and one real, 56 bytes per (level, radius), so a whole 161^2
# grid (up to 3,321 radii) in one pass would take about 56 MB at dim 300.
_RADII_BLOCK = 512


@dataclass(frozen=True)
class WignerGrid:
    """Real W samples on a rectangular grid; axes are the sample coordinates."""

    q_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q_axis", np.asarray(self.q_axis, dtype=float))
        object.__setattr__(self, "p_axis", np.asarray(self.p_axis, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (self.q_axis.size, self.p_axis.size):
            raise ValueError("values must be shaped (len(q_axis), len(p_axis))")
        for ax in (self.q_axis, self.p_axis):
            if ax.size < 2 or np.any(np.diff(ax) <= 0):
                raise ValueError("axes must be strictly ascending with >= 2 points")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    @property
    def q_min(self) -> float:
        return float(self.q_axis[0])

    @property
    def q_max(self) -> float:
        return float(self.q_axis[-1])

    @property
    def p_min(self) -> float:
        return float(self.p_axis[0])

    @property
    def p_max(self) -> float:
        return float(self.p_axis[-1])

    @property
    def nq(self) -> int:
        return self.q_axis.size

    @property
    def n_p(self) -> int:
        return self.p_axis.size

    @property
    def cell_area(self) -> float:
        dq = float(np.median(np.diff(self.q_axis)))
        dp = float(np.median(np.diff(self.p_axis)))
        return dq * dp

    def total_mass(self) -> float:
        """Riemann sum; 1 within grid and truncation error for a unit-trace rho."""
        return float(self.values.sum() * self.cell_area)

    def boundary_max(self) -> float:
        v = self.values
        return float(
            max(
                np.abs(v[0, :]).max(),
                np.abs(v[-1, :]).max(),
                np.abs(v[:, 0]).max(),
                np.abs(v[:, -1]).max(),
            )
        )

    def moments(self):
        """(mean_q, mean_p, var_q, var_p) of the grid treated as a density."""
        w = self.values
        mass = w.sum()
        if mass == 0:
            raise ValueError("grid carries no mass")
        pq = w.sum(axis=1) / mass
        pp = w.sum(axis=0) / mass
        mq = float(pq @ self.q_axis)
        mp = float(pp @ self.p_axis)
        vq = float(pq @ (self.q_axis - mq) ** 2)
        vp = float(pp @ (self.p_axis - mp) ** 2)
        return mq, mp, vq, vp


def _radial_sums(rho_mat: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """f[L, r] = f_L(radii[r]) of the module docstring, by Clenshaw sums.

    The sums for all L run together down the coefficient index j; row L has
    no coefficients above j = dim - 1 - L, so only the first dim - j rows are
    live at step j and the rest stay exactly zero.
    """
    dim = rho_mat.shape[0]
    n = np.arange(dim)
    band = n[np.newaxis, :] + n[:, np.newaxis]
    # c[L, j] = rho[j, j + L], zero past the corner; off-diagonals doubled
    coeffs = np.where(band < dim, rho_mat[n, np.minimum(band, dim - 1)], 0.0)
    coeffs[1:] *= 2.0
    damp = np.exp(-0.5 * radii)
    ell = np.arange(dim, dtype=float)[:, np.newaxis]
    y0 = np.zeros((dim, radii.size), dtype=np.complex128)
    y1 = np.zeros_like(y0)
    nxt = np.zeros_like(y0)
    fac = np.empty((dim, radii.size))
    for j in range(dim - 1, -1, -1):
        live = dim - j
        k = j + 2.0
        L = ell[:live]
        g = 1.0 / np.sqrt((L + k) * k)
        f = fac[:live]
        np.multiply(g, radii, out=f)
        np.subtract(g * (L + 2.0 * k - 1.0), f, out=f)
        u0, u1, un = y0[:live], y1[:live], nxt[:live]
        np.multiply(u1, f, out=un)
        np.subtract(u0, un, out=un)  # next y1 = y0 - (L + 2k - 1 - b) g y1
        np.multiply(u1, np.sqrt((k - 1.0) * (L + k - 1.0)) * g, out=u1)
        np.multiply(coeffs[:live, j, np.newaxis], damp, out=u0)
        np.subtract(u0, u1, out=u0)  # next y0 = c e^{-b/2} - sqrt((k-1)(L+k-1)) g y1
        y1, nxt = nxt, y1
    return y0 - y1 * ((ell + 1.0 - radii) / np.sqrt(ell + 1.0))


def _laguerre_wigner(rho_mat: np.ndarray, gamma: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W at displacements gamma = 2 beta with radii b = |gamma|^2."""
    radii, at = np.unique(b, return_inverse=True)
    dim = rho_mat.shape[0]
    f = np.empty((dim, radii.size), dtype=np.complex128)
    for start in range(0, radii.size, _RADII_BLOCK):
        block = slice(start, start + _RADII_BLOCK)
        f[:, block] = _radial_sums(rho_mat, radii[block])
    acc = f[dim - 1][at]
    for L in range(dim - 2, -1, -1):
        acc = f[L][at] + acc * gamma * (1.0 / math.sqrt(L + 1))
    return acc.real / math.pi


def _check_laguerre_domain(rho: DensityMatrix, b_max: float) -> None:
    """Raise when the grid reaches radii where e^{-b/2} underflows and rho lives there.

    Level n's Laguerre function e^{-b/2} L_n(b) oscillates out to its
    turning point b = 4n + 2; 12 Airy widths (8n + 4)^(1/3) beyond it, it is
    down to about 1e-10 (checked in extended precision for n = 100 to 354).
    """
    if b_max <= _UNDERFLOW_RADIUS:
        return
    n = np.arange(rho.dim)
    reach = 4.0 * n + 2.0 + 12.0 * np.cbrt(8.0 * n + 4.0)
    mass = float(np.real(np.diag(rho.data))[reach > _UNDERFLOW_RADIUS].sum())
    if mass > UNDERFLOW_MASS_TOL:
        raise IntegrationError(
            f"Laguerre evaluation: the grid reaches radius |2 beta|^2 = {b_max:.6g}, "
            f"past {_UNDERFLOW_RADIUS:.6g} where e^(-b/2) underflows, while rho "
            f"(dim {rho.dim}) has population {mass:.3g} in levels that reach there"
        )


def _check_bounded(values: np.ndarray, b: np.ndarray, dim: int) -> None:
    """|W| <= 1/pi for every density matrix; a breach is a failed evaluation."""
    size = np.where(np.isfinite(values), np.abs(values), np.inf)
    worst = int(np.argmax(size))
    if size[worst] > (1.0 + 1e-9) / math.pi:
        raise IntegrationError(
            f"Laguerre evaluation gave W = {values[worst]:.6g} at radius "
            f"|2 beta|^2 = {b[worst]:.6g} (dim {dim}), outside |W| <= 1/pi"
        )


def grid_axis(lo: float, hi: float, n: int) -> np.ndarray:
    """n points from lo to hi, center + (i - (n-1)/2) step, ends set to lo and hi.

    Unlike np.linspace, a range symmetric about 0 gives an axis whose
    mirror images are exact negatives, axis[n-1-i] == -axis[i].
    """
    step = (hi - lo) / (n - 1)
    axis = 0.5 * (lo + hi) + (np.arange(n) - 0.5 * (n - 1)) * step
    axis[0], axis[-1] = lo, hi
    return axis


def wigner_continuous(
    rho: DensityMatrix,
    q_min: float = -6.0,
    q_max: float = 6.0,
    p_min: float = -6.0,
    p_max: float = 6.0,
    nq: int = 121,
    n_p: int = 121,
) -> WignerGrid:
    """Wigner function on a rectangular (q, p) grid by the Laguerre series.

    Raises IntegrationError when the grid leaves the series' domain for this
    rho or a value breaks |W| <= 1/pi. Warns when |W| on the grid boundary
    exceeds 1e-4, the sign that the bounds clip the state's support.
    """
    q_axis = grid_axis(q_min, q_max, nq)
    p_axis = grid_axis(p_min, p_max, n_p)
    beta = (q_axis[:, np.newaxis] + 1j * p_axis[np.newaxis, :]) / math.sqrt(2.0)
    gamma = 2.0 * beta.ravel()
    # |gamma|^2 from the squared axes, so mirror images share one float
    b = ((2.0 * q_axis ** 2)[:, np.newaxis] + (2.0 * p_axis ** 2)[np.newaxis, :]).ravel()
    _check_laguerre_domain(rho, float(b.max()))
    values = _laguerre_wigner(rho.data, gamma, b)
    _check_bounded(values, b, rho.dim)
    grid = WignerGrid(q_axis, p_axis, values.reshape(nq, n_p))
    if grid.boundary_max() > BOUNDARY_WARN_LEVEL:
        warnings.warn(
            f"|W| reaches {grid.boundary_max():.3g} on the grid boundary; "
            "the bounds are too small for this state",
            stacklevel=2,
        )
    return grid


def write_grid_csv(grid: WignerGrid, path: str) -> None:
    """Long format, one `q,p,W` row per grid point, q varying slowest."""
    # Each axis value is formatted once; float and np.float64 print alike.
    ps = [f"{p:.17g}," for p in grid.p_axis.tolist()]
    lines = ["q,p,W"]
    for q, row in zip(grid.q_axis.tolist(), grid.values):
        qs = f"{q:.17g},"
        lines.extend([f"{qs}{p}{w:.17g}" for p, w in zip(ps, row.tolist())])
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_grid_pgm(grid: WignerGrid, path: str) -> None:
    """ASCII portable graymap (P2) of the grid, linearly rescaled to 0..255.

    The original value range and axes bounds ride along in comment lines so
    the image remains quantitative.
    """
    lo = float(grid.values.min())
    hi = float(grid.values.max())
    span = hi - lo if hi > lo else 1.0
    gray = np.rint((grid.values - lo) / span * 255).astype(int)
    lines = [
        "P2",
        f"# W range [{lo:.17g}, {hi:.17g}]",
        f"# q in [{grid.q_min:.17g}, {grid.q_max:.17g}], "
        f"p in [{grid.p_min:.17g}, {grid.p_max:.17g}]",
        f"{grid.n_p} {grid.nq}",
        "255",
    ]
    lines.extend(" ".join(map(str, row)) for row in gray.tolist())
    atomic_write_text(path, "\n".join(lines) + "\n")


class StateSource(enum.Enum):
    """Which propagator supplies the joint states for snapshots."""

    ANALYTIC = "analytic"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class WignerSnapshot:
    subsystem: str  # "field" or "mirror"
    t: float
    source: StateSource
    grid: WignerGrid


def _trimmed(rho: DensityMatrix, tail_mass: float = 1e-10, pad: int = 4) -> np.ndarray:
    """Drop the unpopulated trailing block; keeps >= 1 - tail_mass of the trace."""
    diag = np.real(np.diag(rho.data))
    tail = np.cumsum(diag[::-1])[::-1]
    keep = int(np.argmax(tail < tail_mass)) if tail[-1] < tail_mass else rho.dim
    keep = min(rho.dim, max(16, keep + pad))
    return rho.data[:keep, :keep]


def suggested_half_width(rho: DensityMatrix) -> float:
    """Grid half-width covering the populated amplitudes plus vacuum tails.

    It clips the broadest snapshots slightly: the wigner_snapshots preset's
    mirror grids at t = pi/omega_m carry mass 0.999998 (analytic) and
    0.9999976 (numeric), so about 2e-6 of the state lies outside them.
    Widening it would move the axes of every grid, which the committed
    benchmark references pin to 1e-5.
    """
    diag = np.real(np.diag(rho.data))
    levels = np.arange(rho.dim, dtype=float)
    n1 = float(diag @ levels)
    n2 = float(diag @ levels ** 2)
    sigma = math.sqrt(max(n2 - n1 * n1, 0.0))
    return 1.5 * math.sqrt(2.0 * (n1 + 3.0 * sigma)) + 4.0


def snapshot_grid(rho: DensityMatrix, n_grid: int = 161) -> WignerGrid:
    """Square n_grid x n_grid grid of one snapshot's reduced state.

    The half-width comes from rho's populations (suggested_half_width), and
    the series runs over rho with its unpopulated trailing block trimmed.
    """
    half = suggested_half_width(rho)
    trimmed = DensityMatrix(_trimmed(rho))
    return wigner_continuous(trimmed, -half, half, -half, half, n_grid, n_grid)


def default_snapshot_times(p: SystemParams):
    """Start, half mechanical period, full period: the entanglement extrema."""
    return (0.0, math.pi / p.omega_m, 2.0 * math.pi / p.omega_m)


def snapshot_set(
    p: SystemParams,
    source: StateSource,
    dims: FockDims,
    times=None,
    n_grid: int = 161,
    mapper=map,
) -> list:
    """Field and mirror Wigner grids at each snapshot time, from one propagator.

    Returns six WignerSnapshot entries per call (2 subsystems x 3 times by
    default), ordered by time with the field first. Grid bounds adapt to
    each reduced state. The numeric source steps at the recommended
    integrator config; to choose another, evolve the states with
    `oracle.evolve_numeric` and pass them to `snapshot_grids`. mapper is
    passed on to snapshot_grids.
    """
    if times is None:
        times = default_snapshot_times(p)
    t_arr = np.asarray(times, dtype=float)
    if source is StateSource.ANALYTIC:
        betas = _driven.integrate_betas(p, t_arr)
        states = [
            _driven.evolve_driven(p, float(t_arr[i]), betas.at(i), dims)
            for i in range(t_arr.size)
        ]
    elif source is StateSource.NUMERIC:
        states = _oracle.evolve_numeric(p, dims, t_grid=t_arr).states
    else:
        raise ValueError(f"unknown source {source!r}")
    return snapshot_grids(states, t_arr, source, n_grid, mapper)


def snapshot_grids(states, times, source: StateSource, n_grid: int = 161, mapper=map) -> list:
    """Field and mirror grids of joint states taken at times, ordered as by snapshot_set.

    For callers that evolve the states themselves, for instance to report
    the diagnostics of the OracleRun they came from. The partial traces are
    taken here; the grids, independent of each other, are computed by
    snapshot_grid through mapper, any map-like callable (the CLI passes a
    map shared with forked worker processes).
    """
    keys, rhos = [], []
    for t, state in zip(times, states):
        keys += (("field", float(t)), ("mirror", float(t)))
        rhos += (partial_trace_mirror(state), partial_trace_field(state))
    grids = mapper(functools.partial(snapshot_grid, n_grid=n_grid), rhos)
    return [
        WignerSnapshot(subsystem, t, source, grid)
        for (subsystem, t), grid in zip(keys, grids)
    ]
