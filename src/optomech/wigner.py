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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .fock import DensityMatrix, partial_trace_field, partial_trace_mirror
from .postproc import atomic_write_text, median
from .system import SystemParams

BOUNDARY_WARN_LEVEL = 1e-4
# e^{-b/2} is a normal float only for radii b = |2 beta|^2 below this (~1416.8)
_UNDERFLOW_RADIUS = -2.0 * math.log(np.finfo(float).tiny)
# population allowed in levels that reach past _UNDERFLOW_RADIUS
UNDERFLOW_MASS_TOL = 1e-10
# Distinct radii per Clenshaw pass. It bounds the (dim, block) arrays, the
# Clenshaw work arrays (three complex, one real) and the block's f_L, 72
# bytes per (level, radius), so a whole 161^2 grid (up to 3,321 radii) in one
# pass would take about 72 MB at dim 300.
_RADII_BLOCK = 512
# A snapshot's series runs over the levels below the tail that holds less
# than _TRIM_TAIL_MASS of the trace, and _TRIM_PAD levels of that tail.
_TRIM_TAIL_MASS = 1e-10
_TRIM_PAD = 4


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
    def cell_area(self) -> float:
        dq = median(np.diff(self.q_axis))
        dp = median(np.diff(self.p_axis))
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
    """W at displacements gamma = 2 beta with radii b = |gamma|^2.

    One block of radii at a time: its f_L are summed over L at the points
    with those radii, so only one block's f is held at once.
    """
    radii, at = np.unique(b, return_inverse=True)
    dim = rho_mat.shape[0]
    values = np.empty(b.size)
    for start in range(0, radii.size, _RADII_BLOCK):
        f = _radial_sums(rho_mat, radii[start:start + _RADII_BLOCK])
        points = np.flatnonzero((at >= start) & (at < start + _RADII_BLOCK))
        at_f, g = at[points] - start, gamma[points]
        acc = f[dim - 1][at_f]
        for L in range(dim - 2, -1, -1):
            acc = f[L][at_f] + acc * g * (1.0 / math.sqrt(L + 1))
        values[points] = acc.real / math.pi
    return values


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


def wigner_continuous(rho: DensityMatrix, q_axis: np.ndarray, p_axis: np.ndarray) -> WignerGrid:
    """Wigner function on the grid q_axis x p_axis by the Laguerre series.

    The axes are ascending arrays, best made by grid_axis. Raises
    IntegrationError when the grid leaves the series' domain for this rho or
    a value breaks |W| <= 1/pi. Warns when |W| on the grid boundary exceeds
    1e-4, the sign that the bounds clip the state's support.
    """
    beta = (q_axis[:, np.newaxis] + 1j * p_axis[np.newaxis, :]) / math.sqrt(2.0)
    gamma = 2.0 * beta.ravel()
    # |gamma|^2 from the squared axes, so mirror images share one float
    b = ((2.0 * q_axis ** 2)[:, np.newaxis] + (2.0 * p_axis ** 2)[np.newaxis, :]).ravel()
    _check_laguerre_domain(rho, float(b.max()))
    values = _laguerre_wigner(rho.data, gamma, b)
    _check_bounded(values, b, rho.dim)
    grid = WignerGrid(q_axis, p_axis, values.reshape(q_axis.size, p_axis.size))
    if grid.boundary_max() > BOUNDARY_WARN_LEVEL:
        warnings.warn(
            f"|W| reaches {grid.boundary_max():.3g} on the grid boundary; "
            "the bounds are too small for this state",
            stacklevel=2,
        )
    return grid


def write_grid_csv(grid: WignerGrid, path: str) -> None:
    """Long format, one `q,p,W` row per grid point, q varying slowest."""
    # Each axis value is formatted once, into a template that one % fills
    # with every W: a q's rows are `q,p,%.17g` joined on newline + `q,`.
    ps = [f"{p:.17g},%.17g" for p in grid.p_axis.tolist()]
    blocks = []
    for q in grid.q_axis.tolist():
        qs = f"{q:.17g},"
        blocks.append(qs + ("\n" + qs).join(ps))
    template = "q,p,W\n" + "\n".join(blocks) + "\n"
    atomic_write_text(path, template % tuple(grid.values.ravel().tolist()))


def write_grid_pgm(grid: WignerGrid, path: str) -> None:
    """ASCII portable graymap (P2) of the grid, linearly rescaled to 0..255.

    The original value range and axes bounds ride along in comment lines so
    the image remains quantitative.
    """
    lo = float(grid.values.min())
    hi = float(grid.values.max())
    span = hi - lo if hi > lo else 1.0
    gray = np.rint((grid.values - lo) / span * 255).astype(int)
    q, p = grid.q_axis, grid.p_axis
    lines = [
        "P2",
        f"# W range [{lo:.17g}, {hi:.17g}]",
        f"# q in [{q[0]:.17g}, {q[-1]:.17g}], "
        f"p in [{p[0]:.17g}, {p[-1]:.17g}]",
        f"{p.size} {q.size}",
        "255",
    ]
    row = " ".join(["%d"] * p.size) + "\n"
    body = (row * q.size) % tuple(gray.ravel().tolist())
    atomic_write_text(path, "\n".join(lines) + "\n" + body)


def _trimmed(rho: DensityMatrix) -> np.ndarray:
    """Drop the unpopulated trailing block: keep >= 1 - _TRIM_TAIL_MASS of
    the trace, _TRIM_PAD levels more and at least 16."""
    diag = np.real(np.diag(rho.data))
    tail = np.cumsum(diag[::-1])[::-1]
    keep = int(np.argmax(tail < _TRIM_TAIL_MASS)) if tail[-1] < _TRIM_TAIL_MASS else rho.dim
    keep = min(rho.dim, max(16, keep + _TRIM_PAD))
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


def snapshot_grid(rho: DensityMatrix, n_grid: int) -> WignerGrid:
    """Square n_grid x n_grid grid of one snapshot's reduced state.

    The half-width comes from rho's populations (suggested_half_width), and
    the series runs over rho with its unpopulated trailing block trimmed.
    """
    half = suggested_half_width(rho)
    axis = grid_axis(-half, half, n_grid)
    return wigner_continuous(DensityMatrix(_trimmed(rho)), axis, axis)


def default_snapshot_times(p: SystemParams):
    """Start, half mechanical period, full period: the entanglement extrema."""
    return (0.0, 0.5 * p.mech_period, p.mech_period)


def snapshot_set(states, times) -> list:
    """Reduced field and mirror states of joint states taken at times.

    Returns one (subsystem, t, DensityMatrix) entry per subsystem and time,
    subsystem "field" or "mirror", ordered by time with the field first.
    The states may come from either propagator (`driven.evolve_driven`,
    `oracle.evolve_numeric` with keep_states); snapshot_grid turns each
    entry into a grid.
    """
    snaps = []
    for t, state in zip(times, states):
        snaps.append(("field", float(t), partial_trace_mirror(state)))
        snaps.append(("mirror", float(t), partial_trace_field(state)))
    return snaps
