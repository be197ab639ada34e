"""Wigner functions of reduced density matrices on continuous phase-space grids.

Quadrature convention, fixed project-wide: beta = (q + i p) / sqrt(2), so a
coherent state |amp> peaks at (q, p) = (sqrt(2) Re amp, sqrt(2) Im amp) and
the vacuum is W(q,p) = exp(-q^2 - p^2) / pi with peak 1/pi.

W is its defining integral, W(q,p) = (1/pi) Int dy e^{2ipy} <q-y|rho|q+y>,
by the trapezoid rule on a lattice of step dy = dq / s, dq the q axis
step, so that every q_i +- y_k is a lattice point x_l. With the Hermite
functions phi[l, n] = phi_n(x_l) tabulated once per lattice point (the
normalized three-term recurrence) and R = rho phi, the correlation

    K[i, k] = <q_i - y_k| rho |q_i + y_k> = sum_m phi[l_i - k, m] R[l_i + k, m]

is needed for k >= 0 only, as K(q, -y) = conj K(q, y), and W = (dy / pi)
Re(K' E), K' being K with its k > 0 columns doubled and E[k, j] =
e^{2 i p_j y_k}.

Why it converges: by Poisson summation the sum over all lags is exactly
sum_j W(q, p + j pi / dy), the state's own W at aliases of p. W of every
level is below rounding past the radius sqrt(2 dim + 1) + _ALIAS_PAD, and s
is the least that moves every alias of the grid's p past it. The lags and
the lattice end _SUPPORT_PAD past that turning point, where every phi_n is
below rounding. The tests hold the grids within 1e-13 of the
Clenshaw-Laguerre series (Johansson, Nation and Nori, Comput. Phys. Commun.
184, 1234 (2013)) at dims 2 to 330, and s against s + 1 within 1e-14.

The domain: phi_0 = pi^(-1/4) e^{-x^2/2} underflows past |x| of about 37.6.
wigner_continuous raises IntegrationError when the lattice reaches there
while rho populates levels whose support, sqrt(2n + 1) + _SUPPORT_PAD,
does (levels above 438), and when a value breaks |W| <= 1/pi, which every
density matrix obeys.

The cost, for an n x m grid with L lattice points and n_y lags, is
O(dim^2 L + dim n n_y + n n_y m): on a 2-vCPU VM a 161^2 snapshot grid takes
3-6 ms at dims 22-30 and 60-80 ms at dim 301.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .fock import DensityMatrix, partial_trace_field, partial_trace_mirror
from .postproc import atomic_write_text, grid_step
from .system import SystemParams

BOUNDARY_WARN_LEVEL = 1e-4
# Past the top level's turning point sqrt(2 dim + 1), phi_n of every level is
# below rounding beyond _SUPPORT_PAD (the lattice and the lags end there; 6
# already agrees to rounding), and W beyond _ALIAS_PAD, where the lattice's
# aliases of W may fall (4 already agrees).
_SUPPORT_PAD = 8.0
_ALIAS_PAD = 5.0
# phi_0 = pi^(-1/4) e^(-x^2/2) is a normal float only for |x| below this (~37.6)
_UNDERFLOW_X = math.sqrt(-0.5 * math.log(math.pi) - 2.0 * math.log(np.finfo(float).tiny))
# population allowed in levels that reach past _UNDERFLOW_X
UNDERFLOW_MASS_TOL = 1e-10
# q rows of the correlation K held at once
_ROWS_BLOCK = 16
# A snapshot's lattice sum runs over the levels below the tail that holds less
# than _TRIM_TAIL_MASS of the trace, and _TRIM_PAD levels of that tail.
_TRIM_TAIL_MASS = 1e-10
_TRIM_PAD = 4


@dataclass(frozen=True)
class WignerGrid:
    """Real W samples on a rectangular grid; axes are the sample coordinates,
    evenly spaced wherever a cell area is taken."""

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
        return grid_step(self.q_axis, "q_axis") * grid_step(self.p_axis, "p_axis")

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


def _hermite_table(x: np.ndarray, dim: int) -> np.ndarray:
    """phi[l, n] = phi_n(x[l]), by the normalized three-term recurrence."""
    phi = np.zeros((dim + 1, x.size))  # phi[n + 1] holds phi_n, from phi_{-1} = 0
    phi[1] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    for n in range(1, dim):
        phi[n + 1] = math.sqrt(2.0 / n) * x * phi[n] - math.sqrt((n - 1) / n) * phi[n - 1]
    return np.ascontiguousarray(phi[1:].T)


def _check_lattice_domain(rho_mat: np.ndarray, x_max: float) -> None:
    """Raise when the lattice reaches |x| where phi_0 underflows and rho lives
    there: level n lives out to sqrt(2n + 1) + _SUPPORT_PAD, as the lattice takes it."""
    if x_max <= _UNDERFLOW_X:
        return
    reach = np.sqrt(2.0 * np.arange(rho_mat.shape[0]) + 1.0) + _SUPPORT_PAD
    mass = float(np.real(np.diag(rho_mat))[reach > _UNDERFLOW_X].sum())
    if mass > UNDERFLOW_MASS_TOL:
        raise IntegrationError(
            f"Wigner lattice reaches |x| = {x_max:.6g}, past {_UNDERFLOW_X:.6g} where "
            f"phi_0 underflows, while rho (dim {rho_mat.shape[0]}) has population "
            f"{mass:.3g} in levels that reach there"
        )


def _refinement(dq: float, p_axis: np.ndarray, dim: int) -> int:
    """Lattice points s per q step: the least that moves every alias
    W(q, p + j pi / dy) of the grid's p past W's support."""
    reach = max(abs(p_axis[0]), abs(p_axis[-1])) + math.sqrt(2.0 * dim + 1.0) + _ALIAS_PAD
    return math.ceil(reach * dq / math.pi)


def _lattice_wigner(rho_mat: np.ndarray, q_axis: np.ndarray, p_axis: np.ndarray) -> np.ndarray:
    """W on q_axis x p_axis, both evenly spaced, by the lattice trapezoid rule.

    x_j = q_0 + j dy for the j with |x_j| inside the support; q_i is x_{i s}.
    The correlation K of a block of q rows is contracted with the phases at
    once, so no more than _ROWS_BLOCK rows of K exist at a time.
    """
    dim, n = rho_mat.shape[0], q_axis.size
    dq = grid_step(q_axis, "q_axis")
    s = _refinement(dq, p_axis, dim)
    dy = dq / s
    support = math.sqrt(2.0 * dim + 1.0) + _SUPPORT_PAD
    n_y = int(support / dy)
    lo = max(-n_y, math.ceil((-support - q_axis[0]) / dy))
    hi = min((n - 1) * s + n_y, math.floor((support - q_axis[0]) / dy))
    x = q_axis[0] + np.arange(lo, hi + 1) * dy
    _check_lattice_domain(rho_mat, float(np.abs(x).max(initial=0.0)))
    phi = _hermite_table(x, dim)
    # r[l] = (rho phi(x_l)).real then .imag: r[l, m] = sum_n rho[m, n] phi_n(x_l)
    r = phi @ np.concatenate([rho_mat.real.T, rho_mat.imag.T], axis=1)
    # row i pairs x_{c - k} with x_{c + k} for the lags k < lags[i] inside the support
    centers = np.arange(n) * s - lo
    lags = np.clip(np.minimum(centers, hi - lo - centers), -1, n_y) + 1
    y = np.arange(n_y + 1) * dy
    # the k > 0 terms stand for -y_k too: weight 2, and Re of e^{2ipy} K
    weight = np.where(y > 0.0, 2.0, 1.0)[:, np.newaxis] * (dy / math.pi)
    cos = weight * np.cos(2.0 * y[:, np.newaxis] * p_axis)
    sin = weight * -np.sin(2.0 * y[:, np.newaxis] * p_axis)
    values = np.zeros((n, p_axis.size))
    for start in range(0, n, _ROWS_BLOCK):
        stop = min(n, start + _ROWS_BLOCK)
        width = int(lags[start:stop].max())
        if width <= 0:
            continue
        k = np.zeros((2, stop - start, width))
        for i in range(start, stop):
            c, m = centers[i], lags[i]
            left, right = phi[c - m + 1:c + 1][::-1], r[c:c + m]
            np.vecdot(left, right[:, :dim], out=k[0, i - start, :m])
            np.vecdot(left, right[:, dim:], out=k[1, i - start, :m])
        values[start:stop] = k[0] @ cos[:width] + k[1] @ sin[:width]
    return values


def _check_bounded(values: np.ndarray, q_axis: np.ndarray, p_axis: np.ndarray, dim: int) -> None:
    """|W| <= 1/pi for every density matrix; a breach is a failed evaluation."""
    size = np.where(np.isfinite(values), np.abs(values), np.inf)
    i, j = np.unravel_index(int(np.argmax(size)), size.shape)
    if size[i, j] > (1.0 + 1e-9) / math.pi:
        raise IntegrationError(
            f"Wigner evaluation gave W = {values[i, j]:.6g} at (q, p) = "
            f"({q_axis[i]:.6g}, {p_axis[j]:.6g}) (dim {dim}), outside |W| <= 1/pi"
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
    """Wigner function on the grid q_axis x p_axis by the lattice trapezoid rule.

    Both axes are evenly spaced, as grid_axis makes them (ValueError
    otherwise, `postproc.grid_step`). Raises IntegrationError when the
    lattice leaves the domain of the Hermite recurrence for this rho or a
    value breaks |W| <= 1/pi. Warns when |W| on the grid boundary exceeds
    1e-4, the sign that the bounds clip the state's support.
    """
    grid_step(p_axis, "p_axis")  # and q_axis's step is the lattice's (_lattice_wigner)
    values = _lattice_wigner(rho.data, q_axis, p_axis)
    _check_bounded(values, q_axis, p_axis, rho.dim)
    grid = WignerGrid(q_axis, p_axis, values)
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
    the lattice sum runs over rho with its unpopulated trailing block trimmed.
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
