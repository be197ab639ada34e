"""Continuous and discrete Wigner functions of reduced density matrices.

Quadrature convention, fixed project-wide: beta = (q + i p) / sqrt(2), so a
coherent state |amp> peaks at (q, p) = (sqrt(2) Re amp, sqrt(2) Im amp) and
the vacuum is W(q,p) = exp(-q^2 - p^2) / pi with peak 1/pi.

The continuous function is evaluated through the displaced-parity form

    W(q,p) = (1/pi) Tr[rho D(beta) P D(beta)^dagger]
           = (1/pi) sum_m (-1)^m [rho D(2 beta)]_{mm},

whose Fock matrix elements are built column by column with the recurrence
D_{n,m} = (sqrt(n) D_{n-1,m-1} - conj(gamma) D_{n,m-1}) / sqrt(m) from the
coherent-state column D_{n,0}, gamma = 2 beta. That is O(d^2) per phase-space
point with no Laguerre evaluations. The textbook integral definition

    W(q,p) = (1/pi) Integral dx e^{-2 i x p} <q - x| rho |q + x>

is kept as wigner_direct_integral, practical only at small dimension, to pin
the equivalence down in tests.
"""
from __future__ import annotations

import enum
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
    coherent_amplitudes,
    partial_trace_field,
    partial_trace_mirror,
)
from .postproc import atomic_write_text
from .system import SystemParams

BOUNDARY_WARN_LEVEL = 1e-4
REALNESS_TOL = 1e-10
_CHUNK = 2048


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


def _parity_contraction(rho_mat: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """sum_m (-1)^m [rho D(gamma)]_{mm} for a batch of displacement arguments."""
    dim = rho_mat.shape[0]
    # A[n, m] = (-1)^m rho[m, n]; contraction is sum_{n,m} A[n,m] D(gamma)_{n,m}.
    parity = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    a = rho_mat.T * parity[np.newaxis, :]
    sqrt_n = np.sqrt(np.arange(dim, dtype=float))
    out = np.empty(gamma.size, dtype=np.complex128)
    for start in range(0, gamma.size, _CHUNK):
        g = gamma[start:start + _CHUNK]
        gc = np.conj(g)[:, np.newaxis]
        # col[g, n] = <n|D(gamma_g)|0>, the coherent-state column
        col, _ = coherent_amplitudes(dim, g)
        acc = col @ a[:, 0]
        for m in range(1, dim):
            nxt = np.empty_like(col)
            nxt[:, 0] = -gc[:, 0] * col[:, 0]
            nxt[:, 1:] = sqrt_n[np.newaxis, 1:] * col[:, :-1] - gc * col[:, 1:]
            col = nxt / math.sqrt(m)
            acc += col @ a[:, m]
        out[start:start + _CHUNK] = acc
    return out


def _check_real(raw: np.ndarray, what: str) -> np.ndarray:
    residue = float(np.max(np.abs(raw.imag))) if raw.size else 0.0
    if residue > REALNESS_TOL:
        raise IntegrationError(
            f"{what} produced imaginary residue {residue:.3g} (limit {REALNESS_TOL:g}); "
            "the input density matrix is not consistent"
        )
    return raw.real


def wigner_continuous(
    rho: DensityMatrix,
    q_min: float = -6.0,
    q_max: float = 6.0,
    p_min: float = -6.0,
    p_max: float = 6.0,
    nq: int = 121,
    n_p: int = 121,
) -> WignerGrid:
    """Displaced-parity Wigner function on a rectangular (q, p) grid.

    Warns when |W| on the grid boundary exceeds 1e-4, the sign that the
    bounds clip the state's support.
    """
    q_axis = np.linspace(q_min, q_max, nq)
    p_axis = np.linspace(p_min, p_max, n_p)
    beta = (q_axis[:, np.newaxis] + 1j * p_axis[np.newaxis, :]) / math.sqrt(2.0)
    raw = _parity_contraction(rho.data, 2.0 * beta.ravel()) / math.pi
    values = _check_real(raw, "displaced-parity evaluation").reshape(nq, n_p)
    grid = WignerGrid(q_axis, p_axis, values)
    if grid.boundary_max() > BOUNDARY_WARN_LEVEL:
        warnings.warn(
            f"|W| reaches {grid.boundary_max():.3g} on the grid boundary; "
            "the bounds are too small for this state",
            stacklevel=2,
        )
    return grid


def _hermite_functions(x: np.ndarray, dim: int) -> np.ndarray:
    """h[n, j] = psi_n(x_j), harmonic-oscillator eigenfunctions, unit mass."""
    h = np.empty((dim, x.size))
    h[0] = math.pi ** -0.25 * np.exp(-0.5 * x ** 2)
    if dim > 1:
        h[1] = x * math.sqrt(2.0) * h[0]
    for n in range(2, dim):
        h[n] = x * math.sqrt(2.0 / n) * h[n - 1] - math.sqrt((n - 1) / n) * h[n - 2]
    return h


def wigner_direct_integral(
    rho: DensityMatrix,
    q_min: float = -6.0,
    q_max: float = 6.0,
    p_min: float = -6.0,
    p_max: float = 6.0,
    nq: int = 41,
    n_p: int = 41,
    x_pad: float = 8.0,
    dx: float = 0.02,
) -> WignerGrid:
    """(1/pi) Integral dx e^{2 i x p} <q-x|rho|q+x>, by brute quadrature.

    Slow on purpose; the small-dimension oracle the displaced-parity route
    is checked against. The exponent sign pairs with the <q-x| ... |q+x>
    ordering: together they put a coherent state's peak at p = +sqrt(2) Im
    amp, matching the beta = (q + ip)/sqrt(2) convention of the parity
    route (the same integral with e^{-2ixp} is the p-mirrored function).
    """
    q_axis = np.linspace(q_min, q_max, nq)
    p_axis = np.linspace(p_min, p_max, n_p)
    span = max(abs(q_min), abs(q_max)) + x_pad
    x = np.arange(-span, span + dx / 2, dx)
    values = np.empty((nq, n_p), dtype=np.complex128)
    phases = np.exp(2j * np.outer(x, p_axis))
    for i, q in enumerate(q_axis):
        h_minus = _hermite_functions(q - x, rho.dim)
        h_plus = _hermite_functions(q + x, rho.dim)
        corr = np.einsum("mx,mn,nx->x", h_minus, rho.data, h_plus)
        values[i] = (corr[:, np.newaxis] * phases).sum(axis=0) * dx / math.pi
    residue = float(np.max(np.abs(values.imag)))
    if residue > 1e-8:
        raise IntegrationError(
            f"direct Wigner integral left imaginary residue {residue:.3g}"
        )
    return WignerGrid(q_axis, p_axis, values.real)


def wigner_discrete(rho: DensityMatrix, n_grid: int) -> WignerGrid:
    """Discrete Wigner function on the N x N integer grid, indices mod N.

    W(q,p) = (1/N) sum_n e^{-4 i pi n p / N} rho[(q - n) mod N, (q + n) mod N],
    with rho zero-padded to N. The sum over the grid is 1 for odd N; even N
    double-counts phase-space lines and is allowed but flagged in the docs.
    """
    if n_grid < rho.dim:
        raise ValueError(f"N = {n_grid} must be >= the density-matrix dim {rho.dim}")
    padded = np.zeros((n_grid, n_grid), dtype=np.complex128)
    padded[: rho.dim, : rho.dim] = rho.data
    idx = np.arange(n_grid)
    # gathered[q, n] = rho[(q - n) mod N, (q + n) mod N]
    gathered = padded[(idx[:, np.newaxis] - idx[np.newaxis, :]) % n_grid,
                      (idx[:, np.newaxis] + idx[np.newaxis, :]) % n_grid]
    phases = np.exp(-4j * math.pi * np.outer(idx, idx) / n_grid)
    raw = gathered @ phases / n_grid
    values = _check_real(raw, "discrete Wigner sum")
    # Positions are the integer labels themselves; cell area 1.
    axis = idx.astype(float)
    return WignerGrid(axis, axis.copy(), values)


def write_grid_csv(grid: WignerGrid, path: str) -> None:
    """Long format, one `q,p,W` row per grid point, q varying slowest."""
    lines = ["q,p,W"]
    for i, q in enumerate(grid.q_axis):
        for j, p in enumerate(grid.p_axis):
            lines.append(f"{q:.17g},{p:.17g},{grid.values[i, j]:.17g}")
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
    lines.extend(" ".join(str(v) for v in row) for row in gray)
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
    """Grid half-width covering the populated amplitudes plus vacuum tails."""
    diag = np.real(np.diag(rho.data))
    levels = np.arange(rho.dim, dtype=float)
    n1 = float(diag @ levels)
    n2 = float(diag @ levels ** 2)
    sigma = math.sqrt(max(n2 - n1 * n1, 0.0))
    return 1.5 * math.sqrt(2.0 * (n1 + 3.0 * sigma)) + 4.0


def _grid_for(rho: DensityMatrix, n_grid: int) -> WignerGrid:
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
    config=None,
) -> list:
    """Field and mirror Wigner grids at each snapshot time, from one propagator.

    Returns six WignerSnapshot entries per call (2 subsystems x 3 times by
    default), ordered by time with the field first. Grid bounds adapt to
    each reduced state.
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
        run = _oracle.evolve_numeric(p, dims, config, t_arr)
        states = run.states
    else:
        raise ValueError(f"unknown source {source!r}")

    snaps = []
    for t, state in zip(t_arr, states):
        rho_field = partial_trace_mirror(state)
        rho_mirror = partial_trace_field(state)
        snaps.append(
            WignerSnapshot("field", float(t), source, _grid_for(rho_field, n_grid))
        )
        snaps.append(
            WignerSnapshot("mirror", float(t), source, _grid_for(rho_mirror, n_grid))
        )
    return snaps
