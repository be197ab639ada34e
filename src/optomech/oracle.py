"""Brute-force Schrodinger evolution of the full driven model.

No approximation beyond Fock truncation: the joint Hamiltonian

    H(t) = H0 + V(t),   H0 = omega_c n + omega_m N,
    V(t) = - G0 n (b + b^dagger) + drive_amp cos(omega_p t) (a + a^dagger)

is integrated with classical fixed-step RK4 in the interaction frame of
H0, psi_I = exp(i H0 t) psi. There H0 drops out and

    H_I(t) = exp(i H0 t) V(t) exp(-i H0 t)

keeps only four bands in the field-major index i = k * mirror_dim + m:
the coupling bands (offsets +-1, from b and b^dagger) carry the phases
exp(-+i omega_m t), and the drive bands (offsets +-mirror_dim, from a and
a^dagger) carry cos(omega_p t) exp(-+i omega_c t). Each RK4 stage at a new
time rescales those DIA data rows in place and applies one matrix-vector
product; every snapshot is rotated back to the lab frame with the diagonal
phase exp(-i H0 t), so callers only ever see lab-frame states.
Everything else in the package is measured against this.

RK4 applied to -i H_I loses norm at a known rate, |R(-i theta)|^2 =
1 - theta^6/72 + O(theta^8) per step with theta = lambda dt, which is what
the recommended step size is solved from. Only the surviving coupling and
drive terms enter lambda; the free energies omega_c k and omega_m m, which
dominate the lab-frame spectrum, do not. An explicit norm monitor backstops
the estimate.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import dia_matvec

from .errors import IntegrationError
from .fock import FockDims, JointState, coherent_state, ladder_ops, tensor
from .postproc import ObservableSeries
from .system import SystemParams

HERMITICITY_TOL = 1e-12
DEFAULT_NORM_TOLERANCE = 1e-6
DEFAULT_NORM_CHECK_EVERY = 1000
LEAK_TOLERANCE = 1e-6
# Resolve the fastest angular frequency with at least this many steps/period.
MIN_STEPS_PER_FAST_PERIOD = 40
# Per-step norm loss theta^6/72 with theta = lambda_eff * dt.
_RK4_NORM_EXPONENT = 6
_RK4_NORM_PREFACTOR = 72.0
# Stirling numbers S(6, j): E[k^6] over Poisson(mu) = sum_j S(6,j) mu^j.
_TOUCHARD6 = (1.0, 31.0, 90.0, 65.0, 15.0, 1.0)
# OpenBLAS runs a GEMM with m * n * k at most this on the calling thread.
_SERIAL_GEMM_SIZE = 65536


@dataclass(frozen=True)
class HamiltonianAssembly:
    """Static part plus drive operator; H(t) = h_static + drive(t) * h_drive."""

    h_static: sp.csr_matrix
    h_drive: sp.csr_matrix
    drive_amp: float
    drive_freq: float

    def __post_init__(self):
        for op in (self.h_static, self.h_drive):
            defect = abs(op - op.conj().T).max()
            if defect > HERMITICITY_TOL:
                raise ValueError(f"Hamiltonian block not Hermitian (defect {defect:g})")

    def at(self, t: float) -> sp.csr_matrix:
        """Dense-in-time snapshot H(t), mainly for small-system checks."""
        c = self.drive_amp * math.cos(self.drive_freq * t)
        return self.h_static + c * self.h_drive


def assemble_hamiltonian(p: SystemParams, dims: FockDims) -> HamiltonianAssembly:
    fld = ladder_ops(dims.field_dim)
    mir = ladder_ops(dims.mirror_dim)
    eye_f = sp.identity(dims.field_dim, dtype=np.complex128, format="csr")
    eye_m = sp.identity(dims.mirror_dim, dtype=np.complex128, format="csr")
    h_static = (
        p.omega_c * tensor(fld.number, eye_m)
        + p.omega_m * tensor(eye_f, mir.number)
        + (-p.g0) * tensor(fld.number, mir.lower + mir.raise_)
    )
    h_drive = tensor(fld.lower + fld.raise_, eye_m)
    return HamiltonianAssembly(h_static, h_drive, p.drive_amp, p.omega_p)


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    method: str = "RK4"
    norm_check_every: int = DEFAULT_NORM_CHECK_EVERY
    norm_tolerance: float = DEFAULT_NORM_TOLERANCE

    def __post_init__(self):
        if self.method != "RK4":
            raise ValueError(f"unknown method {self.method!r}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if self.norm_check_every < 1:
            raise ValueError("norm_check_every must be >= 1")
        if self.norm_tolerance <= 0:
            raise ValueError("norm_tolerance must be positive")


def _poisson_sixth_root(mu: float) -> float:
    """(E[k^6])^(1/6) for Poisson(mu): the level that sets the spectral scale."""
    if mu <= 0:
        return 0.0
    sixth = sum(c * mu ** (j + 1) for j, c in enumerate(_TOUCHARD6))
    return sixth ** (1.0 / 6.0)


def drive_growth(p: SystemParams, t_total: float) -> float:
    """Bound on how far the drive displaces the field amplitude.

    Off resonance both rotating and counter-rotating responses stay bounded
    (amplitudes drive/|detuning| and drive/(omega_p + omega_c)); on resonance
    the amplitude grows secularly as drive * t / 2.
    """
    if p.drive_amp == 0.0:
        return 0.0
    if p.detuning != 0.0:
        return p.drive_amp / abs(p.detuning) + p.drive_amp / (p.omega_p + p.omega_c)
    return 0.5 * p.drive_amp * t_total


def _populated_levels(p: SystemParams, t_total: float, dims: FockDims):
    """Effective field and mirror levels reached over the run, sixth-moment weighted."""
    mu_field = (abs(p.alpha) + drive_growth(p, t_total)) ** 2
    k6 = min(_poisson_sixth_root(mu_field), dims.field_dim - 1.0)
    # Mirror displacement grows with the photon number it is conditioned on.
    k_disp = mu_field + 3.0 * math.sqrt(mu_field) + 1.0
    mu_mirror = (abs(p.gamma) + 2.0 * p.g_ratio * min(k_disp, dims.field_dim - 1.0)) ** 2
    m6 = min(_poisson_sixth_root(mu_mirror), dims.mirror_dim - 1.0)
    return k6, m6


def max_stable_dt(p: SystemParams) -> float:
    """Hard cap: resolve the fastest oscillation, whatever the amplitudes."""
    return 2.0 * math.pi / (MIN_STEPS_PER_FAST_PERIOD * p.fastest_angular_frequency)


def require_stable_dt(p: SystemParams, dt: float) -> None:
    """Raise ValueError when dt exceeds max_stable_dt(p)."""
    cap = max_stable_dt(p)
    if dt > cap * (1 + 1e-12):
        raise ValueError(
            f"dt {dt:g} does not resolve the fastest period; need dt <= "
            f"max_stable_dt = {cap:g} s ({MIN_STEPS_PER_FAST_PERIOD} steps per period of "
            f"{p.fastest_angular_frequency:g} rad/s)"
        )


def recommend_integrator_config(
    p: SystemParams,
    t_total: float,
    dims: FockDims,
    norm_tolerance: float = DEFAULT_NORM_TOLERANCE,
) -> IntegratorConfig:
    """Step size that keeps total RK4 norm loss under norm_tolerance.

    The stepper integrates in the interaction frame of H0 = omega_c n +
    omega_m N, where the generator is H_I(t) = exp(i H0 t) V(t) exp(-i H0 t)
    and only the coupling and drive bands survive. Its spectral scale on
    the populated levels (k6, m6: sixth-moment field and mirror levels) is

        lambda_eff = 2 G0 k6 sqrt(m6 + 1) + 2 drive_amp sqrt(k6 + 1),

    the bounds of G0 n (b + b^dagger) and drive_amp (a + a^dagger); the
    phases of H_I leave these norms unchanged, and the free terms
    omega_c k6 and omega_m m6 do not enter. Per step the amplitude of a
    populated eigen-direction decays by theta^6/72 with theta =
    lambda_eff * dt, so over n = t_total/dt steps the drift is bounded by
    solving n * theta^6/72 = norm_tolerance/2 for dt (the half is slack
    for the populated tail above lambda_eff; lambda_eff itself already
    overestimates the populated spectrum by summing term maxima, so
    measured drift sits far below the bound). The result is capped by
    max_stable_dt, since omega_c + omega_p is still the fastest frequency
    in H_I(t).
    """
    if t_total <= 0:
        raise ValueError("t_total must be positive")
    k6, m6 = _populated_levels(p, t_total, dims)
    lam = 2.0 * p.g0 * k6 * math.sqrt(m6 + 1.0) + 2.0 * p.drive_amp * math.sqrt(k6 + 1.0)
    cap = max_stable_dt(p)
    if lam <= 0:
        return IntegratorConfig(dt=cap, norm_tolerance=norm_tolerance)
    budget = _RK4_NORM_PREFACTOR * (norm_tolerance / 2.0)
    dt_norm = (budget / (t_total * lam ** _RK4_NORM_EXPONENT)) ** (
        1.0 / (_RK4_NORM_EXPONENT - 1)
    )
    return IntegratorConfig(dt=min(cap, dt_norm), norm_tolerance=norm_tolerance)


@dataclass
class OracleRun:
    """States sampled on the requested grid plus integration diagnostics."""

    params: SystemParams
    dims: FockDims
    config: IntegratorConfig
    t: np.ndarray
    states: list
    norm_drift: float = 0.0
    leak_max: float = 0.0
    n_steps: int = 0


def _band_row(mat, off: int, n: int) -> np.ndarray:
    """Band `off` of `mat` as a DIA data row, where entry j multiplies x[j]."""
    row = np.zeros(n, dtype=np.complex128)
    band = mat.diagonal(off)
    if off >= 0:
        row[off:] = band
    else:
        row[: n + off] = band
    return row


class InteractionFrame:
    """The generator -i H_I(t) of psi_I = exp(i H0 t) psi, as a banded matvec.

    Built from the assembly's own bands: the coupling rows (offsets +-1)
    from h_static and the drive rows (offsets +-mirror_dim) from h_drive.
    Bands that vanish (no coupling, no drive) are left out, so their cost
    is not paid.
    """

    def __init__(self, p: SystemParams, dims: FockDims):
        asm = assemble_hamiltonian(p, dims)
        n = dims.joint
        self._p = p
        self._field_levels = np.arange(dims.field_dim, dtype=float)
        self._mirror_levels = np.arange(dims.mirror_dim, dtype=float)
        # (offset, source operator, index into the factors of _refresh): b at
        # offset +1 rotates as exp(-i omega_m t), a at +mirror_dim as
        # exp(-i omega_c t), and their adjoints below the diagonal conjugate.
        bands = (
            (-dims.mirror_dim, asm.h_drive, 3),
            (-1, asm.h_static, 1),
            (1, asm.h_static, 0),
            (dims.mirror_dim, asm.h_drive, 2),
        )
        rows, offsets, self._factor_of = [], [], []
        for off, op, which in bands:
            row = _band_row(op, off, n)
            if np.any(row):
                rows.append(row)
                offsets.append(off)
                self._factor_of.append(which)
        self._base = np.array(rows, dtype=np.complex128).reshape(len(rows), n)
        self._scale = np.empty((len(rows), 1), dtype=np.complex128)
        self._op = sp.dia_matrix((self._base.copy(), np.array(offsets, dtype=int)), shape=(n, n))
        self._t = None

    def _refresh(self, t: float) -> None:
        p = self._p
        em = cmath.exp(-1j * p.omega_m * t)
        ed = p.drive_amp * math.cos(p.omega_p * t) * cmath.exp(-1j * p.omega_c * t)
        # Folding -i into the rows makes each RK4 stage one matvec.
        factors = (-1j * em, -1j * em.conjugate(), -1j * ed, -1j * ed.conjugate())
        for i, which in enumerate(self._factor_of):
            self._scale[i, 0] = factors[which]
        np.multiply(self._base, self._scale, out=self._op.data)
        self._t = t

    def rhs(self, t: float, vec: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = -i H_I(t) psi_I; the rows are rescaled only when t changes.

        Calls the kernel behind `self._op @ vec` directly, which accumulates
        into a zeroed `out`, so the result is bitwise that of the operator
        product without its dispatch and allocation.
        """
        if t != self._t:
            self._refresh(t)
        op = self._op
        n = op.shape[0]
        out.fill(0)
        dia_matvec(n, n, len(op.offsets), op.data.shape[1], op.offsets, op.data, vec, out)
        return out

    def to_lab(self, t: float, vec: np.ndarray) -> np.ndarray:
        """psi = exp(-i H0 t) psi_I; the phase factors into field times mirror."""
        phase = np.multiply.outer(
            np.exp(-1j * self._p.omega_c * t * self._field_levels),
            np.exp(-1j * self._p.omega_m * t * self._mirror_levels),
        )
        return vec * phase.ravel()


def _leak_fraction(psi: np.ndarray, dims: FockDims) -> float:
    """Largest population sitting in the top levels of either subsystem.

    Checks the top 3 levels, but never more than dim - 1 of an axis so a
    deliberately tiny subsystem does not count its ground state as leakage.
    """
    prob = np.abs(psi.reshape(dims.field_dim, dims.mirror_dim)) ** 2
    kf = min(3, dims.field_dim - 1)
    km = min(3, dims.mirror_dim - 1)
    return max(float(prob[-kf:, :].sum()), float(prob[:, -km:].sum()))


def evolve_numeric(
    p: SystemParams,
    dims: FockDims,
    config: IntegratorConfig | None = None,
    t_grid=None,
) -> OracleRun:
    """Integrate from the product of coherent states, sampling at t_grid.

    Steps run in the interaction frame (see the module docstring); each
    snapshot is rotated back, so run.states are lab-frame states. The state
    is never renormalized while stepping; snapshots are renormalized copies
    taken only while the accumulated drift is inside config.norm_tolerance,
    past which IntegrationError is raised. Snapshots with more than
    LEAK_TOLERANCE of population in the top Fock levels raise one
    UserWarning per run, naming the worst of them.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-d array")
    if t_grid[0] < 0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be non-negative and strictly ascending")
    if config is None:
        config = recommend_integrator_config(p, max(float(t_grid[-1]), 1e-300), dims)
    require_stable_dt(p, config.dt)

    psi = JointState.from_product(
        dims,
        coherent_state(dims.field_dim, p.alpha),
        coherent_state(dims.mirror_dim, p.gamma),
    ).amps.copy()

    frame = InteractionFrame(p, dims)
    rhs = frame.rhs
    k1, k2, k3, k4, stage = (np.empty_like(psi) for _ in range(5))

    run = OracleRun(p, dims, config, t_grid, [])
    dt = config.dt
    t_now = 0.0
    steps_done = 0
    since_check = 0

    def check(vec):
        nrm = math.sqrt(np.vdot(vec, vec).real)
        drift = abs(nrm - 1.0)
        run.norm_drift = max(run.norm_drift, drift)
        if drift > config.norm_tolerance:
            raise IntegrationError(
                f"norm drift {drift:.3g} exceeded {config.norm_tolerance:g} after "
                f"{steps_done} steps; reduce dt below {dt:g}"
            )
        return nrm

    leaky = []  # (leak, t) of every snapshot over LEAK_TOLERANCE

    def snapshot(vec, t_snap):
        nrm = check(vec)
        leak = _leak_fraction(vec, dims)
        run.leak_max = max(run.leak_max, leak)
        if leak > LEAK_TOLERANCE:
            leaky.append((leak, t_snap))
        lab = frame.to_lab(t_snap, vec)
        lab /= nrm
        run.states.append(JointState(dims, lab, meta={"t": t_snap, "norm_drift": abs(nrm - 1.0)}))

    for t_target in t_grid:
        span = t_target - t_now
        if span > 0:
            n_sub = max(1, math.ceil(span / dt - 1e-9))
            h = span / n_sub
            for _ in range(n_sub):
                rhs(t_now, psi, k1)
                np.multiply(k1, 0.5 * h, out=stage)
                stage += psi
                rhs(t_now + 0.5 * h, stage, k2)
                np.multiply(k2, 0.5 * h, out=stage)
                stage += psi
                rhs(t_now + 0.5 * h, stage, k3)
                np.multiply(k3, h, out=stage)
                stage += psi
                rhs(t_now + h, stage, k4)
                # psi += (h/6) (k1 + 2 k2 + 2 k3 + k4), reusing k2 as scratch
                k2 += k3
                k2 *= 2.0
                k2 += k1
                k2 += k4
                k2 *= h / 6.0
                psi += k2
                t_now += h
                steps_done += 1
                since_check += 1
                if since_check >= config.norm_check_every:
                    since_check = 0
                    check(psi)
            t_now = t_target
        snapshot(psi, float(t_target))
    run.n_steps = steps_done
    if leaky:
        leak, t_leak = max(leaky)
        warnings.warn(
            f"population {leak:.3g} in the top 3 Fock levels at t={t_leak:g} "
            f"(worst of {len(leaky)} of {len(t_grid)} snapshots over {LEAK_TOLERANCE:g}); "
            f"increase dims beyond ({dims.field_dim}, {dims.mirror_dim})",
            stacklevel=2,
        )
    return run


def _marginal_probs(state: JointState):
    prob = np.abs(state.as_matrix()) ** 2
    return prob.sum(axis=1), prob.sum(axis=0)


def observables_numeric(run: OracleRun) -> dict:
    """Per-snapshot observables as {name: ObservableSeries}, provenance "numeric".

    Keys: photon_avg, phonon_avg, mandel_field, mandel_mirror,
    purity_mirror, linear_entropy_mirror.
    """
    n_t = len(run.states)
    cols = {
        name: np.empty(n_t)
        for name in (
            "photon_avg",
            "phonon_avg",
            "mandel_field",
            "mandel_mirror",
            "purity_mirror",
            "linear_entropy_mirror",
        )
    }
    ks = np.arange(run.dims.field_dim, dtype=float)
    ms = np.arange(run.dims.mirror_dim, dtype=float)
    # Blocks of mirror levels over which the field Gram is summed: a product
    # big enough for OpenBLAS to thread waits on waking a BLAS thread, which
    # took up to 0.4 s per run when the other core was busy.
    n_blocks = -(-run.dims.field_dim ** 2 * run.dims.mirror_dim // _SERIAL_GEMM_SIZE)
    edges = np.linspace(0, run.dims.mirror_dim, n_blocks + 1).astype(int)
    blocks = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
    for i, state in enumerate(run.states):
        pk, pm = _marginal_probs(state)
        n1 = float(pk @ ks)
        n2 = float(pk @ ks ** 2)
        m1 = float(pm @ ms)
        m2 = float(pm @ ms ** 2)
        cols["photon_avg"][i] = n1
        cols["phonon_avg"][i] = m1
        # Mandel parameter as variance over mean: 1 on a coherent state.
        cols["mandel_field"][i] = (n2 - n1 ** 2) / n1 if n1 > 0 else 1.0
        cols["mandel_mirror"][i] = (m2 - m1 ** 2) / m1 if m1 > 0 else 1.0
        # Both reductions of a pure state share their nonzero spectrum, so
        # Tr[rho_m^2] = Tr[rho_f^2]; the field matrix is the smaller one
        # (30 x 30 against 308 x 308 at the strong-coupling dims).
        psi = state.as_matrix()
        psi_c = psi.conj()
        rho_f = psi[:, blocks[0]] @ psi_c[:, blocks[0]].T
        for block in blocks[1:]:
            rho_f += psi[:, block] @ psi_c[:, block].T
        purity = float(np.sum(np.abs(rho_f) ** 2))
        cols["purity_mirror"][i] = purity
        cols["linear_entropy_mirror"][i] = 1.0 - purity
    return {
        name: ObservableSeries(run.t, col, name, "numeric")
        for name, col in cols.items()
    }
