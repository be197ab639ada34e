"""Brute-force Schrodinger evolution of the full driven model.

No approximation beyond Fock truncation: the joint Hamiltonian

    H(t) = H0 + V(t),   H0 = omega_c n + omega_m N,
    V(t) = - G0 n (b + b^dagger) + drive_amp cos(omega_p t) (a + a^dagger)

is integrated with classical fixed-step RK4 in the interaction frame of
H0, psi_I = exp(i H0 t) psi. There H0 drops out, and

    H_I(t) = exp(i H0 t) V(t) exp(-i H0 t) = sum_terms f(t) X + conj(f(t)) X^dagger

is a list of two terms, each one band X of ladder factors above the
diagonal of the field-major index i = k * mirror_dim + m, times a
closed-form scalar f(t):

    coupling  offset +1           row -G0 (k x sqrt(m))   f = exp(-i omega_m t)
    drive     offset +mirror_dim  row sqrt(k) x 1         f = drive_amp cos(omega_p t) exp(-i omega_c t)

`interaction_terms` returns them; `InteractionFrame` lays each term and
its adjoint out as band rows, rescales them in place at each new RK4 stage
time and applies them with one numpy multiply per band. Every snapshot is
rotated back to the lab frame with the diagonal phase exp(-i H0 t), so
callers only ever see lab-frame states. Everything else in the package is
measured against this.

The band kernel reads the state from a buffer with `pad` = max|offset|
zeros on each side of it (`InteractionFrame.padded`). Each band's row is
aligned to the output index, out[i] += row[i] * psi[i + offset], so every
band is one elementwise product of its row with a shifted slice of the
buffer; the guard zeros stand in for the amplitudes past either end of
the truncated space. The stepper keeps its state and its stage vector in
such buffers and writes only their interiors, so no stage copies the state
or zero-fills a result.

RK4 applied to -i H_I keeps |R(-i theta)|^2 = 1 - theta^6/72 + O(theta^8)
of each eigen-direction per step, theta = lambda dt, so a state loses
amplitude at dt^6 <H_I(t)^6>/144 per step, and the norm monitor sees the sum
of that over the run. The recommended step size is solved from that sum,
with <H_I^6> averaged over the run and bounded from the coherent statistics
of the initial state (`mean_interaction_scale`). Only the surviving coupling
and drive terms enter; the free energies omega_c k and omega_m m, which
dominate the lab-frame spectrum, do not. The norm monitor backstops the
estimate.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import IntegrationError
from .fock import FockDims, JointState, coherent_amplitudes, coherent_state
from .postproc import ObservableSeries
from .system import SystemParams

DEFAULT_NORM_TOLERANCE = 1e-6
DEFAULT_NORM_CHECK_EVERY = 1000
LEAK_TOLERANCE = 1e-6
# Resolve the fastest phase of H_I(t) with at least this many steps/period.
MIN_STEPS_PER_FAST_PERIOD = 40
# Midpoint nodes per period, and per remainder, in the step model's time averages.
_PHASE_NODES = 64
# OpenBLAS runs a GEMM with m * n * k at most this on the calling thread.
_SERIAL_GEMM_SIZE = 65536


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    norm_check_every: int = DEFAULT_NORM_CHECK_EVERY
    norm_tolerance: float = DEFAULT_NORM_TOLERANCE

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if self.norm_check_every < 1:
            raise ValueError("norm_check_every must be >= 1")
        if self.norm_tolerance <= 0:
            raise ValueError("norm_tolerance must be positive")


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


def _fastest_phase(p: SystemParams) -> tuple:
    """(name, angular frequency) of the fastest phase in H_I(t).

    The coupling bands turn at omega_m; the drive bands carry cos(omega_p t)
    exp(-i omega_c t), so up to omega_c + omega_p. Undriven, only omega_m is left.
    """
    if p.drive_amp == 0.0 or p.omega_m >= p.omega_c + p.omega_p:
        return "omega_m", p.omega_m
    return "omega_c + omega_p", p.omega_c + p.omega_p


def max_stable_dt(p: SystemParams) -> float:
    """Hard cap: resolve the fastest phase of H_I(t), whatever the amplitudes."""
    return 2.0 * math.pi / (MIN_STEPS_PER_FAST_PERIOD * _fastest_phase(p)[1])


def substeps(t_grid, dt: float) -> list:
    """RK4 steps evolve_numeric takes to reach each sample from the one before.

    The first sample is reached from t = 0. Each interval is cut into the
    fewest equal steps no longer than dt, so the total exceeds t_end / dt
    by up to one step per sample.
    """
    spans = np.diff(np.asarray(t_grid, dtype=float), prepend=0.0)
    steps = np.where(spans > 0, np.maximum(1, np.ceil(spans / dt - 1e-9)), 0)
    return steps.astype(int).tolist()


def require_stable_dt(p: SystemParams, dt: float) -> None:
    """Raise ValueError when dt exceeds max_stable_dt(p)."""
    cap = max_stable_dt(p)
    if dt > cap * (1 + 1e-12):
        name, omega = _fastest_phase(p)
        raise ValueError(
            f"dt {dt:g} does not resolve the fastest period; need dt <= "
            f"max_stable_dt = {cap:g} s ({MIN_STEPS_PER_FAST_PERIOD} steps per period of "
            f"{name} = {omega:g} rad/s)"
        )


def _gaussian_sixth_moment(mu):
    """E[x^6] of a unit-variance Gaussian of mean mu, as a coherent-state quadrature has."""
    mu2 = mu * mu
    return ((mu2 + 15.0) * mu2 + 45.0) * mu2 + 15.0


def _phase_mean(f, x_end: float):
    """Mean of a pi-periodic f(x) over [0, x_end], along the last axis of f's result.

    Whole periods and the remainder each take the midpoint rule: exact for
    cos^6 over a period, and within about 1e-4 for powers of |sin|, which is
    plenty for a step-size bound.
    """
    if x_end <= 0:
        return f(np.zeros(1))[..., 0]
    periods, rest = divmod(x_end, math.pi)
    u = (np.arange(_PHASE_NODES) + 0.5) / _PHASE_NODES
    whole = f(math.pi * u).mean(axis=-1)
    part = f(rest * u).mean(axis=-1)
    return (periods * math.pi * whole + rest * part) / x_end


def mean_interaction_scale(p: SystemParams, t_total: float, dims: FockDims) -> float:
    """Bound on (mean over [0, t_total] of <H_I(t)^6>)^(1/6) along the run.

    The two terms of H_I are bounded apart and added (Minkowski's inequality
    in L^6 over time and state). Each is a rate times a quadrature
    x = c exp(-i phi) + c^dagger exp(i phi) of one mode, which on a coherent
    state of amplitude beta is a unit-variance Gaussian of mean at most
    2|beta|, with sixth moment M6(2|beta|) (`_gaussian_sixth_moment`):

        drive     drive_amp (mean_t cos^6(omega_p t))^(1/6) M6(2a')^(1/6)
        coupling  G0 (sum_k P_k k^6 mean_t M6(2(|gamma| + 2 g k |sin(omega_m t/2)|)))^(1/6)

    where a' = |alpha| + drive_growth bounds the field amplitude, P_k is
    Poisson(a'^2) with the tail past the truncation put on its top level,
    and |gamma| + 2 g k |sin(omega_m t/2)| bounds the mirror amplitude given
    k photons. mean_t cos^6 tends to 5/16 over many pump periods. As the
    terms do not commute, the sum is a model rather than a proven bound;
    the tests hold it against <H_I(t)^6> measured along strong-coupling runs.
    """
    a_field = abs(p.alpha) + drive_growth(p, t_total)
    drive = 0.0
    if p.drive_amp != 0.0:
        cos6 = _phase_mean(lambda y: np.cos(y) ** 6, p.omega_p * t_total)
        drive = p.drive_amp * (cos6 * _gaussian_sixth_moment(2.0 * a_field)) ** (1.0 / 6.0)
    coupling = 0.0
    if p.g0 != 0.0:
        k = np.arange(dims.field_dim, dtype=float)
        amps, tail = coherent_amplitudes(dims.field_dim, a_field)
        probs = np.abs(amps) ** 2
        probs[-1] += tail
        mirror = _phase_mean(
            lambda x: _gaussian_sixth_moment(
                2.0 * (abs(p.gamma) + 2.0 * p.g_ratio * np.multiply.outer(k, np.abs(np.sin(x))))
            ),
            0.5 * p.omega_m * t_total,
        )
        coupling = p.g0 * float(probs @ (k ** 6 * mirror)) ** (1.0 / 6.0)
    return drive + coupling


def recommend_integrator_config(
    p: SystemParams,
    t_total: float,
    dims: FockDims,
    norm_tolerance: float = DEFAULT_NORM_TOLERANCE,
) -> IntegratorConfig:
    """Step size whose monitored norm drift stays under norm_tolerance/2.

    The stepper integrates in the interaction frame of H0 = omega_c n +
    omega_m N, where the generator is H_I(t) = exp(i H0 t) V(t) exp(-i H0 t)
    and only the coupling and drive bands survive. One RK4 step keeps
    1 - theta^6/72 of the squared norm of an eigen-direction, theta = lambda
    dt, so the state's amplitude falls by dt^6 <H_I(t)^6>/144 per step. The
    norm monitor sees the sum over the run,

        drift ~ (dt^5 / 144) integral_0^t_total <H_I(t)^6> dt
              = (dt^5 / 144) t_total lambda_bar^6,

    with lambda_bar = `mean_interaction_scale`, a bound on the time-averaged
    sixth moment from the coherent statistics of the initial state. Setting
    drift = norm_tolerance/2 gives dt = (72 norm_tolerance /
    (t_total lambda_bar^6))^(1/5); the half is slack for what the model
    leaves out, such as the change of H_I(t) within a step. The result is capped by
    max_stable_dt, which resolves the fastest phase of H_I(t).
    """
    if t_total <= 0:
        raise ValueError("t_total must be positive")
    lam = mean_interaction_scale(p, t_total, dims)
    cap = max_stable_dt(p)
    if lam <= 0:
        return IntegratorConfig(dt=cap, norm_tolerance=norm_tolerance)
    dt_norm = (72.0 * norm_tolerance / (t_total * lam ** 6)) ** 0.2
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
    step_max: float = 0.0  # the longest RK4 step taken; config.dt only caps it


class BandTerm(NamedTuple):
    """One term f(t) X + conj(f(t)) X^dagger of H_I(t), X on one band above the diagonal.

    `row` holds the band of X by column: entry j sits at (j - offset, j)
    and multiplies psi[j]. `factor` is the closed-form scalar f(t).
    """

    offset: int
    row: np.ndarray
    factor: Callable[[float], complex]


def interaction_terms(p: SystemParams, dims: FockDims) -> tuple:
    """The coupling and drive terms of H_I(t), as tabled in the module docstring.

    A term with zero amplitude (g = 0, or no drive) is left out, so its
    bands are not paid for.
    """
    k = np.arange(dims.field_dim, dtype=float)
    m = np.arange(dims.mirror_dim, dtype=float)
    terms = []
    if p.g0 != 0.0:
        terms.append(BandTerm(
            1, -p.g0 * np.kron(k, np.sqrt(m)), lambda t: cmath.exp(-1j * p.omega_m * t)
        ))
    if p.drive_amp != 0.0:
        terms.append(BandTerm(
            dims.mirror_dim,
            np.kron(np.sqrt(k), np.ones(dims.mirror_dim)),
            lambda t: p.drive_amp * math.cos(p.omega_p * t) * cmath.exp(-1j * p.omega_c * t),
        ))
    return tuple(terms)


class InteractionFrame:
    """The generator -i H_I(t) of psi_I = exp(i H0 t) psi, as a band kernel.

    H_I(t) is the sum of f(t) X + conj(f(t)) X^dagger over
    `interaction_terms`. A term's row sits on band +offset under -i f(t);
    its adjoint is the same (real) row on band -offset under -i conj(f(t)),
    so H_I is Hermitian by construction. `offsets` lists the bands in
    ascending order, adjoints first. Each band's row is stored aligned to
    the output index,

        out[i] = sum_b row_b[i] * psi[i + offset_b],

    and rescaled in place whenever the stage time changes.

    `rhs` reads psi from a buffer holding it between `pad` = max|offset|
    zeros on each side, made by `padded`. A shifted slice of that buffer is
    then psi[i + offset] for every output index i, zeros past either end of
    the truncated space included, so each band costs one elementwise
    product with no bounds to clip and no zeroed copy of psi.
    """

    def __init__(self, p: SystemParams, dims: FockDims):
        self._terms = interaction_terms(p, dims)
        n = dims.joint
        self._p = p
        self._field_levels = np.arange(dims.field_dim, dtype=float)
        self._mirror_levels = np.arange(dims.mirror_dim, dtype=float)
        adjoints = self._terms[::-1]
        self.offsets = (tuple(-term.offset for term in adjoints)
                        + tuple(term.offset for term in self._terms))
        self.pad = max(self.offsets, default=0)
        # The adjoint entry at (i, i - offset) is the term's entry at
        # (i - offset, i), row[i]; the term's own entry at (i, i + offset)
        # is row[i + offset]. Rows vanish on their first `offset` entries.
        rows = [np.concatenate((np.zeros(term.offset), term.row[term.offset:]))
                for term in adjoints] + [
                np.concatenate((term.row[term.offset:], np.zeros(term.offset)))
                for term in self._terms]
        self._base = np.array(rows, dtype=np.complex128).reshape(len(self.offsets), n)
        self._scale = np.empty((len(self.offsets), 1), dtype=np.complex128)
        self._rows = np.empty_like(self._base)
        self._bands = [(row, self.pad + offset, self.pad + offset + n)
                       for row, offset in zip(self._rows, self.offsets)]
        self._scratch = np.empty(n, dtype=np.complex128)
        self._t = None

    def padded(self, vec: np.ndarray) -> tuple:
        """(buffer, view): vec copied between `pad` zeros on each side, and its interior.

        The buffer is what `rhs` reads. Writes through the view leave the
        guard zeros intact, so the buffer stays a valid `rhs` input.
        """
        n = vec.shape[0]
        buf = np.zeros(n + 2 * self.pad, dtype=np.complex128)
        view = buf[self.pad:self.pad + n]
        view[:] = vec
        return buf, view

    def _refresh(self, t: float) -> None:
        # Folding -i into the rows makes each band one multiply.
        n_terms = len(self._terms)
        for j, term in enumerate(self._terms):
            f = term.factor(t)
            self._scale[n_terms + j, 0] = -1j * f
            self._scale[n_terms - 1 - j, 0] = -1j * f.conjugate()
        np.multiply(self._base, self._scale, out=self._rows)
        self._t = t

    def rhs(self, t: float, padded: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = -i H_I(t) psi_I, psi_I read from a buffer made by `padded`.

        The first band is written into `out`, each other one through a
        scratch vector added to it; the rows are rescaled only when t
        changes.
        """
        if t != self._t:
            self._refresh(t)
        if not self._bands:
            out.fill(0)
            return out
        (row, lo, hi), *rest = self._bands
        np.multiply(row, padded[lo:hi], out=out)
        scratch = self._scratch
        for row, lo, hi in rest:
            np.multiply(row, padded[lo:hi], out=scratch)
            out += scratch
        return out

    def to_lab(self, t: float, vec: np.ndarray) -> np.ndarray:
        """psi = exp(-i H0 t) psi_I; the phase factors into field times mirror."""
        phase = np.multiply.outer(
            np.exp(-1j * self._p.omega_c * t * self._field_levels),
            np.exp(-1j * self._p.omega_m * t * self._mirror_levels),
        )
        return vec * phase.ravel()


def _leak_fractions(psi: np.ndarray, dims: FockDims) -> tuple:
    """Population in the top levels of the field and of the mirror.

    Checks the top 3 levels, but never more than dim - 1 of an axis so a
    deliberately tiny subsystem does not count its ground state as leakage.
    """
    prob = np.abs(psi.reshape(dims.field_dim, dims.mirror_dim)) ** 2
    kf = min(3, dims.field_dim - 1)
    km = min(3, dims.mirror_dim - 1)
    return float(prob[-kf:, :].sum()), float(prob[:, -km:].sum())


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
    LEAK_TOLERANCE of population in the top Fock levels of a subsystem
    raise one UserWarning per run, naming each such subsystem and its worst
    snapshot; run.leak_max is the largest leak of either subsystem.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-d array")
    if t_grid[0] < 0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be non-negative and strictly ascending")
    if config is None:
        config = recommend_integrator_config(p, max(float(t_grid[-1]), 1e-300), dims)
    require_stable_dt(p, config.dt)

    psi0 = JointState.from_product(
        dims,
        coherent_state(dims.field_dim, p.alpha),
        coherent_state(dims.mirror_dim, p.gamma),
    ).amps

    frame = InteractionFrame(p, dims)
    rhs = frame.rhs
    # rhs reads psi and stage from their padded buffers; the steps below
    # write only the interior views.
    psi_pad, psi = frame.padded(psi0)
    stage_pad, stage = frame.padded(psi0)
    k1, k2, k3, k4 = (np.empty_like(psi) for _ in range(4))

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

    leaky = {"field": [], "mirror": []}  # (leak, t) of each snapshot over LEAK_TOLERANCE

    def snapshot(vec, t_snap):
        nrm = check(vec)
        for found, leak in zip(leaky.values(), _leak_fractions(vec, dims)):
            run.leak_max = max(run.leak_max, leak)
            if leak > LEAK_TOLERANCE:
                found.append((leak, t_snap))
        lab = frame.to_lab(t_snap, vec)
        lab /= nrm
        run.states.append(JointState(dims, lab, meta={"t": t_snap, "norm_drift": abs(nrm - 1.0)}))

    for t_target, n_sub in zip(t_grid, substeps(t_grid, dt)):
        if n_sub:
            h = (t_target - t_now) / n_sub
            run.step_max = max(run.step_max, h)
            for _ in range(n_sub):
                rhs(t_now, psi_pad, k1)
                np.multiply(k1, 0.5 * h, out=stage)
                stage += psi
                rhs(t_now + 0.5 * h, stage_pad, k2)
                np.multiply(k2, 0.5 * h, out=stage)
                stage += psi
                rhs(t_now + 0.5 * h, stage_pad, k3)
                np.multiply(k3, h, out=stage)
                stage += psi
                rhs(t_now + h, stage_pad, k4)
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
    leaks = []
    for (subsystem, found), dim in zip(leaky.items(), (dims.field_dim, dims.mirror_dim)):
        if found:
            leak, t_leak = max(found)
            leaks.append(
                f"population {leak:.3g} in the top 3 {subsystem} Fock levels at t={t_leak:g} "
                f"(worst of {len(found)} of {len(t_grid)} snapshots over {LEAK_TOLERANCE:g}); "
                f"increase {subsystem}_dim beyond {dim}"
            )
    if leaks:
        warnings.warn("; ".join(leaks), stacklevel=2)
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
