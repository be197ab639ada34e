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
time and applies them with one numpy multiply per band. Everything else in
the package is measured against this.

The run takes `step_count` equal steps over [0, t_end], on its own grid,
whatever the sample times. A sample inside a step is read from RK4's cubic
continuous extension with that step's own stages (Hairer, Norsett & Wanner,
Solving ODEs I, II.6),

    psi(t + theta h) = psi + h [b1 k1 + b2 (k2 + k3) + b4 k4],
    b1 = theta - 3 theta^2/2 + 2 theta^3/3,  b2 = theta^2 - 2 theta^3/3,
    b4 = -theta^2/2 + 2 theta^3/3,

which at theta = 1 is the step itself. Each sample is reduced as it is
taken, in the interaction frame (`reduce_sample`): exp(-i H0 t) is a
diagonal phase on each subsystem, so |psi_I|^2, its marginals and the
purity of either reduction are the lab-frame values. Only a run asked to
keep its states rotates its samples back to the lab frame.

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
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import IntegrationError
from .fock import FockDims, JointState, coherent_amplitudes, coherent_state
from .postproc import ObservableSeries
from .system import SystemParams

DEFAULT_NORM_TOLERANCE = 1e-6
# RK4 steps between norm checks; snapshots check the norm too.
NORM_CHECK_EVERY = 1000
LEAK_TOLERANCE = 1e-6
# Resolve the fastest phase of H_I(t) with at least this many steps/period.
MIN_STEPS_PER_FAST_PERIOD = 40
# Midpoint nodes per period, and per remainder, in the step model's time averages.
_PHASE_NODES = 64
# OpenBLAS runs a GEMM with m * n * k at most this on the calling thread.
_SERIAL_GEMM_SIZE = 65536
# Joint-size vectors evolve_numeric works in: the padded state and stage,
# k1..k4, the dense sample and its scratch.
_WORK_VECTORS = 8


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    norm_tolerance: float = DEFAULT_NORM_TOLERANCE

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not (self.norm_tolerance > 0 and math.isfinite(self.norm_tolerance)):
            raise ValueError("norm_tolerance must be positive and finite")


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


def step_count(t_end: float, dt: float) -> int:
    """Equal RK4 steps evolve_numeric takes over [0, t_end].

    The fewest N whose step t_end / N is at most dt as computed, so that
    the step taken never exceeds dt by a rounding: t_end / dt may round up
    past an integer N whose t_end / N is still 1 ulp over dt.
    """
    if t_end <= 0:
        return 0
    n = max(1, math.ceil(t_end / dt))
    while n > 1 and t_end / (n - 1) <= dt:
        n -= 1
    while t_end / n > dt:
        n += 1
    return n


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


def state_memory_mb(dims: FockDims, n_samples: int, keep_states: bool) -> float:
    """MB of the buffers an evolve_numeric run holds: its working vectors
    plus, per sample, the kept state, or P(k) and P(m)."""
    per_sample = dims.joint * 16 if keep_states else (dims.field_dim + dims.mirror_dim) * 8
    return (_WORK_VECTORS * dims.joint * 16 + n_samples * per_sample) / 1e6


@dataclass
class OracleRun:
    """The reductions of each sample on the requested grid, plus integration diagnostics.

    Row i of `field_probs` (P(k)) and `mirror_probs` (P(m)) belongs to
    t[i], normalized; `norms` is the unnormalized state's norm and `purity`
    Tr[rho_m^2] = Tr[rho_f^2], both as `reduce_sample` gives them. `states`
    holds the lab-frame states, normalized, only when the run was asked to
    keep them.
    """

    params: SystemParams
    dims: FockDims
    config: IntegratorConfig
    t: np.ndarray
    field_probs: np.ndarray
    mirror_probs: np.ndarray
    norms: np.ndarray
    purity: np.ndarray
    states: list = field(default_factory=list)
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


class SampleReduction(NamedTuple):
    """What a run takes of one sample; the fields are as in OracleRun, and
    `leaks` is the population of the top field and mirror levels, which
    feeds leak_max and the leak warning."""

    field_probs: np.ndarray
    mirror_probs: np.ndarray
    norm: float
    leaks: tuple
    purity: float


def gram_blocks(dims: FockDims) -> list:
    """Slices of mirror levels over which `reduce_sample` sums the field Gram.

    A product big enough for OpenBLAS to thread waits on waking a BLAS
    thread, which took up to 0.4 s per run when the other core was busy;
    each block's product stays under _SERIAL_GEMM_SIZE.
    """
    n_blocks = -(-dims.field_dim ** 2 * dims.mirror_dim // _SERIAL_GEMM_SIZE)
    return [slice(i * dims.mirror_dim // n_blocks, (i + 1) * dims.mirror_dim // n_blocks)
            for i in range(n_blocks)]


def reduce_sample(vec: np.ndarray, dims: FockDims) -> SampleReduction:
    """P(k), P(m), norm, top-level leaks and purity of one unnormalized state.

    The marginals and the purity are those of the normalized state; the
    leaks are the population of the top 3 levels of each subsystem as the
    state stands, never more than dim - 1 of an axis, so a deliberately
    tiny subsystem does not count its ground state as leakage. A state in
    the interaction frame gives the lab-frame values (module docstring).
    Both reductions of a pure state share their nonzero spectrum, so
    Tr[rho_m^2] = Tr[rho_f^2]; the field matrix is the smaller one (30 x 30
    against 308 x 308 at the strong-coupling dims), summed over
    `gram_blocks`.
    """
    psi = vec.reshape(dims.field_dim, dims.mirror_dim)
    psi_c = psi.conj()
    prob = (psi * psi_c).real
    pk = prob.sum(axis=1)
    pm = prob.sum(axis=0)
    norm2 = float(pk.sum())
    kf = min(3, dims.field_dim - 1)
    km = min(3, dims.mirror_dim - 1)
    leaks = (float(pk[-kf:].sum()), float(pm[-km:].sum()))
    first, *rest = gram_blocks(dims)
    rho_f = np.dot(psi[:, first], psi_c[:, first].T)
    for block in rest:
        rho_f += np.dot(psi[:, block], psi_c[:, block].T)
    purity = float(np.vdot(rho_f, rho_f).real) / norm2 ** 2
    return SampleReduction(pk / norm2, pm / norm2, math.sqrt(norm2), leaks, purity)


def evolve_numeric(
    p: SystemParams,
    dims: FockDims,
    t_grid,
    config: IntegratorConfig | None = None,
    keep_states: bool = False,
) -> OracleRun:
    """Integrate from the product of coherent states, sampling at t_grid.

    Takes `step_count(t_grid[-1], config.dt)` equal RK4 steps in the
    interaction frame and reads each sample from the continuous extension
    of the step it falls in (module docstring), reducing it as it is taken
    (`reduce_sample`). With keep_states, run.states also holds each sample
    as a normalized lab-frame JointState. The state is never renormalized
    while stepping; its norm is checked at every sample and every
    NORM_CHECK_EVERY steps, and IntegrationError is raised once the drift
    exceeds config.norm_tolerance. Samples with more than LEAK_TOLERANCE of
    population in the top Fock levels of a subsystem raise one UserWarning
    per run, naming each such subsystem and its worst sample; run.leak_max
    is the largest leak of either subsystem.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-d array")
    if t_grid[0] < 0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be non-negative and strictly ascending")
    t_end = float(t_grid[-1])
    if config is None:
        config = recommend_integrator_config(p, max(t_end, 1e-300), dims)
    require_stable_dt(p, config.dt)

    psi0 = JointState.from_product(
        dims,
        coherent_state(dims.field_dim, p.alpha),
        coherent_state(dims.mirror_dim, p.gamma),
    ).amps

    frame = InteractionFrame(p, dims)
    rhs = frame.rhs
    # rhs reads psi and stage from their padded buffers; the steps below
    # write only the interior views. With the six below, these are the
    # _WORK_VECTORS that state_memory_mb counts.
    psi_pad, psi = frame.padded(psi0)
    stage_pad, stage = frame.padded(psi0)
    k1, k2, k3, k4, dense, scratch = (np.empty_like(psi) for _ in range(6))

    n_t = t_grid.size
    run = OracleRun(
        p, dims, config, t_grid,
        field_probs=np.empty((n_t, dims.field_dim)),
        mirror_probs=np.empty((n_t, dims.mirror_dim)),
        norms=np.empty(n_t),
        purity=np.empty(n_t),
    )
    dt = config.dt
    n_steps = step_count(t_end, dt)
    h = t_end / n_steps if n_steps else 0.0
    run.n_steps = n_steps
    run.step_max = h
    # Sample i is read from step owner[i] at theta[i] in (0, 1]: a sample on
    # a step boundary is the end of the step before it. Samples at t = 0
    # are the initial state.
    if n_steps:
        position = t_grid / h
        owner = np.clip(np.ceil(position) - 1, 0, n_steps - 1).astype(int)
        theta = (position - owner).tolist()
        owner = owner.tolist()
    steps_done = 0

    def check(nrm):
        drift = abs(nrm - 1.0)
        run.norm_drift = max(run.norm_drift, drift)
        if drift > config.norm_tolerance:
            raise IntegrationError(
                f"norm drift {drift:.3g} exceeded {config.norm_tolerance:g} after "
                f"{steps_done} steps; reduce dt below {dt:g}"
            )

    leaky = {"field": [], "mirror": []}  # (leak, t) of each sample over LEAK_TOLERANCE

    def sample(i, vec):
        red = reduce_sample(vec, dims)
        check(red.norm)
        t_i = float(t_grid[i])
        run.field_probs[i] = red.field_probs
        run.mirror_probs[i] = red.mirror_probs
        run.norms[i] = red.norm
        run.purity[i] = red.purity
        for found, leak in zip(leaky.values(), red.leaks):
            run.leak_max = max(run.leak_max, leak)
            if leak > LEAK_TOLERANCE:
                found.append((leak, t_i))
        if keep_states:
            lab = frame.to_lab(t_i, vec)
            lab /= red.norm
            run.states.append(JointState(dims, lab))

    i = 0
    while i < n_t and t_grid[i] == 0.0:
        sample(i, psi)
        i += 1
    take_at = owner[i] if i < n_t else -1
    for j in range(n_steps):
        t_now = j * h
        t_next = (j + 1) * h
        rhs(t_now, psi_pad, k1)
        np.multiply(k1, 0.5 * h, out=stage)
        stage += psi
        rhs(t_now + 0.5 * h, stage_pad, k2)
        np.multiply(k2, 0.5 * h, out=stage)
        stage += psi
        rhs(t_now + 0.5 * h, stage_pad, k3)
        np.multiply(k3, h, out=stage)
        stage += psi
        rhs(t_next, stage_pad, k4)
        while take_at == j:
            # dense = psi + h [b1 k1 + b2 (k2 + k3) + b4 k4]
            th = theta[i]
            th2, th3 = th * th, th * th * th
            np.add(k2, k3, out=dense)
            dense *= h * (th2 - 2.0 * th3 / 3.0)
            np.multiply(k1, h * (th - 1.5 * th2 + 2.0 * th3 / 3.0), out=scratch)
            dense += scratch
            np.multiply(k4, h * (-0.5 * th2 + 2.0 * th3 / 3.0), out=scratch)
            dense += scratch
            dense += psi
            sample(i, dense)
            i += 1
            take_at = owner[i] if i < n_t else -1
        # psi += (h/6) (k1 + 2 k2 + 2 k3 + k4), reusing k2 as scratch
        k2 += k3
        k2 *= 2.0
        k2 += k1
        k2 += k4
        k2 *= h / 6.0
        psi += k2
        steps_done = j + 1
        if steps_done % NORM_CHECK_EVERY == 0:
            check(math.sqrt(np.vdot(psi, psi).real))
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


def observables_numeric(run: OracleRun) -> dict:
    """Per-sample observables as {name: ObservableSeries}, provenance "numeric",
    from the marginals and purity the run recorded.

    Keys: photon_avg, phonon_avg, mandel_field, mandel_mirror,
    purity_mirror, linear_entropy_mirror.
    """
    ks = np.arange(run.dims.field_dim, dtype=float)
    ms = np.arange(run.dims.mirror_dim, dtype=float)
    # Elementwise sums, not matrix products, so that no BLAS thread wakes.
    n1 = (run.field_probs * ks).sum(axis=1)
    n2 = (run.field_probs * ks ** 2).sum(axis=1)
    m1 = (run.mirror_probs * ms).sum(axis=1)
    m2 = (run.mirror_probs * ms ** 2).sum(axis=1)

    def mandel(mean, second):
        # Variance over mean: 1 on a coherent state, and where the mean vanishes.
        q = np.ones_like(mean)
        np.divide(second - mean ** 2, mean, out=q, where=mean > 0)
        return q

    cols = {
        "photon_avg": n1,
        "phonon_avg": m1,
        "mandel_field": mandel(n1, n2),
        "mandel_mirror": mandel(m1, m2),
        "purity_mirror": run.purity.copy(),
        "linear_entropy_mirror": 1.0 - run.purity,
    }
    return {
        name: ObservableSeries(run.t, col, name, "numeric")
        for name, col in cols.items()
    }
