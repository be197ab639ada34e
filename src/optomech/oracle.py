"""Brute-force Schrodinger evolution of the full driven model.

No approximation beyond Fock truncation: the joint Hamiltonian

    H(t) = H0 + V(t),   H0 = omega_c n + omega_m N,
    V(t) = - G0 n (b + b^dagger) + drive_amp cos(omega_p t) (a + a^dagger)

is integrated with classical fixed-step RK4 in the interaction frame of
H0, displaced by the drive's classical field response (Aspelmeyer,
Kippenberg & Marquardt, Rev. Mod. Phys. 86, 1391 (2014)):

    phi = D(xi(t))^dagger psi_I,   psi_I = exp(i H0 t) psi,
    xi(t) = -(drive_amp/2) [(exp(i(omega_c + omega_p) t) - 1)/(omega_c + omega_p)
                            + (exp(i(omega_c - omega_p) t) - 1)/(omega_c - omega_p)],

with the second term i t on resonance (`classical_field`), so xi(0) = 0
and phi(0) = psi(0). The forcing term, linear in a and a^dagger, is then
gone exactly, and no term is dropped: up to a global phase,

    i phi' = H'(t) phi,   H'(t) = -G0 (a^dagger + conj(xi))(a + xi) x B(t),
    B(t) = exp(-i omega_m t) b + exp(i omega_m t) b^dagger.

`DisplacedFrame` applies H' as a mirror bidiagonal and then a field
tridiagonal, 8 vector passes per RK4 stage. Undriven is just xi = 0, where
F = n and the same kernel applies H_I's coupling -G0 n x B(t). With g = 0,
H' = 0 and a run is exact at any step. Everything else in the package is
measured against this.

The run takes `step_count` equal steps over [0, t_end], on its own grid,
whatever the sample times. A sample inside a step is read from RK4's cubic
continuous extension with that step's own stages (Hairer, Norsett & Wanner,
Solving ODEs I, II.6),

    phi(t + theta h) = phi + h [b1 k1 + b2 (k2 + k3) + b4 k4],
    b1 = theta - 3 theta^2/2 + 2 theta^3/3,  b2 = theta^2 - 2 theta^3/3,
    b4 = -theta^2/2 + 2 theta^3/3,

which at theta = 1 is the step itself. The weights h (b1, b2, b2, b4) of
every sample are computed once, and the samples a step owns are built
together as one product of their weight rows with the step's stacked
k1..k4, plus phi, and reduced as one block (`reduce_block`) of at most
_BLOCK_AMPLITUDES amplitudes or one sample. Samples are never held across
steps.

exp(-i H0 t) D(xi) acts on the field alone, apart from a diagonal mirror
phase, so the mirror moments <N> and <N^2> and the purity are those of
phi. The lab field is D(xi) phi, so its moments follow from
D^dagger a D = a + xi:

    <n>_lab = <(a^dagger + conj xi)(a + xi)>,
    <n^2>_lab = <(a^dagger + conj xi)^2 (a + xi)^2> + <n>_lab,

normal-ordered moments <a^dagger^p a^q>, p, q <= 2, of phi's normalized
field Gram matrix rho_f, each a weighted sum over one of its diagonals
0, +1 and +2. No truncation enters after the displacement, so these are
the exact lab moments of the state that is integrated. The leaks are
measured on phi, the basis that is integrated. A run asked to keep its
states maps each sample to the lab frame, exp(-i H0 t) D phi with D's
exact field block (`displacement_block`), renormalized on the truncated
space.

RK4 applied to -i H' keeps |R(-i theta)|^2 = 1 - theta^6/72 + O(theta^8)
of each eigen-direction per step, theta = lambda dt, so a state loses
amplitude at dt^6 <H'(t)^6>/144 per step, and the norm monitor sees the
sum of that over the run: on fig7_8 red at 60,295 steps, 1.36e-8 measured
against 1.44e-8 from the <H'^6> measured along the run. The recommended
step size is solved from that sum, with <H'^6> averaged over the run and
modeled from the coherent statistics of the initial state
(`mean_interaction_scale`). Only the coupling enters: the drive has left
H', and the free energies omega_c k and omega_m m, which dominate the
lab-frame spectrum, never enter. The norm monitor backstops the model.
The norm does not see RK4 mis-integrating xi's omega_c + omega_p phase,
so `max_stable_dt` still resolves it, at STEPS_PER_PUMP_PERIOD steps per
period (`recommend_integrator_config`).
"""
from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import IntegrationError
from .fock import FockDims, JointState, coherent_amplitudes, coherent_state
from .postproc import ObservableSeries
from .system import SystemParams

DEFAULT_NORM_TOLERANCE = 1e-6
# RK4 steps between norm checks; snapshots check the norm too.
NORM_CHECK_EVERY = 1000
LEAK_TOLERANCE = 1e-6
# Steps per period of omega_m, the phase of B(t), and of omega_c + omega_p,
# the fastest phase of xi(t) (`max_stable_dt`).
MIN_STEPS_PER_FAST_PERIOD = 40
STEPS_PER_PUMP_PERIOD = 12
# Midpoint nodes per period, and per remainder, in the step model's time
# averages; the pump phase, averaged at each beat node, takes fewer.
_PHASE_NODES = 64
_PUMP_NODES = 16
# Amplitudes in one block of samples (256 KB), more only where one sample is.
_BLOCK_AMPLITUDES = 2 ** 14


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


def _phase_limits(p: SystemParams) -> list:
    """(name, angular frequency, steps per period) of each phase of H'(t) the step resolves.

    B turns at omega_m, as the undriven cap has always resolved it; xi(t),
    present only under a drive, turns at up to omega_c + omega_p.
    """
    limits = [("omega_m", p.omega_m, MIN_STEPS_PER_FAST_PERIOD)]
    if p.drive_amp != 0.0:
        limits.append(("omega_c + omega_p", p.omega_c + p.omega_p, STEPS_PER_PUMP_PERIOD))
    return limits


def max_stable_dt(p: SystemParams) -> float:
    """Hard cap: resolve each phase of H'(t), whatever the amplitudes.

    MIN_STEPS_PER_FAST_PERIOD steps per period of omega_m, and under a
    drive STEPS_PER_PUMP_PERIOD steps per period of omega_c + omega_p, the
    fastest phase of xi(t). RK4 integrates a factor exp(i w t) with the
    error of Simpson's rule on its stages, a relative (w h)^4/2880 per
    step: 2.6e-5 at 12 steps per period, 1.3e-4 at 8. The norm monitor
    does not see all of that error, so the count was measured against
    lab-frame runs at a quarter of the parent's steps. On strong_oracle
    (g = 0.33, 0.05 T_m, 30 x 308) the drift is 3.6e-7 at 8 steps per
    period, 1.1e-7 at 10, 2.9e-8 at 12 and 2.1e-8 at 16, and every series
    is within 6e-7 at 12. At weak coupling (fig4, fig5_6) 6 steps would do:
    errors of 1e-7 besides mandel_field's 9.3e-7 (fig4) and 3.5e-6
    (fig5_6), a basis-truncation difference that does not change with dt.
    """
    return min(2.0 * math.pi / (steps * omega) for _, omega, steps in _phase_limits(p))


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
        name, omega, steps = min(_phase_limits(p), key=lambda limit: 1.0 / (limit[1] * limit[2]))
        raise ValueError(
            f"dt {dt:g} does not resolve the fastest period; need dt <= "
            f"max_stable_dt = {cap:g} s ({steps} steps per period of "
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
    """Model of (mean over [0, t_total] of <H'(t)^6>)^(1/6) along the run.

    H' = -G0 (D^dagger n D) x B(t), so <H'^6> is G0^6 <(n x B)^6> on the
    lab state: the lab photon number times a mirror quadrature
    B = b exp(-i omega_m t) + b^dagger exp(i omega_m t), which on a
    coherent state of amplitude beta is a unit-variance Gaussian of mean at
    most 2|beta|, with sixth moment M6(2|beta|) (`_gaussian_sixth_moment`):

        lambda_bar^6 = G0^6 sum_k P_k k^6 mean_t M6(2(|gamma| + 2 g k |sin(omega_m t/2)|))

    |gamma| + 2 g k |sin(omega_m t/2)| bounds the mirror amplitude given
    k photons. P_k is the lab photon statistics with the tail past the
    truncation put on its top level: Poisson(|alpha + xi(t)|^2), exact at
    g = 0, averaged over the beat phase (omega_c - omega_p) t and the
    pump phase (omega_c + omega_p) t of xi, each taken uniform and
    independent of the mechanical phase. Undriven that is Poisson(|alpha|^2)
    at all times; on resonance, where xi grows secularly, it is
    Poisson(a'^2) at the bound a' = |alpha| + drive_growth. The drive
    itself has left H'. As the operators do not commute, this is a model
    rather than a proven bound; the tests hold it against <H'(t)^6>
    measured along strong-coupling runs. Measured on fig7_8 over 5.5 T_m,
    lambda_bar^6 is 22x <H'^6> on red (lambda_bar 5.25e8 rad/s) and
    about 130x on blue (2.30e8); at 22 x 60 over 0.1 T_m, 13x and 7.4x.
    """
    coupling = 0.0
    if p.g0 != 0.0:
        k = np.arange(dims.field_dim, dtype=float)

        def poisson(a_field):
            amps, tail = coherent_amplitudes(dims.field_dim, a_field)
            probs = np.abs(amps) ** 2
            probs[..., -1] += tail
            return probs.T

        if p.drive_amp != 0.0 and p.detuning != 0.0:
            fast = 0.5 * p.drive_amp / (p.omega_c + p.omega_p)
            slow = 0.5 * p.drive_amp / (p.omega_c - p.omega_p)
            turn = 2j * math.copysign(1.0, slow)
            pump = fast * np.exp(2j * math.pi * (np.arange(_PUMP_NODES) + 0.5) / _PUMP_NODES)

            def beat(x):
                centre = p.alpha + fast + slow * (1.0 - np.exp(turn * x))
                return sum(poisson(np.abs(centre - phase)) for phase in pump) / pump.size

            probs = _phase_mean(beat, 0.5 * abs(p.detuning) * t_total)
        else:
            probs = poisson(abs(p.alpha) + drive_growth(p, t_total))
        mirror = _phase_mean(
            lambda x: _gaussian_sixth_moment(
                2.0 * (abs(p.gamma) + 2.0 * p.g_ratio * np.multiply.outer(k, np.abs(np.sin(x))))
            ),
            0.5 * p.omega_m * t_total,
        )
        coupling = p.g0 * float(probs @ (k ** 6 * mirror)) ** (1.0 / 6.0)
    return coupling


def recommend_integrator_config(
    p: SystemParams,
    t_total: float,
    dims: FockDims,
    norm_tolerance: float = DEFAULT_NORM_TOLERANCE,
) -> IntegratorConfig:
    """Step size whose monitored norm drift stays under norm_tolerance/2.

    The stepper integrates phi = D(xi)^dagger exp(i H0 t) psi, where the
    generator is H'(t) = -G0 (a^dagger + conj(xi))(a + xi) x B(t) and
    neither the free energies nor the drive survive. One RK4 step keeps
    1 - theta^6/72 of the squared norm of an eigen-direction, theta =
    lambda dt, so the state's amplitude falls by dt^6 <H'(t)^6>/144 per
    step. The norm monitor sees the sum over the run,

        drift ~ (dt^5 / 144) integral_0^t_total <H'(t)^6> dt
              = (dt^5 / 144) t_total lambda_bar^6,

    with lambda_bar = `mean_interaction_scale`, modeled from the coherent
    statistics of the initial state. With the measured <H'^6> in place of
    the model this sum is the drift: 1.44e-8 predicted against 1.36e-8
    measured on fig7_8 red at 60,295 steps. Setting drift =
    norm_tolerance/2 gives dt = (72 norm_tolerance / (t_total
    lambda_bar^6))^(1/5); the half is slack for what the model leaves out.
    The result is capped by max_stable_dt, which resolves omega_m and
    xi's omega_c + omega_p phase. fig7_8 takes 54,810 (red) and 20,359
    (blue) steps, against 187,233 and 185,132 in the lab interaction frame,
    where the drive term set lambda_bar; the weak presets and strong_oracle
    are held by the cap (fig4 433 and 529, strong_oracle 108).
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
    """The moments of each sample on the requested grid, plus integration diagnostics.

    Entry i of each per-sample array belongs to t[i] and is taken of the
    normalized state, as `reduce_block` gives it: `photons` and
    `photons_sq` are the lab <n> and <n^2>, `phonons` and `phonons_sq`
    <N> and <N^2>, and `purity` Tr[rho_m^2] = Tr[rho_f^2]; `norms` is the
    integrated state's norm. `states` holds the lab-frame states,
    normalized, only when the run was asked to keep them.
    """

    params: SystemParams
    dims: FockDims
    config: IntegratorConfig
    t: np.ndarray
    photons: np.ndarray
    photons_sq: np.ndarray
    phonons: np.ndarray
    phonons_sq: np.ndarray
    norms: np.ndarray
    purity: np.ndarray
    states: list = field(default_factory=list)
    norm_drift: float = 0.0
    leak_max: float = 0.0
    n_steps: int = 0
    step_max: float = 0.0  # the longest RK4 step taken; config.dt only caps it


def classical_field(p: SystemParams, t: float) -> complex:
    """xi(t), the drive's classical field response in the interaction frame, xi(0) = 0.

    xi' = -i drive_amp cos(omega_p t) exp(i omega_c t) removes the drive from
    H_I, so xi = -i (drive_amp/2) [I(omega_c + omega_p) + I(omega_c - omega_p)]
    with I(w) = integral_0^t exp(i w s) ds = t exp(i w t/2) sinc(w t/2),
    which is t on resonance.
    """
    total = 0j
    for w in (p.omega_c + p.omega_p, p.omega_c - p.omega_p):
        half = 0.5 * w * t
        total += t * cmath.exp(1j * half) * (math.sin(half) / half if half else 1.0)
    return -0.5j * p.drive_amp * total


@functools.lru_cache(maxsize=4)
def _laguerre_tables(dim: int) -> tuple:
    """Per-dim constants of `displacement_block`: the recurrence's
    coefficients for n = 0 .. dim - 2, rows over a, and of each entry
    (k, j) of the block the flat index n * dim + a of its l_n^(a) and its sign."""
    a = np.arange(dim, dtype=float)
    n = np.arange(dim - 1, dtype=float)[:, None]
    k, j = np.indices((dim, dim))
    gap = np.abs(k - j)
    sign = np.where((k < j) & (gap % 2 == 1), -1.0, 1.0)
    return (2 * n + 1 + a, np.sqrt(n * (n + a)), 1.0 / np.sqrt((n + 1) * (n + 1 + a)),
            np.minimum(k, j) * dim + gap, sign)


def displacement_block(r, dim: int) -> np.ndarray:
    """<k|D(r)|j> for k, j < dim and real r >= 0, exact: no truncation enters.

    D(xi) = U D(|xi|) U^dagger with U = diag(u^k), u = xi/|xi|, so the
    block of a real displacement carries every case. With x = r^2
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)),

        <k|D(r)|j> = s_kj l_n^(a)(x),   n = min(k, j), a = |k - j|,

    where s_kj = (-1)^a above the diagonal and 1 elsewhere, and
    l_n^(a) = sqrt(n!/(n + a)!) x^(a/2) exp(-x/2) L_n^(a)(x) is a Laguerre
    polynomial normalized to |l| <= 1. l_0^(a) is the Poisson amplitude of
    a (`coherent_amplitudes`), and the three-term Laguerre recurrence in n,
    so normalized, stays within rounding: 5e-14 of a padded matrix
    exponential up to |xi| = 8.5 at dim 150. The column recurrence D|j+1> =
    (a^dagger - conj(xi)) D|j> / sqrt(j + 1) amplifies rounding at high
    levels: 2e-11 at |xi| = 0.87 and dim 100, 6e-4 at |xi| = 2.7 and dim 60.
    Vectorized like `coherent_amplitudes`: an array of r gives shape
    r.shape + (dim, dim).
    """
    r = np.asarray(r, dtype=float)
    x = (r * r)[..., None]
    grow, back, norm, flat, sign = _laguerre_tables(dim)
    ell = np.empty((dim,) + r.shape + (dim,))  # ell[n, ..., a] = l_n^(a)(x)
    ell[0] = coherent_amplitudes(dim, r)[0].real
    # (n + 1) l_(n+1) = (2n + 1 + a - x) l_n - (n + a) l_(n-1), normalized
    for n in range(dim - 1):
        step = grow[n] - x
        step *= ell[n]
        if n:
            step -= back[n] * ell[n - 1]
        np.multiply(step, norm[n], out=ell[n + 1])
    by_sample = np.moveaxis(ell, 0, -2).reshape(r.shape + (dim * dim,))
    block = by_sample[..., flat]
    block *= sign
    return block


class DisplacedFrame:
    """The generator -i H'(t) of phi = D(xi(t))^dagger psi_I, as a band kernel.

    H'(t) = -G0 F(t) x B(t), with F = (a^dagger + conj(xi))(a + xi) =
    n + xi a^dagger + conj(xi) a + |xi|^2 on the field and B = exp(-i
    omega_m t) b + exp(i omega_m t) b^dagger on the mirror. `rhs` applies
    B as two bands at offsets -1 and +1 of the field-major index, then F
    as three bands at offsets -mirror_dim, 0 and +mirror_dim. Undriven,
    xi = 0, so F = n and its two off-diagonal bands are exact zeros.

    Each band's row is stored aligned to the output index,
    out[i] += row[i] * vec[i + offset], so a band is one elementwise product
    with a shifted slice of a buffer holding vec between guard zeros; the
    zeros stand in for the amplitudes past either end of the truncated
    space. `rhs` reads phi from a buffer with one guard zero on each side,
    made by `padded`. The mirror stage writes B phi into the interior of a
    buffer with mirror_dim guard zeros on each side, which the field stage
    reads. At each new stage time b^dagger's row stays its base, b's is
    its base times one scalar, and F's three rows, which carry b^dagger's
    phase, are filled from columns of field_dim entries: one full-length
    product and three fills, where rescaling five rows took five products
    and cost about 15 us more per stage time at 30 x 308.
    """

    def __init__(self, p: SystemParams, dims: FockDims):
        self._p = p
        self._dims = dims
        n, m = dims.joint, dims.mirror_dim
        self.pad = 1
        self._field_levels = np.arange(dims.field_dim, dtype=float)
        self._mirror_levels = np.arange(m, dtype=float)
        # b^dagger reads offset -1 and b offset +1; their rows vanish where
        # the mirror level would leave the truncated space.
        coupling = -p.g0 * np.tile(np.sqrt(self._mirror_levels), dims.field_dim)
        self._lower = np.concatenate((np.zeros(1), coupling[1:])).astype(np.complex128)
        self._upper_base = np.concatenate((coupling[1:], np.zeros(1))).astype(np.complex128)
        self._upper = np.empty(n, dtype=np.complex128)
        self._scratch = np.empty(n, dtype=np.complex128)
        # F's diagonal, a^dagger reading offset -mirror_dim and a
        # +mirror_dim: each row is constant over a field level, so it is
        # filled from a column of field_dim entries.
        levels = self._field_levels[:, None]
        self._field_base = (levels, np.sqrt(levels), np.sqrt(levels + 1.0))
        self._columns = np.empty((3, dims.field_dim, 1), dtype=np.complex128)
        self._partial = self._scratch.reshape(dims.field_dim, m)
        mirrored = np.zeros(n + 2 * m, dtype=np.complex128)
        self._mirrored = mirrored[m:m + n]
        self._field_bands = [(np.empty((dims.field_dim, m), dtype=np.complex128),
                              mirrored[lo:lo + n].reshape(dims.field_dim, m))
                             for lo in (m, 0, 2 * m)]
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
        # -i B = -i conj(phase) (b^dagger + phase^2 b), phase = exp(-i omega_m t).
        # -i conj(phase) goes on F's columns, so b^dagger's row stays its base.
        phase = cmath.exp(-1j * self._p.omega_m * t)
        np.multiply(self._upper_base, phase * phase, out=self._upper)
        xi = classical_field(self._p, t)
        scale = -1j * phase.conjugate()
        levels, root, root_up = self._field_base
        diagonal, below, above = self._columns
        np.multiply(levels + abs(xi) ** 2, scale, out=diagonal)
        np.multiply(root, xi * scale, out=below)
        np.multiply(root_up, xi.conjugate() * scale, out=above)
        for (row, _), column in zip(self._field_bands, self._columns):
            row[...] = column
        self._t = t

    def rhs(self, t: float, padded: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = -i H'(t) phi, phi read from a buffer made by `padded`.

        Each stage writes its first band into its target and adds the
        others through a scratch vector.
        """
        if t != self._t:
            self._refresh(t)
        n = out.shape[0]
        mirrored = self._mirrored
        np.multiply(self._lower, padded[:n], out=mirrored)
        np.multiply(self._upper, padded[2:n + 2], out=self._scratch)
        mirrored += self._scratch
        partial = self._partial
        result = out.reshape(partial.shape)
        (row, shifted), *rest = self._field_bands
        np.multiply(row, shifted, out=result)
        for row, shifted in rest:
            np.multiply(row, shifted, out=partial)
            result += partial
        return out

    def to_lab(self, t: float, vec: np.ndarray, xi: complex) -> np.ndarray:
        """psi = exp(-i H0 t) D(xi) phi, with xi = xi(t) and D's exact field block.

        D(xi) = U D(|xi|) U^dagger, U = diag(u^k), u = xi/|xi|
        (`displacement_block`); exp(-i H0 t) factors into field times mirror
        phases.
        """
        psi = vec.reshape(self._dims.field_dim, self._dims.mirror_dim)
        if xi != 0:
            phases = (xi / abs(xi)) ** self._field_levels
            block = displacement_block(abs(xi), self._dims.field_dim)
            psi = np.dot(block, phases.conj()[:, None] * psi)
            psi *= phases[:, None]
        phase = np.multiply.outer(
            np.exp(-1j * self._p.omega_c * t * self._field_levels),
            np.exp(-1j * self._p.omega_m * t * self._mirror_levels),
        )
        return (psi * phase).ravel()


class BlockReduction(NamedTuple):
    """What a run takes of a block of samples, one row per sample.

    `field_moments` holds phi's normal-ordered moments <a^dagger a>,
    <a^dagger^2 a^2>, <a^dagger>, <a^dagger^2 a> and <a^dagger^2>, which
    `lab_photon_moments` maps to the lab <n> and <n^2>; `leaks` is the
    (field, mirror) population of the top levels, which feeds leak_max and
    the leak warning; the other fields are as in OracleRun.
    """

    field_moments: np.ndarray
    phonons: np.ndarray
    phonons_sq: np.ndarray
    norms: np.ndarray
    leaks: tuple
    purity: np.ndarray


@functools.lru_cache(maxsize=4)
def _reduction_weights(dims: FockDims) -> tuple:
    """Per-dims constants of `reduce_block`.

    The flat indices of diagonals 0, +1 and +2 of a field matrix rho, and
    over them the weights of Tr rho, <a^dagger a>, <a^dagger^2 a^2>,
    <a^dagger>, <a^dagger^2 a>, <a^dagger^2> and the top-3 population:
    Tr[rho a^dagger^p a^q] is the sum over j of sqrt(j!/(j - q)!)
    sqrt((j - q + p)!/(j - q)!) rho[j, j + p - q]. Then, over |psi|^2
    summed over the field, real and imaginary parts apart, the weights
    of the norm, <N>, <N^2> and the top-3 population.
    """
    f, m = dims.field_dim, dims.mirror_dim
    j = np.arange(f, dtype=float)
    up = np.sqrt(j[1:])  # sqrt(j + 1), j = 0 .. f - 2
    index = np.concatenate((j * (f + 1), j[:-1] * (f + 1) + 1, j[:-2] * (f + 1) + 2)).astype(int)
    field_weights = np.zeros((index.size, 7), dtype=np.complex128)
    diagonal, above, above2 = np.split(field_weights, [f, 2 * f - 1])
    diagonal[:, 0] = 1.0
    diagonal[:, 1] = j
    diagonal[:, 2] = j * (j - 1.0)
    diagonal[-min(3, f - 1):, 6] = 1.0
    above[:, 3] = up
    above[:, 4] = j[:-1] * up
    above2[:, 5] = np.sqrt(j[1:-1] * j[2:])
    levels = np.arange(m, dtype=float)
    top = np.zeros(m)
    top[-min(3, m - 1):] = 1.0
    mirror_weights = np.repeat(np.stack((np.ones(m), levels, levels ** 2, top), axis=1), 2, axis=0)
    return index, field_weights, mirror_weights


def reduce_block(block: np.ndarray, dims: FockDims) -> BlockReduction:
    """Moments, norms, top-level leaks and purity of a block of unnormalized states.

    `block` holds one state phi per row, (s, joint), C-contiguous. The
    moments and the purity are those of the normalized state: the field's
    from phi's field Gram matrix rho_f (module docstring), and <N> and
    <N^2> from phi's P(m), which the lab state shares. The leaks are the
    population of the top 3 levels of each subsystem as phi stands, never
    more than dim - 1 of an axis, so a deliberately tiny subsystem does not
    count its ground state as leakage. Both reductions of a pure state
    share their nonzero spectrum, so Tr[rho_m^2] = Tr[rho_f^2]; the field
    matrix is the smaller one (30 x 30 against 308 x 308 at the
    strong-coupling dims), one batched product over the block. Nothing
    mixes rows, so a block reduces as its rows one at a time.
    """
    s = block.shape[0]
    psi = block.reshape(s, dims.field_dim, dims.mirror_dim)
    rho = np.matmul(psi, psi.conj().transpose(0, 2, 1))
    index, field_weights, mirror_weights = _reduction_weights(dims)
    flat = rho.reshape(s, -1)
    field_sums = np.dot(flat[:, index], field_weights)
    trace = field_sums[:, 0].real
    parts = psi.view(np.float64)
    mirror_sums = np.dot(np.einsum("sfx,sfx->sx", parts, parts), mirror_weights)
    norm2 = mirror_sums[:, 0]
    rho_parts = flat.view(np.float64)
    return BlockReduction(
        field_sums[:, 1:6] / trace[:, None], mirror_sums[:, 1] / norm2,
        mirror_sums[:, 2] / norm2, np.sqrt(norm2), (field_sums[:, 6].real, mirror_sums[:, 3]),
        np.einsum("sx,sx->s", rho_parts, rho_parts) / trace ** 2,
    )


def lab_photon_moments(field_moments: np.ndarray, xi: np.ndarray) -> tuple:
    """Lab <n> and <n^2> of D(xi) phi from phi's normal-ordered field
    moments (`BlockReduction.field_moments`, one row per sample), with
    a + xi in place of a (module docstring)."""
    n1, n2, c1, c21, c2 = field_moments.T
    n1, n2 = n1.real, n2.real
    x2 = xi.real ** 2 + xi.imag ** 2
    xc1 = xi * c1
    photons = n1 + 2.0 * xc1.real + x2
    # <(a^dagger + conj xi)^2 (a + xi)^2>, normal ordered
    pairs = (n2 + 4.0 * x2 * n1 + x2 * x2
             + 2.0 * (2.0 * xi * c21 + xi * xi * c2 + 2.0 * x2 * xc1).real)
    return photons, pairs + photons


class _SamplePlan(NamedTuple):
    """How evolve_numeric reads its samples. Sample i is read from step
    owner[i] (-1 for t = 0: the initial state) with dense-output weights
    coef[i] of k1..k4, in the block of samples up to stop[i] that its step
    owns; rows, the most samples one block holds, bounds its memory."""

    owner: np.ndarray
    stop: np.ndarray
    coef: np.ndarray
    rows: int


def _sample_plan(t_grid: np.ndarray, n_steps: int, joint: int) -> _SamplePlan:
    """The plan of `step_count` equal steps over [0, t_grid[-1]].

    A sample on a step boundary is the end of the step before it, so theta
    is in (0, 1]. A block of rows samples holds at most _BLOCK_AMPLITUDES
    amplitudes, unless rows is 1, and no block holds more samples than a
    step owns. Without the bound, `simulate run` on strong_oracle sampled
    at 20,001 points peaks at 98 MB RSS, against 44 MB with it.
    """
    n_t = t_grid.size
    owner = np.full(n_t, -1)
    coef = np.zeros((n_t, 4))
    taken = t_grid > 0.0
    if n_steps:
        h = float(t_grid[-1]) / n_steps
        position = t_grid[taken] / h
        steps = np.clip(np.ceil(position) - 1, 0, n_steps - 1)
        th = position - steps
        th2, th3 = th * th, th * th * th
        b2 = h * (th2 - 2.0 * th3 / 3.0)
        coef[taken] = np.stack((h * (th - 1.5 * th2 + 2.0 * th3 / 3.0), b2, b2,
                                h * (-0.5 * th2 + 2.0 * th3 / 3.0)), axis=1)
        owner[taken] = steps
    stop = np.searchsorted(owner, owner, side="right")
    most = int((stop - np.arange(n_t))[taken].max(initial=0))
    return _SamplePlan(owner, stop, coef, min(most, max(1, _BLOCK_AMPLITUDES // joint)))


def evolve_numeric(
    p: SystemParams,
    dims: FockDims,
    t_grid,
    config: IntegratorConfig | None = None,
    keep_states: bool = False,
) -> OracleRun:
    """Integrate from the product of coherent states, sampling at t_grid.

    Takes `step_count(t_grid[-1], config.dt)` equal RK4 steps in the
    displaced interaction frame and reads each sample from the continuous
    extension of the step it falls in, the samples of each step reduced as
    one block (module docstring, `reduce_block`). With keep_states,
    run.states also holds each sample as a lab-frame JointState,
    exp(-i H0 t) D(xi) phi normalized on the truncated space. The state is
    never renormalized while stepping; its norm is checked at every sample
    and every NORM_CHECK_EVERY steps, and IntegrationError is raised once
    the drift exceeds config.norm_tolerance. Samples with more than
    LEAK_TOLERANCE of population in the top Fock levels of a subsystem
    raise one UserWarning per run, naming each such subsystem and its worst
    sample; run.leak_max is the largest leak of either subsystem.
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

    frame = DisplacedFrame(p, dims)
    rhs = frame.rhs
    # rhs reads psi and stage from their padded buffers; the steps below
    # write only the interior views.
    psi_pad, psi = frame.padded(JointState.from_product(
        dims,
        coherent_state(dims.field_dim, p.alpha),
        coherent_state(dims.mirror_dim, p.gamma),
    ).amps)
    stage_pad, stage = frame.padded(psi)
    kstack = np.empty((4, dims.joint), dtype=np.complex128)
    k1, k2, k3, k4 = kstack

    n_t = t_grid.size
    run = OracleRun(
        p, dims, config, t_grid,
        **{name: np.empty(n_t) for name in
           ("photons", "photons_sq", "phonons", "phonons_sq", "norms", "purity")},
    )
    field_moments = np.empty((n_t, 5), dtype=np.complex128)  # as BlockReduction gives them
    dt = config.dt
    n_steps = step_count(t_end, dt)
    h = t_end / n_steps if n_steps else 0.0
    run.n_steps = n_steps
    run.step_max = h
    owner, stop, coef, rows = _sample_plan(t_grid, n_steps, dims.joint)
    dense = np.empty((rows, dims.joint), dtype=np.complex128)
    xi = np.array([classical_field(p, t) for t in t_grid.tolist()])
    steps_done = 0

    def check(drift):
        run.norm_drift = max(run.norm_drift, drift)
        if drift > config.norm_tolerance:
            raise IntegrationError(
                f"norm drift {drift:.3g} exceeded {config.norm_tolerance:g} after "
                f"{steps_done} steps; reduce dt below {dt:g}"
            )

    leaky = {"field": [], "mirror": []}  # (leak, t) of each sample over LEAK_TOLERANCE

    def take(lo, hi, block):
        red = reduce_block(block, dims)
        check(float(np.abs(red.norms - 1.0).max()))
        field_moments[lo:hi] = red.field_moments
        run.phonons[lo:hi] = red.phonons
        run.phonons_sq[lo:hi] = red.phonons_sq
        run.norms[lo:hi] = red.norms
        run.purity[lo:hi] = red.purity
        for found, leak in zip(leaky.values(), red.leaks):
            worst = float(leak.max())
            run.leak_max = max(run.leak_max, worst)
            if worst > LEAK_TOLERANCE:
                over = leak > LEAK_TOLERANCE
                found.extend(zip(leak[over].tolist(), t_grid[lo:hi][over].tolist()))
        if keep_states:
            for i, vec in enumerate(block, lo):
                lab = frame.to_lab(float(t_grid[i]), vec, xi[i])
                lab /= np.linalg.norm(lab)
                run.states.append(JointState(dims, lab))

    i = 0
    if owner[0] < 0:
        take(0, 1, psi[None])
        i = 1
    take_at = int(owner[i]) if i < n_t else -1
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
        if take_at == j:
            # the samples this step owns, in pieces of at most `rows`
            end = int(stop[i])
            pieces = -(-(end - i) // rows)
            for q in range(pieces):
                lo = i + (end - i) * q // pieces
                hi = i + (end - i) * (q + 1) // pieces
                block = dense[:hi - lo]
                np.dot(coef[lo:hi], kstack, out=block)
                block += psi
                take(lo, hi, block)
            i = end
            take_at = int(owner[i]) if i < n_t else -1
        # psi += (h/6) (k1 + 2 k2 + 2 k3 + k4), reusing k2 as scratch
        k2 += k3
        k2 *= 2.0
        k2 += k1
        k2 += k4
        k2 *= h / 6.0
        psi += k2
        steps_done = j + 1
        if steps_done % NORM_CHECK_EVERY == 0:
            check(abs(math.sqrt(np.vdot(psi, psi).real) - 1.0))
    run.photons[:], run.photons_sq[:] = lab_photon_moments(field_moments, xi)
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
    from the moments and purity the run recorded.

    Keys: photon_avg, phonon_avg, mandel_field, mandel_mirror,
    purity_mirror, linear_entropy_mirror.
    """

    def mandel(mean, second):
        # Variance over mean: 1 on a coherent state, and where the mean vanishes.
        q = np.ones_like(mean)
        np.divide(second - mean ** 2, mean, out=q, where=mean > 0)
        return q

    cols = {
        "photon_avg": run.photons.copy(),
        "phonon_avg": run.phonons.copy(),
        "mandel_field": mandel(run.photons, run.photons_sq),
        "mandel_mirror": mandel(run.phonons, run.phonons_sq),
        "purity_mirror": run.purity.copy(),
        "linear_entropy_mirror": 1.0 - run.purity,
    }
    return {
        name: ObservableSeries(run.t, col, name, "numeric")
        for name, col in cols.items()
    }
