"""Approximate driven evolution via coherent-state averaging of the pump term.

Moving the exact undriven propagator through the drive leaves a residual
interaction whose operator-valued exponents are replaced by their averages in
the initial coherent states.  In terms of the undriven exponents a3(t), E(t)
and a5 = -|a3|^2/2 + i E (`undriven` docstring), what survives is a scalar
weight

    phi(t) = exp( a5* - 2i Im(a3 Gamma*) + |alpha|^2 (e^{-2iE} - 1) ),

which with F = |a3| = 2 g sin(omega_m t/2) and
2 Im(a3 Gamma*) = F (Gamma* e^{i omega_m t/2} + Gamma e^{-i omega_m t/2}) reads

    phi(t) = e^{-F^2/2} e^{-i F (Gamma* e^{i omega_m t/2} + Gamma e^{-i omega_m t/2})}
             e^{-i E} e^{|alpha|^2 (e^{-2iE} - 1)},

and three displacement coefficients

    b1(t) = -i Omega Integral_0^t phi(s)  cos(omega_p s) e^{+i omega_c s} ds
    b2(t) = -i Omega Integral_0^t phi*(s) cos(omega_p s) e^{-i omega_c s} ds
    b3(t) = Integral_0^t b1(s) b2'(s) ds

The right-hand sides depend on time alone, except for b3' = b1 b2', so the
betas are a nested quadrature, not an initial-value problem.  b1 = -b2* and
Re b3 = -|b1|^2 / 2 hold exactly; all three are summed independently here.
Only the second identity monitors quadrature error, through the nested b3.
Simpson's rule is linear, so b1 + b2* is the rule applied to b1' + b2'* = 0:
it compares the two rate formulas, not the step.  The field then behaves
as a coherent state of amplitude alpha + b1 riding the undriven phase
structure: the driven state is the undriven one with alpha -> alpha + b1,
and every undriven observable lifts by |alpha|^2 -> |alpha + b1|^2.

In the strong-coupling regime |phi| is suppressed by the factor
e^{|alpha|^2 (cos 2E - 1)}: the drive decouples once E(t) grows, the photon
number freezes at a plateau, and the drive revives when E reaches a multiple
of pi.  That is the collapse-revival mechanism seen in the photon number.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fock import FockDims, JointState, coherent_amplitudes
from .system import SystemParams
from .undriven import _assemble_blocks, _phonon_avg, exponents

DEFAULT_STEPS_PER_PERIOD = 160
# Simpson panels evaluated per vectorized chunk; bounds the working memory.
_PANEL_CHUNK = 1024


@dataclass(frozen=True)
class BetaCoefficients:
    """Displacement coefficients of the driven propagator at one time."""

    b1: complex
    b2: complex
    b3: complex
    t: float = 0.0

    @staticmethod
    def zero(t: float = 0.0) -> "BetaCoefficients":
        return BetaCoefficients(0j, 0j, 0j, t)


@dataclass(frozen=True)
class BetaSeries:
    """Beta coefficients sampled on a time grid.

    antisymmetry_defect = max |b1 + b2*| and unitarity_defect =
    max |2 Re(b3 + alpha b2) - |alpha|^2 + |alpha + b1|^2| over the grid.
    Both vanish identically for the exact solution. The unitarity defect
    measures quadrature error; the antisymmetry defect only rounding in the
    two rate formulas, which the linear Simpson sums carry over unchanged.
    """

    t: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    b3: np.ndarray
    antisymmetry_defect: float
    unitarity_defect: float

    def __len__(self) -> int:
        return self.t.size

    def at(self, i: int) -> BetaCoefficients:
        return BetaCoefficients(complex(self.b1[i]), complex(self.b2[i]),
                                complex(self.b3[i]), float(self.t[i]))


def phi(p: SystemParams, t):
    """Scalar drive weight phi(t); |phi| <= 1 and phi(0) = 1."""
    a3, E = exponents(p, t)
    mu = abs(p.alpha) ** 2
    return np.exp(mu * (np.exp(-2j * E) - 1.0) - 0.5 * np.abs(a3) ** 2
                  - 1j * (2.0 * np.imag(a3 * np.conj(p.gamma)) + E))


def beta1_rwa(p: SystemParams, t):
    """Rotating-wave displacement (Omega/2 Delta)(e^{i Delta t} - 1).

    Degenerates to i Omega t / 2 on resonance.  Keeps only the slowly
    rotating drive component, so it bounds the full solution as an envelope
    but misses the omega_c + omega_p jitter.
    """
    t = np.asarray(t, dtype=float)
    d = p.detuning
    if d == 0:
        return 0.5j * p.drive_amp * t
    return p.drive_amp / (2.0 * d) * (np.exp(1j * d * t) - 1.0)


def beta1_phi_to_one(p: SystemParams, t):
    """Exact displacement when phi is frozen at 1 (bare driven cavity).

    Singular at omega_p = omega_c; use the RWA limit near resonance.
    """
    if p.omega_p == p.omega_c:
        raise ValueError("closed form is singular at omega_p = omega_c")
    t = np.asarray(t, dtype=float)
    om_c, om_p = p.omega_c, p.omega_p
    pref = p.drive_amp / (om_p ** 2 - om_c ** 2)
    return pref * (np.exp(1j * om_c * t)
                   * (om_c * np.cos(om_p * t) - 1j * om_p * np.sin(om_p * t))
                   - om_c)


def _drive_rates(p: SystemParams, t):
    """(b1', b2') at the times t: the integrands of b1 and b2."""
    ph = phi(p, t)
    c = -1j * p.drive_amp * np.cos(p.omega_p * t)
    rot = np.exp(1j * p.omega_c * t)
    return c * ph * rot, c * np.conj(ph) / rot


def integrate_betas(p: SystemParams, t_grid,
                    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD) -> BetaSeries:
    """Beta coefficients over t_grid by nested composite Simpson quadrature.

    Each interval between consecutive points of (0, *t_grid) is cut into
    equal panels no wider than the period of the fastest angular frequency
    over steps_per_period.  One classical RK4 step on a right-hand side
    that depends on t alone is exactly the Simpson panel
    h/6 (f_0 + 4 f_mid + f_1), so b1 and b2 are what RK4 gives at this step
    density.  For b3 = Integral b1 b2' the cumulative b1 is taken at the
    panel nodes; at the midpoint it adds the panel's own parabola integrated
    over the left half, h/24 (5 f_0 + 8 f_mid - f_1), which with the right
    half sums to the panel's Simpson rule.  A panel's right end is the next
    panel's left end, so each node is evaluated once: two rate evaluations
    per panel.  Panels are evaluated in vectorized chunks of bounded size.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d array")
    if t_grid[0] < 0 or np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be nonnegative and nondecreasing")
    if steps_per_period < 1:
        raise ValueError("steps_per_period must be >= 1")
    dt_max = 2.0 * math.pi / p.fastest_angular_frequency / steps_per_period

    starts = np.concatenate(([0.0], t_grid[:-1]))
    spans = t_grid - starts
    n_sub = np.where(spans > 0, np.maximum(1.0, np.ceil(spans / dt_max)), 0.0).astype(np.int64)
    ends = np.cumsum(n_sub)  # panels done at the end of each interval
    out = np.zeros((3, t_grid.size), dtype=np.complex128)
    b = np.zeros(3, dtype=np.complex128)  # b1, b2, b3 before the chunk
    n_panels = int(ends[-1])
    for first in range(0, n_panels, _PANEL_CHUNK):
        # left ends of the chunk's panels and of the panel after it (past the
        # last panel, the last one's left end plus h): panel n's right end is
        # node n + 1
        j = np.arange(first, min(first + _PANEL_CHUNK, n_panels) + 1)
        i = np.searchsorted(ends, np.minimum(j, n_panels - 1), side="right")
        h = spans[i] / n_sub[i]
        nodes = starts[i] + (j - ends[i] + n_sub[i]) * h
        j, h = j[:-1], h[:-1]
        f1, f2 = _drive_rates(p, np.concatenate((nodes, nodes[:-1] + h / 2)))
        f1_0, f1_1, f1_mid = f1[:j.size], f1[1:j.size + 1], f1[j.size + 1:]
        f2_0, f2_1, f2_mid = f2[:j.size], f2[1:j.size + 1], f2[j.size + 1:]
        # cum[:, n] is the value after n panels of the chunk
        cum = np.empty((3, j.size + 1), dtype=np.complex128)
        cum[:, 0] = b
        cum[0, 1:] = h / 6 * (f1_0 + 4 * f1_mid + f1_1)
        cum[1, 1:] = h / 6 * (f2_0 + 4 * f2_mid + f2_1)
        np.cumsum(cum[:2], axis=1, out=cum[:2])
        b1_start, b1_end = cum[0, :-1], cum[0, 1:]
        b1_mid = b1_start + h / 24 * (5 * f1_0 + 8 * f1_mid - f1_1)
        cum[2, 1:] = h / 6 * (b1_start * f2_0 + 4 * b1_mid * f2_mid + b1_end * f2_1)
        np.cumsum(cum[2], out=cum[2])
        done = (ends > first) & (ends <= first + j.size)
        out[:, done] = cum[:, ends[done] - first]
        b = cum[:, -1].copy()

    anti = float(np.max(np.abs(out[0] + np.conj(out[1]))))
    a = p.alpha
    unit = float(np.max(np.abs(2.0 * np.real(out[2] + a * out[1])
                               - abs(a) ** 2 + np.abs(a + out[0]) ** 2)))
    return BetaSeries(t=t_grid.copy(), b1=out[0], b2=out[1], b3=out[2],
                      antisymmetry_defect=anti, unitarity_defect=unit)


def evolve_driven(p: SystemParams, t: float, betas: BetaCoefficients,
                  dims: FockDims) -> JointState:
    """Approximate driven state at time t given the beta coefficients.

    The undriven state with field amplitude alpha + b1: the mirror blocks and
    the per-photon phases are untouched by the drive, and at zero betas this
    is the exact undriven state.  The scalar prefactor
    has modulus one exactly when Re b3 = -|b1|^2/2, so only its phase is
    kept; normalization absorbs truncation residue.
    """
    weights, _ = coherent_amplitudes(dims.field_dim, p.alpha + betas.b1)
    lead = cmath.exp(betas.b3 + abs(betas.b1) ** 2 / 2.0
                     + 1j * (betas.b1 * np.conj(p.alpha)).imag)
    state = _assemble_blocks(p, weights * (lead / abs(lead)), t, dims)
    state.meta["b1"] = betas.b1
    state.meta["b3"] = betas.b3
    return state


def _mu(p: SystemParams, betas) -> np.ndarray:
    return np.abs(p.alpha + np.asarray(betas.b1)) ** 2


def _times(betas, t):
    return np.asarray(betas.t if t is None else t, dtype=float)


def photon_avg(p: SystemParams, betas):
    """<n(t)> = |alpha + b1|^2; accepts BetaCoefficients or BetaSeries."""
    return _mu(p, betas)


def photon_avg_weak_closed_form(p: SystemParams, t):
    """<n(t)> = |alpha|^2 + (Omega/Delta)(1 - cos Delta t)(Omega/2Delta - Re alpha).

    Rotating-wave, phi -> 1 limit; on resonance this becomes
    |alpha|^2 + Omega^2 t^2 / 4.
    """
    t = np.asarray(t, dtype=float)
    mu = abs(p.alpha) ** 2
    d = p.detuning
    if d == 0:
        return mu + (p.drive_amp * t) ** 2 / 4.0
    swing = 2.0 * np.sin(d * t / 2.0) ** 2  # 1 - cos, stably
    return mu + (p.drive_amp / d) * swing * (p.drive_amp / (2.0 * d) - p.alpha.real)


def phonon_avg(p: SystemParams, betas, t=None):
    """<N(t)> = |Gamma|^2 + 2 Re(a3 Gamma*) <n> + |a3|^2 (<n> + <n>^2)."""
    return _phonon_avg(p, _times(betas, t), _mu(p, betas))


def phonon_second_moment(p: SystemParams, betas, t=None):
    """<N^2(t)> via coherent-state photon moments of mean mu = |alpha + b1|^2.

    The raw moments <n^k> are the Touchard polynomials in mu.
    """
    a3, _ = exponents(p, _times(betas, t))
    mu = _mu(p, betas)
    n2 = mu + mu ** 2
    n3 = mu + 3 * mu ** 2 + mu ** 3
    n4 = mu + 7 * mu ** 2 + 6 * mu ** 3 + mu ** 4
    gam2 = abs(p.gamma) ** 2
    x = a3 * np.conj(p.gamma)
    a3sq = np.abs(a3) ** 2
    return (gam2 + gam2 ** 2
            + 4.0 * np.real(x) * (gam2 + 0.5) * mu
            + 2.0 * (np.real(x * x) + a3sq * (2.0 * gam2 + 0.5)) * n2
            + 4.0 * a3sq * np.real(x) * n3
            + a3sq ** 2 * n4)


def mandel_mirror(p: SystemParams, betas, t=None):
    """(<N^2> - <N>^2)/<N> for the mirror; super-Poissonian once displaced."""
    avg = phonon_avg(p, betas, t)
    if np.any(avg == 0):
        raise ValueError("Mandel parameter undefined at <N> = 0")
    return (phonon_second_moment(p, betas, t) - avg ** 2) / avg


def entropy_kmax(mu: float) -> int:
    """Photon cutoff keeping the Poisson tail below 1e-10 for mu <= 25."""
    return int(math.ceil(mu + 10.0 * math.sqrt(mu) + 10.0))


def linear_entropy_mirror(p: SystemParams, betas, t=None, kmax: int | None = None):
    """1 - Tr[rho_m^2] of the mirror from the closed double Poisson sum.

    Tr[rho_m^2] = sum_{p,q} P_p P_q e^{-(p-q)^2 |a3|^2} with P the Poisson
    distribution of mean mu = |alpha + b1|^2, since the mirror blocks differ
    only by the conditional displacement, |Gamma_p - Gamma_q|^2 = (p-q)^2 |a3|^2.
    As sum P = 1, the entropy is the sum of non-negative lag terms
    2 sum_{d>=1} (1 - e^{-d^2 |a3|^2}) sum_p P_p P_{p+d}, which keeps it >= 0
    where 1 - Tr[rho_m^2] would cancel to rounding.
    """
    tt = np.atleast_1d(_times(betas, t))
    mu = np.atleast_1d(_mu(p, betas)) * np.ones_like(tt)
    a3sq = np.abs(exponents(p, tt)[0]) ** 2
    if kmax is None:
        kmax = entropy_kmax(float(np.max(mu)))
    # P is the squared amplitude of the coherent state |sqrt(mu)>
    weights = np.abs(coherent_amplitudes(kmax + 1, np.sqrt(mu))[0]) ** 2
    out = np.zeros(tt.size, dtype=float)
    for d in range(1, kmax + 1):
        lagged = np.einsum("tk,tk->t", weights[:, :-d], weights[:, d:])
        out -= np.expm1(-d * d * a3sq) * lagged
    out *= 2.0
    return float(out[0]) if out.size == 1 else out
