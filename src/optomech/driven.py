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
betas are a nested quadrature, not an initial-value problem.  It is done by
product integration (Filon; Iserles & Norsett, Proc. R. Soc. A 461, 1383
(2005)): cos(omega_p s) e^{i omega_c s} is split into the two carriers
e^{i kappa s}, kappa = omega_c +- omega_p, which are integrated exactly
against a polynomial interpolant of phi alone (`integrate_betas`).  phi
turns far slower than the carriers, |d ln phi/dt| <= omega_env
(`envelope_rate`), so panels are sized by phi and not by the carrier.
b1 = -b2* and Re b3 = -|b1|^2 / 2 hold exactly, and with exact carrier
weights they hold for the interpolant too: b2 is -b1*, and Re b3 +
|b1|^2 / 2 is rounding at any panel width.  Both defects therefore check
the sums, not the accuracy; that is bounded by how well the panels resolve
phi (`BetaSeries.envelope_tail`).  The field then behaves
as a coherent state of amplitude alpha + b1 riding the undriven phase
structure: the driven state is the undriven one with alpha -> alpha + b1,
and every undriven observable lifts by |alpha|^2 -> |alpha + b1|^2.  At
phi = 1 (g = 0) b1 is the bare cavity's response to the pump, the field
xi(t) the oracle's frame removes (`oracle.classical_field`); its
rotating-wave part is `beta1_rwa`, and |alpha + beta1_rwa|^2 is the
weak-drive photon number (`photon_avg_weak_closed_form`).

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
from .postproc import grid_step, variance_over_mean
from .system import SystemParams
from .undriven import _assemble_blocks, _phonon_avg, exponents

# phi is interpolated on each panel at this many Chebyshev-Lobatto nodes,
# and no panel spans more than PANEL_PHASE of the envelope bound omega_env.
PANEL_NODES = 7
PANEL_PHASE = 0.5
# Carrier phases kappa H up to _BASE_PHASE are integrated by a nested rule on
# _BASE_NODES nodes; larger ones are halved down to it first.
_BASE_PHASE = 2.0
_BASE_NODES = 33


@dataclass(frozen=True)
class BetaCoefficients:
    """Displacement coefficients of the driven propagator at time t."""

    b1: complex
    b2: complex
    b3: complex
    t: float

    @staticmethod
    def zero(t: float) -> "BetaCoefficients":
        return BetaCoefficients(0j, 0j, 0j, t)


@dataclass(frozen=True)
class BetaSeries:
    """Beta coefficients sampled on a time grid.

    antisymmetry_defect = max |b1 + b2*| and unitarity_defect =
    max |2 Re(b3 + alpha b2) - |alpha|^2 + |alpha + b1|^2| over the grid.
    Both vanish identically for the exact solution, and product integration
    keeps both identities for any interpolant of phi: the antisymmetry
    defect is 0, as b2 is -b1*, and the unitarity defect is the rounding
    of the nested sums.  Neither measures quadrature error.

    envelope_tail is the largest last Chebyshev coefficient of phi's
    interpolant over the panels, relative to max |phi| at the nodes.  Where
    the coefficients decay, as they do on panels within PANEL_PHASE of
    omega_env, it is the size of the interpolation error of phi, the only
    approximation made; b1 is then off by at most about
    Omega t max|phi| envelope_tail.  panels is how many panels were
    integrated, `beta_panels` per step of the grid.
    """

    t: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    b3: np.ndarray
    antisymmetry_defect: float
    unitarity_defect: float
    envelope_tail: float
    panels: int

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
    """Rotating-wave displacement (Omega/2 Delta)(e^{-i Delta t} - 1), Delta = omega_p - omega_c.

    The bare cavity's response, b1 at phi = 1 (`oracle.classical_field`),
    less its counter-rotating term -(Omega/2)(e^{i(omega_c + omega_p) t} - 1)
    / (omega_c + omega_p).  Written as classical_field writes its terms,
    -i (Omega/2) t e^{-i Delta t/2} sinc(Delta t/2), it is -i Omega t / 2 on
    resonance.  It misses the omega_c + omega_p jitter, so it is the slow
    envelope of that response.
    """
    t = np.asarray(t, dtype=float)
    half = 0.5 * p.detuning * t
    return -0.5j * p.drive_amp * t * np.exp(-1j * half) * np.sinc(half / np.pi)


def envelope_rate(p: SystemParams) -> float:
    """omega_env = omega_m (1 + 4|alpha|^2 g^2 + 4 g^2 + 2 g |Gamma|), in rad/s.

    A bound on |d ln phi/dt| from the derivatives of the exponents:
    |E'| <= 2 g^2 omega_m, |a3'| = g omega_m and |a3 a3'| <= 2 g^2 omega_m.
    The leading omega_m keeps panels finite where phi is constant (g = 0).
    """
    g = p.g_ratio
    return p.omega_m * (1.0 + 4.0 * abs(p.alpha) ** 2 * g * g + 4.0 * g * g
                        + 2.0 * g * abs(p.gamma))


def beta_panels(p: SystemParams, step: float) -> int:
    """Panels integrate_betas cuts each step of an even grid into.

    The fewest equal panels no wider than PANEL_PHASE / envelope_rate(p);
    the carrier does not size them.
    """
    h_max = PANEL_PHASE / envelope_rate(p)
    return max(1, math.ceil(step / h_max))


def _lobatto(n: int):
    """n Chebyshev-Lobatto nodes on [0, 1], ascending, and the Clenshaw-Curtis
    weights that integrate their interpolant (n odd)."""
    m = n - 1
    theta = np.pi * np.arange(n) / m
    j = np.arange(1, m // 2 + 1)
    b = np.where(2 * j == m, 1.0, 2.0)
    w = 1.0 - np.sum(b / (4.0 * j * j - 1.0) * np.cos(2.0 * j * theta[:, None]), axis=1)
    w[1:-1] *= 2.0
    return np.sin(theta / 2.0) ** 2, w / (2 * m)


def _lagrange(nodes: np.ndarray, x) -> np.ndarray:
    """The Lagrange basis on nodes at the points x; shape x.shape + (nodes.size,)."""
    d = np.asarray(x, dtype=float)[..., None] - nodes
    out = np.empty(d.shape)
    for j in range(nodes.size):
        others = np.arange(nodes.size) != j
        out[..., j] = np.prod(d[..., others], axis=-1) / np.prod(nodes[j] - nodes[others])
    return out


def _weight_tables():
    """What _carrier_weights needs of the panel basis L_j on the nodes u_a.

    The base rule (tau, omega) on _BASE_NODES nodes; the basis at tau_q and
    at tau_q tau_r; and the basis restricted to each half panel in the
    half's own basis, halves[s, a, j] = L_j((s + u_a) / 2).
    """
    u, _ = _lobatto(PANEL_NODES)
    tau, omega = _lobatto(_BASE_NODES)
    halves = np.stack((_lagrange(u, u / 2.0), _lagrange(u, (1.0 + u) / 2.0)))
    return tau, omega, _lagrange(u, tau), _lagrange(u, np.multiply.outer(tau, tau)), halves


def _carrier_weights(x: np.ndarray, tables: tuple):
    """Weights of the panel basis L_j against the carriers e^{i x_a u}, u in [0, 1].

    x holds the two carrier phases kappa H of one panel width, tables is
    _weight_tables().  Returns
    w[a, j] = Integral_0^1 L_j(u) e^{i x_a u} du and the nested
    W[a, b, j, l] = Integral_0^1 L_l(u) e^{-i x_b u} Integral_0^u L_j(v) e^{i x_a v} dv du.
    Phases up to _BASE_PHASE are integrated by a nested Clenshaw-Curtis rule,
    exact to rounding there.  Larger ones are halved k times first and the
    weights doubled back up: a panel is its two halves, and on each half the
    basis is a combination of the half's own basis (`halves`).  As the L_j
    are real, the weights of -x are the conjugates of those of x.
    """
    tau, omega, basis, inner, halves = tables
    big = float(np.max(np.abs(x)))
    k = math.ceil(math.log2(big / _BASE_PHASE)) if big > _BASE_PHASE else 0
    x = x / 2.0 ** k
    w = np.einsum("q,cq,qj->cj", omega, np.exp(1j * np.multiply.outer(x, tau)), basis)
    # Integral_0^tau_q L_j(v) e^{i x_c v} dv, then the outer rule against L_l e^{-i x_b u}
    g = tau[:, None] * np.einsum("r,cqr,qrj->cqj", omega,
                                 np.exp(1j * np.multiply.outer(x, np.multiply.outer(tau, tau))),
                                 inner)
    W = np.einsum("q,ql,bq,aqj->abjl", omega, basis, np.exp(-1j * np.multiply.outer(x, tau)), g)
    for _ in range(k):
        x = 2.0 * x
        turn = np.exp(0.5j * x)  # each carrier's phase across the first half
        lr = np.einsum("saj,ca->csj", halves, w)
        both = np.einsum("saj,cdab,sbl->scdjl", halves, W, halves)
        W = 0.25 * (both[0] + np.multiply.outer(turn, turn.conj())[..., None, None] * both[1]
                    + turn.conj()[:, None, None] * lr[:, None, 0, :, None]
                    * lr[None, :, 1, None, :].conj())
        w = 0.5 * (lr[:, 0] + turn[:, None] * lr[:, 1])
    return w, W


def integrate_betas(p: SystemParams, t_grid) -> BetaSeries:
    """Beta coefficients over t_grid by product integration (module docstring).

    t_grid is evenly spaced from 0 (ValueError otherwise), and each of its
    steps is cut into the same beta_panels count of panels of one width H.
    On a panel [s0, s0 + H], phi is interpolated at PANEL_NODES
    Chebyshev-Lobatto nodes, the ends shared with the neighbouring panels,
    and the carriers are integrated exactly against the interpolant:

        db1 = -i (Omega H / 2) sum_kappa e^{i kappa s0} sum_j phi_j w_j(kappa H)
        db3 = b1(s0) db2 - (Omega H / 2)^2 sum_{kappa, kappa'} e^{i (kappa - kappa') s0}
                                         sum_{j, l} phi_j W_jl(kappa H, kappa' H) phi_l*

    with kappa, kappa' in {omega_c + omega_p, omega_c - omega_p} and
    b2 = -b1*.  One set of weights (_carrier_weights) serves every panel.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    count = beta_panels(p, grid_step(t_grid, "t_grid"))
    if t_grid[0] != 0.0:
        raise ValueError(f"t_grid must start at 0, not {t_grid[0]:g}")
    h = t_grid[-1] / (t_grid.size - 1) / count
    s0 = np.arange(count * (t_grid.size - 1)) * h
    u, _ = _lobatto(PANEL_NODES)
    # phi once at every panel end, then at each interior node
    f = np.empty((s0.size, PANEL_NODES), dtype=np.complex128)
    ends = phi(p, np.append(s0, t_grid[-1]))
    f[:, 0], f[:, -1] = ends[:-1], ends[1:]
    for j in range(1, PANEL_NODES - 1):
        f[:, j] = phi(p, s0 + h * u[j])

    kappa = np.array([p.omega_c + p.omega_p, p.omega_c - p.omega_p])
    w, W = _carrier_weights(h * kappa, _weight_tables())
    fc = f.conj()
    rot = np.exp(1j * np.multiply.outer(s0, kappa))  # e^{i kappa s0}
    beat = rot[:, 0] * rot[:, 1].conj()  # e^{2i omega_p s0}
    d1 = -0.5j * p.drive_amp * h * np.einsum("pa,pj,aj->p", rot, f, w)
    inner = -(0.5 * p.drive_amp * h) ** 2 * (
        np.einsum("pj,jl,pl->p", f, W[0, 0] + W[1, 1], fc)
        + beat * np.einsum("pj,jl,pl->p", f, W[0, 1], fc)
        + beat.conj() * np.einsum("pj,jl,pl->p", f, W[1, 0], fc))
    b1 = np.concatenate(([0.0], np.cumsum(d1)))
    b3 = np.concatenate(([0.0], np.cumsum(inner - b1[:-1] * np.conj(d1))))
    done = np.arange(t_grid.size) * count  # panels done at each sample
    b1, b3 = b1[done], b3[done]
    b2 = -np.conj(b1)

    anti = float(np.max(np.abs(b1 + np.conj(b2))))
    a = p.alpha
    unit = float(np.max(np.abs(2.0 * np.real(b3 + a * b2) - abs(a) ** 2 + np.abs(a + b1) ** 2)))
    # last Chebyshev coefficient of each panel's interpolant
    alternating = np.where(np.arange(PANEL_NODES) % 2, -1.0, 1.0)
    alternating[[0, -1]] *= 0.5
    tail = np.abs(np.einsum("pj,j->p", f, alternating))
    scale = np.max(np.abs(f), initial=abs(ends[-1]))  # max |phi| at the nodes
    envelope_tail = float(np.max(tail, initial=0.0) / (PANEL_NODES - 1) / scale)
    return BetaSeries(t=t_grid.copy(), b1=b1, b2=b2, b3=b3,
                      antisymmetry_defect=anti, unitarity_defect=unit,
                      envelope_tail=envelope_tail, panels=s0.size)


def evolve_driven(p: SystemParams, betas: BetaCoefficients, dims: FockDims) -> JointState:
    """Approximate driven state at the betas' time t.

    The undriven state with field amplitude alpha + b1: the mirror blocks and
    the per-photon phases are untouched by the drive, and at zero betas this
    is the exact undriven state.  The scalar prefactor
    has modulus one exactly when Re b3 = -|b1|^2/2, so only its phase is
    kept; normalization absorbs truncation residue.
    """
    weights, _ = coherent_amplitudes(dims.field_dim, p.alpha + betas.b1)
    lead = cmath.exp(betas.b3 + abs(betas.b1) ** 2 / 2.0
                     + 1j * (betas.b1 * np.conj(p.alpha)).imag)
    return _assemble_blocks(p, weights * (lead / abs(lead)), betas.t, dims)


def photon_avg(p: SystemParams, betas):
    """<n(t)> = |alpha + b1|^2 at the betas' own time.

    A value for BetaCoefficients, an array over the grid for a BetaSeries;
    the mirror observables below take their times from the betas alike.
    """
    return np.abs(p.alpha + np.asarray(betas.b1)) ** 2


def photon_avg_weak_closed_form(p: SystemParams, t):
    """<n(t)> = |alpha + beta1_rwa(t)|^2, the rotating-wave, phi -> 1 limit
    of `photon_avg`, for complex alpha and on resonance alike."""
    return np.abs(p.alpha + beta1_rwa(p, t)) ** 2


def phonon_avg(p: SystemParams, betas):
    """<N(t)> = |Gamma|^2 + 2 Re(a3 Gamma*) <n> + |a3|^2 (<n> + <n>^2)."""
    return _phonon_avg(p, np.asarray(betas.t, dtype=float), photon_avg(p, betas))


def phonon_second_moment(p: SystemParams, betas):
    """<N^2(t)> via coherent-state photon moments of mean mu = |alpha + b1|^2.

    The raw moments <n^k> are the Touchard polynomials in mu.
    """
    a3, _ = exponents(p, np.asarray(betas.t, dtype=float))
    mu = photon_avg(p, betas)
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


def mandel_mirror(p: SystemParams, betas):
    """(<N^2> - <N>^2)/<N> for the mirror (`postproc.variance_over_mean`,
    1 at <N> = 0); super-Poissonian once displaced."""
    return variance_over_mean(phonon_avg(p, betas), phonon_second_moment(p, betas))


# Samples per block of linear_entropy_mirror's double Poisson sum.
_ENTROPY_BLOCK = 256


def entropy_kmax(mu: float) -> int:
    """Photon cutoff keeping the Poisson tail below 1e-10 for mu <= 25."""
    return int(math.ceil(mu + 10.0 * math.sqrt(mu) + 10.0))


def linear_entropy_mirror(p: SystemParams, betas, kmax: int | None = None):
    """1 - Tr[rho_m^2] of the mirror from the closed double Poisson sum.

    Tr[rho_m^2] = sum_{p,q} P_p P_q e^{-(p-q)^2 |a3|^2} with P the Poisson
    distribution of mean mu = |alpha + b1|^2, since the mirror blocks differ
    only by the conditional displacement, |Gamma_p - Gamma_q|^2 = (p-q)^2 |a3|^2.
    As sum P = 1, the entropy is the sum of non-negative lag terms
    2 sum_{d>=1} (1 - e^{-d^2 |a3|^2}) sum_p P_p P_{p+d}, which keeps it >= 0
    where 1 - Tr[rho_m^2] would cancel to rounding.
    """
    tt = np.atleast_1d(np.asarray(betas.t, dtype=float))
    mu = np.atleast_1d(photon_avg(p, betas)) * np.ones_like(tt)
    a3sq = np.abs(exponents(p, tt)[0]) ** 2
    if kmax is None:
        kmax = entropy_kmax(float(np.max(mu)))
    out = np.zeros(tt.size, dtype=float)
    # In blocks of samples, so the amplitudes stay small at any n_samples.
    for lo in range(0, tt.size, _ENTROPY_BLOCK):
        block = slice(lo, lo + _ENTROPY_BLOCK)
        out_b, a3sq_b = out[block], a3sq[block]
        # P is the squared amplitude of the coherent state |sqrt(mu)>
        weights = coherent_amplitudes(kmax + 1, np.sqrt(mu[block]))[0] ** 2
        for d in range(1, kmax + 1):
            lagged = np.einsum("tk,tk->t", weights[:, :-d], weights[:, d:])
            out_b -= np.expm1(-d * d * a3sq_b) * lagged
    out *= 2.0
    return float(out[0]) if out.size == 1 else out
