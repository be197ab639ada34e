"""Exact undriven evolution of the optomechanical system.

Without the pump the propagator factors into a product of exponentials.
Besides the free rotations, its time dependence is two closed forms,
returned together by `exponents`:

    a3(t) = -g (1 - e^{i omega_m t})         conditional mirror displacement
    E(t)  = g^2 (omega_m t - sin omega_m t)  Kerr phase of the field

and the field exponent a5 = -|a3|^2/2 + i E, whose real part keeps the
product unitary.  Acting on coherent x coherent initial data
|alpha>|Gamma> the state stays a Poisson-weighted sum of Fock blocks, each
dragging a conditionally displaced mirror coherent state:

    |Psi(t)> = e^{-|alpha|^2/2} sum_k alpha^k/sqrt(k!)
               e^{-i (omega_c t - Im(a3 Gamma*)) k} e^{i E k^2}  |k> |Gamma_k(t)>

    Gamma_k(t) = (Gamma + k a3(t)) e^{-i omega_m t}

The drive only changes the field weights (`driven`), so this is
`driven.evolve_driven` at zero betas.  The phonon mean admits a closed form;
for real Gamma it reduces to

    <N(t)> = |Gamma|^2 + 4 g |alpha|^2 sin^2(omega_m t/2)
             [ g (|alpha|^2 + 1) - Gamma ]

which cools the mirror for |alpha|^2 below Gamma/g - 1 and heats above it.
"""
from __future__ import annotations

import numpy as np

from .errors import TruncationError
from .fock import FockDims, JointState, coherent_amplitudes
from .system import SystemParams

EVOLVE_RESIDUE_TOL = 1e-6


def exponents(p: SystemParams, t):
    """(a3(t), E(t)) of the factored propagator; vectorized over t."""
    g = p.g_ratio
    th = p.omega_m * np.asarray(t, dtype=float)
    return -g * (1.0 - np.exp(1j * th)), g * g * (th - np.sin(th))


def gamma_k(p: SystemParams, k, t: float):
    """Mirror coherent amplitude dragged by the k-photon sector at time t."""
    a3, _ = exponents(p, t)
    return (p.gamma + np.asarray(k) * a3) * np.exp(-1j * p.omega_m * t)


def _assemble_blocks(p: SystemParams, field_weights: np.ndarray, t: float,
                     dims: FockDims) -> JointState:
    """Stack per-k mirror coherent blocks into a normalized joint state.

    field_weights are the Fock amplitudes of the field before the undriven
    rotation and Kerr phases, which are applied here.  Each mirror block is
    renormalized after truncation; the weighted residue sum_k |c_k|^2 loss_k
    must stay below 1e-6 or the truncation is inadequate.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    k = np.arange(dims.field_dim)
    a3, E = exponents(p, t)
    rot = p.omega_c * t - np.imag(a3 * np.conj(p.gamma))
    c = field_weights * np.exp(-1j * rot * k) * np.exp(1j * E * k * k)

    # mirror coherent series for all k at once (rows: k, cols: m)
    blocks, loss = coherent_amplitudes(dims.mirror_dim, gamma_k(p, k, t))
    w2 = np.abs(c) ** 2
    residue = float(np.sum(w2 * loss)) + max(0.0, 1.0 - float(np.sum(w2)))
    if residue > EVOLVE_RESIDUE_TOL:
        raise TruncationError(
            f"truncation residue {residue:.3e} exceeds {EVOLVE_RESIDUE_TOL:.0e}; "
            f"increase dims beyond {dims}",
        )

    amps = (c / np.sqrt(1.0 - loss))[:, None] * blocks
    return JointState(dims, (amps / np.linalg.norm(amps)).ravel())


def _phonon_avg(p: SystemParams, t, mu) -> np.ndarray:
    """<N(t)> = |Gamma|^2 + 2 Re(a3 Gamma*) mu + |a3|^2 (mu + mu^2) for a
    coherent field of mean photon number mu."""
    a3, _ = exponents(p, t)
    cross = 2.0 * np.real(a3 * np.conj(p.gamma))
    return abs(p.gamma) ** 2 + cross * mu + np.abs(a3) ** 2 * (mu + mu * mu)


def phonon_avg_closed_form(p: SystemParams, t) -> np.ndarray:
    """Exact <N(t)> for coherent x coherent initial data (any complex Gamma)."""
    return _phonon_avg(p, t, abs(p.alpha) ** 2)


def cooling_threshold(p: SystemParams):
    """(|alpha|^2 of deepest cooling, |alpha|^2 where cooling turns to heating).

    Valid for real positive Gamma; the neutral point Gamma/g - 1 conserves
    <N(t)> = |Gamma|^2 for all times.
    """
    if p.g_ratio == 0:
        raise ValueError("threshold undefined for g_ratio = 0")
    if abs(p.gamma.imag) > 1e-12 * max(1.0, abs(p.gamma)):
        raise ValueError("threshold formula assumes real Gamma")
    gam = p.gamma.real
    if gam <= 0:
        raise ValueError("threshold formula assumes positive Gamma")
    neutral = gam / p.g_ratio - 1.0
    return neutral / 2.0, neutral
