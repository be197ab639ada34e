"""Truncated Fock-space primitives for the joint cavity-mirror Hilbert space.

Conventions fixed here and imported everywhere else:

* joint index: ``i = k * mirror_dim + m`` (field-major; mirror index fast),
  so a joint state reshapes to ``(field_dim, mirror_dim)`` with C order;
* coherent states are truncated Poisson series, renormalized to unit norm,
  and refuse to be built when the truncation loss exceeds 1e-8.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError

# Joint dimensions above this allocate too much for a desk-scale run
# (states are fine, but dense reduced density matrices go quadratic).
MAX_JOINT_DIM = 1_000_000

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-9
COHERENT_LOSS_TOL = 1e-8


@dataclass(frozen=True)
class FockDims:
    """Truncation sizes of the two oscillators; joint dimension is checked here."""

    field_dim: int
    mirror_dim: int

    def __post_init__(self):
        if self.field_dim < 2 or self.mirror_dim < 2:
            raise ValueError(f"each dimension must be >= 2, got {self}")
        if self.joint > MAX_JOINT_DIM:
            raise ValueError(
                f"joint dimension {self.joint} exceeds the memory budget {MAX_JOINT_DIM}"
            )

    @property
    def joint(self) -> int:
        return self.field_dim * self.mirror_dim


@dataclass
class JointState:
    """Pure state on the joint space, unit norm, field-major amplitude layout."""

    dims: FockDims
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.amps.shape != (self.dims.joint,):
            raise ValueError(
                f"amplitude length {self.amps.shape} does not match joint dim {self.dims.joint}"
            )
        nrm = np.linalg.norm(self.amps)
        if abs(nrm - 1.0) > 1e-6:
            raise ValueError(f"state norm {nrm} is not 1 within 1e-6")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def as_matrix(self) -> np.ndarray:
        """View with shape (field_dim, mirror_dim)."""
        return self.amps.reshape(self.dims.field_dim, self.dims.mirror_dim)

    @classmethod
    def from_product(cls, dims: FockDims, field_vec, mirror_vec) -> "JointState":
        amps = np.kron(np.asarray(field_vec, dtype=np.complex128),
                       np.asarray(mirror_vec, dtype=np.complex128))
        return cls(dims, amps)


@dataclass
class DensityMatrix:
    """Hermitian, unit-trace matrix for one subsystem."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 2 or self.data.shape[0] != self.data.shape[1]:
            raise ValueError(f"density matrix must be square, got {self.data.shape}")
        herm = np.max(np.abs(self.data - self.data.conj().T))
        if herm > HERMITICITY_ATOL:
            raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = self.data.trace()
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace {tr} is not 1 within {TRACE_ATOL}")

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def purity(self) -> float:
        # Tr[rho^2] = sum |rho_ij|^2 for Hermitian rho
        return float(np.sum(np.abs(self.data) ** 2))


def coherent_amplitudes(dim: int, amp):
    """Truncated coherent-state series and its norm loss, without renormalizing.

    Amplitudes follow c_k = c_{k-1} * amp / sqrt(k) from c_0 = e^{-|amp|^2/2},
    which stays bounded for any |amp| (each c_k is a Poisson amplitude).
    Vectorized: an array of amplitudes gives c of shape amp.shape + (dim,)
    and one loss per amplitude.
    """
    amp = np.asarray(amp, dtype=np.complex128)
    c = np.empty(amp.shape + (dim,), dtype=np.complex128)
    c[..., 0] = np.exp(-np.abs(amp) ** 2 / 2.0)
    for k in range(1, dim):
        c[..., k] = c[..., k - 1] * amp / math.sqrt(k)
    loss = np.clip(1.0 - np.sum(np.abs(c) ** 2, axis=-1), 0.0, None)
    return c, loss[()]


def coherent_required_dim(amp: complex) -> int:
    """Smallest dimension whose Poisson tail beyond it stays under COHERENT_LOSS_TOL."""
    mu = abs(amp) ** 2
    # walk the Poisson tail; start from a safe underestimate
    d = max(2, int(mu))
    log_term = -mu  # log of Poisson pmf at k=0
    acc = math.exp(log_term)
    k = 0
    while k < d - 1:
        k += 1
        log_term += math.log(mu / k) if mu > 0 else -math.inf
        acc += math.exp(log_term)
    while 1.0 - acc > COHERENT_LOSS_TOL:
        d += 1
        k += 1
        log_term += math.log(mu / k)
        acc += math.exp(log_term)
    return d


def coherent_state(dim: int, amp: complex) -> np.ndarray:
    """Normalized truncated coherent state |amp> on a dim-level space.

    Raises TruncationError (with the smallest adequate dimension) when the
    truncation loss exceeds 1e-8.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    c, loss = coherent_amplitudes(dim, amp)
    if loss > COHERENT_LOSS_TOL:
        need = coherent_required_dim(amp)
        raise TruncationError(
            f"coherent amplitude |{amp}| needs dim >= {need}, got {dim} "
            f"(truncation loss {loss:.3e})",
            required_dim=need,
        )
    return c / np.linalg.norm(c)


def partial_trace_field(state: JointState) -> DensityMatrix:
    """Trace out the field, returning the mirror density matrix.

    rho_m[i, j] = sum_k psi[k, i] psi*[k, j]; note psi.T @ psi.conj(), not
    psi^dag @ psi, which would transpose the result and flip the momentum
    sign of anything computed from it.
    """
    psi = state.as_matrix()
    return DensityMatrix(psi.T @ psi.conj())


def partial_trace_mirror(state: JointState) -> DensityMatrix:
    """Trace out the mirror, returning the field density matrix."""
    psi = state.as_matrix()
    return DensityMatrix(psi @ psi.conj().T)


def recommend_mirror_dim(gamma_abs: float, g_ratio: float, k_max: int) -> int:
    """Mirror truncation covering every conditional displacement up to k_max
    (the CLI's auto dims take k_max from the field's Poisson tail).

    The k-th field level drags the mirror to |Gamma_k| <= |Gamma| + 2 k g, a
    Poisson state of mean x^2; mean + 5 sqrt(mean) covers its tail. Like
    the field's, it is at least 16, so a mirror at rest still gets a space,
    and at least what the initial coherent state needs (gamma_abs = 2: 21).
    """
    x = gamma_abs + 2.0 * k_max * g_ratio
    return max(16, int(math.ceil(x * x + 5.0 * x)), coherent_required_dim(gamma_abs))


def recommend_field_dim(mu: float) -> int:
    """Field truncation for a coherent-scale mean photon number mu:
    mu + 5 sqrt(mu) + 8, at least 16, and at least what a coherent state of
    mean mu needs (mu = 25 needs 59, one above the formula)."""
    return max(16, int(math.ceil(mu + 5.0 * math.sqrt(mu) + 8.0)),
               coherent_required_dim(math.sqrt(mu)))
