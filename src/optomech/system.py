"""System parameters for the driven optomechanical Hamiltonian.

H(t)/hbar = omega_c n + omega_m N - g omega_m n (b + b^dag)
            + drive_amp cos(omega_p t) (a + a^dag)

with n, a the cavity (field) operators, N, b the mirror operators, and
g = G0/omega_m the dimensionless coupling.  All frequencies in rad/s;
hbar = 1 throughout.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class SystemParams:
    """Model constants plus the initial coherent amplitudes alpha (field), gamma (mirror)."""

    omega_c: float
    omega_m: float
    omega_p: float = 0.0
    drive_amp: float = 0.0
    g_ratio: float = 0.0
    alpha: complex = 0.0 + 0.0j
    gamma: complex = 0.0 + 0.0j

    def __post_init__(self):
        for f in fields(self):
            if not cmath.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.omega_c <= 0 or self.omega_m <= 0:
            raise ValueError("omega_c and omega_m must be positive")
        if self.omega_p < 0:
            raise ValueError("omega_p must be >= 0")
        if self.drive_amp < 0:
            raise ValueError("drive_amp must be >= 0")
        if self.g_ratio < 0:
            raise ValueError("g_ratio must be >= 0")

    @property
    def g0(self) -> float:
        """Coupling rate G0 = g * omega_m, in rad/s."""
        return self.g_ratio * self.omega_m

    @property
    def detuning(self) -> float:
        """Pump-cavity detuning omega_p - omega_c."""
        return self.omega_p - self.omega_c

    @property
    def mech_period(self) -> float:
        return 2.0 * math.pi / self.omega_m

    @property
    def beat_period(self) -> float:
        """Slow envelope period 2 pi / |detuning| (inf on resonance)."""
        d = abs(self.detuning)
        return math.inf if d == 0.0 else 2.0 * math.pi / d
