import math

import numpy as np
import pytest

from optomech.driven import BetaCoefficients, evolve_driven
from optomech.errors import TruncationError
from optomech.fock import FockDims, coherent_state, partial_trace_field
from optomech.system import SystemParams
from optomech.undriven import (
    cooling_threshold,
    exponents,
    gamma_k,
    phonon_avg_closed_form,
)

P = SystemParams(omega_c=1e8, omega_m=1e7, g_ratio=0.033, alpha=2.0, gamma=2.0)
T_M = 2 * math.pi / P.omega_m


def phonon_from_state(state) -> float:
    pm = np.diag(partial_trace_field(state).data).real
    return float(pm @ np.arange(pm.size))


def photon_from_state(state) -> float:
    pk = np.sum(np.abs(state.as_matrix()) ** 2, axis=1)
    return float(pk @ np.arange(pk.size))


def evolve_undriven(p, t, dims):
    """The undriven state: the driven one at zero betas."""
    return evolve_driven(p, BetaCoefficients.zero(t), dims)


class TestCoefficients:

    def test_displacement_vanishes_each_mechanical_period(self):
        for n in (1, 2, 3):
            a3, _ = exponents(P, n * T_M)
            assert abs(a3) < 1e-12

    def test_a5_value(self):
        """a5 = -|a3|^2/2 + i E is the factorization's g^2 (i th - 1 + e^{-i th})."""
        th = np.array([0.3, math.pi / 2, 2.0, 5.0])
        a3, E = exponents(P, th / P.omega_m)
        g = P.g_ratio
        expected = g * g * (1j * th - 1.0 + np.exp(-1j * th))
        np.testing.assert_allclose(-np.abs(a3) ** 2 / 2 + 1j * E, expected,
                                   rtol=0, atol=1e-15)

    def test_kerr_phase(self):
        _, E = exponents(P, math.pi / P.omega_m)
        assert E == pytest.approx(P.g_ratio ** 2 * math.pi)
        assert exponents(P, 0.0)[1] == 0.0


def test_gamma_k_half_period_value():
    # k=1 block at omega_m t = pi: (Gamma + k a3) e^{-i pi} with a3 = -2g
    val = gamma_k(P, 1, math.pi / P.omega_m)
    assert val == pytest.approx(-1.934, abs=1e-12)
    assert gamma_k(P, 0, 2 * math.pi / P.omega_m) == pytest.approx(2.0)


class TestEvolveUndriven:

    DIMS = FockDims(24, 40)

    def test_initial_product_state(self):
        st = evolve_undriven(P, 0.0, self.DIMS)
        f = coherent_state(24, 2.0)
        m = coherent_state(40, 2.0)
        np.testing.assert_allclose(st.amps, np.kron(f, m), atol=1e-10)

    def test_photon_number_conserved(self):
        for t in (0.1 * T_M, 0.5 * T_M, 0.9 * T_M):
            st = evolve_undriven(P, t, self.DIMS)
            assert photon_from_state(st) == pytest.approx(4.0, abs=1e-7)

    def test_phonons_match_closed_form(self):
        for t in np.linspace(0.0, T_M, 7):
            st = evolve_undriven(P, float(t), self.DIMS)
            assert phonon_from_state(st) == pytest.approx(
                float(phonon_avg_closed_form(P, t)), rel=1e-7)

    def test_state_is_normalized(self):
        st = evolve_undriven(P, 0.3 * T_M, self.DIMS)
        assert st.norm() == pytest.approx(1.0, abs=1e-12)

    def test_truncation_gate(self):
        with pytest.raises(TruncationError):
            evolve_undriven(P, 0.5 * T_M, FockDims(24, 12))


class TestClosedFormPhonons:

    def test_real_gamma_reduction(self):
        """Generic moment formula collapses to the real-Gamma envelope form."""
        t = np.linspace(0.0, T_M, 101)
        mu = abs(P.alpha) ** 2
        g = P.g_ratio
        gamma = P.gamma.real
        envelope = gamma ** 2 + 4 * g * mu * np.sin(P.omega_m * t / 2) ** 2 * (
            g * (mu + 1) - gamma)
        np.testing.assert_allclose(phonon_avg_closed_form(P, t), envelope,
                                   rtol=1e-12)

    def test_vectorized_shape(self):
        t = np.linspace(0, T_M, 11)
        assert phonon_avg_closed_form(P, t).shape == (11,)

    def test_neutral_amplitude_freezes_phonons(self):
        mu_neutral = P.gamma.real / P.g_ratio - 1.0
        p = SystemParams(omega_c=P.omega_c, omega_m=P.omega_m,
                         g_ratio=P.g_ratio, alpha=math.sqrt(mu_neutral),
                         gamma=2.0)
        t = np.linspace(0, T_M, 50)
        np.testing.assert_allclose(phonon_avg_closed_form(p, t), 4.0,
                                   atol=1e-10)


def test_cooling_threshold_values():
    half, full = cooling_threshold(P)
    assert half == pytest.approx(29.803, abs=1e-3)
    assert full == pytest.approx(59.606, abs=1e-3)
    # heating above, cooling below: check the sign of the envelope extremum
    t_half = math.pi / P.omega_m
    for mu, sign in ((20.0, -1), (70.0, +1)):
        p = SystemParams(omega_c=P.omega_c, omega_m=P.omega_m,
                         g_ratio=P.g_ratio, alpha=math.sqrt(mu), gamma=2.0)
        dev = float(phonon_avg_closed_form(p, t_half)) - 4.0
        assert sign * dev > 0


def test_cooling_threshold_requires_real_gamma():
    p = SystemParams(omega_c=1e8, omega_m=1e7, g_ratio=0.033,
                     alpha=2.0, gamma=1j)
    with pytest.raises(ValueError):
        cooling_threshold(p)
