import dataclasses
import math

import numpy as np
import pytest

from conftest import strong_system, tiny_system, weak_system
from optomech import driven
from optomech.driven import (
    BetaCoefficients,
    BetaSeries,
    beta1_phi_to_one,
    beta1_rwa,
    coherent_photon_moments,
    envelope_EF,
    evolve_driven,
    integrate_betas,
    linear_entropy_mirror,
    mandel_field,
    mandel_mirror,
    phi,
    phonon_avg,
    phonon_second_moment,
    photon_avg,
    photon_avg_weak_closed_form,
)
from optomech.fock import FockDims, partial_trace_field
from optomech.system import SystemParams
from optomech.undriven import evolve_undriven, phonon_avg_closed_form


def phi_by_factors(p, t):
    """phi(t) as the module docstring writes it, one exponential per factor."""
    th = p.omega_m * np.asarray(t, dtype=float)
    E = p.g_ratio ** 2 * (th - np.sin(th))
    F = 2.0 * p.g_ratio * np.sin(th / 2.0)
    mirror = np.conj(p.gamma) * np.exp(0.5j * th) + p.gamma * np.exp(-0.5j * th)
    return (np.exp(-F * F / 2.0) * np.exp(-1j * F * mirror) * np.exp(-1j * E)
            * np.exp(abs(p.alpha) ** 2 * (np.exp(-2j * E) - 1.0)))


def rates_by_definition(p, t):
    """The integrands of b1 and b2 in the module docstring."""
    c = -1j * p.drive_amp * np.cos(p.omega_p * t)
    ph = phi_by_factors(p, t)
    return (c * ph * np.exp(1j * p.omega_c * t),
            c * np.conj(ph) * np.exp(-1j * p.omega_c * t))


def three_node_simpson(p, t_grid, steps_per_period=driven.DEFAULT_STEPS_PER_PERIOD):
    """integrate_betas' nested Simpson sums with three fresh rate evaluations per panel."""
    dt_max = 2.0 * math.pi / p.fastest_angular_frequency / steps_per_period
    out = np.zeros((3, len(t_grid)), dtype=np.complex128)
    b = np.zeros(3, dtype=np.complex128)
    prev = 0.0
    for k, t in enumerate(t_grid):
        if t > prev:
            n = max(1, math.ceil((t - prev) / dt_max))
            h = (t - prev) / n
            t0 = prev + np.arange(n) * h
            f1, f2 = rates_by_definition(p, np.stack((t0, t0 + h / 2, t0 + h)))
            b1 = b[0] + np.cumsum(h / 6 * (f1[0] + 4 * f1[1] + f1[2]))
            b2 = b[1] + np.cumsum(h / 6 * (f2[0] + 4 * f2[1] + f2[2]))
            b1_start = np.concatenate(([b[0]], b1[:-1]))
            b1_mid = b1_start + h / 24 * (5 * f1[0] + 8 * f1[1] - f1[2])
            b3 = b[2] + np.cumsum(h / 6 * (b1_start * f2[0] + 4 * b1_mid * f2[1] + b1 * f2[2]))
            b = np.array([b1[-1], b2[-1], b3[-1]])
        out[:, k] = b
        prev = t
    return out


class TestEnvelope:

    def test_values_at_half_period(self):
        p = weak_system()
        th = math.pi
        t = th / p.omega_m
        E, F = envelope_EF(p, t)
        g = p.g_ratio
        assert E == pytest.approx(g * g * (math.pi - 0.0))
        assert F == pytest.approx(2 * g)

    def test_phi_properties(self):
        p = weak_system()
        t = np.linspace(0, p.mech_period, 64)
        values = phi(p, t)
        assert np.all(np.abs(values) <= 1.0 + 1e-12)
        assert values[0] == pytest.approx(1.0)

    def test_phi_is_one_without_coupling(self):
        p = SystemParams(omega_c=1e9, omega_m=1e7, omega_p=0.8e9,
                         drive_amp=1e8, g_ratio=0.0, alpha=2.0, gamma=2.0)
        t = np.linspace(0, p.mech_period, 32)
        np.testing.assert_allclose(phi(p, t), 1.0, atol=1e-14)

    def test_phi_collapse_and_revival_scale(self):
        """phi decays on the collapse scale and recovers near E = pi."""
        p = weak_system()
        strong = SystemParams(omega_c=p.omega_c, omega_m=p.omega_m,
                              omega_p=p.omega_p, drive_amp=p.drive_amp,
                              g_ratio=0.33, alpha=2.0, gamma=2.0)
        t_revival = None
        # E(t) = g^2 (w t - sin w t) sweeps through pi near w t ~ 28.6
        for t in np.linspace(2.7e-6, 3.1e-6, 400):
            E, _ = envelope_EF(strong, float(t))
            if E >= math.pi:
                t_revival = float(t)
                break
        assert t_revival is not None
        assert abs(phi(strong, 1.2e-6)) < 0.05
        assert abs(phi(strong, t_revival)) > 0.2


class TestClosedFormBetas:

    def test_rwa_on_resonance(self):
        p = SystemParams(omega_c=1e9, omega_m=1e7, omega_p=1e9,
                         drive_amp=1.2e8, g_ratio=0.033, alpha=2, gamma=2)
        for t in (0.0, 1e-9, 5e-9):
            assert beta1_rwa(p, t) == pytest.approx(1j * p.drive_amp * t / 2)

    def test_rwa_detuned(self):
        p = weak_system()
        t = 7e-9
        d = p.detuning
        expected = p.drive_amp / (2 * d) * (np.exp(1j * d * t) - 1.0)
        assert beta1_rwa(p, t) == pytest.approx(expected)

    def test_phi_to_one_matches_quadrature(self):
        """Closed form against dense trapezoid integration of the same ODE."""
        p = weak_system()
        t_end = 2 * p.beat_period
        s = np.linspace(0.0, t_end, 400001)
        integrand = -1j * p.drive_amp * np.cos(p.omega_p * s) * np.exp(
            1j * p.omega_c * s)
        ref = np.trapezoid(integrand, s)
        assert beta1_phi_to_one(p, t_end) == pytest.approx(ref, abs=2e-7)

    def test_phi_to_one_rejects_resonance(self):
        p = SystemParams(omega_c=1e9, omega_m=1e7, omega_p=1e9,
                         drive_amp=1e8, alpha=2, gamma=2)
        with pytest.raises(ValueError):
            beta1_phi_to_one(p, 1e-9)


class TestIntegrateBetas:

    def test_full_mode_matches_quadrature(self):
        p = weak_system()
        t_end = p.beat_period
        grid = np.linspace(0.0, t_end, 5)
        series = integrate_betas(p, grid)
        s = np.linspace(0.0, t_end, 400001)
        integrand = -1j * p.drive_amp * phi(p, s) * np.cos(
            p.omega_p * s) * np.exp(1j * p.omega_c * s)
        ref = np.trapezoid(integrand, s)
        assert series.b1[-1] == pytest.approx(ref, abs=2e-7)

    def test_defects_small(self):
        p = weak_system()
        grid = np.linspace(0.0, p.beat_period, 9)
        series = integrate_betas(p, grid)
        assert series.antisymmetry_defect < 1e-9
        assert series.unitarity_defect < 1e-9

    def test_step_halving_converges(self):
        p = weak_system()
        grid = np.linspace(0.0, p.beat_period, 3)
        a = integrate_betas(p, grid, steps_per_period=160)
        b = integrate_betas(p, grid, steps_per_period=320)
        scale = p.drive_amp / abs(p.detuning)
        assert np.max(np.abs(a.b1 - b.b1)) < 1e-9 * scale

    def test_uncoupled_betas_match_phi_to_one(self):
        """At g = 0, phi = 1 and b1 is the bare driven cavity's closed form."""
        p = dataclasses.replace(weak_system(), g_ratio=0.0)
        grid = np.linspace(0.0, 2 * p.beat_period, 33)
        series = integrate_betas(p, grid)
        scale = p.drive_amp / abs(p.detuning)
        np.testing.assert_allclose(series.b1, beta1_phi_to_one(p, grid),
                                   rtol=0, atol=1e-9 * scale)
        np.testing.assert_allclose(series.b3.real, -np.abs(series.b1) ** 2 / 2,
                                   rtol=0, atol=1e-9 * scale ** 2)

    def test_chunking_does_not_change_the_sums(self, monkeypatch):
        """Chunk boundaries, also inside an interval and at repeated grid
        points, leave the panel sums untouched."""
        p = weak_system()
        grid = np.array([0.0, 0.0, 0.3, 0.3, 0.7, 1.0]) * p.beat_period
        whole = integrate_betas(p, grid)
        monkeypatch.setattr(driven, "_PANEL_CHUNK", 7)
        chunked = integrate_betas(p, grid)
        for name in ("b1", "b2", "b3"):
            np.testing.assert_array_equal(getattr(chunked, name), getattr(whole, name))

    def test_series_indexing(self):
        p = weak_system()
        grid = np.linspace(0.0, 1e-8, 4)
        series = integrate_betas(p, grid)
        assert len(series) == 4
        one = series.at(2)
        assert isinstance(one, BetaCoefficients)
        assert one.t == grid[2]
        assert one.b1 == series.b1[2]

    def test_drive_rates_match_their_definition(self):
        p = strong_system()
        scale = p.drive_amp
        for t in (0.0, 0.37 * p.mech_period, np.linspace(0.0, 2 * p.mech_period, 501)):
            got = driven._drive_rates(p, t)
            want = rates_by_definition(p, t)
            for g, w in zip(got, want):
                assert np.shape(g) == np.shape(t)
                assert np.max(np.abs(g - w)) <= 1e-13 * scale

    def test_shared_nodes_match_three_node_simpson(self):
        """Reusing each panel's right end as the next panel's left end, at
        strong coupling over half a mechanical period, uneven intervals and a
        repeated point included."""
        p = strong_system()
        grid = np.concatenate((np.linspace(0.0, 0.2, 5), [0.2], np.linspace(0.27, 0.55, 9)))
        grid *= p.mech_period
        series = integrate_betas(p, grid)
        ref = three_node_simpson(p, grid)
        for got, want in zip((series.b1, series.b2, series.b3), ref):
            assert np.max(np.abs(got - want)) <= 1e-12
        assert series.antisymmetry_defect <= 1e-9
        assert series.unitarity_defect <= 1e-9

    def test_rejects_descending_grid(self):
        p = weak_system()
        with pytest.raises(ValueError):
            integrate_betas(p, np.array([0.0, 2e-9, 1e-9]))


def test_weak_closed_form_equals_rwa_photon_route():
    """|alpha + beta1_rwa|^2 reproduces the envelope formula for real alpha."""
    p = weak_system()
    t = np.linspace(0.0, 4 * p.beat_period, 257)
    route = np.abs(p.alpha + beta1_rwa(p, t)) ** 2
    np.testing.assert_allclose(photon_avg_weak_closed_form(p, t), route,
                               rtol=1e-12)


def test_weak_closed_form_resonance_limit():
    p = SystemParams(omega_c=1e9, omega_m=1e7, omega_p=1e9,
                     drive_amp=1e8, g_ratio=0.033, alpha=2, gamma=2)
    t = np.array([0.0, 2e-9, 8e-9])
    expected = 4.0 + (p.drive_amp * t / 2) ** 2
    np.testing.assert_allclose(photon_avg_weak_closed_form(p, t), expected,
                               rtol=1e-10)


class TestObservables:
    """Closed-form moments against brute-force sums over the assembled state."""

    def setup_method(self):
        self.p = tiny_system()
        grid = np.linspace(0.0, 0.7 * self.p.mech_period, 4)
        self.series = integrate_betas(self.p, grid)
        self.dims = FockDims(16, 24)

    def states(self):
        for i in range(1, len(self.series)):
            b = self.series.at(i)
            yield b, evolve_driven(self.p, b.t, b, self.dims)

    def test_photon_avg(self):
        for b, st in self.states():
            pk = np.sum(np.abs(st.as_matrix()) ** 2, axis=1)
            brute = pk @ np.arange(self.dims.field_dim)
            assert photon_avg(self.p, b) == pytest.approx(brute, rel=1e-7)

    def test_phonon_moments(self):
        for b, st in self.states():
            pm = np.diag(partial_trace_field(st).data).real
            m = np.arange(self.dims.mirror_dim)
            assert phonon_avg(self.p, b) == pytest.approx(pm @ m, rel=1e-7)
            assert phonon_second_moment(self.p, b) == pytest.approx(
                pm @ m ** 2, rel=1e-6)

    def test_mandel_mirror(self):
        for b, st in self.states():
            pm = np.diag(partial_trace_field(st).data).real
            m = np.arange(self.dims.mirror_dim)
            m1 = pm @ m
            brute = (pm @ m ** 2 - m1 ** 2) / m1
            assert mandel_mirror(self.p, b) == pytest.approx(brute, rel=1e-6)

    def test_linear_entropy(self):
        for b, st in self.states():
            brute = 1.0 - partial_trace_field(st).purity()
            assert linear_entropy_mirror(self.p, b) == pytest.approx(
                brute, abs=1e-8)

    def test_prefactor_modulus_identity(self):
        # Re b3 = -|b1|^2/2 up to integrator error, so the lead factor
        # of the assembled state has modulus one
        for b, _ in self.states():
            assert b.b3.real + abs(b.b1) ** 2 / 2 == pytest.approx(0.0,
                                                                   abs=1e-9)


def test_undriven_is_driven_at_zero_betas():
    p = tiny_system()
    dims = FockDims(16, 24)
    for t in (0.0, 0.3 * p.mech_period, 0.7 * p.mech_period):
        exact = evolve_undriven(p, t, dims)
        driven_state = evolve_driven(p, t, BetaCoefficients.zero(t), dims)
        np.testing.assert_allclose(driven_state.amps, exact.amps, rtol=0, atol=1e-12)


def test_phonon_closed_form_is_phonon_avg_at_zero_betas():
    p = tiny_system()
    for t in np.linspace(0.0, p.mech_period, 7):
        assert phonon_avg(p, BetaCoefficients.zero(t), t=t) == pytest.approx(
            float(phonon_avg_closed_form(p, t)), rel=1e-14)


def test_mandel_field_identically_one():
    p = weak_system()
    grid = np.linspace(0.0, p.beat_period, 17)
    series = integrate_betas(p, grid)
    np.testing.assert_allclose(mandel_field(p, series), 1.0, atol=1e-12)


def test_mandel_field_undefined_at_zero_mean():
    p = SystemParams(omega_c=1e9, omega_m=1e7, alpha=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        mandel_field(p, BetaCoefficients.zero())


def test_entropy_zero_at_mechanical_periods():
    p = tiny_system()
    b = BetaCoefficients.zero(p.mech_period)
    assert linear_entropy_mirror(p, b, t=p.mech_period) == pytest.approx(
        0.0, abs=1e-12)


def test_entropy_is_non_negative_at_pure_states():
    """a3 = 0 at t = 0, where 1 - Tr[rho_m^2] cancels to rounding."""
    p = weak_system()
    b = integrate_betas(p, np.linspace(0.0, p.mech_period, 11))
    s = linear_entropy_mirror(p, b)
    assert s[0] == 0.0
    assert np.all(s >= 0.0)


def test_coherent_photon_moments_poisson_sums():
    ks = np.arange(200)
    log_fact = np.cumsum(np.log(np.maximum(ks, 1)))
    for mu in (0.5, 1.0, 4.0, 9.0):
        weights = np.exp(-mu + ks * math.log(mu) - log_fact)
        n1, n2, n3, n4 = coherent_photon_moments(mu)
        for order, val in ((1, n1), (2, n2), (3, n3), (4, n4)):
            brute = float(weights @ ks.astype(float) ** order)
            assert val == pytest.approx(brute, rel=1e-10)
    assert coherent_photon_moments(4.0)[3] == pytest.approx(756.0)
