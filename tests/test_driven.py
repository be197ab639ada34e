import dataclasses
import math

import numpy as np
import pytest

from conftest import strong_system, tiny_system, weak_system
from optomech import cli, driven
from optomech.driven import (
    BetaCoefficients,
    beta1_rwa,
    evolve_driven,
    integrate_betas,
    linear_entropy_mirror,
    mandel_mirror,
    phi,
    phonon_avg,
    phonon_second_moment,
    photon_avg,
    photon_avg_weak_closed_form,
)
from optomech.fock import FockDims, partial_trace_field
from optomech.oracle import classical_field
from optomech.system import SystemParams
from optomech.undriven import exponents, phonon_avg_closed_form


def phi_by_factors(p, t):
    """phi(t) as the module docstring writes it, one exponential per factor."""
    th = p.omega_m * np.asarray(t, dtype=float)
    E = p.g_ratio ** 2 * (th - np.sin(th))
    F = 2.0 * p.g_ratio * np.sin(th / 2.0)
    mirror = np.conj(p.gamma) * np.exp(0.5j * th) + p.gamma * np.exp(-0.5j * th)
    return (np.exp(-F * F / 2.0) * np.exp(-1j * F * mirror) * np.exp(-1j * E)
            * np.exp(abs(p.alpha) ** 2 * (np.exp(-2j * E) - 1.0)))


def coherent_by_series(dim, x):
    """The first dim amplitudes e^{-|x|^2/2} x^m / sqrt(m!) of |x>, not renormalized."""
    m = np.arange(dim)
    return np.exp(-abs(x) ** 2 / 2) * complex(x) ** m / np.sqrt([float(math.factorial(j)) for j in m])


def rates_by_definition(p, t):
    """The integrands of b1 and b2 in the module docstring."""
    c = -1j * p.drive_amp * np.cos(p.omega_p * t)
    ph = phi_by_factors(p, t)
    return (c * ph * np.exp(1j * p.omega_c * t),
            c * np.conj(ph) * np.exp(-1j * p.omega_c * t))


def trapezoid(y, x):
    """The composite trapezoid rule over the samples y at the points x."""
    return np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2)


def three_node_simpson(p, t_grid, steps_per_period=640):
    """The betas by nested composite Simpson sums, with panels no wider than
    the period of the fastest carrier over steps_per_period and three rate
    evaluations per panel."""
    dt_max = (2.0 * math.pi / max(p.omega_c + p.omega_p, p.omega_c, p.omega_m)
              / steps_per_period)
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
        a3, E = exponents(p, math.pi / p.omega_m)
        g = p.g_ratio
        assert E == pytest.approx(g * g * math.pi)
        assert a3 == pytest.approx(-2 * g, abs=1e-15)

    @pytest.mark.parametrize("g_ratio", [0.033, 0.33])
    def test_phi_is_the_docstring_formula_at_complex_gamma(self, g_ratio):
        """A complex Gamma catches a conjugation or sign slip in Im(a3 Gamma*)."""
        p = dataclasses.replace(weak_system(), g_ratio=g_ratio, gamma=1.5 - 0.7j)
        t = np.linspace(0.0, 3 * p.mech_period, 1001)
        np.testing.assert_allclose(phi(p, t), phi_by_factors(p, t), rtol=0, atol=1e-13)

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
            _, E = exponents(strong, float(t))
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
            assert beta1_rwa(p, t) == pytest.approx(-1j * p.drive_amp * t / 2)

    def test_rwa_detuned(self):
        p = weak_system()
        t = 7e-9
        d = p.detuning
        expected = p.drive_amp / (2 * d) * (np.exp(-1j * d * t) - 1.0)
        assert beta1_rwa(p, t) == pytest.approx(expected)

    @pytest.mark.parametrize("omega_p", [0.8e9, 1e9])
    def test_rwa_is_the_bare_response_less_its_counter_rotating_term(self, omega_p):
        """xi(t) - beta1_rwa(t) = -(Omega/2)(e^{i(omega_c + omega_p) t} - 1)/(omega_c + omega_p),
        off resonance and on it."""
        p = SystemParams(omega_c=1e9, omega_m=1e7, omega_p=omega_p,
                         drive_amp=5e7, g_ratio=0.033, alpha=2 + 1j, gamma=2)
        fast = p.omega_c + p.omega_p
        for t in (0.0, 1.3e-9, 7e-9, 3e-8):
            counter = -0.5 * p.drive_amp * (np.exp(1j * fast * t) - 1.0) / fast
            assert abs(classical_field(p, t) - beta1_rwa(p, t) - counter) <= 1e-12 * (
                1.0 + p.drive_amp * t)

    def test_phi_to_one_matches_quadrature(self):
        """The bare cavity's response xi (phi = 1) against dense trapezoid
        integration of the same ODE."""
        p = weak_system()
        t_end = 2 * p.beat_period
        s = np.linspace(0.0, t_end, 400001)
        integrand = -1j * p.drive_amp * np.cos(p.omega_p * s) * np.exp(
            1j * p.omega_c * s)
        ref = trapezoid(integrand, s)
        assert classical_field(p, t_end) == pytest.approx(ref, abs=2e-7)


class TestIntegrateBetas:

    def test_full_mode_matches_quadrature(self):
        p = weak_system()
        t_end = p.beat_period
        grid = np.linspace(0.0, t_end, 5)
        series = integrate_betas(p, grid)
        s = np.linspace(0.0, t_end, 400001)
        integrand = -1j * p.drive_amp * phi(p, s) * np.cos(
            p.omega_p * s) * np.exp(1j * p.omega_c * s)
        ref = trapezoid(integrand, s)
        assert series.b1[-1] == pytest.approx(ref, abs=2e-7)

    def test_defects_small(self):
        p = weak_system()
        grid = np.linspace(0.0, p.beat_period, 9)
        series = integrate_betas(p, grid)
        assert series.antisymmetry_defect <= 1e-11
        assert series.unitarity_defect <= 1e-11
        assert series.envelope_tail <= 1e-9

    def test_panel_halving_converges(self, monkeypatch):
        """Over two mechanical periods in two samples the envelope alone sets
        the panels; halving their phase leaves b1 and b3 within 1e-9."""
        p = strong_system()
        grid = np.linspace(0.0, 2 * p.mech_period, 3)
        a = integrate_betas(p, grid)
        monkeypatch.setattr(driven, "PANEL_PHASE", driven.PANEL_PHASE / 2)
        b = integrate_betas(p, grid)
        assert b.panels == 2 * a.panels
        assert np.max(np.abs(a.b1 - b.b1)) <= 1e-9
        assert np.max(np.abs(a.b3 - b.b3)) <= 1e-9

    def test_panels_are_sized_by_the_envelope(self):
        """The carrier does not size the panels: raising omega_c and omega_p
        tenfold keeps the count, and each step of the grid gets
        ceil(step omega_env / PANEL_PHASE) panels."""
        p = strong_system()
        grid = np.linspace(0.0, 2.0, 4) * p.mech_period
        fast = dataclasses.replace(p, omega_c=10 * p.omega_c, omega_p=10 * p.omega_p)
        count = driven.beta_panels(p, grid[1])
        assert driven.beta_panels(fast, grid[1]) == count
        rate = p.omega_m * (1 + 4 * abs(p.alpha) ** 2 * p.g_ratio ** 2 + 4 * p.g_ratio ** 2
                            + 2 * p.g_ratio * abs(p.gamma))
        assert driven.envelope_rate(p) == pytest.approx(rate, rel=1e-15)
        assert count == math.ceil(grid[1] * rate / driven.PANEL_PHASE)
        assert integrate_betas(p, grid).panels == 3 * count

    def test_uncoupled_betas_match_phi_to_one(self):
        """At g = 0, phi = 1 and b1 is the bare driven cavity's response xi."""
        p = dataclasses.replace(weak_system(), g_ratio=0.0)
        grid = np.linspace(0.0, 2 * p.beat_period, 33)
        series = integrate_betas(p, grid)
        scale = p.drive_amp / abs(p.detuning)
        np.testing.assert_allclose(series.b1, [classical_field(p, t) for t in grid],
                                   rtol=0, atol=1e-9 * scale)
        np.testing.assert_allclose(series.b3.real, -np.abs(series.b1) ** 2 / 2,
                                   rtol=0, atol=1e-9 * scale ** 2)

    def test_series_indexing(self):
        p = weak_system()
        grid = np.linspace(0.0, 1e-8, 4)
        series = integrate_betas(p, grid)
        assert len(series) == 4
        one = series.at(2)
        assert isinstance(one, BetaCoefficients)
        assert one.t == grid[2]
        assert one.b1 == series.b1[2]

    def test_shared_nodes_match_three_node_simpson(self):
        """Panels sharing their end nodes, at strong coupling over half a
        mechanical period, against Simpson sums at 640 panels per carrier
        period."""
        p = strong_system()
        grid = np.linspace(0.0, 0.55, 15) * p.mech_period
        series = integrate_betas(p, grid)
        ref = three_node_simpson(p, grid)
        scale = max(1.0, np.max(np.abs(series.b1)))
        for got, want in zip((series.b1, series.b2, series.b3), ref):
            assert np.max(np.abs(got - want)) <= 1e-9 * scale
        assert series.antisymmetry_defect <= 1e-11
        assert series.unitarity_defect <= 1e-11

    def test_rejects_descending_grid(self):
        p = weak_system()
        with pytest.raises(ValueError, match="^t_grid must be evenly spaced"):
            integrate_betas(p, np.array([0.0, 2e-9, 1e-9]))

    @pytest.mark.parametrize("grid", [
        [1e-9, 0.0],                # descending
        [0.0, 1e-9, 3e-9],          # uneven
        [0.0],                      # one point
    ], ids=["descending", "uneven", "one-point"])
    def test_rejects_grids_that_are_not_evenly_spaced(self, grid):
        with pytest.raises(ValueError, match="^t_grid must be evenly spaced"):
            integrate_betas(weak_system(), np.array(grid))

    def test_rejects_a_grid_not_from_zero(self):
        with pytest.raises(ValueError, match="^t_grid must start at 0"):
            integrate_betas(weak_system(), np.linspace(1e-9, 3e-9, 3))


def test_weak_closed_form_equals_rwa_photon_route():
    """|alpha + beta1_rwa|^2 reproduces the envelope formula for real alpha."""
    p = weak_system()
    t = np.linspace(0.0, 4 * p.beat_period, 257)
    route = np.abs(p.alpha + beta1_rwa(p, t)) ** 2
    np.testing.assert_allclose(photon_avg_weak_closed_form(p, t), route,
                               rtol=1e-12)


@pytest.mark.parametrize("omega_p", [0.8e9, 1e9])
def test_weak_closed_form_at_complex_alpha(omega_p):
    """At alpha = 2 + 1j, off resonance and on it, the weak closed form is
    |alpha + beta1_rwa|^2, and at g = 0 it stays within the counter-rotating
    term e = Omega/(omega_c + omega_p) of the bare field's |alpha + xi|^2:
    | |alpha + xi|^2 - |alpha + beta1_rwa|^2 | <= 2 |alpha + xi| e + e^2."""
    p = SystemParams(omega_c=1e9, omega_m=1e7, omega_p=omega_p, drive_amp=5e7,
                     g_ratio=0.0, alpha=2 + 1j, gamma=2)
    t = np.linspace(0.0, 3e-8, 601)
    closed = photon_avg_weak_closed_form(p, t)
    np.testing.assert_allclose(closed, np.abs(p.alpha + beta1_rwa(p, t)) ** 2,
                               rtol=0, atol=1e-12 * np.max(closed))
    field = np.abs(p.alpha + np.array([classical_field(p, s) for s in t]))
    e = p.drive_amp / (p.omega_c + p.omega_p)
    assert np.all(np.abs(field ** 2 - closed) <= 2.0 * field * e + e * e + 1e-12)


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
            yield b, evolve_driven(self.p, b, self.dims)

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


def test_driven_at_zero_betas_is_the_undriven_formula():
    """The state the undriven module docstring writes out, from E and a3
    computed here, at a complex Gamma."""
    p = tiny_system(gamma=1.5 - 0.7j, g_ratio=0.1)
    dims = FockDims(14, 40)
    k = np.arange(dims.field_dim)
    for t in (0.0, 0.3 * p.mech_period, 0.7 * p.mech_period):
        th = p.omega_m * t
        g = p.g_ratio
        E = g * g * (th - math.sin(th))
        a3 = -g * (1.0 - np.exp(1j * th))
        c = (coherent_by_series(dims.field_dim, p.alpha)
             * np.exp(-1j * (p.omega_c * t - (a3 * np.conj(p.gamma)).imag) * k)
             * np.exp(1j * E * k * k))
        blocks = [coherent_by_series(dims.mirror_dim, (p.gamma + n * a3) * np.exp(-1j * th))
                  for n in k]
        want = (c[:, None] * np.array(blocks)).ravel()
        got = evolve_driven(p, BetaCoefficients.zero(t), dims)
        np.testing.assert_allclose(got.amps, want, rtol=0, atol=1e-11)


def test_phonon_closed_form_is_phonon_avg_at_zero_betas():
    p = tiny_system()
    for t in np.linspace(0.0, p.mech_period, 7):
        assert phonon_avg(p, BetaCoefficients.zero(t)) == pytest.approx(
            float(phonon_avg_closed_form(p, t)), rel=1e-14)


def test_mandel_field_identically_one():
    """The field stays coherent, so the analytic field Mandel parameter the
    CLI writes is a series of ones."""
    p = weak_system()
    grid = np.linspace(0.0, p.beat_period, 17)
    series = cli._analytic_series(p, integrate_betas(p, grid))
    np.testing.assert_array_equal(series["mandel_field"].y, np.ones(17))


def test_mandel_field_undefined_at_zero_mean():
    """Where a mean is 0, variance over mean is 0/0; both routes write 1
    there (`postproc.variance_over_mean`). Undriven at alpha = 0 the field
    stays at <n> = 0, and at gamma = 0 too the mirror stays at <N> = 0."""
    for gamma in (1.0, 0.0):
        p = SystemParams(omega_c=1e9, omega_m=1e7, alpha=0.0, gamma=gamma)
        series = cli._analytic_series(p, integrate_betas(p, np.linspace(0.0, 1e-6, 5)))
        np.testing.assert_array_equal(series["mandel_field"].y, np.ones(5))
        assert series["mandel_mirror"].y[0] == 1.0
    np.testing.assert_array_equal(series["mandel_mirror"].y, np.ones(5))


def test_entropy_zero_at_mechanical_periods():
    p = tiny_system()
    b = BetaCoefficients.zero(p.mech_period)
    assert linear_entropy_mirror(p, b) == pytest.approx(0.0, abs=1e-12)


def test_entropy_is_non_negative_at_pure_states():
    """a3 = 0 at t = 0, where 1 - Tr[rho_m^2] cancels to rounding."""
    p = weak_system()
    b = integrate_betas(p, np.linspace(0.0, p.mech_period, 11))
    s = linear_entropy_mirror(p, b)
    assert s[0] == 0.0
    assert np.all(s >= 0.0)


@pytest.mark.parametrize("alpha", [30.0, 38.0, 40.0])
def test_entropy_at_large_amplitudes_continues_the_small_lag_limit(alpha):
    """For small x = |a3|^2 the lag sum is 2 x Var(n) (1 - O(3 x |alpha|^2)),
    with Var(n) = |alpha|^2: within 1e-4 here, where 3 x |alpha|^2 <= 1.2e-5.
    Past |alpha|^2 ~ 1,490 the Poisson weights still hold (alpha = 40)."""
    p = SystemParams(omega_c=1e8, omega_m=1e7, g_ratio=0.001, alpha=alpha)
    t = 5e-9
    x = abs(exponents(p, t)[0]) ** 2
    s = linear_entropy_mirror(p, BetaCoefficients.zero(t))
    assert s == pytest.approx(2.0 * x * alpha ** 2, rel=1e-4)


def test_entropy_blocks_keep_each_sample_bit_for_bit():
    """The double Poisson sum runs over blocks of samples; each sample gets
    the bits it gets evaluated alone."""
    p = weak_system()
    grid = np.linspace(0.0, p.mech_period, 2 * driven._ENTROPY_BLOCK + 3)
    b = integrate_betas(p, grid)
    kmax = driven.entropy_kmax(float(np.max(np.abs(p.alpha + b.b1) ** 2)))
    alone = [linear_entropy_mirror(p, b.at(i), kmax=kmax) for i in range(grid.size)]
    assert linear_entropy_mirror(p, b, kmax=kmax).tobytes() == np.array(alone).tobytes()


def test_phonon_second_moment_is_a_poisson_sum():
    """<N^2> = sum_k P_k (|Gamma + k a3|^4 + |Gamma + k a3|^2): each photon
    block carries a mirror coherent state, here at means where the raw
    photon moments up to <n^4> matter and at a complex Gamma."""
    ks = np.arange(200)
    log_fact = np.cumsum(np.log(np.maximum(ks, 1)))
    for mu in (0.5, 4.0, 9.0):
        p = tiny_system(alpha=math.sqrt(mu), gamma=1.5 - 0.7j, g_ratio=0.3)
        for t in (0.2 * p.mech_period, 0.5 * p.mech_period):
            weights = np.exp(-mu + ks * math.log(mu) - log_fact)
            a3, _ = exponents(p, t)
            block = np.abs(p.gamma + ks * a3) ** 2
            brute = float(weights @ (block ** 2 + block))
            got = phonon_second_moment(p, BetaCoefficients.zero(t))
            assert got == pytest.approx(brute, rel=1e-12)
