import math
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_system
from optomech import config, wigner
from optomech.driven import evolve_driven, integrate_betas
from optomech.errors import IntegrationError
from optomech.fock import (
    DensityMatrix,
    FockDims,
    coherent_amplitudes,
    coherent_state,
)
from optomech.oracle import evolve_numeric
from optomech.system import SystemParams
from optomech.wigner import (
    WignerGrid,
    default_snapshot_times,
    grid_axis,
    snapshot_grid,
    snapshot_set,
    suggested_half_width,
    wigner_continuous,
    write_grid_csv,
    write_grid_pgm,
)

RNG = np.random.default_rng(42)


def coherent_rho(dim, amp):
    c = coherent_state(dim, amp)
    return DensityMatrix(np.outer(c, c.conj()))


def coherent_mixture(dim, amps, weights):
    """sum_k w_k |amp_k><amp_k| from the truncated, unrenormalised coherent columns."""
    c, _ = coherent_amplitudes(dim, np.asarray(amps, dtype=complex))
    return DensityMatrix(np.einsum("k,kn,km->nm", weights, c, c.conj()))


def gaussian_mixture_wigner(grid, amps, weights):
    """Closed-form W of a coherent mixture: one vacuum Gaussian per amplitude."""
    qq = grid.q_axis[:, None]
    pp = grid.p_axis[None, :]
    return sum(
        w * np.exp(-(qq - math.sqrt(2) * a.real) ** 2 - (pp - math.sqrt(2) * a.imag) ** 2)
        for w, a in zip(weights, np.asarray(amps, dtype=complex))
    ) / math.pi


def hermite_functions(x, dim):
    """h[n, j] = psi_n(x_j), harmonic-oscillator eigenfunctions, unit mass."""
    h = np.empty((dim, x.size))
    h[0] = math.pi ** -0.25 * np.exp(-0.5 * x ** 2)
    if dim > 1:
        h[1] = x * math.sqrt(2.0) * h[0]
    for n in range(2, dim):
        h[n] = x * math.sqrt(2.0 / n) * h[n - 1] - math.sqrt((n - 1) / n) * h[n - 2]
    return h


def wigner_direct_integral(rho, q_axis, p_axis, x_pad=8.0, dx=0.02):
    """(1/pi) Integral dx e^{2 i x p} <q-x|rho|q+x>, by brute quadrature.

    Slow on purpose; the small-dimension oracle the displaced-parity route
    is checked against, on the same axes. The exponent sign pairs with the
    <q-x| ... |q+x> ordering: together they put a coherent state's peak at
    p = +sqrt(2) Im amp, matching the beta = (q + ip)/sqrt(2) convention of
    the parity route (the same integral with e^{-2ixp} is the p-mirrored
    function).
    """
    span = max(abs(q_axis[0]), abs(q_axis[-1])) + x_pad
    x = np.arange(-span, span + dx / 2, dx)
    values = np.empty((q_axis.size, p_axis.size), dtype=np.complex128)
    phases = np.exp(2j * np.outer(x, p_axis))
    for i, q in enumerate(q_axis):
        h_minus = hermite_functions(q - x, rho.dim)
        h_plus = hermite_functions(q + x, rho.dim)
        corr = np.einsum("mx,mn,nx->x", h_minus, rho.data, h_plus)
        values[i] = (corr[:, np.newaxis] * phases).sum(axis=0) * dx / math.pi
    assert np.max(np.abs(values.imag)) <= 1e-8
    return WignerGrid(q_axis, p_axis, values.real)


def analytic_states(p, dims):
    """Joint states of the coherent-averaged propagator at the snapshot times."""
    t = np.asarray(default_snapshot_times(p))
    betas = integrate_betas(p, t)
    return [evolve_driven(p, betas.at(i), dims) for i in range(t.size)]


def numeric_states(p, dims):
    """Joint states of the brute-force oracle at the snapshot times."""
    return evolve_numeric(p, dims, t_grid=np.asarray(default_snapshot_times(p)),
                          keep_states=True).states


def snapshot_grids_of(p, states, n_grid):
    """(subsystem, t, grid) for each entry of snapshot_set."""
    return [(subsystem, t, snapshot_grid(rho, n_grid))
            for subsystem, t, rho in snapshot_set(states, default_snapshot_times(p))]


def random_rho(dim, rank=3):
    """Random mixed state from a few Haar-ish pure components."""
    rho = np.zeros((dim, dim), dtype=complex)
    w = RNG.dirichlet(np.ones(rank))
    for i in range(rank):
        v = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
        v /= np.linalg.norm(v)
        rho += w[i] * np.outer(v, v.conj())
    return DensityMatrix(rho)


# Distinct radii per pass of the reference series, which bounds its work arrays.
SERIES_RADII_BLOCK = 512


def series_radial_sums(rho_mat, radii):
    """f[L, r] = f_L(radii[r]) of the Clenshaw-Laguerre series.

    W(q,p) = (1/pi) Re sum_L gamma^L / sqrt(L!) f_L(b), gamma = 2 beta,
    b = |gamma|^2, f_L(b) = sum_n c_{L,n} e^{-b/2} (-1)^n sqrt(n! L!/(n+L)!)
    L_n^L(b), c_{L,n} = rho[n, n+L] doubled for L > 0 (Johansson, Nation
    and Nori, Comput. Phys. Commun. 184, 1234 (2013)). The sums for all L
    run together down the coefficient index j, e^{-b/2} folded into every
    coefficient so the partial sums stay bounded; an independent reference
    for the lattice route, valid while e^{-b/2} is a normal float.
    """
    dim = rho_mat.shape[0]
    n = np.arange(dim)
    band = n[np.newaxis, :] + n[:, np.newaxis]
    coeffs = np.where(band < dim, rho_mat[n, np.minimum(band, dim - 1)], 0.0)
    coeffs[1:] *= 2.0
    damp = np.exp(-0.5 * radii)
    ell = np.arange(dim, dtype=float)[:, np.newaxis]
    y0 = np.zeros((dim, radii.size), dtype=np.complex128)
    y1 = np.zeros_like(y0)
    for j in range(dim - 1, -1, -1):
        live = dim - j
        k = j + 2.0
        L = ell[:live]
        g = 1.0 / np.sqrt((L + k) * k)
        nxt = y0[:live] - g * (L + 2.0 * k - 1.0 - radii) * y1[:live]
        y0[:live] = coeffs[:live, j, np.newaxis] * damp - np.sqrt((k - 1.0) * (L + k - 1.0)) * g * y1[:live]
        y1[:live] = nxt
    return y0 - y1 * ((ell + 1.0 - radii) / np.sqrt(ell + 1.0))


def series_values(rho_mat, gamma, b):
    """W at displacements gamma = 2 beta with radii b = |gamma|^2, each
    distinct radius summed once and its f_L gathered to its points."""
    radii, at = np.unique(b, return_inverse=True)
    dim = rho_mat.shape[0]
    values = np.empty(b.size)
    for start in range(0, radii.size, SERIES_RADII_BLOCK):
        f = series_radial_sums(rho_mat, radii[start:start + SERIES_RADII_BLOCK])
        points = np.flatnonzero((at >= start) & (at < start + SERIES_RADII_BLOCK))
        at_f, g = at[points] - start, gamma[points]
        acc = f[dim - 1][at_f]
        for L in range(dim - 2, -1, -1):
            acc = f[L][at_f] + acc * g * (1.0 / math.sqrt(L + 1))
        values[points] = acc.real / math.pi
    return values


def series_grid(rho, q_axis, p_axis):
    """The Clenshaw-Laguerre series on q_axis x p_axis."""
    gamma = math.sqrt(2.0) * (q_axis[:, None] + 1j * p_axis[None, :]).ravel()
    b = ((2.0 * q_axis ** 2)[:, None] + (2.0 * p_axis ** 2)[None, :]).ravel()
    return series_values(rho.data, gamma, b).reshape(q_axis.size, p_axis.size)


class TestContinuous:

    def test_vacuum_peak(self):
        rho = DensityMatrix(np.diag([1.0] + [0.0] * 5))
        axis = grid_axis(-4, 4, 81)
        grid = wigner_continuous(rho, axis, axis)
        assert grid.values.max() == pytest.approx(1 / math.pi, abs=1e-4)
        # peak sits at the origin
        i, j = np.unravel_index(grid.values.argmax(), grid.values.shape)
        assert grid.q_axis[i] == pytest.approx(0.0, abs=0.06)
        assert grid.p_axis[j] == pytest.approx(0.0, abs=0.06)
        assert grid.total_mass() == pytest.approx(1.0, abs=1e-3)

    def test_coherent_state_is_displaced_gaussian(self):
        """alpha = 2 puts the blob at (2 sqrt 2, 0); q + ip = sqrt(2) beta."""
        rho = coherent_rho(30, 2.0)
        grid = wigner_continuous(rho, grid_axis(-1, 6, 101), grid_axis(-3, 3, 101))
        qq = grid.q_axis[:, None]
        pp = grid.p_axis[None, :]
        exact = np.exp(-(qq - 2 * math.sqrt(2)) ** 2 - pp ** 2) / math.pi
        np.testing.assert_allclose(grid.values, exact, atol=1e-6)

    def test_complex_amplitude_lands_in_the_right_quadrant(self):
        rho = coherent_rho(18, 1.0 + 1.0j)
        axis = grid_axis(-6, 6, 121)
        grid = wigner_continuous(rho, axis, axis)
        i, j = np.unravel_index(grid.values.argmax(), grid.values.shape)
        assert grid.q_axis[i] == pytest.approx(math.sqrt(2), abs=0.11)
        assert grid.p_axis[j] == pytest.approx(math.sqrt(2), abs=0.11)

    def test_matches_direct_integral_oracle(self):
        """Displaced-parity evaluation against the defining integral."""
        rho = random_rho(6)
        axis = grid_axis(-6.0, 6.0, 41)
        fast = wigner_continuous(rho, axis, axis)
        slow = wigner_direct_integral(rho, axis, axis)
        np.testing.assert_allclose(fast.values, slow.values, atol=1e-8)

    def test_cat_state_negativity_and_floor(self):
        c1 = coherent_state(30, 2.0)
        c2 = coherent_state(30, -2.0)
        v = c1 + c2
        v /= np.linalg.norm(v)
        rho = DensityMatrix(np.outer(v, v.conj()))
        axis = grid_axis(-8, 8, 193)
        grid = wigner_continuous(rho, axis, axis)
        assert grid.values.min() < -0.2  # interference fringes
        assert grid.values.min() >= -1 / math.pi - 1e-6
        assert grid.total_mass() == pytest.approx(1.0, abs=2e-2)

    def test_purity_from_phase_space(self):
        cases = [
            (coherent_rho(16, 0.8), 1.0),
            (DensityMatrix(np.diag([0.5, 0.25, 0.25] + [0.0] * 5)), 0.375),
        ]
        axis = grid_axis(-5, 5, 161)
        for rho, purity in cases:
            grid = wigner_continuous(rho, axis, axis)
            estimate = 2 * math.pi * grid.cell_area * np.sum(
                grid.values ** 2)
            assert estimate == pytest.approx(purity, abs=1e-3)

    def test_boundary_warning(self):
        rho = coherent_rho(21, 2.0)
        axis = grid_axis(-2, 2, 41)
        with pytest.warns(UserWarning, match="boundary"):
            wigner_continuous(rho, axis, axis)

    def test_realness_of_output(self):
        axis = grid_axis(-7, 7, 71)
        grid = wigner_continuous(random_rho(8), axis, axis)
        assert grid.values.dtype == np.float64


def linspace_wigner(rho, half_width, n):
    """The reference series on np.linspace axes with b = |gamma|^2, rounded
    point by point."""
    axis = np.linspace(-half_width, half_width, n)
    gamma = math.sqrt(2.0) * (axis[:, None] + 1j * axis[None, :]).ravel()
    b = gamma.real ** 2 + gamma.imag ** 2
    return series_values(rho.data, gamma, b).reshape(n, n)


class TestMirrorExactAxes:

    @pytest.mark.parametrize("half, n", [(6.0, 161), (6.123, 41), (17.73, 161), (1e-3, 8), (3.0, 2)])
    def test_symmetric_bounds_give_mirror_exact_axes(self, half, n):
        axis = grid_axis(-half, half, n)
        assert axis[0] == -half and axis[-1] == half
        assert np.array_equal(axis[::-1], -axis)
        assert np.all(np.diff(axis) > 0)

    @pytest.mark.parametrize("lo, hi, n", [(-1.0, 6.0, 101), (-2.5, 0.1, 7), (1e-3, 7.3, 160), (-3.0, 3.1, 11)])
    def test_asymmetric_bounds_stay_ascending_to_the_bounds(self, lo, hi, n):
        axis = grid_axis(lo, hi, n)
        assert axis.size == n
        assert np.all(np.diff(axis) > 0)
        assert abs(axis[0] - lo) <= np.spacing(abs(lo))
        assert abs(axis[-1] - hi) <= np.spacing(abs(hi))
        np.testing.assert_allclose(axis, np.linspace(lo, hi, n), rtol=0,
                                   atol=4 * np.spacing(max(abs(lo), abs(hi))))

    def test_snapshot_grid_evaluates_each_lattice_point_once(self, monkeypatch):
        """One Hermite table per grid, on distinct, evenly spaced lattice
        points that hold every q of the axis: at most (n - 1) s + 2 n_y + 1."""
        tables, steps = [], []
        table, refinement = wigner._hermite_table, wigner._refinement

        def table_spy(x, dim):
            tables.append((x.copy(), dim))
            return table(x, dim)

        def refinement_spy(dq, p_axis, dim):
            steps.append(refinement(dq, p_axis, dim))
            return steps[-1]

        monkeypatch.setattr(wigner, "_hermite_table", table_spy)
        monkeypatch.setattr(wigner, "_refinement", refinement_spy)
        grid = snapshot_grid(coherent_rho(27, 1.3 + 0.4j), n_grid=161)
        ((x, dim),), (s,) = tables, steps
        dq = grid.q_axis[1] - grid.q_axis[0]
        dy = dq / s
        n_y = int((math.sqrt(2 * dim + 1) + wigner._SUPPORT_PAD) / dy)
        assert 0 < x.size <= (grid.q_axis.size - 1) * s + 2 * n_y + 1
        np.testing.assert_allclose(np.diff(x), dy, rtol=1e-9)
        on_lattice = np.abs((grid.q_axis[:, None] - x[None, :]) / dy).min(axis=1)
        assert on_lattice.max() < 1e-6

    def test_values_match_linspace_axes_at_dim_27(self):
        rho = random_rho(27)
        half = suggested_half_width(rho)
        axis = grid_axis(-half, half, 161)
        grid = wigner_continuous(rho, axis, axis)
        assert np.max(np.abs(grid.values - linspace_wigner(rho, half, 161))) <= 1e-12

    @pytest.mark.filterwarnings("ignore:.*grid boundary")
    def test_values_match_linspace_axes_at_dim_300(self):
        rho = coherent_mixture(300, TestLargeDimension.AMPS, TestLargeDimension.WEIGHTS)
        axis = grid_axis(-26.0, 26.0, 41)
        grid = wigner_continuous(rho, axis, axis)
        assert np.max(np.abs(grid.values - linspace_wigner(rho, 26.0, 41))) <= 1e-12


class TestLargeDimension:
    """The lattice route at mirror dims the strong-coupling presets reach."""

    AMPS = np.sqrt([0.0, 40.0, 120.0, 200.0]) * np.exp(1j * np.array([0.0, 0.7, 2.5, -1.9]))
    WEIGHTS = np.array([0.1, 0.2, 0.3, 0.4])

    @pytest.mark.filterwarnings("ignore:.*grid boundary")
    @pytest.mark.parametrize("half_width", [12.0, 20.0, 26.0, 32.0])
    def test_coherent_mixture_matches_gaussians_at_dim_330(self, half_width):
        rho = coherent_mixture(330, self.AMPS, self.WEIGHTS)
        axis = grid_axis(-half_width, half_width, 61)
        grid = wigner_continuous(rho, axis, axis)
        exact = gaussian_mixture_wigner(grid, self.AMPS, self.WEIGHTS)
        assert np.max(np.abs(grid.values - exact)) <= 1e-9

    def test_strong_coupling_mirror_snapshots(self):
        """g = 0.3 at analytic dims (16, 150): widely split mirror mixtures at dim 150."""
        p = SystemParams(omega_c=1e7, omega_m=1e6, g_ratio=0.3, alpha=1.0, gamma=1.0)
        snaps = snapshot_grids_of(p, analytic_states(p, FockDims(16, 150)), n_grid=41)
        for subsystem, _, grid in snaps:
            assert grid.total_mass() == pytest.approx(1.0, abs=1e-3)
            if subsystem == "mirror":  # a mixture of coherent states
                assert grid.values.min() >= -1e-9


class TestAgainstSeries:
    """The lattice route against the reference series, within 1e-13, and
    against itself on the next finer lattice, within 1e-14."""

    @pytest.mark.parametrize("dim", [6, 8, 16, 27, 60, 120])
    def test_random_states(self, dim):
        rho = random_rho(dim)
        half = suggested_half_width(rho)
        axis = grid_axis(-half, half, 61)
        got = wigner_continuous(rho, axis, axis).values
        assert np.max(np.abs(got - series_grid(rho, axis, axis))) <= 1e-13

    def test_rectangular_grid_with_an_uneven_p_axis(self):
        """Both axes are evenly spaced grids; an uneven p axis is refused by name."""
        rho = coherent_mixture(40, [2.0, -1.0 + 1.5j], np.array([0.6, 0.4]))
        q = grid_axis(-4.5, 7.0, 47)
        p = np.sort(RNG.uniform(-5.0, 5.0, 33))
        with pytest.raises(ValueError, match="^p_axis must be evenly spaced"):
            wigner_continuous(rho, q, p)

    @pytest.mark.filterwarnings("ignore:.*grid boundary")
    def test_narrow_p_range(self):
        """p far inside the state's support: the lattice step is set by W's
        own radius, not by the grid's p (a step scaled on the grid's p and
        the turning point alone missed by 1.3e-10 here)."""
        rho = random_rho(8)
        q, p = grid_axis(-5.0, 25.0, 31), grid_axis(-3.0, 3.0, 7)
        got = wigner_continuous(rho, q, p).values
        assert np.max(np.abs(got - series_grid(rho, q, p))) <= 1e-13

    @pytest.mark.filterwarnings("ignore:.*grid boundary")
    @pytest.mark.parametrize("dim, level", [(2, 0), (2, 1), (8, 7), (30, 0), (30, 29)])
    @pytest.mark.parametrize("p_max", [0.5, 4.0])
    def test_steps_at_the_edge_of_the_rule(self, dim, level, p_max):
        """q steps just inside the rule's bound for s = 1 and 2, so that the
        nearest aliases of the grid's p sit at the radius it allows."""
        rho = DensityMatrix(np.diag(np.eye(dim)[level]))
        radius = p_max + math.sqrt(2 * dim + 1) + wigner._ALIAS_PAD
        p = grid_axis(-p_max, p_max, 9)
        for s in (1, 2):
            dq = s * math.pi / radius * (1.0 - 1e-9)
            q = grid_axis(-15 * dq, 15 * dq, 31)
            got = wigner_continuous(rho, q, p).values
            assert np.max(np.abs(got - series_grid(rho, q, p))) <= 1e-13, s

    @pytest.mark.filterwarnings("ignore:.*grid boundary")
    @pytest.mark.parametrize("half_width", [12.0, 20.0, 26.0, 32.0])
    def test_coherent_mixtures_at_dim_330(self, half_width):
        rho = coherent_mixture(330, TestLargeDimension.AMPS, TestLargeDimension.WEIGHTS)
        axis = grid_axis(-half_width, half_width, 61)
        got = wigner_continuous(rho, axis, axis).values
        assert np.max(np.abs(got - series_grid(rho, axis, axis))) <= 1e-13

    def test_analytic_snapshots_at_wigner_snapshots_dims(self):
        """evolve_driven at t = pi/omega_m on the wigner_snapshots job, dims
        (30, 308): the field grid at dim 30 and the mirror grid at dim 301,
        the preset's heaviest, each on the trimmed state it is summed over."""
        job = config.preset_jobs("wigner_snapshots")[0].config
        t = np.asarray(default_snapshot_times(job.params))
        state = evolve_driven(job.params, integrate_betas(job.params, t).at(1), job.dims)
        for _, _, rho in snapshot_set([state], t[1:2]):
            grid = snapshot_grid(rho, n_grid=41)
            trimmed = DensityMatrix(wigner._trimmed(rho))
            assert trimmed.dim in (30, 301)
            reference = series_grid(trimmed, grid.q_axis, grid.p_axis)
            assert np.max(np.abs(grid.values - reference)) <= 1e-13

    @pytest.mark.parametrize("dim", [8, 27, 90, 301])
    def test_next_finer_lattice_agrees(self, monkeypatch, dim):
        rho = random_rho(dim)
        half = suggested_half_width(rho)
        axis = grid_axis(-half, half, 61)
        base = wigner_continuous(rho, axis, axis).values
        refinement = wigner._refinement
        monkeypatch.setattr(wigner, "_refinement", lambda *args: refinement(*args) + 1)
        finer = wigner_continuous(rho, axis, axis).values
        assert np.max(np.abs(finer - base)) <= 1e-14

    def test_unevenly_spaced_q_axis_is_refused(self):
        q = np.array([-1.0, 0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="^q_axis must be evenly spaced"):
            wigner_continuous(coherent_rho(8, 0.5), q, grid_axis(-1.0, 1.0, 5))


class TestLaguerreGuard:
    """The domain and bound checks of wigner_continuous."""

    def test_bound_breach_raises(self):
        """Hermitian and trace 1 but not positive: W(0) = 3/pi."""
        rho = DensityMatrix(np.diag([2.0, -1.0]))
        with pytest.raises(IntegrationError, match=r"W = 0\.95.*\(dim 2\)"):
            wigner_continuous(rho, grid_axis(-2, 2, 9), grid_axis(-2, 2, 9))

    def test_underflowing_radii_with_population_raise(self):
        """|Gamma|^2 = 420 populates levels 420 +- 100; the support of those
        above 438 (turning point plus the lattice's pad) reaches past
        |x| = 37.6, where phi_0 underflows."""
        rho = coherent_mixture(560, [math.sqrt(420.0)], np.array([1.0]))
        with pytest.raises(IntegrationError, match=r"underflows.*dim 560"):
            wigner_continuous(rho, grid_axis(-32, 32, 61), grid_axis(-32, 32, 61))

    def test_lattice_past_the_underflow_is_served_below_level_439(self):
        """At dim 470 the lattice reaches |x| = 38.7, but levels up to 300
        hold the state, so it is served, and it is the Gaussian mixture."""
        amps, weights = TestLargeDimension.AMPS, TestLargeDimension.WEIGHTS
        axis = grid_axis(-24.0, 24.0, 41)
        grid = wigner_continuous(coherent_mixture(470, amps, weights), axis, axis)
        assert np.max(np.abs(grid.values - gaussian_mixture_wigner(grid, amps, weights))) <= 1e-9


class TestGridOutput:

    def grid(self):
        axis = grid_axis(-6, 6, 11)
        return wigner_continuous(coherent_rho(12, 0.5), axis, axis)

    def test_csv_layout(self, tmp_path):
        path = str(tmp_path / "g.csv")
        write_grid_csv(self.grid(), path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "q,p,W"
        assert len(lines) == 1 + 11 * 11
        q, p, w = lines[1].split(",")
        assert float(q) == -6.0 and float(p) == -6.0

    def test_csv_text_round_trips_awkward_floats(self, tmp_path):
        grid = WignerGrid(np.array([-2.5e-300, 0.1]), np.array([0.1, 1 / 3, 2.0]),
                          np.array([[0.1, 1 / 3, -2.5e-300], [-1 / 3, 0.0, 1e-17]]))
        path = tmp_path / "g.csv"
        write_grid_csv(grid, str(path))
        text = path.read_text()
        assert text == (
            "q,p,W\n"
            "-2.5e-300,0.10000000000000001,0.10000000000000001\n"
            "-2.5e-300,0.33333333333333331,0.33333333333333331\n"
            "-2.5e-300,2,-2.5e-300\n"
            "0.10000000000000001,0.10000000000000001,-0.33333333333333331\n"
            "0.10000000000000001,0.33333333333333331,0\n"
            "0.10000000000000001,2,1.0000000000000001e-17\n"
        )
        rows = [line.split(",") for line in text.splitlines()[1:]]
        for k, (q, p, w) in enumerate(rows):
            i, j = divmod(k, grid.p_axis.size)
            assert float(q) == grid.q_axis[i]
            assert float(p) == grid.p_axis[j]
            assert float(w) == grid.values[i, j]

    def test_pgm_format(self, tmp_path):
        path = str(tmp_path / "g.pgm")
        write_grid_pgm(self.grid(), path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "P2"
        body = [ln for ln in lines[1:] if not ln.startswith("#")]
        assert body[0] == "11 11"  # columns (p) then rows (q)
        assert body[1] == "255"
        values = [int(x) for row in body[2:] for x in row.split()]
        assert len(values) == 121
        assert min(values) >= 0 and max(values) <= 255
        # quantitative range preserved in comments
        assert any(ln.startswith("# W range") for ln in lines)


    @staticmethod
    def reference_csv(grid) -> str:
        """The grid CSV written one f-string per row."""
        lines = ["q,p,W"]
        for i, q in enumerate(grid.q_axis):
            for j, p in enumerate(grid.p_axis):
                lines.append(f"{q:.17g},{p:.17g},{grid.values[i, j]:.17g}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def reference_pgm(grid) -> str:
        """The graymap written one joined row of str(int) at a time."""
        lo, hi = float(grid.values.min()), float(grid.values.max())
        span = hi - lo if hi > lo else 1.0
        gray = np.rint((grid.values - lo) / span * 255).astype(int)
        lines = [
            "P2",
            f"# W range [{lo:.17g}, {hi:.17g}]",
            f"# q in [{grid.q_axis[0]:.17g}, {grid.q_axis[-1]:.17g}], "
            f"p in [{grid.p_axis[0]:.17g}, {grid.p_axis[-1]:.17g}]",
            f"{grid.p_axis.size} {grid.q_axis.size}",
            "255",
        ]
        lines.extend(" ".join(str(v) for v in row) for row in gray.tolist())
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("grid", [
        WignerGrid(np.array([-1e300, -0.0, 5e-324]), np.array([-0.0, 0.5]),
                   np.array([[-0.0, 5e-324], [1e300, -1e300], [0.0, -5e-324]])),
        WignerGrid(np.array([0.0, 1.0, 2.0]), np.array([-1.0, 0.0, 1.0, 2.0]),
                   np.full((3, 4), 0.25)),  # constant: the PGM's span is 0
        wigner_continuous(coherent_rho(12, 0.5), grid_axis(-6, 6, 11), grid_axis(-5, 5, 13)),
    ], ids=["awkward-floats", "constant", "coherent"])
    def test_files_equal_per_row_formatting(self, tmp_path, grid):
        write_grid_csv(grid, str(tmp_path / "g.csv"))
        write_grid_pgm(grid, str(tmp_path / "g.pgm"))
        assert (tmp_path / "g.csv").read_text() == self.reference_csv(grid)
        assert (tmp_path / "g.pgm").read_text() == self.reference_pgm(grid)


class TestSnapshots:

    def test_default_times(self):
        p = tiny_system()
        times = default_snapshot_times(p)
        assert times[0] == 0.0
        assert times[1] == pytest.approx(math.pi / p.omega_m)
        assert times[2] == pytest.approx(2 * math.pi / p.omega_m)

    def test_structure_and_normalization(self):
        p = tiny_system()
        dims = FockDims(14, 16)
        times = default_snapshot_times(p)
        reduced = snapshot_set(analytic_states(p, dims), times)
        assert len(reduced) == 6
        assert [s for s, _, _ in reduced] == ["field", "mirror"] * 3
        assert [t for _, t, _ in reduced] == [t for t in times for _ in range(2)]
        assert [rho.dim for _, _, rho in reduced] == [14, 16] * 3
        for _, _, rho in reduced:
            assert snapshot_grid(rho, n_grid=41).total_mass() == pytest.approx(1.0, abs=2e-2)

    def test_initial_snapshot_is_two_gaussians(self):
        """Product coherent state: both subsystems peak near sqrt(2) amp."""
        p = tiny_system()
        snaps = snapshot_grids_of(p, analytic_states(p, FockDims(14, 16)), n_grid=61)
        for _, t, g in snaps[:2]:
            assert t == 0.0
            i, j = np.unravel_index(g.values.argmax(), g.values.shape)
            assert g.values.max() == pytest.approx(1 / math.pi, abs=2e-3)
            assert g.q_axis[i] == pytest.approx(math.sqrt(2), abs=0.25)
            assert g.p_axis[j] == pytest.approx(0.0, abs=0.25)

    # Bound on max |W_analytic - W_numeric| per (subsystem, snapshot), with
    # the numeric state evaluated on the analytic grid's bounds. Measured:
    # <= 1e-8 at t = 0; field 2.74e-3 and mirror 1.47e-2 at t = pi/omega_m;
    # field 5.95e-3 and mirror 1.75e-3 at t = 2pi/omega_m. The gaps are the
    # same at dims (14, 16), (14, 24) and (20, 32), so they are the
    # coherent-averaged ansatz's, not truncation's.
    SOURCE_GAPS = {
        ("field", 0): 1e-8, ("mirror", 0): 1e-8,
        ("field", 1): 3e-3, ("mirror", 1): 1.6e-2,
        ("field", 2): 6.5e-3, ("mirror", 2): 2e-3,
    }

    def test_sources_agree_on_tiny_system(self):
        p = tiny_system()
        dims = FockDims(14, 16)
        times = default_snapshot_times(p)
        an = snapshot_set(analytic_states(p, dims), times)
        num = snapshot_set(numeric_states(p, dims), times)
        assert len(an) == len(num) == 6
        for i, ((sub_a, t_a, rho_a), (sub_b, t_b, rho_b)) in enumerate(zip(an, num)):
            assert sub_a == sub_b and t_a == t_b
            a = snapshot_grid(rho_a, n_grid=41)
            b = wigner_continuous(rho_b, a.q_axis, a.p_axis)
            gap = np.max(np.abs(a.values - b.values))
            assert gap <= self.SOURCE_GAPS[(sub_a, i // 2)], (sub_a, t_a, gap)


def test_suggested_half_width_covers_support():
    rho = coherent_rho(24, 2.0)
    hw = suggested_half_width(rho)
    assert hw > 2 * math.sqrt(2) + 2  # centre plus a few sigma


def test_wigner_grid_validation():
    with pytest.raises(ValueError):
        WignerGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                   np.zeros((3, 2)))
