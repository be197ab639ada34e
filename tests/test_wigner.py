import math

import numpy as np
import pytest

from conftest import tiny_system
from optomech import wigner
from optomech.driven import evolve_driven, integrate_betas
from optomech.errors import IntegrationError
from optomech.fock import DensityMatrix, FockDims, coherent_amplitudes, coherent_state
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


def wigner_direct_integral(rho, q_min, q_max, p_min, p_max, nq, n_p, x_pad=8.0, dx=0.02):
    """(1/pi) Integral dx e^{2 i x p} <q-x|rho|q+x>, by brute quadrature.

    Slow on purpose; the small-dimension oracle the displaced-parity route
    is checked against, on the same axes. The exponent sign pairs with the
    <q-x| ... |q+x> ordering: together they put a coherent state's peak at
    p = +sqrt(2) Im amp, matching the beta = (q + ip)/sqrt(2) convention of
    the parity route (the same integral with e^{-2ixp} is the p-mirrored
    function).
    """
    q_axis = grid_axis(q_min, q_max, nq)
    p_axis = grid_axis(p_min, p_max, n_p)
    span = max(abs(q_min), abs(q_max)) + x_pad
    x = np.arange(-span, span + dx / 2, dx)
    values = np.empty((nq, n_p), dtype=np.complex128)
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
    return [evolve_driven(p, float(t[i]), betas.at(i), dims) for i in range(t.size)]


def numeric_states(p, dims):
    """Joint states of the brute-force oracle at the snapshot times."""
    return evolve_numeric(p, dims, t_grid=np.asarray(default_snapshot_times(p))).states


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


class TestContinuous:

    def test_vacuum_peak(self):
        rho = DensityMatrix(np.diag([1.0] + [0.0] * 5))
        grid = wigner_continuous(rho, q_min=-4, q_max=4, p_min=-4, p_max=4,
                                 nq=81, n_p=81)
        assert grid.values.max() == pytest.approx(1 / math.pi, abs=1e-4)
        # peak sits at the origin
        i, j = np.unravel_index(grid.values.argmax(), grid.values.shape)
        assert grid.q_axis[i] == pytest.approx(0.0, abs=0.06)
        assert grid.p_axis[j] == pytest.approx(0.0, abs=0.06)
        assert grid.total_mass() == pytest.approx(1.0, abs=1e-3)

    def test_coherent_state_is_displaced_gaussian(self):
        """alpha = 2 puts the blob at (2 sqrt 2, 0); q + ip = sqrt(2) beta."""
        rho = coherent_rho(30, 2.0)
        grid = wigner_continuous(rho, q_min=-1, q_max=6, p_min=-3, p_max=3,
                                 nq=101, n_p=101)
        qq = grid.q_axis[:, None]
        pp = grid.p_axis[None, :]
        exact = np.exp(-(qq - 2 * math.sqrt(2)) ** 2 - pp ** 2) / math.pi
        np.testing.assert_allclose(grid.values, exact, atol=1e-6)

    def test_complex_amplitude_lands_in_the_right_quadrant(self):
        rho = coherent_rho(18, 1.0 + 1.0j)
        grid = wigner_continuous(rho, q_min=-4, q_max=4, p_min=-4, p_max=4,
                                 nq=81, n_p=81)
        i, j = np.unravel_index(grid.values.argmax(), grid.values.shape)
        assert grid.q_axis[i] == pytest.approx(math.sqrt(2), abs=0.11)
        assert grid.p_axis[j] == pytest.approx(math.sqrt(2), abs=0.11)

    def test_matches_direct_integral_oracle(self):
        """Displaced-parity evaluation against the defining integral."""
        rho = random_rho(6)
        kw = dict(q_min=-3.0, q_max=3.0, p_min=-3.0, p_max=3.0, nq=21, n_p=21)
        fast = wigner_continuous(rho, **kw)
        slow = wigner_direct_integral(rho, **kw)
        np.testing.assert_allclose(fast.values, slow.values, atol=1e-8)

    def test_cat_state_negativity_and_floor(self):
        c1 = coherent_state(30, 2.0)
        c2 = coherent_state(30, -2.0)
        v = c1 + c2
        v /= np.linalg.norm(v)
        rho = DensityMatrix(np.outer(v, v.conj()))
        grid = wigner_continuous(rho, q_min=-5, q_max=5, p_min=-5, p_max=5,
                                 nq=121, n_p=121)
        assert grid.values.min() < -0.2  # interference fringes
        assert grid.values.min() >= -1 / math.pi - 1e-6
        assert grid.total_mass() == pytest.approx(1.0, abs=2e-2)

    def test_purity_from_phase_space(self):
        cases = [
            (coherent_rho(16, 0.8), 1.0),
            (DensityMatrix(np.diag([0.5, 0.25, 0.25] + [0.0] * 5)), 0.375),
        ]
        for rho, purity in cases:
            grid = wigner_continuous(rho, q_min=-5, q_max=5, p_min=-5,
                                     p_max=5, nq=161, n_p=161)
            estimate = 2 * math.pi * grid.cell_area * np.sum(
                grid.values ** 2)
            assert estimate == pytest.approx(purity, abs=1e-3)

    def test_boundary_warning(self):
        rho = coherent_rho(21, 2.0)
        with pytest.warns(UserWarning, match="boundary"):
            wigner_continuous(rho, q_min=-2, q_max=2, p_min=-2, p_max=2,
                              nq=41, n_p=41)

    def test_realness_of_output(self):
        grid = wigner_continuous(random_rho(8), q_min=-4, q_max=4,
                                 p_min=-4, p_max=4, nq=41, n_p=41)
        assert grid.values.dtype == np.float64


def linspace_wigner(rho, half_width, n):
    """W of rho on np.linspace axes with b = |gamma|^2, rounded point by point."""
    axis = np.linspace(-half_width, half_width, n)
    gamma = math.sqrt(2.0) * (axis[:, None] + 1j * axis[None, :]).ravel()
    b = gamma.real ** 2 + gamma.imag ** 2
    return wigner._laguerre_wigner(rho.data, gamma, b).reshape(n, n)


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

    def test_snapshot_grid_evaluates_each_radius_once(self, monkeypatch):
        """A 161^2 square grid has 81 distinct |q| and 81 |p|: at most
        81 * 82 / 2 = 3,321 radii, however many points share each one."""
        seen = []
        radial_sums = wigner._radial_sums

        def spy(rho_mat, radii):
            seen.append(radii.size)
            return radial_sums(rho_mat, radii)

        monkeypatch.setattr(wigner, "_radial_sums", spy)
        snapshot_grid(coherent_rho(27, 1.3 + 0.4j), n_grid=161)
        assert 0 < sum(seen) <= 81 * 82 // 2

    def test_values_match_linspace_axes_at_dim_27(self):
        rho = random_rho(27)
        half = suggested_half_width(rho)
        grid = wigner_continuous(rho, -half, half, -half, half, 161, 161)
        assert np.max(np.abs(grid.values - linspace_wigner(rho, half, 161))) <= 1e-12

    @pytest.mark.filterwarnings("ignore:.*grid boundary")
    def test_values_match_linspace_axes_at_dim_300(self):
        rho = coherent_mixture(300, TestLargeDimension.AMPS, TestLargeDimension.WEIGHTS)
        grid = wigner_continuous(rho, -26.0, 26.0, -26.0, 26.0, 41, 41)
        assert np.max(np.abs(grid.values - linspace_wigner(rho, 26.0, 41))) <= 1e-12


class TestLargeDimension:
    """The Laguerre series at mirror dims the strong-coupling presets reach."""

    AMPS = np.sqrt([0.0, 40.0, 120.0, 200.0]) * np.exp(1j * np.array([0.0, 0.7, 2.5, -1.9]))
    WEIGHTS = np.array([0.1, 0.2, 0.3, 0.4])

    @pytest.mark.filterwarnings("ignore:.*grid boundary")
    @pytest.mark.parametrize("half_width", [12.0, 20.0, 26.0, 32.0])
    def test_coherent_mixture_matches_gaussians_at_dim_330(self, half_width):
        rho = coherent_mixture(330, self.AMPS, self.WEIGHTS)
        grid = wigner_continuous(rho, -half_width, half_width, -half_width,
                                 half_width, 61, 61)
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


class TestLaguerreGuard:

    def test_bound_breach_raises(self):
        """Hermitian and trace 1 but not positive: W(0) = 3/pi."""
        rho = DensityMatrix(np.diag([2.0, -1.0]))
        with pytest.raises(IntegrationError, match=r"Laguerre.*dim 2"):
            wigner_continuous(rho, -2, 2, -2, 2, 9, 9)

    def test_underflowing_radii_with_population_raise(self):
        """|Gamma|^2 = 420 lives at |2 beta|^2 ~ 1680, where e^{-b/2} underflows."""
        rho = coherent_mixture(560, [math.sqrt(420.0)], np.array([1.0]))
        with pytest.raises(IntegrationError, match=r"Laguerre.*underflows.*dim 560"):
            wigner_continuous(rho, -32, 32, -32, 32, 61, 61)


class TestGridOutput:

    def grid(self):
        return wigner_continuous(coherent_rho(12, 0.5), q_min=-3, q_max=3,
                                 p_min=-3, p_max=3, nq=11, n_p=11)

    def test_csv_layout(self, tmp_path):
        path = str(tmp_path / "g.csv")
        write_grid_csv(self.grid(), path)
        lines = open(path).read().splitlines()
        assert lines[0] == "q,p,W"
        assert len(lines) == 1 + 11 * 11
        q, p, w = lines[1].split(",")
        assert float(q) == -3.0 and float(p) == -3.0

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
            i, j = divmod(k, grid.n_p)
            assert float(q) == grid.q_axis[i]
            assert float(p) == grid.p_axis[j]
            assert float(w) == grid.values[i, j]

    def test_pgm_format(self, tmp_path):
        path = str(tmp_path / "g.pgm")
        write_grid_pgm(self.grid(), path)
        lines = open(path).read().splitlines()
        assert lines[0] == "P2"
        body = [ln for ln in lines[1:] if not ln.startswith("#")]
        assert body[0] == "11 11"  # columns (p) then rows (q)
        assert body[1] == "255"
        values = [int(x) for row in body[2:] for x in row.split()]
        assert len(values) == 121
        assert min(values) >= 0 and max(values) <= 255
        # quantitative range preserved in comments
        assert any(ln.startswith("# W range") for ln in lines)


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
            b = wigner_continuous(rho_b, a.q_min, a.q_max, a.p_min, a.p_max, 41, 41)
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
