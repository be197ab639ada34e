import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from conftest import ladder_ops, strong_system, tiny_system
from optomech import config, oracle
from optomech.driven import BetaCoefficients, evolve_driven
from optomech.errors import IntegrationError
from optomech.fock import (
    FockDims,
    JointState,
    coherent_amplitudes,
    coherent_state,
    partial_trace_field,
    partial_trace_mirror,
)
from optomech.oracle import (
    DisplacedFrame,
    IntegratorConfig,
    classical_field,
    displacement_block,
    evolve_numeric,
    max_stable_dt,
    mean_interaction_scale,
    observables_numeric,
    recommend_integrator_config,
    reduce_block,
)
from optomech.system import SystemParams

DIMS = FockDims(12, 14)
# Field levels past field_dim that hold D(xi) |k> to rounding for |xi| < 1.
FIELD_PAD = 30


def dense_hamiltonian(p: SystemParams, dims: FockDims, t: float) -> np.ndarray:
    """Independent construction straight from the definition."""
    f = ladder_ops(dims.field_dim)
    m = ladder_ops(dims.mirror_dim)
    If = np.eye(dims.field_dim)
    Im = np.eye(dims.mirror_dim)
    n = f.number
    N = m.number
    x_m = m.lower + m.raise_
    x_f = f.lower + f.raise_
    h = (p.omega_c * np.kron(n, Im)
         + p.omega_m * np.kron(If, N)
         - p.g0 * np.kron(n, x_m)
         + p.drive_amp * math.cos(p.omega_p * t) * np.kron(x_f, Im))
    return h


def dense_displacement(xi: complex, dim: int) -> np.ndarray:
    """exp(xi a^dagger - conj(xi) a) on dim levels, from a padded matrix exponential."""
    f = ladder_ops(dim + FIELD_PAD)
    return expm(xi * f.raise_ - np.conj(xi) * f.lower)[:dim, :dim]


def free_energies(p: SystemParams, dims: FockDims) -> np.ndarray:
    """Diagonal of H0 = omega_c n + omega_m N in the field-major joint index."""
    return np.add.outer(p.omega_c * np.arange(dims.field_dim),
                        p.omega_m * np.arange(dims.mirror_dim)).ravel()


def to_frame(p: SystemParams, dims: FockDims, t: float, psi: np.ndarray) -> np.ndarray:
    """phi = D(xi(t))^dagger exp(i H0 t) psi of a lab-frame state psi."""
    rotated = (np.exp(1j * free_energies(p, dims) * t) * psi).reshape(
        dims.field_dim, dims.mirror_dim)
    return (dense_displacement(classical_field(p, t), dims.field_dim).conj().T
            @ rotated).ravel()


def generator_matrix(frame: DisplacedFrame, dims: FockDims, t: float) -> np.ndarray:
    """The dense -i H'(t) of a frame, column j being rhs applied to basis vector j."""
    n = dims.joint
    op = np.empty((n, n), dtype=complex)
    for j in range(n):
        basis = np.zeros(n, dtype=complex)
        basis[j] = 1.0
        frame.rhs(t, frame.padded(basis)[0], op[:, j])
    return op


def operator_product(p: SystemParams, dims: FockDims, t: float) -> np.ndarray:
    """-i H'(t) = i G0 (a^dagger + conj(xi))(a + xi) x B(t) from dense ladder operators."""
    f = ladder_ops(dims.field_dim)
    m = ladder_ops(dims.mirror_dim)
    xi = classical_field(p, t)
    field = (f.number + xi * f.raise_ + np.conj(xi) * f.lower
             + abs(xi) ** 2 * np.eye(dims.field_dim))
    mirror = (np.exp(-1j * p.omega_m * t) * m.lower + np.exp(1j * p.omega_m * t) * m.raise_)
    return 1j * p.g0 * np.kron(field, mirror)


class TestStepSizing:

    def test_respects_stability_cap(self):
        p = tiny_system()
        cfg = recommend_integrator_config(p, 1e-5, DIMS)
        assert cfg.dt <= max_stable_dt(p)
        assert max_stable_dt(p) == pytest.approx(
            2 * math.pi / (12 * (p.omega_c + p.omega_p)))

    def test_longer_runs_get_smaller_steps(self):
        p = tiny_system()
        short = recommend_integrator_config(p, 1e-6, FockDims(20, 40))
        long = recommend_integrator_config(p, 1e-3, FockDims(20, 40))
        assert long.dt <= short.dt

    def test_undriven_cap_resolves_omega_m(self):
        """Without drive, H'(t) carries only exp(-i omega_m t)."""
        p = tiny_system(drive_amp=0.0, omega_p=0.0)
        assert max_stable_dt(p) == pytest.approx(2 * math.pi / (40 * p.omega_m))


# Strong coupling at dims small enough for a tenth of a mechanical period
# to run in a fraction of a second; the top levels leak a little.
MODEL_DIMS = FockDims(22, 60)


@pytest.fixture(scope="module", params=[0.8, 1.2], ids=["red", "blue"])
def strong_short(request):
    p = strong_system(request.param)
    return p, 0.1 * p.mech_period


def sixth_moment(p: SystemParams, frame: DisplacedFrame, t: float, psi: np.ndarray) -> float:
    """<H'(t)^6> = ||H'(t)^3 phi||^2 of the lab-frame state psi."""
    vec = to_frame(p, MODEL_DIMS, t, psi)
    for _ in range(3):
        vec = frame.rhs(t, frame.padded(vec)[0], np.empty_like(vec))
    return np.vdot(vec, vec).real


@pytest.mark.filterwarnings("ignore:population")
class TestStepModel:
    """The step size is solved from (dt^5/144) t_end lambda_bar^6 = tol/2."""

    def test_scale_bounds_the_measured_sixth_moment(self, strong_short):
        """13x (red) and 7.4x (blue) over the measured <H'^6>."""
        p, t_end = strong_short
        grid = np.linspace(0.0, t_end, 201)
        run = evolve_numeric(p, MODEL_DIMS, t_grid=grid, keep_states=True)
        frame = DisplacedFrame(p, MODEL_DIMS)
        moments = np.array([sixth_moment(p, frame, t, state.amps)
                            for t, state in zip(grid, run.states)])
        time_average = np.mean(0.5 * (moments[1:] + moments[:-1]))
        assert mean_interaction_scale(p, t_end, MODEL_DIMS) ** 6 >= time_average

    def test_recommended_step_drifts_under_a_quarter_of_tolerance(self, strong_short):
        p, t_end = strong_short
        run = evolve_numeric(p, MODEL_DIMS, t_grid=np.array([0.0, t_end]))
        assert run.config == recommend_integrator_config(p, t_end, MODEL_DIMS)
        assert 0 < run.norm_drift <= run.config.norm_tolerance / 4


class TestInteractionFrame:
    """The stepper integrates phi = D(xi(t))^dagger exp(i H0 t) psi, H0 = omega_c n + omega_m N:
    the interaction frame of H0, displaced by the drive's classical field."""

    @staticmethod
    def defined_generator(p: SystemParams, dims: FockDims, t: float) -> np.ndarray:
        """-i H'(t) from H' = D^dagger H_I D - i D^dagger dD/dt on a padded field,
        restricted to dims, less the global phase Re(f xi) of f = drive_amp
        cos(omega_p t) exp(-i omega_c t); dD/dt by central differences."""
        big = FockDims(dims.field_dim + FIELD_PAD, dims.mirror_dim)
        energies = free_energies(p, big)
        rot = np.exp(1j * energies * t)
        h_int = rot[:, None] * (dense_hamiltonian(p, big, t) - np.diag(energies)) / rot[None, :]
        mirror = np.eye(dims.mirror_dim)

        def displacement(s):
            f = ladder_ops(big.field_dim)
            xi = classical_field(p, s)
            return np.kron(expm(xi * f.raise_ - np.conj(xi) * f.lower), mirror)

        d = displacement(t)
        step = 1e-4 / (p.omega_c + p.omega_p)
        d_dot = (displacement(t + step) - displacement(t - step)) / (2 * step)
        h_frame = d.conj().T @ h_int @ d - 1j * d.conj().T @ d_dot
        kept = dims.joint
        f = p.drive_amp * math.cos(p.omega_p * t) * np.exp(-1j * p.omega_c * t)
        phase = (f * classical_field(p, t)).real
        return -1j * (h_frame[:kept, :kept] - phase * np.eye(kept))

    @pytest.mark.parametrize("system", [
        dict(g_ratio=0.0),                    # drive only: H' = 0
        dict(drive_amp=0.0, omega_p=0.0),     # coupling only: xi = 0
        dict(),                               # both
    ], ids=["drive-only", "coupling-only", "full"])
    def test_rhs_matches_dense_interaction_picture(self, system):
        p = tiny_system(**system)
        frame = DisplacedFrame(p, DIMS)
        # the largest entries of the drive and coupling terms that cancel or stay
        scale = (p.drive_amp * math.sqrt(DIMS.field_dim + FIELD_PAD)
                 + p.g0 * DIMS.field_dim * math.sqrt(DIMS.mirror_dim))
        for t in (0.0, 1.3e-7, 4.8e-7):
            expected = self.defined_generator(p, DIMS, t)
            np.testing.assert_allclose(generator_matrix(frame, DIMS, t), expected,
                                       rtol=0, atol=1e-9 * scale)

    @pytest.mark.parametrize("system", [
        dict(g_ratio=0.0),
        dict(drive_amp=0.0, omega_p=0.0),
        dict(),
    ], ids=["drive-only", "coupling-only", "full"])
    def test_generator_is_anti_hermitian(self, system):
        """B and F are Hermitian, so -i H'(t) is anti-Hermitian to rounding,
        undriven as driven (measured 3.5e-16 x max|op| undriven)."""
        p = tiny_system(**system)
        frame = DisplacedFrame(p, DIMS)
        for t in (0.0, 0.37e-7, 4.8e-7):
            op = generator_matrix(frame, DIMS, t)
            if p.g0 == 0.0:
                np.testing.assert_array_equal(op, 0)
            else:
                np.testing.assert_allclose(op + op.conj().T, 0, rtol=0,
                                           atol=1e-15 * np.abs(op).max())

    def test_undriven_frame_holds_only_coupling_bands(self):
        """xi = 0 leaves F's two off-diagonal bands exact zeros."""
        op = generator_matrix(DisplacedFrame(tiny_system(drive_amp=0.0, omega_p=0.0), DIMS),
                              DIMS, 1.3e-7)
        rows, cols = np.nonzero(op)
        assert set(cols - rows) == {-1, 1}

    def test_direct_kernel_equals_operator_product(self):
        """The padded band kernel against dense ladder operators of the same H'."""
        p = tiny_system()
        frame = DisplacedFrame(p, DIMS)
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(DIMS.joint) + 1j * rng.standard_normal(DIMS.joint)
        padded, _ = frame.padded(psi)
        out = np.full_like(psi, np.nan)  # stale contents must not leak in
        for t in (0.0, 1.3e-7, 1.3e-7, 4.8e-7):
            got = frame.rhs(t, padded, out)
            assert got is out
            expected = operator_product(p, DIMS, t) @ psi
            np.testing.assert_allclose(out, expected, rtol=0,
                                       atol=1e-15 * np.abs(expected).max())

    def test_classical_field_removes_the_drive(self):
        """xi' = -i drive_amp cos(omega_p t) exp(i omega_c t), xi(0) = 0, on and off resonance."""
        for p in (tiny_system(), tiny_system(omega_p=1e7)):
            assert classical_field(p, 0.0) == 0
            for t in (1.3e-7, 4.8e-7):
                step = 1e-4 / (p.omega_c + p.omega_p)
                slope = (classical_field(p, t + step) - classical_field(p, t - step)) / (2 * step)
                force = -1j * p.drive_amp * math.cos(p.omega_p * t) * np.exp(1j * p.omega_c * t)
                assert abs(slope - force) <= 1e-8 * p.drive_amp

    @pytest.mark.parametrize("xi", [0.0, 0.3 + 0.2j, -0.87j, 2.5 - 1.0j, 8.0 - 3.0j])
    @pytest.mark.parametrize("dim", [2, 12, 60, 150])
    def test_displacement_block_is_exact(self, xi, dim):
        """U D(|xi|) U^dagger, U = diag(u^k), against a padded matrix exponential."""
        unit = xi / abs(xi) if xi else 1.0
        phases = unit ** np.arange(dim)
        block = phases[:, None] * displacement_block(abs(xi), dim) * phases.conj()[None, :]
        f = ladder_ops(dim + 150 + int(4 * abs(xi) ** 2))
        reference = expm(xi * f.raise_ - np.conj(xi) * f.lower)[:dim, :dim]
        np.testing.assert_allclose(block, reference, rtol=0, atol=1e-13)

    def test_displacement_block_is_vectorized(self):
        r = np.array([0.0, 0.1, 0.5, 1.3])
        blocks = displacement_block(r, 20)
        assert blocks.shape == (4, 20, 20)
        np.testing.assert_array_equal(blocks[0], np.eye(20))
        for block, x in zip(blocks, r):
            np.testing.assert_array_equal(block, displacement_block(x, 20))

    @pytest.mark.parametrize("alpha", [0.0, 1.5 - 0.5j])
    def test_uncoupled_driven_field_is_the_displaced_coherent_state(self, alpha):
        """With g = 0, H' = 0: at the cap's step the lab field is the coherent
        state alpha + xi(t), so <n> = |alpha + xi|^2 and its Mandel Q is 1,
        and the mirror keeps the moments of its initial state, Poisson(|gamma|^2)
        truncated at mirror_dim."""
        p = tiny_system(g_ratio=0.0, alpha=alpha, gamma=0.5)
        dims = FockDims(24, 10)
        grid = np.linspace(0.0, 1.3 * p.mech_period, 9)
        run = evolve_numeric(p, dims, grid, keep_states=True)
        assert run.config.dt == max_stable_dt(p) and run.norm_drift <= 1e-14
        obs = observables_numeric(run)
        field = np.array([abs(p.alpha + classical_field(p, t)) ** 2 for t in grid])
        assert np.ptp(field) > 0.05  # the drive moves the field
        np.testing.assert_allclose(obs["photon_avg"].y, field, rtol=0, atol=1e-12)
        np.testing.assert_allclose(obs["mandel_field"].y, 1.0, rtol=0, atol=1e-12)
        pm = np.abs(coherent_state(dims.mirror_dim, p.gamma)) ** 2
        m = np.arange(dims.mirror_dim)
        np.testing.assert_allclose(run.phonons, pm @ m, rtol=0, atol=1e-12)
        np.testing.assert_allclose(run.phonons_sq, pm @ m ** 2, rtol=0, atol=1e-12)

    def test_free_evolution_is_exact(self):
        """With g = 0 and no drive H_I vanishes, so only the rotation back acts."""
        p = SystemParams(omega_c=2e6, omega_m=1e6, alpha=1.0, gamma=0.5)
        dims = FockDims(13, 10)
        dt = 3.6e-8
        grid = np.array([0.0, 100 * dt, 200 * dt])
        run = evolve_numeric(p, dims,
                             config=IntegratorConfig(dt=dt, norm_tolerance=1e-6),
                             t_grid=grid, keep_states=True)
        assert run.n_steps == 200
        assert run.norm_drift <= 1e-14
        psi0 = JointState.from_product(dims, coherent_state(13, 1.0),
                                       coherent_state(10, 0.5)).amps
        energies = free_energies(p, dims)
        for t, state in zip(grid, run.states):
            np.testing.assert_allclose(state.amps, np.exp(-1j * energies * t) * psi0,
                                       rtol=0, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:population")
    def test_strong_driven_run_matches_dense_reference(self):
        """Recommended steps against DOP853 on the dense lab-frame H(t).

        The field is truncated in the displaced basis here and in the lab
        basis there, so both must hold the state: 24 levels do (1 - fid =
        7e-14), 12 leave a lab tail (8e-5)."""
        p = dataclasses.replace(strong_system(), alpha=1.0, gamma=1.0)
        dims = FockDims(24, DIMS.mirror_dim)
        t_end = 0.02 * p.mech_period
        run = evolve_numeric(p, dims, t_grid=np.array([0.0, t_end]), keep_states=True)
        assert run.norm_drift <= run.config.norm_tolerance
        h_static = -1j * dense_hamiltonian(dataclasses.replace(p, drive_amp=0.0), dims, 0.0)
        h_drive = -1j * dense_hamiltonian(p, dims, 0.0) - h_static
        ref = solve_ivp(
            lambda t, y: h_static @ y + math.cos(p.omega_p * t) * (h_drive @ y),
            (0.0, t_end), run.states[0].amps, method="DOP853",
            rtol=1e-12, atol=1e-12).y[:, -1]
        fid = abs(np.vdot(ref / np.linalg.norm(ref), run.states[-1].amps)) ** 2
        assert fid > 1 - 1e-9


class TestEvolution:

    def test_free_evolution_matches_exact_propagator(self):
        p = tiny_system(drive_amp=0.0, omega_p=0.0)
        dims = FockDims(14, 16)
        t_end = 0.5 * p.mech_period
        run = evolve_numeric(p, dims, t_grid=np.array([0.0, t_end]), keep_states=True)
        exact = evolve_driven(p, BetaCoefficients.zero(t_end), dims)
        fid = abs(np.vdot(exact.amps, run.states[-1].amps)) ** 2
        assert fid > 1 - 1e-6

    def test_energy_conserved_without_drive(self):
        p = tiny_system(drive_amp=0.0, omega_p=0.0)
        dims = FockDims(14, 16)
        grid = np.linspace(0.0, p.mech_period, 5)
        run = evolve_numeric(p, dims, t_grid=grid, keep_states=True)
        h = dense_hamiltonian(p, dims, 0.0)
        energies = [np.vdot(st.amps, h @ st.amps).real for st in run.states]
        for e in energies[1:]:
            assert e == pytest.approx(energies[0], rel=1e-6)

    def test_step_halving_fidelity(self):
        p = tiny_system()
        dims = FockDims(14, 16)
        t_end = 0.2 * p.mech_period
        cfg = recommend_integrator_config(p, t_end, dims)
        fine = IntegratorConfig(dt=cfg.dt / 2,
                                norm_tolerance=cfg.norm_tolerance)
        grid = np.array([0.0, t_end])
        a = evolve_numeric(p, dims, config=cfg, t_grid=grid, keep_states=True)
        b = evolve_numeric(p, dims, config=fine, t_grid=grid, keep_states=True)
        fid = abs(np.vdot(a.states[-1].amps, b.states[-1].amps)) ** 2
        assert fid > 1 - 1e-8

    def test_snapshots_on_requested_grid(self):
        p = tiny_system()
        grid = np.linspace(0.0, 1e-6, 7)
        run = evolve_numeric(p, FockDims(16, 18), t_grid=grid, keep_states=True)
        np.testing.assert_array_equal(run.t, grid)
        assert len(run.states) == 7
        for st in run.states:
            assert st.norm() == pytest.approx(1.0, abs=1e-12)

    def test_norm_monitor_raises(self, monkeypatch):
        p = tiny_system()
        monkeypatch.setattr(oracle, "NORM_CHECK_EVERY", 1)
        cfg = IntegratorConfig(dt=max_stable_dt(p), norm_tolerance=1e-16)
        with pytest.raises(IntegrationError):
            evolve_numeric(p, FockDims(14, 16), config=cfg,
                           t_grid=np.array([0.0, 1e-6]))

    def test_leak_warning_on_tight_dims(self):
        p = tiny_system(alpha=0.8, gamma=0.8, g_ratio=0.4, drive_amp=0.2e7)
        with pytest.warns(UserWarning, match=r"increase (field|mirror)_dim beyond 10"):
            evolve_numeric(p, FockDims(10, 10),
                           t_grid=np.array([0.0, 0.5 * p.mech_period]))

    def test_leak_warnings_fold_into_one(self):
        p = tiny_system(alpha=0.8, gamma=0.8, g_ratio=0.4, drive_amp=0.2e7)
        grid = np.linspace(0.0, 0.5 * p.mech_period, 9)
        with pytest.warns(UserWarning) as record:
            run = evolve_numeric(p, FockDims(10, 10), t_grid=grid)
        assert len(record) == 1
        message = str(record[0].message)
        assert f"population {run.leak_max:.3g} " in message
        assert re.search(r"increase (field|mirror)_dim beyond 10", message)
        assert re.search(r"worst of \d+ of 9 snapshots", message)

    @pytest.mark.parametrize("p, dims, leaking, other", [
        # uncoupled and driven: phi keeps its initial field, whose top 3 of 8
        # levels hold 6e-6; the mirror stays put
        (tiny_system(g_ratio=0.0, alpha=0.5, gamma=0.5, drive_amp=0.2e7), FockDims(8, 16),
         "field", "mirror"),
        # undriven and strongly coupled: the photons drag the mirror past 12 levels
        (tiny_system(drive_amp=0.0, omega_p=0.0, g_ratio=0.4, alpha=0.8, gamma=0.8),
         FockDims(16, 12), "mirror", "field"),
    ], ids=["field", "mirror"])
    def test_leak_warning_names_the_leaking_subsystem(self, p, dims, leaking, other):
        grid = np.linspace(0.0, 0.5 * p.mech_period, 9)
        with pytest.warns(UserWarning) as record:
            run = evolve_numeric(p, dims, t_grid=grid)
        (message,) = [str(w.message) for w in record]
        dim = getattr(dims, f"{leaking}_dim")
        assert message.startswith(f"population {run.leak_max:.3g} in the top 3 {leaking} ")
        assert message.endswith(f"increase {leaking}_dim beyond {dim}")
        assert other not in message

    def test_grid_validation(self):
        p = tiny_system()
        with pytest.raises(ValueError):
            evolve_numeric(p, DIMS, t_grid=np.array([0.0, 2e-7, 1e-7]))
        with pytest.raises(ValueError):
            evolve_numeric(p, DIMS, t_grid=np.array([-1e-7, 1e-7]))


@pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan, math.inf])
def test_norm_tolerance_must_be_positive_and_finite(tolerance):
    """A nan tolerance would switch the norm monitor off: drift > nan is never true."""
    with pytest.raises(ValueError, match="^norm_tolerance must be positive and finite$"):
        IntegratorConfig(dt=1e-9, norm_tolerance=tolerance)


def random_block(dims: FockDims, n_states: int, seed: int) -> np.ndarray:
    """(n_states, joint) unnormalized random states, one per row."""
    rng = np.random.default_rng(seed)
    shape = (n_states, dims.joint)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_states(dims: FockDims, n_states: int, seed: int) -> list:
    """Random normalized joint states, for the sample reduction alone."""
    return [JointState(dims, row / np.linalg.norm(row))
            for row in random_block(dims, n_states, seed)]


def rk4_states(p: SystemParams, dims: FockDims, t_end: float, n_steps: int) -> list:
    """Lab-frame states after each of n_steps plain RK4 steps of -i H', normalized."""
    frame = DisplacedFrame(p, dims)
    psi = JointState.from_product(dims, coherent_state(dims.field_dim, p.alpha),
                                  coherent_state(dims.mirror_dim, p.gamma)).amps
    h = t_end / n_steps

    def f(t, vec):
        return frame.rhs(t, frame.padded(vec)[0], np.empty_like(vec))

    out = []
    for j in range(n_steps):
        t = j * h
        k1 = f(t, psi)
        k2 = f(t + 0.5 * h, psi + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, psi + 0.5 * h * k2)
        k4 = f((j + 1) * h, psi + h * k3)
        psi = psi + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t_next = (j + 1) * h
        field = dense_displacement(classical_field(p, t_next), dims.field_dim)
        lab = (np.exp(-1j * free_energies(p, dims) * t_next)
               * (field @ psi.reshape(dims.field_dim, dims.mirror_dim)).ravel())
        out.append(lab / np.linalg.norm(lab))
    return out


class TestSampling:
    """One grid of equal steps over the run; samples from the continuous extension."""

    def test_step_count_is_the_fewest_steps_within_dt(self):
        dt = 7.1399833036131657e-11
        assert oracle.step_count(0.0, dt) == 0
        assert oracle.step_count(0.5 * dt, dt) == 1
        for n in (3, 1000, 1761):
            t_end = n * dt
            steps = oracle.step_count(t_end, dt)
            assert t_end / steps <= dt < t_end / (steps - 1)

    def test_samples_on_step_ends_are_the_stepped_states(self):
        """theta = 1 is the step itself: to rounding, the states of plain RK4."""
        p = tiny_system()
        dims = FockDims(14, 16)
        t_end = 0.01 * p.mech_period
        cfg = IntegratorConfig(dt=t_end / 8 * (1 + 1e-12))
        grid = np.linspace(0.0, t_end, 5)  # every second step end
        run = evolve_numeric(p, dims, grid, cfg, keep_states=True)
        assert run.n_steps == 8
        stepped = rk4_states(p, dims, t_end, 8)
        for state, expected in zip(run.states[1:], stepped[1::2]):
            np.testing.assert_allclose(state.amps, expected, rtol=0, atol=1e-14)

    def test_mid_step_sample_matches_a_run_stepping_onto_it(self):
        """Half-way through step 22 of 44, the cubic extension is within
        1e-7 of a run whose 23 steps end there (2.7e-8 measured; both are
        within 2.5e-8 of a dt/16 run)."""
        p = tiny_system()
        dims = FockDims(14, 16)
        t_end = 0.2 * p.mech_period
        cfg = recommend_integrator_config(p, t_end, dims)
        assert oracle.step_count(t_end, cfg.dt) == 44
        t_mid = 22.5 * t_end / 44
        dense = evolve_numeric(p, dims, np.array([0.0, t_mid, t_end]), cfg, keep_states=True)
        landing = evolve_numeric(p, dims, np.array([0.0, t_mid]),
                                 IntegratorConfig(dt=t_mid / 23 * (1 + 1e-12)), keep_states=True)
        assert landing.n_steps == 23
        assert np.linalg.norm(dense.states[1].amps - landing.states[1].amps) <= 1e-7

    def test_reductions_equal_those_of_the_lab_states(self):
        """Taken in the displaced frame, the moments of n and N and the
        purity are those of the lab-frame partial traces. 24 field levels
        hold the lab state as well as the frame's (at 20 its lab tail is
        6e-12)."""
        p = tiny_system(g_ratio=0.3)
        grid = np.linspace(0.0, 0.5 * p.mech_period, 6)
        run = evolve_numeric(p, FockDims(24, 36), t_grid=grid, keep_states=True)
        assert min(run.purity) < 0.9  # the later samples are entangled
        for i, state in enumerate(run.states):
            rho_f, rho_m = partial_trace_mirror(state), partial_trace_field(state)
            pk, pm = np.diag(rho_f.data).real, np.diag(rho_m.data).real
            k, m = np.arange(pk.size), np.arange(pm.size)
            np.testing.assert_allclose([run.photons[i], run.photons_sq[i]],
                                       [pk @ k, pk @ k ** 2], rtol=0, atol=1e-12)
            np.testing.assert_allclose([run.phonons[i], run.phonons_sq[i]],
                                       [pm @ m, pm @ m ** 2], rtol=0, atol=1e-12)
            assert run.purity[i] == pytest.approx(rho_m.purity(), abs=1e-12)
            assert run.norms[i] == pytest.approx(1.0, abs=run.config.norm_tolerance)


class TestBlockReduction:
    """The lab photon moments from phi's field Gram matrix, a block of samples at once."""

    @pytest.mark.parametrize("xi", [0.0, 0.3 + 0.2j, -2.1j, 3.5 - 3.5j])
    def test_lab_photon_moments_equal_those_of_the_displaced_state(self, xi):
        """<n> and <n^2> of D(xi) phi on a padded field against the identity."""
        dims = FockDims(12, 6)
        phi = random_block(dims, 3, seed=5)
        red = reduce_block(phi, dims)
        photons, photons_sq = oracle.lab_photon_moments(red.field_moments, np.full(3, xi))
        pad = dims.field_dim + 150 + int(4 * abs(xi) ** 2)
        f = ladder_ops(pad)
        displacement = expm(xi * f.raise_ - np.conj(xi) * f.lower)[:, :dims.field_dim]
        k = np.arange(pad)
        for i, row in enumerate(phi):
            lab = displacement @ row.reshape(dims.field_dim, dims.mirror_dim)
            pk = (np.abs(lab) ** 2).sum(axis=1) / np.vdot(row, row).real
            np.testing.assert_allclose([photons[i], photons_sq[i]], [pk @ k, pk @ k ** 2],
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dims", [FockDims(12, 14), FockDims(30, 308)], ids=str)
    @pytest.mark.parametrize("n_states", [1, 5])
    def test_a_block_reduces_as_its_rows(self, dims, n_states):
        """The batched Gram product gives each row what it gives the row alone."""
        block = random_block(dims, n_states, seed=7)
        whole = reduce_block(block, dims)
        for i, row in enumerate(block):
            alone = reduce_block(row[None], dims)
            for got, expected in zip(whole, alone):
                if isinstance(got, tuple):  # the leaks
                    got, expected = np.array(got)[:, i], np.array(expected)[:, 0]
                else:
                    got, expected = got[i], expected[0]
                np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("rows", [3, 1])
    def test_samples_split_at_the_serial_bound_are_unchanged(self, monkeypatch, rows):
        """Nine samples in each of two steps, read in one product per step,
        against blocks of at most three samples and against one sample at a
        time, with the memory bound lowered to that many rows."""
        p = tiny_system()
        dims = FockDims(16, 16)
        cfg = IntegratorConfig(dt=max_stable_dt(p))
        grid = np.linspace(0.0, 1.6 * cfg.dt, 19)

        def run():
            return observables_numeric(evolve_numeric(p, dims, grid, cfg))

        assert oracle._sample_plan(grid, 2, dims.joint).rows == 9
        whole = run()
        monkeypatch.setattr(oracle, "_BLOCK_AMPLITUDES", rows * dims.joint)
        assert oracle._sample_plan(grid, 2, dims.joint).rows == rows
        for name, series in run().items():
            np.testing.assert_allclose(series.y, whole[name].y, rtol=1e-15, atol=1e-15)

    def test_products_stay_below_the_serial_bound(self):
        """A block of samples, over every joint size where more than one row
        fits, holds at most _BLOCK_AMPLITUDES amplitudes, or is one row
        wide. One more row than the step's 70 samples allow would exceed it."""
        bound = oracle._BLOCK_AMPLITUDES
        grid = np.linspace(0.0, 1.0, 71)  # 70 samples in one step
        for joint in range(4, bound // 2 + 2):
            rows = oracle._sample_plan(grid, 1, joint).rows
            assert rows == 1 or rows * joint <= bound
            assert rows == 70 or (rows + 1) * joint > bound

    @pytest.mark.parametrize("dims, rows", [
        (FockDims(30, 308), 1),  # fig7_8, wigner_snapshots, strong_oracle
        (FockDims(30, 35), 15),  # fig4, fig5_6
        (FockDims(22, 28), 26),  # undriven_wigner
    ], ids=str)
    def test_preset_partitions(self, dims, rows):
        """The sample rows of the dims the presets run at."""
        assert oracle._sample_plan(np.linspace(0.0, 1.0, 41), 1, dims.joint).rows == rows

    def test_lab_photon_moments_converge_in_field_dim(self):
        """fig4 red over its first beat period: no truncation enters after the
        displacement, so 30 field levels read what 40 do (a truncated lab
        marginal misses mandel_field by 2.1e-7)."""
        (job,) = [job for job in config.preset_jobs("fig4") if job.tag == "red"]
        cfg = job.config
        (_, _, times, icfg, _), = cfg.oracle_runs
        p = cfg.params
        beat = 2 * math.pi / abs(p.omega_p - p.omega_c)
        grid = times[times <= beat * (1 + 1e-12)]
        runs = [observables_numeric(evolve_numeric(p, dims, grid, icfg))
                for dims in (cfg.dims, FockDims(40, cfg.dims.mirror_dim))]
        assert cfg.dims == FockDims(30, 35)
        for name in ("photon_avg", "mandel_field"):
            np.testing.assert_allclose(runs[0][name].y, runs[1][name].y, rtol=0, atol=1e-11)


class TestObservables:

    def test_initial_values(self):
        p = tiny_system(alpha=2.0, gamma=2.0)
        run = evolve_numeric(p, FockDims(21, 24),
                             t_grid=np.array([0.0, 1e-8]))
        obs = observables_numeric(run)
        assert obs["photon_avg"].y[0] == pytest.approx(4.0, abs=1e-7)
        assert obs["phonon_avg"].y[0] == pytest.approx(4.0, abs=1e-7)
        assert obs["mandel_field"].y[0] == pytest.approx(1.0, abs=1e-6)
        assert obs["mandel_mirror"].y[0] == pytest.approx(1.0, abs=1e-6)
        assert obs["purity_mirror"].y[0] == pytest.approx(1.0, abs=1e-9)
        assert obs["linear_entropy_mirror"].y[0] == pytest.approx(0.0,
                                                                  abs=1e-9)

    def test_purity_equals_that_of_the_mirror_reduction(self):
        """Tr rho_m^2 is read from the field reduction; both agree on a pure state."""
        p = tiny_system(g_ratio=0.3, drive_amp=0.0, omega_p=0.0)
        run = evolve_numeric(p, FockDims(14, 30),
                             t_grid=np.array([0.0, 0.5 * p.mech_period]), keep_states=True)
        purity = observables_numeric(run)["purity_mirror"].y
        mirror = partial_trace_field(run.states[-1]).purity()
        assert mirror < 0.9  # the snapshot is entangled
        assert purity[-1] == pytest.approx(mirror, abs=1e-12)

    def test_blocked_purity_at_strong_dims(self):
        """At 30 x 308 the purity read from the field Gram matrix is the mirror reduction's."""
        dims = FockDims(30, 308)
        (state,) = random_states(dims, 1, seed=11)
        (purity,) = reduce_block(state.amps[None], dims).purity
        mirror = partial_trace_field(state).purity()
        assert purity == pytest.approx(mirror, abs=1e-12)

    def test_series_metadata(self):
        p = tiny_system()
        run = evolve_numeric(p, FockDims(14, 16),
                             t_grid=np.array([0.0, 1e-8]))
        obs = observables_numeric(run)
        assert set(obs) == {"photon_avg", "phonon_avg", "mandel_field",
                            "mandel_mirror", "purity_mirror",
                            "linear_entropy_mirror"}
        for name, s in obs.items():
            assert s.label == name
            assert s.provenance == "numeric"
