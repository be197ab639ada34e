import dataclasses
import math
import os
import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from conftest import ladder_ops, strong_system, thread_count, tiny_system
from optomech.errors import IntegrationError
from optomech.fock import (
    FockDims,
    JointState,
    coherent_state,
    partial_trace_field,
)
from optomech.oracle import (
    IntegratorConfig,
    InteractionFrame,
    OracleRun,
    evolve_numeric,
    interaction_terms,
    max_stable_dt,
    mean_interaction_scale,
    observables_numeric,
    recommend_integrator_config,
)
from optomech.system import SystemParams
from optomech.undriven import evolve_undriven

DIMS = FockDims(12, 14)


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


def generator_matrix(frame: InteractionFrame, t: float) -> np.ndarray:
    """The dense -i H_I(t) of a frame, column j being rhs applied to basis vector j."""
    n = DIMS.joint
    op = np.empty((n, n), dtype=complex)
    for j in range(n):
        basis = np.zeros(n, dtype=complex)
        basis[j] = 1.0
        frame.rhs(t, frame.padded(basis)[0], op[:, j])
    return op


def dia_generator(p: SystemParams, dims: FockDims, t: float) -> sp.dia_matrix:
    """-i H_I(t) as a scipy DIA matrix of the interaction terms and their adjoints."""
    data, offsets = [], []
    for term in interaction_terms(p, dims):
        f = term.factor(t)
        data.append(-1j * f * term.row)
        offsets.append(term.offset)
        # X^dagger on band -offset: column j holds X[j, j + offset] = row[j + offset].
        adjoint = np.concatenate((term.row[term.offset:], np.zeros(term.offset)))
        data.append(-1j * f.conjugate() * adjoint)
        offsets.append(-term.offset)
    return sp.dia_matrix((np.array(data), offsets), shape=(dims.joint, dims.joint))


class TestStepSizing:

    def test_respects_stability_cap(self):
        p = tiny_system()
        cfg = recommend_integrator_config(p, 1e-5, DIMS)
        assert cfg.dt <= max_stable_dt(p)
        assert max_stable_dt(p) == pytest.approx(
            2 * math.pi / (40 * p.fastest_angular_frequency))

    def test_longer_runs_get_smaller_steps(self):
        p = tiny_system()
        short = recommend_integrator_config(p, 1e-6, FockDims(20, 40))
        long = recommend_integrator_config(p, 1e-3, FockDims(20, 40))
        assert long.dt <= short.dt

    def test_undriven_cap_resolves_omega_m(self):
        """Without drive, H_I(t) carries only exp(-i omega_m t)."""
        p = tiny_system(drive_amp=0.0, omega_p=0.0)
        assert max_stable_dt(p) == pytest.approx(2 * math.pi / (40 * p.omega_m))


# Strong coupling at dims small enough for a tenth of a mechanical period
# to run in a fraction of a second; the top levels leak a little.
MODEL_DIMS = FockDims(22, 60)


@pytest.fixture(scope="module", params=[0.8, 1.2], ids=["red", "blue"])
def strong_short(request):
    p = strong_system(request.param)
    return p, 0.1 * p.mech_period


def sixth_moment(frame: InteractionFrame, t: float, psi: np.ndarray) -> float:
    """<H_I(t)^6> = ||H_I(t)^3 psi_I||^2 of the lab-frame state psi."""
    vec = frame.to_lab(-t, psi)  # exp(i H0 t) psi
    for _ in range(3):
        vec = frame.rhs(t, frame.padded(vec)[0], np.empty_like(vec))
    return np.vdot(vec, vec).real


@pytest.mark.filterwarnings("ignore:population")
class TestStepModel:
    """The step size is solved from (dt^5/144) t_end lambda_bar^6 = tol/2."""

    def test_scale_bounds_the_measured_sixth_moment(self, strong_short):
        p, t_end = strong_short
        grid = np.linspace(0.0, t_end, 201)
        run = evolve_numeric(p, MODEL_DIMS, t_grid=grid)
        frame = InteractionFrame(p, MODEL_DIMS)
        moments = np.array([sixth_moment(frame, t, state.amps)
                            for t, state in zip(grid, run.states)])
        time_average = np.mean(0.5 * (moments[1:] + moments[:-1]))
        assert mean_interaction_scale(p, t_end, MODEL_DIMS) ** 6 >= time_average

    def test_recommended_step_drifts_under_a_quarter_of_tolerance(self, strong_short):
        p, t_end = strong_short
        run = evolve_numeric(p, MODEL_DIMS, t_grid=np.array([0.0, t_end]))
        assert run.config == recommend_integrator_config(p, t_end, MODEL_DIMS)
        assert 0 < run.norm_drift <= run.config.norm_tolerance / 4


class TestInteractionFrame:
    """The stepper integrates psi_I = exp(i H0 t) psi with H0 = omega_c n + omega_m N."""

    @staticmethod
    def free_energies(p: SystemParams, dims: FockDims) -> np.ndarray:
        free = dataclasses.replace(p, g_ratio=0.0, drive_amp=0.0, omega_p=0.0)
        return np.diag(dense_hamiltonian(free, dims, 0.0)).copy()

    @pytest.mark.parametrize("system", [
        dict(g_ratio=0.0),                    # drive bands only
        dict(drive_amp=0.0, omega_p=0.0),     # coupling bands only
        dict(),                               # both
    ], ids=["drive-only", "coupling-only", "full"])
    def test_rhs_matches_dense_interaction_picture(self, system):
        p = tiny_system(**system)
        energies = self.free_energies(p, DIMS)
        frame = InteractionFrame(p, DIMS)
        rng = np.random.default_rng(7)
        psi = rng.standard_normal(DIMS.joint) + 1j * rng.standard_normal(DIMS.joint)
        padded, _ = frame.padded(psi)
        for t in (0.0, 1.3e-7, 4.8e-7):
            v = dense_hamiltonian(p, DIMS, t) - np.diag(energies)
            rot = np.exp(1j * energies * t)
            expected = -1j * rot * (v @ (psi / rot))
            np.testing.assert_allclose(frame.rhs(t, padded, np.empty_like(psi)), expected,
                                       rtol=0, atol=1e-9 * np.abs(expected).max())

    @pytest.mark.parametrize("system", [
        dict(g_ratio=0.0),
        dict(drive_amp=0.0, omega_p=0.0),
        dict(),
    ], ids=["drive-only", "coupling-only", "full"])
    def test_generator_is_anti_hermitian(self, system):
        """Each term brings its own adjoint band, so -i H_I(t) is anti-Hermitian."""
        frame = InteractionFrame(tiny_system(**system), DIMS)
        for t in (0.0, 0.37e-7, 4.8e-7):
            op = generator_matrix(frame, t)
            assert np.abs(op).max() > 0
            np.testing.assert_array_equal(op + op.conj().T, 0)

    def test_undriven_frame_holds_only_coupling_bands(self):
        frame = InteractionFrame(tiny_system(drive_amp=0.0, omega_p=0.0), DIMS)
        assert frame.offsets == (-1, 1)

    def test_direct_kernel_equals_operator_product(self):
        """The padded band kernel against a scipy DIA product of the same terms."""
        p = tiny_system()
        frame = InteractionFrame(p, DIMS)
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(DIMS.joint) + 1j * rng.standard_normal(DIMS.joint)
        padded, _ = frame.padded(psi)
        out = np.full_like(psi, np.nan)  # stale contents must not leak in
        for t in (0.0, 1.3e-7, 1.3e-7, 4.8e-7):
            got = frame.rhs(t, padded, out)
            assert got is out
            expected = dia_generator(p, DIMS, t) @ psi
            np.testing.assert_allclose(out, expected, rtol=0,
                                       atol=1e-15 * np.abs(expected).max())

    def test_free_evolution_is_exact(self):
        """With g = 0 and no drive H_I vanishes, so only the rotation back acts."""
        p = SystemParams(omega_c=2e6, omega_m=1e6, alpha=1.0, gamma=0.5)
        dims = FockDims(13, 10)
        dt = 3.6e-8
        grid = np.array([0.0, 100 * dt, 200 * dt])
        run = evolve_numeric(p, dims,
                             config=IntegratorConfig(dt=dt, norm_tolerance=1e-6),
                             t_grid=grid)
        assert run.n_steps == 200
        assert run.norm_drift <= 1e-14
        psi0 = JointState.from_product(dims, coherent_state(13, 1.0),
                                       coherent_state(10, 0.5)).amps
        energies = self.free_energies(p, dims)
        for t, state in zip(grid, run.states):
            np.testing.assert_allclose(state.amps, np.exp(-1j * energies * t) * psi0,
                                       rtol=0, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:population")
    def test_strong_driven_run_matches_dense_reference(self):
        """Recommended steps against DOP853 on the dense lab-frame H(t)."""
        p = dataclasses.replace(strong_system(), alpha=1.0, gamma=1.0)
        t_end = 0.02 * p.mech_period
        run = evolve_numeric(p, DIMS, t_grid=np.array([0.0, t_end]))
        assert run.norm_drift <= run.config.norm_tolerance
        h_static = -1j * dense_hamiltonian(dataclasses.replace(p, drive_amp=0.0), DIMS, 0.0)
        h_drive = -1j * dense_hamiltonian(p, DIMS, 0.0) - h_static
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
        run = evolve_numeric(p, dims, t_grid=np.array([0.0, t_end]))
        exact = evolve_undriven(p, t_end, dims)
        fid = abs(np.vdot(exact.amps, run.states[-1].amps)) ** 2
        assert fid > 1 - 1e-6

    def test_energy_conserved_without_drive(self):
        p = tiny_system(drive_amp=0.0, omega_p=0.0)
        dims = FockDims(14, 16)
        grid = np.linspace(0.0, p.mech_period, 5)
        run = evolve_numeric(p, dims, t_grid=grid)
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
        a = evolve_numeric(p, dims, config=cfg, t_grid=grid)
        b = evolve_numeric(p, dims, config=fine, t_grid=grid)
        fid = abs(np.vdot(a.states[-1].amps, b.states[-1].amps)) ** 2
        assert fid > 1 - 1e-8

    def test_snapshots_on_requested_grid(self):
        p = tiny_system()
        grid = np.linspace(0.0, 1e-6, 7)
        run = evolve_numeric(p, FockDims(16, 18), t_grid=grid)
        np.testing.assert_array_equal(run.t, grid)
        assert len(run.states) == 7
        for st in run.states:
            assert st.norm() == pytest.approx(1.0, abs=1e-12)

    def test_norm_monitor_raises(self):
        p = tiny_system()
        cfg = IntegratorConfig(dt=max_stable_dt(p), norm_check_every=1,
                               norm_tolerance=1e-16)
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
        # uncoupled and driven: the field outgrows 8 levels, the mirror stays put
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


def random_run(dims: FockDims, n_states: int, seed: int) -> OracleRun:
    """An OracleRun holding random normalized states, for the observables alone."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n_states):
        amps = rng.standard_normal(dims.joint) + 1j * rng.standard_normal(dims.joint)
        states.append(JointState(dims, amps / np.linalg.norm(amps)))
    return OracleRun(tiny_system(), dims, IntegratorConfig(dt=1e-10),
                     np.arange(float(n_states)), states)


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
                             t_grid=np.array([0.0, 0.5 * p.mech_period]))
        purity = observables_numeric(run)["purity_mirror"].y
        mirror = partial_trace_field(run.states[-1]).purity()
        assert mirror < 0.9  # the snapshot is entangled
        assert purity[-1] == pytest.approx(mirror, abs=1e-12)

    def test_blocked_purity_at_strong_dims(self):
        """30 x 308 is summed in five blocks of mirror levels; the purity stays exact."""
        run = random_run(FockDims(30, 308), 1, seed=11)
        purity = observables_numeric(run)["purity_mirror"].y[0]
        mirror = partial_trace_field(run.states[0]).purity()
        assert purity == pytest.approx(mirror, abs=1e-12)

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
    def test_observables_wake_no_blas_thread(self):
        """At 30 x 308 one field Gram product is big enough for OpenBLAS to thread."""
        run = random_run(FockDims(30, 308), 3, seed=12)
        # OpenBLAS joins its threads before a fork; they restart on demand.
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        if thread_count() != 1:
            pytest.skip("other threads are running in this process")
        observables_numeric(run)
        assert thread_count() == 1

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
