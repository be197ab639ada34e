import math

import numpy as np
import pytest

from conftest import ladder_ops, tensor
from optomech.errors import TruncationError
from optomech.fock import (
    DensityMatrix,
    FockDims,
    JointState,
    coherent_amplitudes,
    coherent_required_dim,
    coherent_state,
    partial_trace_field,
    partial_trace_mirror,
    recommend_field_dim,
    recommend_mirror_dim,
)

RNG = np.random.default_rng(7)


def poisson_walk_dim(amp) -> int:
    """Reference for coherent_required_dim: walk the Poisson pmf in log space
    from max(2, int(|amp|^2)) levels until the tail beyond is at most 1e-8."""
    mu = abs(amp) ** 2
    d = max(2, int(mu))
    log_term = -mu  # log of the Poisson pmf at k = 0
    acc = math.exp(log_term)
    for k in range(1, d):
        log_term += math.log(mu / k) if mu > 0 else -math.inf
        acc += math.exp(log_term)
    k = d - 1
    while 1.0 - acc > 1e-8:
        d += 1
        k += 1
        log_term += math.log(mu / k)
        acc += math.exp(log_term)
    return d


def coherent_by_recurrence(dim, amp):
    """c_k = c_{k-1} amp / sqrt(k) from c_0 = e^{-|amp|^2/2}; underflows past |amp|^2 ~ 1,490."""
    c = np.empty(dim, dtype=np.complex128)
    c[0] = math.exp(-abs(amp) ** 2 / 2.0)
    for k in range(1, dim):
        c[k] = c[k - 1] * amp / math.sqrt(k)
    return c


def random_state(dims: FockDims) -> JointState:
    v = RNG.normal(size=dims.joint) + 1j * RNG.normal(size=dims.joint)
    return JointState(dims, v / np.linalg.norm(v))


class TestLadderOps:

    def test_adjoint_pair(self):
        ops = ladder_ops(6)
        np.testing.assert_allclose(ops.raise_, ops.lower.conj().T, atol=1e-14)

    def test_truncated_commutator(self):
        """[a, a^dag] = 1 - d |d-1><d-1| on a truncated basis."""
        d = 5
        a = ladder_ops(d).lower
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(d)
        expected[-1, -1] = 1 - d
        np.testing.assert_allclose(comm, expected, atol=1e-13)

    def test_number_operator_diagonal(self):
        ops = ladder_ops(4)
        np.testing.assert_allclose(ops.number, np.diag([0.0, 1, 2, 3]), atol=0)

    def test_tensor_shape_and_action(self):
        """The joint diagonal of n x N, reshaped field-major, is k * m."""
        joint = tensor(ladder_ops(3).number, ladder_ops(4).number)
        assert joint.shape == (12, 12)
        np.testing.assert_allclose(np.diag(joint).reshape(3, 4),
                                   np.outer(np.arange(3), np.arange(4)), atol=0)


class TestCoherent:

    def test_poisson_weights(self):
        c, loss = coherent_amplitudes(40, 2.0)
        k = np.arange(40)
        expected = np.exp(-4.0) * 4.0 ** k / np.array(
            [math.factorial(int(n)) for n in k], dtype=float)
        np.testing.assert_allclose(np.abs(c) ** 2, expected, rtol=1e-12)
        assert loss < 1e-12

    def test_vectorized_over_amplitudes(self):
        amps = np.array([[0.5, 2.0 - 1.0j], [3.0j, 4.0]])
        c, loss = coherent_amplitudes(12, amps)
        assert c.shape == (2, 2, 12) and loss.shape == (2, 2)
        for idx in np.ndindex(amps.shape):
            one, one_loss = coherent_amplitudes(12, amps[idx])
            np.testing.assert_array_equal(c[idx], one)
            assert loss[idx] == one_loss
        assert loss[1, 1] > 0.5  # |4>: most of the Poisson mass lies beyond 12

    @pytest.mark.parametrize("amp", [0.3, 2.0 - 1.0j, 7.5j, 18.0, 30.0 * np.exp(0.7j)])
    @pytest.mark.parametrize("dim", [2, 40, 308])
    def test_closed_form_matches_the_recurrence(self, amp, dim):
        """Below |amp|^2 ~ 1,490 the recurrence holds, and the closed form is
        within 1e-12 of its largest amplitude."""
        c, _ = coherent_amplitudes(dim, amp)
        expected = coherent_by_recurrence(dim, amp)
        np.testing.assert_allclose(c, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_real_amplitudes_give_real_series(self):
        """A real amp, of either sign, gives the real c_k = |c_k| sign(amp)^k,
        the recurrence's within 1e-12, with the complex route's loss."""
        amps = np.array([-2.5, 0.0, 1.5])
        c, loss = coherent_amplitudes(20, amps)
        assert c.dtype == np.float64
        for amp, row, row_loss in zip(amps, c, loss):
            np.testing.assert_allclose(row, coherent_by_recurrence(20, amp).real, rtol=0, atol=1e-12)
            assert row_loss == pytest.approx(coherent_amplitudes(20, complex(amp))[1], abs=1e-15)

    def test_zero_amplitude_is_the_vacuum_exactly(self):
        c, loss = coherent_amplitudes(6, 0.0)
        np.testing.assert_array_equal(c, np.eye(6)[0])
        assert loss == 0.0

    def test_required_dim_equals_the_poisson_walk(self):
        for amp in [*np.linspace(0.0, 12.0, 1201), 40.0, 100.0]:
            assert coherent_required_dim(amp) == poisson_walk_dim(amp), amp

    @pytest.mark.parametrize("amp", [40.0, 100.0])
    def test_large_amplitudes_keep_their_poisson_weights(self, amp):
        """Past |amp|^2 ~ 1,490 the state still has unit norm and mean |amp|^2."""
        dim = coherent_required_dim(amp)
        c = coherent_state(dim, amp)
        assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)
        n = np.sum(np.arange(dim) * np.abs(c) ** 2)
        assert n == pytest.approx(amp ** 2, rel=1e-8)

    def test_mean_occupation(self):
        for amp in (0.5, 2.0, 1.0 + 1.5j):
            dim = coherent_required_dim(amp) + 5
            c = coherent_state(dim, amp)
            n = np.sum(np.arange(dim) * np.abs(c) ** 2)
            assert n == pytest.approx(abs(amp) ** 2, rel=1e-8)

    def test_truncation_gate(self):
        # alpha=2 needs 21 levels to keep the tail below 1e-8
        assert coherent_required_dim(2.0) == 21
        coherent_state(21, 2.0)
        with pytest.raises(TruncationError, match="needs dim >= 21"):
            coherent_state(20, 2.0)

    def test_phase_convention(self):
        c = coherent_state(25, 1.0j)
        assert c[0] == pytest.approx(math.exp(-0.5))
        assert c[1] == pytest.approx(1j * math.exp(-0.5))


class TestJointState:

    def test_norm_enforced(self):
        dims = FockDims(3, 3)
        with pytest.raises(ValueError):
            JointState(dims, np.ones(9))

    def test_from_product_matches_kron(self):
        dims = FockDims(7, 8)
        f = coherent_state(7, 0.3)
        m = coherent_state(8, 0.4)
        st = JointState.from_product(dims, f, m)
        np.testing.assert_allclose(st.amps, np.kron(f, m), atol=1e-14)
        np.testing.assert_allclose(st.as_matrix(), np.outer(f, m), atol=1e-14)

    def test_partial_traces_of_product_state(self):
        dims = FockDims(8, 7)
        f = coherent_state(8, 0.4)
        m = coherent_state(7, 0.2 + 0.3j)
        st = JointState.from_product(dims, f, m)
        rho_f = partial_trace_mirror(st)
        rho_m = partial_trace_field(st)
        np.testing.assert_allclose(rho_f.data, np.outer(f, f.conj()), atol=1e-13)
        np.testing.assert_allclose(rho_m.data, np.outer(m, m.conj()), atol=1e-13)
        assert rho_f.purity() == pytest.approx(1.0)
        assert rho_m.purity() == pytest.approx(1.0)

    def test_partial_trace_units(self):
        st = random_state(FockDims(6, 7))
        rho_f = partial_trace_mirror(st)
        rho_m = partial_trace_field(st)
        assert np.trace(rho_f.data) == pytest.approx(1.0)
        assert np.trace(rho_m.data) == pytest.approx(1.0)
        # both reductions of a pure state have the same purity
        assert rho_f.purity() == pytest.approx(rho_m.purity(), rel=1e-10)


class TestDensityMatrix:

    def test_rejects_non_hermitian(self):
        m = np.array([[1.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.7, 0.7]))

    def test_purity_of_mixture(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        assert rho.purity() == pytest.approx(0.5)


def test_recommended_dims_monotone():
    assert recommend_mirror_dim(2.0, 0.33, 20) == 308
    assert recommend_mirror_dim(2.0, 0.033, 20) < 100
    assert recommend_field_dim(4.0) >= 4 + 5 * 2
    # a bigger state never gets a smaller recommendation
    assert recommend_field_dim(9.0) > recommend_field_dim(4.0)
    assert recommend_mirror_dim(2.0, 0.33, 29) == 553


def test_joint_dim_guard():
    with pytest.raises(ValueError):
        FockDims(2000, 2000)
