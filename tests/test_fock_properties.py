"""Property tests of the partial traces over random pure joint states (hypothesis)."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from optomech.fock import FockDims, JointState, partial_trace_field, partial_trace_mirror


@st.composite
def pure_joint_states(draw):
    """Normalized joint states with random amplitudes, at dims 2..6 x 2..6."""
    dims = FockDims(draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    parts = draw(arrays(np.float64, (2, dims.joint), elements=st.floats(-1.0, 1.0)))
    amps = parts[0] + 1j * parts[1]
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    return JointState(dims, amps / norm)


class TestPartialTraceProperties:
    """Identities both reductions of every pure joint state obey."""

    @settings(deadline=None)
    @given(pure_joint_states())
    def test_unit_trace(self, state):
        for rho in (partial_trace_mirror(state), partial_trace_field(state)):
            assert abs(np.trace(rho.data) - 1.0) <= 1e-12

    @settings(deadline=None)
    @given(pure_joint_states())
    def test_hermitian(self, state):
        for rho in (partial_trace_mirror(state), partial_trace_field(state)):
            assert np.max(np.abs(rho.data - rho.data.conj().T)) <= 1e-15

    @settings(deadline=None)
    @given(pure_joint_states())
    def test_equal_purity(self, state):
        """The Schmidt coefficients are shared, so Tr rho_f^2 = Tr rho_m^2."""
        purity_f = partial_trace_mirror(state).purity()
        purity_m = partial_trace_field(state).purity()
        assert purity_f == pytest.approx(purity_m, rel=1e-12)
