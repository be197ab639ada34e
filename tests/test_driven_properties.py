"""Property tests of the beta coefficients over random driven systems (hypothesis)."""
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from optomech.driven import beta1_phi_to_one, integrate_betas
from optomech.system import SystemParams
from test_driven import three_node_simpson

OMEGA_C = 1e9
OMEGA_M = 0.01 * OMEGA_C
MECH_PERIOD = 2 * math.pi / OMEGA_M


def amplitudes(limit):
    return st.builds(lambda r, angle: r * complex(math.cos(angle), math.sin(angle)),
                     st.floats(0.0, limit), st.floats(0.0, 2 * math.pi))


# omega_p = 0, or omega_c detuned by 1e-4 omega_c to omega_c either way
pump = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, exponent: OMEGA_C * (1 + sign * 10.0 ** exponent),
              st.sampled_from((-1, 1)), st.floats(-4.0, 0.0)),
)


@st.composite
def driven_systems(draw, g_ratio=st.floats(0.0, 0.5)):
    return SystemParams(omega_c=OMEGA_C, omega_m=OMEGA_M, omega_p=draw(pump),
                        drive_amp=draw(st.floats(0.01, 0.3)) * OMEGA_C,
                        g_ratio=draw(g_ratio), alpha=draw(amplitudes(5.0)),
                        gamma=draw(amplitudes(5.0)))


def grids(longest):
    """Uniform sample grids from 0 over up to `longest` mechanical periods."""
    return st.builds(lambda span, n: np.linspace(0.0, span * MECH_PERIOD, n),
                     st.floats(0.01, longest), st.integers(2, 40))


def scale(series):
    return max(1.0, float(np.max(np.abs(series.b1))))


class TestBetaIdentities:

    @settings(deadline=None)
    @given(driven_systems(), grids(6.0))
    def test_antisymmetry_and_unitarity_hold_to_rounding(self, p, grid):
        series = integrate_betas(p, grid)
        s2 = scale(series) ** 2
        assert np.max(np.abs(series.b1 + np.conj(series.b2))) <= 1e-12 * s2
        assert np.max(np.abs(series.b3.real + np.abs(series.b1) ** 2 / 2)) <= 1e-12 * s2

    @settings(deadline=None)
    @given(driven_systems(g_ratio=st.just(0.0)), grids(2.0))
    def test_uncoupled_b1_is_the_bare_cavity_closed_form(self, p, grid):
        series = integrate_betas(p, grid)
        assert np.max(np.abs(series.b1 - beta1_phi_to_one(p, grid))) <= 1e-9 * scale(series)

    @settings(deadline=None, max_examples=20)
    @given(driven_systems(), grids(0.25))
    def test_b1_and_b3_match_simpson_sums(self, p, grid):
        series = integrate_betas(p, grid)
        b1, _, b3 = three_node_simpson(p, grid)
        assert np.max(np.abs(series.b1 - b1)) <= 1e-9 * scale(series)
        assert np.max(np.abs(series.b3 - b3)) <= 1e-9 * scale(series)
