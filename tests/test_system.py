import math

import pytest

from optomech.system import SystemParams


def make(**kw):
    base = dict(omega_c=1e9, omega_m=1e7)
    base.update(kw)
    return SystemParams(**base)


def test_derived_quantities():
    p = make(omega_p=0.8e9, g_ratio=0.033)
    assert p.g0 == pytest.approx(3.3e5)
    assert p.detuning == pytest.approx(-0.2e9)
    assert p.mech_period == pytest.approx(2 * math.pi / 1e7)
    assert p.beat_period == pytest.approx(2 * math.pi / 0.2e9)


def test_resonant_beat_period_is_infinite():
    assert make(omega_p=1e9).beat_period == math.inf


@pytest.mark.parametrize("kw", [
    dict(omega_c=0.0),
    dict(omega_c=-1e9),
    dict(omega_m=0.0),
    dict(omega_p=-1.0),
    dict(drive_amp=-0.1),
    dict(g_ratio=-0.01),
])
def test_invalid_parameters_rejected(kw):
    with pytest.raises(ValueError):
        make(**kw)


@pytest.mark.parametrize("key, value", [
    ("omega_c", math.inf), ("omega_m", math.nan), ("omega_p", math.inf),
    ("drive_amp", math.inf), ("g_ratio", math.nan), ("alpha", complex(math.nan, 0)),
    ("gamma", complex(0, math.inf)),
])
def test_non_finite_parameters_rejected_by_name(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be finite$"):
        make(**{key: value})


def test_frozen():
    p = make()
    with pytest.raises(Exception):
        p.omega_c = 2e9
