"""CLI integrator overrides (the dt stability cap, the Wigner numeric route)
and the wigner_snapshots preset."""
import pytest

from optomech import cli, oracle, wigner
from optomech.fock import FockDims
from optomech.system import SystemParams

# Undriven, strongly coupled and cheap: the Wigner route runs in about a
# second on 14 x 24 dims and a 16 x 16 grid.
WIGNER_PARAMS = SystemParams(omega_c=1e7, omega_m=1e6, g_ratio=0.2, alpha=1.0, gamma=1.0)
WIGNER_DIMS = FockDims(14, 24)
WIGNER_CONFIG = """\
omega_c = 1e7
omega_m = 1e6
g_ratio = 0.2
alpha = 1
gamma = 1
t_end = 6.283185307179586e-06
n_samples = 3
modes = wigner
field_dim = 14
mirror_dim = 24
wigner_grid_points = 16
"""


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def manifest_value(out_dir, key):
    for line in (out_dir / "manifest.txt").read_text().splitlines():
        if line.startswith(key + "="):
            return line.partition("=")[2]
    raise KeyError(key)


@pytest.mark.parametrize("command", ["validate", "run"])
def test_dt_above_stability_cap_is_a_config_error(tmp_path, capsys, command):
    path = write_config(tmp_path, "preset = fig7_8\ndt = 1e-9\n")
    code = cli.main([command, "--config", path, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    cap = oracle.max_stable_dt(cli.preset_jobs("fig7_8")[0].config.params)
    assert "max_stable_dt" in err
    assert f"{cap:g}" in err


def test_wigner_numeric_route_defaults_to_snapshot_horizon(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path, WIGNER_CONFIG),
                     "--out", str(out)]) == 0
    horizon = wigner.default_snapshot_times(WIGNER_PARAMS)[-1]
    expected = oracle.recommend_integrator_config(WIGNER_PARAMS, horizon, WIGNER_DIMS)
    assert float(manifest_value(out, "wigner_numeric_dt")) == expected.dt


def test_wigner_numeric_route_honors_integrator_overrides(tmp_path, capsys):
    """At the dt cap a 1e-12 norm budget is exhausted: exit 2, not silence."""
    cap = oracle.max_stable_dt(WIGNER_PARAMS)
    text = WIGNER_CONFIG + f"dt = {cap!r}\nnorm_tolerance = 1e-12\n"
    code = cli.main(["run", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "norm drift" in capsys.readouterr().err


@pytest.mark.slow
def test_wigner_snapshots_preset_runs(tmp_path):
    """Mirror states trimmed to dim 308 evaluate: exit 0 and unit grid masses."""
    out = tmp_path / "out"
    path = write_config(tmp_path, "preset = wigner_snapshots\n")
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    masses = {
        key: float(value)
        for key, _, value in (
            line.partition("=") for line in (out / "manifest.txt").read_text().splitlines()
        )
        if key.endswith("_mass")
    }
    assert len(masses) == 12
    for key, mass in masses.items():
        assert mass == pytest.approx(1.0, abs=2e-2), key
