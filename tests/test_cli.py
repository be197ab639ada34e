"""CLI integrator overrides (the dt stability cap, the Wigner numeric route),
jobs run in worker processes, and the wigner_snapshots preset."""
import os
import sys
import warnings
from dataclasses import replace

import pytest

from conftest import thread_count
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


FORKS = []  # thread count of this process right after each fork it makes
if sys.platform == "linux":
    os.register_at_fork(after_in_parent=lambda: FORKS.append(thread_count()))

needs_linux = pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")


@pytest.fixture
def pooled(monkeypatch):
    """Two usable CPUs, so multi-job presets run in two workers; yields the forks."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    FORKS.clear()
    yield FORKS


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


@needs_linux
@pytest.mark.filterwarnings("ignore:population")  # fig4 leaks at dims 22 x 22
@pytest.mark.parametrize("text", [
    "preset = fig2\n",
    "preset = fig4\nfield_dim = 22\nmirror_dim = 22\n",
], ids=["fig2", "fig4-small"])
def test_pooled_outputs_equal_serial_jobs(tmp_path, pooled, text):
    """Every file and the manifest are the bytes of `_run_job` on each job in order.

    The workers fork from a single-threaded process, so Python 3.12+ has no
    multi-threaded fork to warn about.
    """
    config = cli.load_config(write_config(tmp_path, text))
    out = tmp_path / "pooled"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        files = cli.run(replace(config, output_dir=str(out)))
    assert pooled == [1, 1]
    assert not [w for w in caught if "fork" in str(w.message)]

    serial = tmp_path / "serial"
    serial.mkdir()
    sections = []
    for job in cli.expand_jobs(replace(config, output_dir=str(serial))):
        _, man = cli._run_job(job)
        sections.append(f"[job {job.tag}]\n" + "\n".join(man))
    (serial / "manifest.txt").write_text("\n\n".join(sections) + "\n")
    assert sorted(files) == sorted(os.listdir(out)) == sorted(os.listdir(serial))
    for name in files:
        assert (out / name).read_bytes() == (serial / name).read_bytes(), name


def fig4_dt_cap() -> float:
    return min(oracle.max_stable_dt(job.config.params) for job in cli.preset_jobs("fig4"))


@needs_linux
@pytest.mark.parametrize("text, flags, code, prefix", [
    (f"preset = fig4\ndt = {fig4_dt_cap()!r}\nnorm_tolerance = 1e-12\n", [], 2,
     "numerical failure: norm drift"),
    ("preset = fig4\n", ["--dims", "4,35"], 3, "truncation inadequacy: "),
], ids=["exit-2", "exit-3"])
def test_worker_errors_keep_their_exit_codes(tmp_path, monkeypatch, capsys, pooled,
                                             text, flags, code, prefix):
    """An error raised inside a worker reaches main as it does in-process."""
    path = write_config(tmp_path, text)
    outcomes = []
    for cpus in (2, 1):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        argv = ["run", "--config", path, "--out", str(tmp_path / f"out{cpus}")] + flags
        outcomes.append((cli.main(argv), capsys.readouterr().err))
    assert pooled == [1, 1]  # the first run forked its two workers
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code
    assert outcomes[0][1].startswith(prefix)


@needs_linux
def test_config_errors_are_raised_before_any_fork(tmp_path, capsys, pooled):
    path = write_config(tmp_path, "preset = fig4\ndt = 1e-9\n")
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert "max_stable_dt" in capsys.readouterr().err
    assert pooled == []


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
