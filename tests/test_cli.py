"""CLI integrator overrides (the dt stability cap, the Wigner numeric route),
config value parsing, validate's step counts and preset list and the
benchmark harness's reading of them, the auto dims' floor, the analytic
field Mandel series, jobs and Wigner grids run in worker processes, the
manifest's step_max, config errors raised alike by validate and run before
anything is written, the removed --dims and --filter flags, the mode of
output files, the exit code of a worker that dies, and the wigner_snapshots
preset."""
import os
import re
import runpy
import signal
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import thread_count, tiny_system
from optomech import cli, config, driven, oracle, wigner
from optomech.errors import ConfigError, IntegrationError
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

# tiny_system() with a driven-numeric run on seven samples.
TINY_DRIVEN_CONFIG = """\
omega_c = 1e7
omega_m = 1e6
omega_p = 0.8*omega_c
drive_amp = 0.05*omega_c
g_ratio = 0.05
alpha = 1
gamma = 1
t_end = 1e-6
n_samples = 7
modes = driven-numeric
field_dim = 16
mirror_dim = 18
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
    cap = oracle.max_stable_dt(config.preset_jobs("fig7_8")[0].config.params)
    assert "max_stable_dt" in err
    assert f"{cap:g}" in err


def printed_steps(capsys, path):
    assert cli.main(["validate", "--config", path]) == 0
    return [int(n) for n in re.findall(r"est_steps=(\d+)", capsys.readouterr().out)]


# The dims validate prints for each preset's jobs; fig2, fig3 and fig5_6's
# nonforced job take the auto dims, the others fix theirs. fig2's two
# largest fields are what their initial coherent states need; each mirror
# covers its field's Poisson tail, but at least field levels up to 20.
PRESET_DIMS = {
    "fig2": [(16, 24), (22, 28), (66, 64), (109, 116), (115, 123)],
    "fig3": [(31, 30)],
    "fig4": [(30, 35)] * 2,
    "fig5_6": [(30, 35), (30, 35), (22, 28)],
    "fig7_8": [(30, 308)] * 2,
    "wigner_snapshots": [(30, 308)],
}


@pytest.mark.parametrize("preset", config.PRESETS)
def test_every_preset_validates(tmp_path, capsys, preset):
    path = write_config(tmp_path, f"preset = {preset}\n")
    assert cli.main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    found = re.findall(r"recommended_field_dim=(\d+) recommended_mirror_dim=(\d+)", out)
    assert [(int(f), int(m)) for f, m in found] == PRESET_DIMS[preset]


# The documented defaults: no drive, g_ratio = 0, alpha = gamma = 0.
AT_REST_CONFIG = """\
omega_c = 1e8
omega_m = 1e7
t_end = 1e-6
n_samples = 3
"""


@pytest.mark.parametrize("modes", ["undriven", "driven-numeric"])
def test_system_at_rest_validates_and_runs(tmp_path, capsys, modes):
    """A mirror at rest and uncoupled still gets the 16-level floor."""
    path = write_config(tmp_path, AT_REST_CONFIG + f"modes = {modes}\n")
    assert cli.main(["validate", "--config", path]) == 0
    assert "recommended_field_dim=16 recommended_mirror_dim=16" in capsys.readouterr().out
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("extra, dims", [
    ("gamma = 2\n", (16, 21)),  # the mirror formula alone gives 16
    # the field formula alone gives 58; the mirror covers field levels up to 50
    ("alpha = 5\ng_ratio = 0.033\n", (59, 28)),
], ids=["uncoupled-mirror", "alpha-5"])
def test_recommended_dims_hold_the_initial_state(tmp_path, capsys, extra, dims):
    """Each recommended dim is at least what its initial coherent state needs,
    so `run` at the auto dims exits 0, not 3, and leaks nothing to warn of."""
    path = write_config(tmp_path, AT_REST_CONFIG + extra + "modes = driven-numeric\n")
    assert cli.main(["validate", "--config", path]) == 0
    assert (f"recommended_field_dim={dims[0]} recommended_mirror_dim={dims[1]}"
            in capsys.readouterr().out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_a_field_past_the_recurrence_underflow_runs(tmp_path, capsys):
    """alpha = 40, |alpha|^2 = 1,600: the auto field dim is what its coherent
    state needs, and that state has its Poisson weights, so `run` exits 0
    and starts from <n> = |alpha|^2."""
    path = write_config(tmp_path, "omega_c = 1e8\nomega_m = 1e7\ng_ratio = 0.001\n"
                                  "alpha = 40\nt_end = 1e-8\nn_samples = 3\n"
                                  "modes = driven-numeric\n")
    assert cli.main(["validate", "--config", path]) == 0
    assert "recommended_field_dim=1830 recommended_mirror_dim=31" in capsys.readouterr().out
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    photons = np.loadtxt(out / "photon_avg_numeric.csv", delimiter=",", skiprows=1, usecols=1)
    assert photons[0] == pytest.approx(1600.0, rel=1e-8)


@pytest.mark.parametrize("text, cause", [
    (AT_REST_CONFIG + "modes = undriven\nfield_dim = 1000\nmirror_dim = 1001\n",
     "lines 6 and 7: field_dim, mirror_dim: joint dimension 1001000 exceeds"),
], ids=["config-over-budget"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_invalid_dims_are_config_errors(tmp_path, capsys, text, cause, command):
    path = write_config(tmp_path, text)
    argv = [command, "--config", path, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cause}")
    assert "Traceback" not in err


@pytest.mark.parametrize("line, message", [
    ("omega_p = x*omega_c", "omega_p: not a number: 'x'"),
    ("dt = 1e-9*omega_c", "dt: only omega_m, omega_p, drive_amp take the x*omega_c syntax"),
    ("wigner_grid_points = 1e3", "wigner_grid_points: not an integer: '1e3'"),
    ("alpha = 1+", "alpha: not a complex number: '1+'"),
    ("filter = maybe", "filter: not a boolean: 'maybe'"),
], ids=["ratio", "ratio-without-omega_c", "integer", "complex", "boolean"])
def test_unparsable_values_name_their_line_and_kind(line, message):
    text = AT_REST_CONFIG + "modes = undriven\n" + line + "\n"
    with pytest.raises(ConfigError) as err:
        config.build_jobs(config.parse_config_text(text))
    assert str(err.value) == "line 6: " + message


@pytest.mark.parametrize("field_dim, message", [
    ("3.0", "line 6: field_dim: not an integer: '3.0'"),
    ("1", "lines 6 and 7: field_dim, mirror_dim: each dimension must be >= 2, "
          "got FockDims(field_dim=1, mirror_dim=4)"),
], ids=["parse", "below-2"])
def test_dims_errors_are_prefixed_once(field_dim, message):
    text = AT_REST_CONFIG + f"modes = undriven\nfield_dim = {field_dim}\nmirror_dim = 4\n"
    with pytest.raises(ConfigError) as err:
        config.build_jobs(config.parse_config_text(text))
    assert str(err.value) == message


def test_config_values_parse_by_kind():
    text = AT_REST_CONFIG + "modes = undriven\nomega_p = 0.8*omega_c\nfilter = YES\ngamma = 2-1j\n"
    (job,) = config.build_jobs(config.parse_config_text(text))
    cfg = job.config
    assert cfg.params.omega_p == 0.8 * 1e8
    assert cfg.params.gamma == 2 - 1j and cfg.params.alpha == 0j
    assert cfg.filter is True and cfg.n_samples == 3 and cfg.wigner_grid_points == 161


def test_validate_reports_the_steps_of_fig4_runs(tmp_path, capsys):
    """The fig4 manifests record n_steps=433 (red) and 529 (blue): both are
    held by the cap of 12 steps per period of omega_c + omega_p."""
    path = write_config(tmp_path, "preset = fig4\n")
    assert printed_steps(capsys, path) == [433, 529]


def test_fig4_blue_steps_stay_within_dt():
    """fig4 blue's t_end / dt is 528.0000000000001 and t_end / 528 exceeds
    dt by 1 ulp, so the run takes 529 steps, each no longer than dt."""
    (_, _, t_end, icfg, _), = config.preset_jobs("fig4")[1].config.oracle_runs
    assert t_end / icfg.dt == 528.0000000000001 and t_end / 528 > icfg.dt
    n_steps = oracle.step_count(t_end, icfg.dt)
    assert n_steps == 529 and t_end / n_steps <= icfg.dt


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
STRONG_ORACLE_CONFIG = os.path.join(PERFBENCH, "workloads", "strong_oracle.cfg")


@pytest.mark.parametrize("argv, bound", [
    # measured 54,810 (red) and 20,359 (blue); 187,233 and 185,132 before
    # the drive was integrated exactly
    (["--preset", "fig7_8"], 60_000),
    # measured 108, held by the cap of 12 steps per omega_c + omega_p period; 424 before
    (["--config", STRONG_ORACLE_CONFIG], 150),
], ids=["fig7_8", "strong_oracle"])
def test_headline_runs_stay_within_their_step_budgets(capsys, argv, bound):
    """validate alone, nothing run: every oracle job's est_steps is within its budget."""
    assert cli.main(["validate", *argv]) == 0
    steps = [int(n) for n in re.findall(r"est_steps=(\d+)", capsys.readouterr().out)]
    assert steps and max(steps) <= bound


def test_validate_output_feeds_the_harness_projection(monkeypatch):
    """perfbench/run.py, loaded by path as the harness runs it, reads the
    red fig7_8 job's dims and est_steps from validate's output."""
    monkeypatch.syspath_prepend(PERFBENCH)  # run.py imports its sibling outputs.py
    try:
        projection = runpy.run_path(os.path.join(PERFBENCH, "run.py"))["fig7_8_projection"]
    finally:
        sys.modules.pop("outputs", None)
    text = cli.validate(config.preset_jobs("fig7_8"))
    assert projection(text) == {"dims": [30, 308], "est_steps": 54_810}


STRONG_ORACLE_TEXT = Path(STRONG_ORACLE_CONFIG).read_text()


@pytest.mark.parametrize("text, flags, panels, steps", [
    (Path(PERFBENCH, "workloads", "strong_analytic.cfg").read_text(), [], [1100], []),
    (STRONG_ORACLE_TEXT, [], [50], [108]),
    # one panel per sample interval, 2,999,999,999 of them: no grid is built
    (STRONG_ORACLE_TEXT.replace("n_samples = 51", "n_samples = 3000000000"), [],
     [2_999_999_999], [108]),
    (None, ["--preset", "fig4"], [1600, 1600], [433, 529]),
], ids=["strong_analytic", "strong_oracle", "strong_oracle-3e9-samples", "fig4"])
def test_validate_never_builds_the_series_grid(tmp_path, monkeypatch, capsys, text, flags,
                                               panels, steps):
    """Building and validating a job reads the series grid's end and step,
    never the grid itself (`RunConfig.t_grid` raises here), and prints the
    job's panels and steps."""
    def refuse(cfg):
        raise AssertionError("the series grid was built")

    monkeypatch.setattr(config.RunConfig, "t_grid", property(refuse))
    argv = flags if text is None else ["--config", write_config(tmp_path, text)]
    assert cli.main(["validate", *argv]) == 0
    out = capsys.readouterr().out
    assert [int(n) for n in re.findall(r"driven-analytic: panels=(\d+)", out)] == panels
    assert [int(n) for n in re.findall(r"est_steps=(\d+)", out)] == steps


@pytest.mark.parametrize("preset, panels", [
    # one panel per sample interval: 1,600 and 1,100 intervals, each shorter
    # than PANEL_PHASE / omega_env
    ("fig4", [1600, 1600]),
    ("fig7_8", [1100, 1100]),
    # two intervals of pi / omega_m, 29 panels each at omega_env = 4.5 omega_m
    ("wigner_snapshots", [58]),
    ("fig2", []),
], ids=["fig4", "fig7_8", "wigner_snapshots", "fig2"])
def test_validate_reports_the_beta_panels(capsys, preset, panels):
    """Every job that integrates betas, through driven-analytic or wigner."""
    assert cli.main(["validate", "--preset", preset]) == 0
    printed = re.findall(r"driven-analytic: panels=(\d+)", capsys.readouterr().out)
    assert [int(n) for n in printed] == panels


@pytest.mark.parametrize("text, p, dims, t_grid", [
    (TINY_DRIVEN_CONFIG, tiny_system(), FockDims(16, 18), np.linspace(0.0, 1e-6, 7)),
    # t_end short of the snapshot horizon, which alone sets the wigner route's steps
    (WIGNER_CONFIG.replace("t_end = 6.283185307179586e-06", "t_end = 1e-06"),
     WIGNER_PARAMS, WIGNER_DIMS, wigner.default_snapshot_times(WIGNER_PARAMS)),
], ids=["driven-numeric", "wigner"])
def test_validate_reports_the_steps_evolve_numeric_takes(tmp_path, capsys, text, p, dims,
                                                         t_grid):
    """Equal steps over the run, whatever the samples; a wigner-only job
    steps over its snapshot times."""
    (steps,) = printed_steps(capsys, write_config(tmp_path, text))
    assert steps == oracle.evolve_numeric(p, dims, t_grid=t_grid).n_steps


def test_validate_reports_both_numeric_routes(tmp_path, capsys):
    """A job with driven-numeric and wigner steps over its samples, then again
    over the snapshot times; validate's total counts both."""
    text = WIGNER_CONFIG.replace("t_end = 6.283185307179586e-06", "t_end = 1e-06").replace(
        "modes = wigner", "modes = driven-numeric,wigner")
    path = write_config(tmp_path, text)
    (total,) = printed_steps(capsys, path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    wigner_dt = float(manifest_value(out, "wigner_numeric_dt"))
    wigner_steps = oracle.step_count(wigner.default_snapshot_times(WIGNER_PARAMS)[-1], wigner_dt)
    assert wigner_steps > 0
    assert total == int(manifest_value(out, "n_steps")) + wigner_steps


def test_undriven_dt_between_the_caps_validates_and_runs(tmp_path, capsys):
    """Undriven, the cap resolves omega_m, not omega_c: 5e-8 s sits between them."""
    p = replace(tiny_system(), omega_p=0.0, drive_amp=0.0)
    assert 2 * np.pi / (40 * p.omega_c) < 5e-8 < oracle.max_stable_dt(p)
    text = "\n".join(line for line in TINY_DRIVEN_CONFIG.splitlines()
                      if not line.startswith(("omega_p", "drive_amp")))
    path = write_config(tmp_path, text + "\ndt = 5e-8\n")
    (steps,) = printed_steps(capsys, path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    assert int(manifest_value(out, "n_steps")) == steps == 20  # 1e-6 s in steps of 5e-8 s
    assert float(manifest_value(out, "norm_drift")) <= float(
        manifest_value(out, "norm_tolerance"))


def test_manifest_reports_the_wigner_numeric_run(tmp_path, capsys):
    """The wigner route's steps, drift and leak, its steps as validate prints them."""
    path = write_config(tmp_path, WIGNER_CONFIG)
    (steps,) = printed_steps(capsys, path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    assert int(manifest_value(out, "wigner_numeric_n_steps")) == steps > 0
    assert float(manifest_value(out, "wigner_numeric_norm_drift")) <= (
        oracle.DEFAULT_NORM_TOLERANCE / 4)
    assert 0 <= float(manifest_value(out, "wigner_numeric_leak_max")) <= oracle.LEAK_TOLERANCE


# WIGNER_CONFIG driven and uncoupled: H' = 0, so both routes are exact up to
# the field truncation. The numeric lab states pass through the displaced
# frame's field block wherever xi(t) != 0.
DRIVEN_WIGNER_CONFIG = """\
omega_c = 1e7
omega_m = 1e6
omega_p = 0.8*omega_c
drive_amp = 0.05*omega_c
g_ratio = 0
alpha = 1
gamma = 1
t_end = 6.283185307179586e-06
n_samples = 3
modes = wigner
field_dim = 16
mirror_dim = 16
wigner_grid_points = 24
"""


@pytest.mark.parametrize("omega_p, field_dim", [
    # xi(t) is within 1e-16 of 0 at every snapshot.
    ("0.8", 16),
    # |xi| is 0.14 and 0.23 at the later snapshots. At 16 levels the frame
    # drops amplitudes of 1.3e-7 that D(xi) would move into the kept levels,
    # and the grids differ by 2e-8; a block with no signs misses by 0.02.
    ("0.75", 24),
], ids=["xi-vanishes", "xi-nonzero"])
def test_driven_uncoupled_wigner_grids_agree_across_routes(tmp_path, omega_p, field_dim):
    """Each analytic grid shares its axes with the numeric grid of the same
    name and matches its values."""
    text = DRIVEN_WIGNER_CONFIG.replace("omega_p = 0.8*", f"omega_p = {omega_p}*").replace(
        "field_dim = 16", f"field_dim = {field_dim}")
    path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    analytic = sorted(out.glob("wigner_*_analytic.csv"))
    assert len(analytic) == 6
    for name in analytic:
        a = np.loadtxt(name, delimiter=",", skiprows=1)
        n = np.loadtxt(str(name).replace("_analytic", "_numeric"), delimiter=",", skiprows=1)
        np.testing.assert_allclose(a, n, rtol=0, atol=1e-12, err_msg=name.name)


def manifest_jobs(out_dir) -> dict:
    """{job tag: {key: value}} of every [job ...] section of the manifest."""
    jobs = {}
    for section in (out_dir / "manifest.txt").read_text().strip().split("\n\n"):
        header, *lines = section.splitlines()
        jobs[header[len("[job "):-1]] = dict(line.partition("=")[::2] for line in lines)
    return jobs


def validated_steps(capsys, preset) -> dict:
    """{job tag: est_steps} as `validate --preset` prints them, numeric jobs only."""
    assert cli.main(["validate", "--preset", preset]) == 0
    steps = {}
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("job "):
            tag = line[len("job "):].partition(":")[0]
        found = re.search(r"est_steps=(\d+)", line)
        if found:
            steps[tag] = int(found.group(1))
    return steps


# Each numeric job's norm_drift bound, as a fraction of its norm tolerance.
# Measured: fig4 red 5.2e-10 and blue 9.6e-11, fig5_6 red 6.3e-10, fig7_8
# red 1.8e-8 and blue 4.6e-9.
DRIFT_FRACTION = {"fig4": 1 / 4, "fig5_6": 1 / 4, "fig7_8": 1 / 4}


@pytest.mark.filterwarnings("ignore:population")
@pytest.mark.parametrize("preset", ["fig4", "fig5_6",
                                    pytest.param("fig7_8", marks=pytest.mark.slow)])
def test_driven_preset_runs(tmp_path, capsys, preset):
    """Exit 0; each numeric job takes the steps validate printed and drifts
    under its DRIFT_FRACTION of its norm tolerance."""
    steps = validated_steps(capsys, preset)
    out = tmp_path / "out"
    assert cli.main(["run", "--preset", preset, "--out", str(out)]) == 0
    jobs = manifest_jobs(out)
    numeric = {tag: job for tag, job in jobs.items() if "n_steps" in job}
    assert set(numeric) == set(steps) == {"red", "blue"}
    for tag, job in numeric.items():
        assert int(job["n_steps"]) == steps[tag], tag
        bound = float(job["norm_tolerance"]) * DRIFT_FRACTION[preset]
        assert float(job["norm_drift"]) <= bound, tag


def test_preset_runs_without_a_config(tmp_path, capsys):
    """fig3 is one analytic job: nine files, beta defects at rounding level,
    and the panels validate counts."""
    out = tmp_path / "out"
    assert cli.main(["run", "--preset", "fig3", "--out", str(out)]) == 0
    assert len(os.listdir(out)) == 9
    assert float(manifest_value(out, "antisymmetry_defect")) <= 1e-11
    assert float(manifest_value(out, "unitarity_defect")) <= 1e-11
    assert float(manifest_value(out, "envelope_tail")) <= 1e-9
    assert int(manifest_value(out, "beta_panels")) == 2000
    assert cli.main(["run", "--out", str(out)]) == 1
    assert "--config" in capsys.readouterr().err


def test_runtime_imports_no_scipy(tmp_path):
    """validate and run on a driven-numeric config with scipy made unimportable."""
    path = write_config(tmp_path, TINY_DRIVEN_CONFIG)
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from optomech import cli\n"
        f"print(cli.main(['validate', '--config', {path!r}]),"
        f" cli.main(['run', '--config', {path!r}, '--out', {str(tmp_path / 'out')!r}]))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 0", done.stderr


def test_cli_import_loads_no_optional_modules():
    """A fresh import of the CLI, which every validate and run pays, loads
    none of these."""
    script = (
        "import sys\n"
        "import optomech.cli\n"
        "print(sorted(m for m in ('numpy.polynomial', 'numpy.random', 'scipy',"
        " 'multiprocessing') if m in sys.modules))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


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
@pytest.mark.parametrize("text, forks", [
    # fig2's five jobs outnumber the CPUs, so one worker runs the first two
    # and this process the last three; fig4's two jobs get a worker each.
    ("preset = fig2\n", [1]),
    ("preset = fig4\nfield_dim = 22\nmirror_dim = 22\n", [1, 1]),
], ids=["fig2", "fig4-small"])
def test_pooled_outputs_equal_serial_jobs(tmp_path, pooled, text, forks):
    """Every file and the manifest are the bytes of `_run_job` on each job in order.

    The workers fork from a single-threaded process, so Python 3.12+ has no
    multi-threaded fork to warn about.
    """
    path = write_config(tmp_path, text)
    out = tmp_path / "pooled"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        files = cli.run(config.load_jobs(path, overrides={"output_dir": str(out)}))
    assert pooled == forks
    assert not [w for w in caught if "fork" in str(w.message)]

    serial = tmp_path / "serial"
    serial.mkdir()
    sections = []
    for job in config.load_jobs(path, overrides={"output_dir": str(serial)}):
        _, man = cli._run_job(job)
        sections.append(f"[job {job.tag}]\n" + "\n".join(man))
    (serial / "manifest.txt").write_text("\n\n".join(sections) + "\n")
    assert sorted(files) == sorted(os.listdir(out)) == sorted(os.listdir(serial))
    for name in files:
        assert (out / name).read_bytes() == (serial / name).read_bytes(), name


@needs_linux
def test_forked_map_runs_fixed_contiguous_shares(pooled):
    """Five items on two CPUs: one worker runs items 0-1 and this process
    the last share, items 2-4; the results come back in item order."""
    results = cli._forked_map(lambda i: (i, os.getpid()), range(5))
    assert [i for i, _ in results] == list(range(5))
    pids = [pid for _, pid in results]
    assert pids[0] == pids[1] != os.getpid()
    assert pids[2:] == [os.getpid()] * 3
    assert pooled == [1]


@pytest.mark.filterwarnings("ignore:population")  # fig4 leaks at dims 22 x 22
def test_manifest_step_max_is_the_step_taken(tmp_path):
    """fig4 cuts the run into equal steps no longer than the dt cap."""
    out = tmp_path / "out"
    path = write_config(tmp_path, "preset = fig4\nfield_dim = 22\nmirror_dim = 22\n")
    cli.run(config.load_jobs(path, overrides={"output_dir": str(out)}))
    for tag, job in manifest_jobs(out).items():
        step_max = float(job["step_max"])
        assert step_max == pytest.approx(float(job["t_end"]) / int(job["n_steps"]),
                                         rel=1e-12), tag
        assert step_max <= float(job["dt"]), tag


@needs_linux
def test_pooled_wigner_grids_equal_in_process_grids(tmp_path, monkeypatch, pooled):
    """Both sources' twelve grid-and-write tasks are shared with one worker
    forked with one thread; every file and the manifest are the bytes of the
    in-process run."""
    path = write_config(tmp_path, WIGNER_CONFIG)
    outs = {}
    for cpus in (2, 1):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        outs[cpus] = tmp_path / f"out{cpus}"
        assert cli.main(["run", "--config", path, "--out", str(outs[cpus])]) == 0
    assert pooled == [1]
    names = sorted(os.listdir(outs[2]))
    assert names == sorted(os.listdir(outs[1]))
    assert len([n for n in names if n.startswith("wigner_")]) == 24
    for name in names:
        assert (outs[2] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    assert float(manifest_value(outs[2], "wigner_numeric_step_max")) <= float(
        manifest_value(outs[2], "wigner_numeric_dt"))


def failing_grid(rho, n_grid):
    raise IntegrationError(f"grid of a dim-{rho.dim} state failed")


@needs_linux
def test_grid_task_errors_keep_their_exit_code(tmp_path, monkeypatch, capsys, pooled):
    """An IntegrationError raised inside a grid task reaches main as it does in-process."""
    monkeypatch.setattr(wigner, "snapshot_grid", failing_grid)
    path = write_config(tmp_path, WIGNER_CONFIG)
    outcomes = []
    for cpus in (2, 1):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        argv = ["run", "--config", path, "--out", str(tmp_path / f"out{cpus}")]
        outcomes.append((cli.main(argv), capsys.readouterr().err))
    assert pooled == [1]  # the first run forked one worker for all twelve grids
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 2
    assert outcomes[0][1].startswith("numerical failure: grid of a dim-")


@needs_linux
def test_wigner_jobs_in_job_workers_write_the_in_process_bytes(tmp_path, monkeypatch, pooled):
    """Two wigner jobs go to two job workers, each of which shares out its
    grids again; every file is the bytes of the same jobs run in-process."""
    path = write_config(tmp_path, WIGNER_CONFIG)
    results = {}
    for cpus in (2, 1):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        jobs = [replace(job, tag=tag) for tag in ("a", "b") for job in config.load_jobs(
            path, overrides={"output_dir": str(tmp_path / f"out{cpus}" / tag)})]
        for job in jobs:
            os.makedirs(job.config.output_dir)
        results[cpus] = cli._forked_map(cli._run_job, jobs)
    assert pooled == [1, 1]
    assert results[2] == results[1]
    for tag in ("a", "b"):
        names = sorted(os.listdir(tmp_path / "out2" / tag))
        assert len(names) == 24
        assert names == sorted(os.listdir(tmp_path / "out1" / tag))
        for name in names:
            assert ((tmp_path / "out2" / tag / name).read_bytes()
                    == (tmp_path / "out1" / tag / name).read_bytes()), name


def fig4_dt_cap() -> float:
    return min(oracle.max_stable_dt(job.config.params) for job in config.preset_jobs("fig4"))


@needs_linux
@pytest.mark.parametrize("text, code, prefix", [
    (f"preset = fig4\ndt = {fig4_dt_cap()!r}\nnorm_tolerance = 1e-12\n", 2,
     "numerical failure: norm drift"),
    ("preset = fig4\nfield_dim = 4\nmirror_dim = 35\n", 3, "truncation inadequacy: "),
], ids=["exit-2", "exit-3"])
def test_worker_errors_keep_their_exit_codes(tmp_path, monkeypatch, capsys, pooled,
                                             text, code, prefix):
    """An error raised inside a worker reaches main as it does in-process."""
    path = write_config(tmp_path, text)
    outcomes = []
    for cpus in (2, 1):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        argv = ["run", "--config", path, "--out", str(tmp_path / f"out{cpus}")]
        outcomes.append((cli.main(argv), capsys.readouterr().err))
    assert pooled == [1, 1]  # the first run forked its two workers
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code
    assert outcomes[0][1].startswith(prefix)


@needs_linux
def test_a_worker_that_dies_exits_4(tmp_path, monkeypatch, capsys, pooled):
    """A job worker killed before it reports ends the run with exit 4 and one
    line naming its exit status, not a traceback."""
    run_job = cli._run_job

    def blue_dies(job):
        if job.tag == "blue":
            os.kill(os.getpid(), signal.SIGKILL)
        return run_job(job)

    monkeypatch.setattr(cli, "_run_job", blue_dies)
    assert cli.main(["run", "--preset", "fig4", "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == "worker failure: a worker process died with exit code -9\n"


TOO_LARGE = ("Unable to allocate 22.4 GiB for an array with shape (3000000000,) "
             "and data type float64")


@needs_linux
@pytest.mark.parametrize("cpus, forks", [(1, []), (2, [1])], ids=["in-process", "worker"])
def test_a_job_too_large_for_memory_exits_1(tmp_path, monkeypatch, capsys, pooled, cpus, forks):
    """A MemoryError, as numpy raises it for an array it cannot allocate,
    ends the run with exit 1 and one line, not a traceback, whether it is
    raised here or in a worker (fig2's first job runs in the one worker
    beside this process's share)."""
    run_job = cli._run_job

    def first_too_large(job):
        if job.tag == "alpha_sq_0":
            raise MemoryError(TOO_LARGE)
        return run_job(job)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "_run_job", first_too_large)
    assert cli.main(["run", "--preset", "fig2", "--out", str(tmp_path / "out")]) == 1
    assert pooled == forks
    assert capsys.readouterr().err == f"out of memory: {TOO_LARGE}\n"


@needs_linux
@pytest.mark.parametrize("preset, blocked, forks", [
    ("fig3", "manifest.txt", []),  # one job, run in-process
    ("fig4", "photon_avg_analytic_red.csv", [1, 1]),  # red's worker fails to write
], ids=["in-process", "worker"])
def test_a_failed_output_write_exits_1(tmp_path, capsys, pooled, preset, blocked, forks):
    """A directory where an output file goes ends the run with exit 1 and one
    line naming the file and the OS error, not a traceback."""
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert cli.main(["run", "--preset", preset, "--out", str(out)]) == 1
    assert pooled == forks
    err = capsys.readouterr().err
    assert err == f"output error: cannot write {out / blocked}: Is a directory\n"


@needs_linux
def test_config_errors_are_raised_before_any_fork(tmp_path, capsys, pooled):
    path = write_config(tmp_path, "preset = fig4\ndt = 1e-9\n")
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert "max_stable_dt" in capsys.readouterr().err
    argv = ["run", "--config", path, "--out", str(tmp_path / "out"), "--preset", "fig9"]
    assert cli.main(argv) == 1
    assert f"unknown preset 'fig9'; valid: {', '.join(config.PRESETS)}" in capsys.readouterr().err
    assert pooled == []


# A driven analytic job on the AT_REST_CONFIG system.
DRIVEN_AT_REST = AT_REST_CONFIG + "modes = driven-analytic\ndrive_amp = 0.01*omega_c\n"
# A field of 10^4 photons: auto dims (10567, 4420500), far over fock.MAX_JOINT_DIM.
HUGE_FIELD = AT_REST_CONFIG + "alpha = 100\ng_ratio = 0.1\n"

# (config text or None for no --config, flags, what the message names)
CONFIG_ERRORS = {
    "dt-over-cap": ("preset = fig7_8\ndt = 1e-9\n", [], "max_stable_dt"),
    "dt-over-cap-fig4": ("preset = fig4\ndt = 1e-9\n", [], "max_stable_dt"),
    "dims-over-budget": (AT_REST_CONFIG + "modes = undriven\nfield_dim = 1000\n"
                         "mirror_dim = 1001\n", [], "lines 6 and 7: field_dim, mirror_dim: "),
    "dims-parse": (AT_REST_CONFIG + "modes = undriven\nfield_dim = 3.0\nmirror_dim = 4\n", [],
                   "line 6: field_dim: not an integer: '3.0'"),
    "dims-below-2": (AT_REST_CONFIG + "modes = undriven\nfield_dim = 1\nmirror_dim = 4\n", [],
                     "lines 6 and 7: field_dim, mirror_dim: each dimension must be >= 2"),
    "ratio": (AT_REST_CONFIG + "modes = undriven\nomega_p = x*omega_c\n", [],
              "line 6: omega_p: not a number: 'x'"),
    "ratio-without-omega_c": (AT_REST_CONFIG + "modes = undriven\ndt = 1e-9*omega_c\n", [],
                              "line 6: dt: only omega_m, omega_p, drive_amp take the "
                              "x*omega_c syntax"),
    "integer": (AT_REST_CONFIG + "modes = undriven\nwigner_grid_points = 1e3\n", [],
                "line 6: wigner_grid_points: not an integer: '1e3'"),
    "complex": (AT_REST_CONFIG + "modes = undriven\nalpha = 1+\n", [],
                "line 6: alpha: not a complex number: '1+'"),
    "boolean": (AT_REST_CONFIG + "modes = undriven\nfilter = maybe\n", [],
                "line 6: filter: not a boolean: 'maybe'"),
    "no-config": (None, [], "the following arguments are required: --config (or --preset)"),
    "unknown-preset": ("preset = fig4\n", ["--preset", "fig9"], "unknown preset 'fig9'"),
    "key-next-to-preset": ("preset = fig4\nomega_c = 1e8\n", [],
                           "keys ['omega_c'] conflict with preset 'fig4'"),
    "missing-keys": ("omega_c = 1e8\n", [], "missing required keys: omega_m"),
    "mode-twice": (AT_REST_CONFIG + "modes = undriven,undriven\n", [],
                   "modes ['undriven'] listed more than once"),
    "filter-on-resonance": (DRIVEN_AT_REST + "omega_p = 1*omega_c\nfilter = true\n", [],
                            "filter window undefined: drive on cavity resonance"),
    # a beat period of 3.1e-7 s against samples 1e-6 s apart
    "filter-window": (DRIVEN_AT_REST.replace("t_end = 1e-6\nn_samples = 3", "t_end = 1e-5\n"
                                             "n_samples = 11")
                      + "omega_p = 0.8*omega_c\nfilter = true\n",
                      [], "filter: window 3.14159e-07 must be at least twice the grid step 1e-06"),
    "norm_tolerance-nan": (AT_REST_CONFIG + "modes = undriven\nnorm_tolerance = nan\n", [],
                           "norm_tolerance must be positive and finite"),
    "norm_tolerance-negative": (AT_REST_CONFIG + "modes = driven-numeric\n"
                                "norm_tolerance = -1\n", [], "norm_tolerance must be positive"),
    "t_end-inf": (AT_REST_CONFIG.replace("t_end = 1e-6", "t_end = inf") + "modes = undriven\n",
                  [], "t_end must be finite"),
    "omega_m-nan": (AT_REST_CONFIG.replace("omega_m = 1e7", "omega_m = nan")
                    + "modes = undriven\n", [], "omega_m must be finite"),
    "omega_c-inf": (AT_REST_CONFIG.replace("omega_c = 1e8", "omega_c = inf").replace(
                    "omega_m = 1e7", "omega_m = 0.1*omega_c") + "modes = undriven\n", [],
                    "omega_c must be finite"),
    "alpha-nan": (AT_REST_CONFIG + "modes = undriven\nalpha = nan\n", [],
                  "alpha must be finite"),
    "g_ratio-nan": (AT_REST_CONFIG + "modes = undriven\ng_ratio = nan\n", [],
                    "g_ratio must be finite"),
    "drive_amp-inf": (AT_REST_CONFIG + "modes = driven-analytic\ndrive_amp = inf\n", [],
                      "drive_amp must be finite"),
    "auto-dims-over-budget": (HUGE_FIELD + "modes = driven-numeric\n", [],
                              "auto dims 10567,4420500: joint dimension 46711423500 exceeds "
                              "the memory budget 1000000"),
}


@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_validate_and_run_report_config_errors_alike(tmp_path, capsys, case):
    """Every config error is raised while the jobs are built: validate and
    run both exit 1 with the same first line naming the cause, and run
    creates no output directory."""
    text, flags, cause = CONFIG_ERRORS[case]
    argv = flags if text is None else ["--config", write_config(tmp_path, text)] + flags
    out = tmp_path / "out"
    first_lines = []
    for command in ("validate", "run"):
        assert cli.main([command, *argv, "--out", str(out)]) == 1, command
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err, command
        first_lines.append(captured.err.splitlines()[0])
    assert first_lines[0] == first_lines[1]
    assert first_lines[0].startswith("config error: ")
    assert cause in first_lines[0]
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--dims", "4,35"], ["--filter"]], ids=["dims", "filter"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_removed_flags_are_unrecognized(tmp_path, capsys, flags, command):
    """--dims and --filter restated the keys field_dim, mirror_dim and filter
    and are gone: one line naming them, exit 1, no traceback, no output."""
    out = tmp_path / "out"
    assert cli.main([command, "--preset", "fig4", "--out", str(out), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: unrecognized arguments: {' '.join(flags)}\n"
    assert not out.exists()


def test_output_files_take_the_umask(tmp_path):
    """Every CSV, PGM and the manifest is created as open() creates a file:
    0o644 under umask 022, not the temp file's owner-only 0o600."""
    path = write_config(tmp_path, WIGNER_CONFIG.replace("modes = wigner", "modes = undriven,wigner"))
    out = tmp_path / "out"
    old = os.umask(0o022)
    try:
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    modes = {name: os.stat(out / name).st_mode & 0o777 for name in os.listdir(out)}
    assert len(modes) == 27
    assert set(modes.values()) == {0o644}


def test_job_without_an_oracle_run_builds_no_dims(tmp_path, capsys):
    """Dims over the memory budget fail only a job that would use them:
    undriven, validate prints the auto dims and run writes its two series."""
    path = write_config(tmp_path, HUGE_FIELD + "modes = undriven\n")
    assert cli.main(["validate", "--config", path]) == 0
    assert "recommended_field_dim=10567 recommended_mirror_dim=4420500" in capsys.readouterr().out
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == [
        "manifest.txt", "phonon_avg_undriven_analytic.csv", "photon_avg_undriven_analytic.csv"]


MIRROR_AT_REST = """\
omega_c = 1e8
omega_m = 1e7
omega_p = 0.8*omega_c
drive_amp = 0.05*omega_c
g_ratio = 0.033
alpha = 1
gamma = 0
t_end = 6.283185307179586e-07
n_samples = 21
modes = driven-analytic,driven-numeric,compare
field_dim = 16
mirror_dim = 16
"""


def test_both_routes_write_the_mirror_mandel_at_zero_mean(tmp_path):
    """At gamma = 0 the mirror starts in its vacuum, <N>(0) = 0, where
    variance over mean is 0/0: both routes write mandel_mirror, 1 at t = 0,
    and compare reports the pair."""
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path, MIRROR_AT_REST),
                     "--out", str(out)]) == 0
    for route in ("analytic", "numeric"):
        rows = (out / f"mandel_mirror_{route}.csv").read_text().splitlines()
        assert len(rows) == 22 and rows[1] == "0,1"
    assert float(manifest_value(out, "compare_mandel_mirror_max_abs")) < 1.0


def test_filter_checks_only_the_series_it_filters(tmp_path):
    """The window check is on the driven series' grid; undriven and wigner
    outputs are never filtered, so three samples pass it: 24 grid files,
    two undriven series and the manifest."""
    path = write_config(tmp_path, WIGNER_CONFIG.replace("modes = wigner", "modes = undriven,wigner")
                        + "filter = true\n")
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", path]) == 0
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    assert len(os.listdir(out)) == 27


@pytest.fixture(scope="module")
def wigner_snapshots_out(tmp_path_factory):
    """Output directory of one `simulate run --preset wigner_snapshots`."""
    out = tmp_path_factory.mktemp("wigner_snapshots")
    assert cli.main(["run", "--preset", "wigner_snapshots", "--out", str(out)]) == 0
    return out


@pytest.mark.slow
def test_wigner_snapshots_preset_runs(wigner_snapshots_out):
    """Mirror states trimmed to dim 308 evaluate: exit 0 and unit grid masses."""
    job = manifest_jobs(wigner_snapshots_out)["red"]
    masses = {key: float(value) for key, value in job.items() if key.endswith("_mass")}
    assert len(masses) == 12
    for key, mass in masses.items():
        assert mass == pytest.approx(1.0, abs=2e-2), key


@pytest.mark.slow
def test_wigner_snapshots_analytic_grids_keep_their_values(wigner_snapshots_out):
    """The analytic source, built at the preset dims (30, 308), draws the grids
    it drew at (31, 585), the dims of the analytic-only truncation it
    replaced (max |dW| 3.0e-7 measured); the manifest no longer has that
    truncation's keys."""
    job = manifest_jobs(wigner_snapshots_out)["red"]
    assert not [key for key in job if key.startswith("wigner_analytic_")]
    (preset_job,) = config.preset_jobs("wigner_snapshots")
    p = preset_job.config.params
    times = np.asarray(wigner.default_snapshot_times(p))
    betas = driven.integrate_betas(p, times)
    states = [driven.evolve_driven(p, betas.at(i), FockDims(31, 585)) for i in range(len(betas))]
    for i, (subsystem, _, rho) in enumerate(wigner.snapshot_set(states, times)):
        before = wigner.snapshot_grid(rho, int(job["wigner_grid_points"]))
        path = wigner_snapshots_out / f"wigner_{subsystem}_t{i // 2}_analytic_red.csv"
        now = np.loadtxt(path, delimiter=",", skiprows=1)[:, 2].reshape(before.values.shape)
        np.testing.assert_allclose(now, before.values, rtol=0, atol=1e-6, err_msg=path.name)
