"""The committed performance records (`BENCH_*.json`, written by bench.py):
their schema, and that every preset they ran exited 0. Nothing is re-run."""
import glob
import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")),
                 key=lambda path: int(re.search(r"BENCH_(\d+)\.json$", path).group(1)))
MACHINE_KEYS = {"nproc", "usable_cpus", "cpu_model", "python", "numpy", "scipy", "git_head",
                "git_dirty", "date"}
WORKLOADS = {"fig4", "strong_oracle", "strong_analytic", "undriven_wigner"}
ORACLE_KEYS = {"n_steps", "step_max", "norm_drift", "leak_max"}


def test_a_record_is_committed():
    assert RECORDS


@pytest.fixture(params=RECORDS, ids=os.path.basename)
def record(request):
    with open(request.param) as f:
        return json.load(f)


def test_machine(record):
    assert set(record["machine"]) == MACHINE_KEYS
    assert record["machine"]["nproc"] >= 1 and record["machine"]["python"]


def test_perfbench_lines(record):
    """Both lines of each workload as perfbench prints them. Records before
    BENCH_32 also carry `layers`: each trace-1 metric with its value, or null
    and the reason the tracer could not see it in a forked worker."""
    assert set(record["perfbench"]) == WORKLOADS
    for workload, lines in record["perfbench"].items():
        for trace in ("trace0", "trace1"):
            assert {"correct", "attempted", "failed", "metrics"} <= set(lines[trace]), workload
        assert set(lines["trace0"]["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
        if "layers" not in lines:
            continue
        assert set(lines["layers"]) == set(lines["trace1"]["metrics"]), workload
        for name, layer in lines["layers"].items():
            if layer["value"] is None:
                assert layer["reason"], (workload, name)
            else:
                assert layer == lines["trace1"]["metrics"][name], (workload, name)


def test_every_preset_exited_0(record):
    assert record["presets"]
    for name, run in record["presets"].items():
        assert run["exit_code"] == 0, (name, run["stderr_tail"])
        assert run["wall_s"] > 0 and run["peak_rss_mb"] > 0, name
        assert run["jobs"], name
        for job in run["jobs"].values():
            assert {key.removeprefix("wigner_numeric_") for key in job} <= ORACLE_KEYS


def test_oracle_probe(record):
    probes = dict(record["oracle_probe"])
    probes.pop("sampler", None)
    probes.pop("exact_error", None)
    assert set(probes) == {"30x308", "30x35"}
    for probe in probes.values():
        assert probe["n_steps"] > 0
        assert 0 < probe["us_per_step_min"] <= probe["us_per_step_median"]


def test_newest_record_probes_the_generator():
    """Microseconds per DisplacedFrame.rhs call at each probe's dims, at a
    new stage time (the band rows refreshed) and at a repeated one."""
    with open(RECORDS[-1]) as f:
        probes = json.load(f)["oracle_probe"]
    for dims in ("30x308", "30x35"):
        probe = probes[dims]
        assert probe["rhs_calls"] > 0, dims
        for kind in ("new", "repeated"):
            low = probe[f"us_per_rhs_call_{kind}_time_min"]
            assert 0 < low <= probe[f"us_per_rhs_call_{kind}_time_median"], (dims, kind)


def test_newest_record_probes_the_sampler():
    """Microseconds per sample of fig4 red's own run, less its ends-only run."""
    with open(RECORDS[-1]) as f:
        sampler = json.load(f)["oracle_probe"]["sampler"]
    assert sampler["preset"] == "fig4" and sampler["job"] == "red"
    assert sampler["n_samples"] > 2 and sampler["n_steps"] > 0
    assert 0 < sampler["us_per_sample_min"] <= sampler["us_per_sample_median"]


def test_newest_record_sees_every_layer():
    """Its trace-1 runs were pinned to one CPU, as its `cpus` says, so they
    fork no worker and the tracer sees every layer: none is null, fig4's
    oracle layers count both jobs' steps, and undriven_wigner's grid layers
    cover all twelve 161^2 grids (grid time over time per point), the
    largest at 27 levels."""
    with open(RECORDS[-1]) as f:
        record = json.load(f)
    lines = record["perfbench"]
    for workload, line in lines.items():
        assert "layers" not in line, workload
        assert line["cpus"] == {"trace0": record["machine"]["usable_cpus"], "trace1": 1}
        assert line["trace1"]["correct"] is True, workload
        for name, metric in line["trace1"]["metrics"].items():
            assert metric["value"] is not None, (workload, name)
    assert lines["fig4"]["trace1"]["metrics"]["oracle.n_steps"]["value"] == 433 + 529
    assert lines["fig4"]["trace1"]["metrics"]["oracle.evolve_numeric_s"]["value"] > 0
    grids = {name: metric["value"] for name, metric in
             lines["undriven_wigner"]["trace1"]["metrics"].items() if name.startswith("wigner.")}
    points = 1e6 * grids["wigner.wigner_continuous_s"] / grids["wigner.us_per_grid_point"]
    assert round(points) == 12 * 161 ** 2
    assert grids["wigner.rho_dim_max"] == 27


def test_newest_record_probes_the_exact_error():
    """fig7_8 red's system with the drive off, over its full run at the
    recommended step, against the closed-form state: the step count and the
    largest ||psi - psi_exact|| (9.7e-6 when first measured; RK4's error, not
    a tolerance, so only its scale is checked)."""
    with open(RECORDS[-1]) as f:
        probe = json.load(f)["oracle_probe"]["exact_error"]
    assert probe["preset"] == "fig7_8" and probe["job"] == "red" and probe["drive"] == "off"
    assert probe["dims"] == "30x308" and probe["n_samples"] == 12 and probe["periods"] == 5.5
    assert probe["n_steps"] == 24938
    assert 0 < probe["max_state_error"] < 1e-4
    assert 0 <= probe["norm_drift"] < probe["max_state_error"]


def test_newest_record_probes_the_grids():
    """Milliseconds per 161^2 snapshot grid of the t = pi/omega_m mirror state
    of undriven_wigner and of wigner_snapshots' analytic source."""
    with open(RECORDS[-1]) as f:
        probes = json.load(f)["wigner_probe"]
    assert set(probes) == {"undriven_wigner", "wigner_snapshots"}
    assert probes["undriven_wigner"]["dims"] == "22x28"
    assert probes["wigner_snapshots"]["dims"] == "30x308"
    for probe in probes.values():
        assert probe["subsystem"] == "mirror" and probe["grid_points"] == 161
        assert 0 < probe["ms_min"] <= probe["ms_median"]
