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
    """Both lines of each workload as perfbench prints them; each layer has
    a value, or null and the reason the tracer cannot see it."""
    assert set(record["perfbench"]) == WORKLOADS
    for workload, lines in record["perfbench"].items():
        for trace in ("trace0", "trace1"):
            assert {"correct", "attempted", "failed", "metrics"} <= set(lines[trace]), workload
        assert set(lines["trace0"]["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
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
    assert set(probes) == {"30x308", "30x35"}
    for probe in probes.values():
        assert probe["n_steps"] > 0
        assert 0 < probe["us_per_step_min"] <= probe["us_per_step_median"]


def test_newest_record_probes_the_sampler():
    """Microseconds per sample of fig4 red's own run, less its ends-only run."""
    with open(RECORDS[-1]) as f:
        sampler = json.load(f)["oracle_probe"]["sampler"]
    assert sampler["preset"] == "fig4" and sampler["job"] == "red"
    assert sampler["n_samples"] > 2 and sampler["n_steps"] > 0
    assert 0 < sampler["us_per_sample_min"] <= sampler["us_per_sample_median"]
