"""Performance record of a checkout, written as one JSON file.

Usage, from the root of a checkout (about 70 s on 2 CPUs, a third of it
the fig7_8 preset):

    python3 bench.py BENCH_<n>.json

The record holds:

  machine       nproc, usable CPUs, CPU model, Python, numpy and scipy
                versions, `git rev-parse HEAD`, whether the tracked files
                differ from it, and the date;
  perfbench     per workload, the last line of `perfbench/run.py --workload W
                --seed 1 --seconds 8 --trace T` at trace 0 and 1, as printed,
                and `layers`: the trace-1 metrics, each one the tracer cannot
                see set to null with the reason;
  presets       `simulate run --preset P` of every preset, each in a fresh
                child process: wall time, exit code and peak RSS (os.wait4:
                the largest process of the run, workers included), and per
                job the n_steps, step_max, norm_drift and leak_max of each
                oracle run, read from manifest.txt;
  oracle_probe  in-process microseconds per RK4 step of oracle.evolve_numeric
                at 30 x 308 (fig7_8 red) and 30 x 35 (fig4 red), and under
                `sampler` microseconds per sample at fig4 red: its run on its
                own 1,601-sample grid less the same run sampled at its ends.

The tracer records spans in its own process only. With more than one
usable CPU, fig4's two jobs run in forked workers, so none of their layers
is seen, and undriven_wigner's process grids only its share of the twelve
Wigner grids, so the grid totals and maxima cover part of them.

A child's peak RSS starts from the high-water mark of the process that
spawns it, so every child is spawned before this process imports numpy.
Needs only the standard library and numpy.
"""
from __future__ import annotations

import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

ROOT = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig4", "strong_oracle", "strong_analytic", "undriven_wigner")
PERFBENCH_SECONDS = 8
ORACLE_KEYS = ("n_steps", "step_max", "norm_drift", "leak_max")
PROBE_REPEATS = 5
# preset whose red job sets the probe's system and dims -> RK4 steps per repeat
PROBES = {"fig7_8": 300, "fig4": 3000}
# preset whose red job's own run the sampler probe times
SAMPLER_PROBE = "fig4"

# Trace-1 metrics of the job process itself, seen whatever runs in workers.
_CALLER_METRICS = ("cli.import_s", "cli.self_s", "cli.run_s", "cli.cpu_s", "trace.overhead_frac")
_GRID_METRICS = ("wigner.wigner_continuous_s", "wigner.rho_dim_max", "wigner.write_grid_s",
                 "wigner.mass_dev_max")
# workload -> (is the metric unseen with more than one usable CPU, the reason)
UNSEEN = {
    "fig4": (lambda name: name not in _CALLER_METRICS,
             "both jobs run in forked workers, where the tracer records no spans"),
    "undriven_wigner": (lambda name: name in _GRID_METRICS,
                        "the job's process grids only its share of the 12 Wigner grids; "
                        "the rest run in a forked worker, where the tracer records no spans"),
}


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    src = os.path.join(ROOT, "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _version(package: str):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def machine() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    def git(*args) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1,
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_head": git("rev-parse", "HEAD").strip() or None,
        # true when the tree measured differs from git_head
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def perfbench(workload: str, usable_cpus: int) -> dict:
    """Both perfbench lines of one workload, and its trace-1 layers with
    each unseen one null."""
    lines = {}
    for trace in (0, 1):
        argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                "--seconds", str(PERFBENCH_SECONDS), "--trace", str(trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines[f"trace{trace}"] = json.loads(done.stdout.splitlines()[-1])
    unseen, reason = UNSEEN.get(workload, (lambda name: False, None))
    layers = {}
    for name, metric in lines["trace1"]["metrics"].items():
        if usable_cpus > 1 and unseen(name):
            layers[name] = {"value": None, "unit": metric["unit"], "reason": reason}
        else:
            layers[name] = dict(metric)
    return {**lines, "layers": layers}


def manifest_jobs(path: str) -> dict:
    """{job tag: {key: value}} of the oracle-run keys of each manifest section."""
    jobs, job = {}, None
    with open(path) as f:
        for line in f.read().splitlines():
            if line.startswith("[job "):
                job = jobs.setdefault(line[len("[job "):-1], {})
                continue
            key, _, value = line.partition("=")
            if job is not None and key.removeprefix("wigner_numeric_") in ORACLE_KEYS:
                job[key] = int(value) if key.endswith("n_steps") else float(value)
    return jobs


def preset(name: str) -> dict:
    """One `simulate run --preset name` in a fresh child process."""
    out = tempfile.mkdtemp(prefix=f"bench_{name}_")
    try:
        argv = [sys.executable, "-m", "optomech.cli", "run", "--preset", name, "--out", out]
        with tempfile.TemporaryFile() as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                                    stderr=log)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            log.seek(0)
            stderr = log.read().decode(errors="replace")
        manifest = os.path.join(out, "manifest.txt")
        return {
            "exit_code": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "stderr_tail": stderr[-500:],
            "jobs": manifest_jobs(manifest) if os.path.exists(manifest) else None,
        }
    finally:
        shutil.rmtree(out, ignore_errors=True)


def oracle_probe() -> dict:
    """Median and minimum microseconds per RK4 step of evolve_numeric over a
    run sampled only at its ends, at each PROBES system's red job; and per
    sample of the SAMPLER_PROBE red job's own run, less its ends-only run."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from optomech import config, oracle

    def seconds(cfg, times, icfg):
        start = time.perf_counter()
        run = oracle.evolve_numeric(cfg.params, cfg.dims, times, icfg)
        return time.perf_counter() - start, run

    probes = {}
    for name, steps in PROBES.items():
        cfg = config.preset_jobs(name)[0].config
        (_, _, _, icfg, _), = cfg.oracle_runs
        per_step = []
        for _ in range(PROBE_REPEATS):
            elapsed, run = seconds(cfg, [0.0, steps * icfg.dt], icfg)
            per_step.append(1e6 * elapsed / run.n_steps)
        probes[f"{cfg.dims.field_dim}x{cfg.dims.mirror_dim}"] = {
            "preset": name, "job": "red", "n_steps": run.n_steps, "repeats": PROBE_REPEATS,
            "us_per_step_median": statistics.median(per_step), "us_per_step_min": min(per_step),
        }
    cfg = config.preset_jobs(SAMPLER_PROBE)[0].config
    (_, _, times, icfg, _), = cfg.oracle_runs
    per_sample = []
    for _ in range(PROBE_REPEATS):
        sampled, run = seconds(cfg, times, icfg)
        ends, _ = seconds(cfg, times[[0, -1]], icfg)
        per_sample.append(1e6 * (sampled - ends) / (times.size - 2))
    probes["sampler"] = {
        "preset": SAMPLER_PROBE, "job": "red",
        "dims": f"{cfg.dims.field_dim}x{cfg.dims.mirror_dim}",
        "n_samples": int(times.size), "n_steps": run.n_steps, "repeats": PROBE_REPEATS,
        "us_per_sample_median": statistics.median(per_sample),
        "us_per_sample_min": min(per_sample),
    }
    return probes


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    record = {"machine": machine()}
    cpus = record["machine"]["usable_cpus"]
    record["perfbench"] = {w: perfbench(w, cpus) for w in WORKLOADS}
    presets = subprocess.run(
        [sys.executable, "-c", "from optomech.config import PRESETS; print(*PRESETS)"],
        env=_env(), capture_output=True, text=True, check=True).stdout.split()
    record["presets"] = {name: preset(name) for name in presets}
    record["oracle_probe"] = oracle_probe()
    with open(argv[0], "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0 if all(p["exit_code"] == 0 for p in record["presets"].values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
