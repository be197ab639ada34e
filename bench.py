"""Performance record of a checkout, written as one JSON file.

Usage, from the root of a checkout on Linux (about 80 s on 2 CPUs, a
quarter of it the fig7_8 preset):

    python3 bench.py BENCH_<n>.json

The record holds:

  machine       nproc, usable CPUs, CPU model, Python, numpy and scipy
                versions, `git rev-parse HEAD`, whether the tracked files
                differ from it, and the date;
  perfbench     per workload, the last line of `perfbench/run.py --workload W
                --seed 1 --seconds 8 --trace T` at trace 0 and 1, as printed,
                and under `cpus` the CPUs each child could use. The trace-1
                child is pinned to one CPU (its children inherit the
                affinity), so its runs fork no worker: every layer metric is
                of a serial run, in the one process the tracer sees, unlike
                `perfbench/run.py --trace 1` run on several CPUs. The trace-0
                child runs on every usable CPU;
  presets       `simulate run --preset P` of every preset, each in a fresh
                child process: wall time, exit code and peak RSS (os.wait4:
                the largest process of the run, workers included), and per
                job the n_steps, step_max, norm_drift and leak_max of each
                oracle run, read from manifest.txt;
  oracle_probe  in-process microseconds per RK4 step of oracle.evolve_numeric
                at 30 x 308 (fig7_8 red) and 30 x 35 (fig4 red), and at the
                same dims microseconds per `DisplacedFrame.rhs` call at a new
                stage time and at a repeated one (the generator's own cost,
                without RK4's vector sums), under
                `sampler` microseconds per sample at fig4 red: its run on its
                own 1,601-sample grid less the same run sampled at its ends,
                and under `exact_error` the accuracy of one oracle run with an
                exact answer (`exact_undriven_run`, which the tests share):
                fig7_8 red's system with the drive off, over its full 5.5 T_m
                at the recommended step, sampled 12 times, its steps and its
                largest ||psi - psi_exact|| against the closed form
                (`driven.evolve_driven` at zero betas);
  wigner_probe  in-process milliseconds per `wigner.snapshot_grid` of the
                mirror state at t = pi/omega_m, on the job's own grid
                (161^2), of undriven_wigner's job (dims 22 x 28) and of the
                analytic source of wigner_snapshots (30 x 308; the heaviest
                grid of any preset).

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
# preset whose red job, drive off, the exact-error probe runs over its t_end,
# in T_m, with as many samples
EXACT_PROBE = "fig7_8"
EXACT_PERIODS = 5.5
EXACT_SAMPLES = 12
# grid probe name -> the config of its job (workload file, else preset)
WIGNER_PROBES = {"undriven_wigner": "perfbench/workloads/undriven_wigner.cfg",
                 "wigner_snapshots": None}


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


def perfbench(workload: str) -> dict:
    """Both perfbench lines of one workload, and the CPUs each child could
    use: every usable one at trace 0, one at trace 1."""
    usable = os.sched_getaffinity(0)
    cpus = {"trace0": usable, "trace1": {min(usable)}}
    lines = {}
    for key, affinity in cpus.items():
        argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                "--seconds", str(PERFBENCH_SECONDS), "--trace", key[-1]]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              preexec_fn=lambda: os.sched_setaffinity(0, affinity))
        lines[key] = json.loads(done.stdout.splitlines()[-1])
    return {**lines, "cpus": {key: len(affinity) for key, affinity in cpus.items()}}


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


def exact_undriven_run(periods: float) -> tuple:
    """The oracle run of EXACT_PROBE red's system with drive_amp = omega_p = 0,
    at its dims, sampled EXACT_SAMPLES times over `periods` T_m at the
    recommended step, with its states kept; and its largest ||psi - psi_exact||
    against `driven.evolve_driven` at zero betas. Needs optomech importable."""
    import dataclasses

    from optomech import config, driven, oracle  # before numpy, so its BLAS policy acts
    import numpy as np

    cfg = config.preset_jobs(EXACT_PROBE)[0].config
    p = dataclasses.replace(cfg.params, drive_amp=0.0, omega_p=0.0)
    times = np.linspace(0.0, periods * p.mech_period, EXACT_SAMPLES)
    run = oracle.evolve_numeric(p, cfg.dims, times, keep_states=True)
    return run, max(float(np.linalg.norm(
        state.amps - driven.evolve_driven(p, driven.BetaCoefficients.zero(t), cfg.dims).amps))
        for state, t in zip(run.states, times.tolist()))


def oracle_probe() -> dict:
    """Median and minimum microseconds per RK4 step of evolve_numeric over a
    run sampled only at its ends, at each PROBES system's red job, and per
    `DisplacedFrame.rhs` call of as many calls at that job's dims, each at
    a new stage time (which refreshes the band rows) or all at one repeated
    time; per sample of the SAMPLER_PROBE red job's own run, less its
    ends-only run; and the exact-error run of the EXACT_PROBE red job's
    system."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from optomech import config, oracle
    import numpy as np

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
        frame = oracle.DisplacedFrame(cfg.params, cfg.dims)
        vec = np.random.default_rng(1).standard_normal(2 * cfg.dims.joint).view(np.complex128)
        out = np.empty_like(vec)
        per_call = {"new": [], "repeated": []}
        for repeat in range(PROBE_REPEATS):
            fresh = ((repeat * steps + np.arange(steps) + 0.5) * icfg.dt).tolist()
            # the untimed call leaves the frame at a time the first timed call
            # does not repeat, or at the one it repeats
            for kind, times, before in (("new", fresh, -1.0),
                                        ("repeated", fresh[:1] * steps, fresh[0])):
                frame.rhs(before, vec, out)
                start = time.perf_counter()
                for t in times:
                    frame.rhs(t, vec, out)
                per_call[kind].append(1e6 * (time.perf_counter() - start) / steps)
        probes[f"{cfg.dims.field_dim}x{cfg.dims.mirror_dim}"] = {
            "preset": name, "job": "red", "n_steps": run.n_steps, "repeats": PROBE_REPEATS,
            "us_per_step_median": statistics.median(per_step), "us_per_step_min": min(per_step),
            "rhs_calls": steps,
            **{f"us_per_rhs_call_{kind}_time_{stat}": fn(values)
               for kind, values in per_call.items()
               for stat, fn in (("median", statistics.median), ("min", min))},
        }
    cfg = config.preset_jobs(SAMPLER_PROBE)[0].config
    (_, _, _, icfg, _), = cfg.oracle_runs
    times = cfg.t_grid
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
    run, error = exact_undriven_run(EXACT_PERIODS)
    probes["exact_error"] = {
        "preset": EXACT_PROBE, "job": "red", "drive": "off", "periods": EXACT_PERIODS,
        "dims": f"{run.dims.field_dim}x{run.dims.mirror_dim}", "n_samples": EXACT_SAMPLES,
        "n_steps": run.n_steps, "norm_drift": run.norm_drift, "max_state_error": error,
    }
    return probes


def wigner_probe() -> dict:
    """Median and minimum milliseconds per snapshot_grid of each WIGNER_PROBES
    job's mirror state at t = pi/omega_m, from the analytic propagator."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    from optomech import config, driven, wigner

    probes = {}
    for name, path in WIGNER_PROBES.items():
        jobs = config.load_jobs(os.path.join(ROOT, path)) if path else config.preset_jobs(name)
        cfg = jobs[0].config
        times = np.asarray(wigner.default_snapshot_times(cfg.params))
        state = driven.evolve_driven(cfg.params, driven.integrate_betas(cfg.params, times).at(1),
                                     cfg.dims)
        _, _, rho = wigner.snapshot_set([state], times[1:2])[1]  # the field's, then the mirror's
        ms = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            wigner.snapshot_grid(rho, cfg.wigner_grid_points)
            ms.append(1e3 * (time.perf_counter() - start))
        probes[name] = {
            "subsystem": "mirror", "t": "pi/omega_m", "source": "analytic",
            "dims": f"{cfg.dims.field_dim}x{cfg.dims.mirror_dim}",
            "grid_points": cfg.wigner_grid_points, "repeats": PROBE_REPEATS,
            "ms_median": statistics.median(ms), "ms_min": min(ms),
        }
    return probes


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    record = {"machine": machine(), "perfbench": {w: perfbench(w) for w in WORKLOADS}}
    presets = subprocess.run(
        [sys.executable, "-c", "from optomech.config import PRESETS; print(*PRESETS)"],
        env=_env(), capture_output=True, text=True, check=True).stdout.split()
    record["presets"] = {name: preset(name) for name in presets}
    record["oracle_probe"] = oracle_probe()
    record["wigner_probe"] = wigner_probe()
    with open(argv[0], "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0 if all(p["exit_code"] == 0 for p in record["presets"].values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
