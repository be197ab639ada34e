"""Benchmark of the `simulate` CLI on paper workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig4 --seed 1 --seconds 30 --trace 0

Each workload is a `simulate` config in perfbench/workloads/. The load is a
closed loop with one client: a `simulate` process starts only after the
previous one has exited. The program is run from the checkout's `src`, and
every `simulate run` writes to a temporary directory whose outputs are
checked (exit code, manifest invariants, every series and Wigner grid
against perfbench/reference/<workload>.npz) and then removed.

--trace 0 measures the end-to-end metrics with tracing off:
  wall_s       spawn to exit of `simulate run`, median over the runs
  setup_s      spawn to exit of `simulate validate` (imports, config parse,
               preset expansion, dims/dt recommendation; no physics), median
  peak_rss_mb  maximum RSS of the `run` child from wait4, median
Runs repeat while the next one is expected to finish within --seconds (at
least one). Each round pairs one `validate` with one `run` in an order drawn
from --seed; `validate` is topped up to SETUP_REPEATS samples. The inputs
have no random part, so the seed only orders the repeats; it is printed
with the results.

--trace 1 makes one untraced and one traced run (order from --seed) and
reports per-layer metrics from the traced run's spans (see traced_cli.py);
the spans are kept in .perfbench_work/spans_<workload>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Thread settings and library versions are
recorded in the header line, never set.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from importlib import metadata

import outputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("fig4", "strong_oracle", "strong_analytic", "undriven_wigner")
SETUP_REPEATS = 5
# Every invocation must end within 180 s; children are killed past this.
DEADLINE_S = 170.0
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("cli.run_s", "s"),
    ("cli.cpu_s", "s"),
    ("oracle.evolve_numeric_s", "s"),
    ("oracle.n_steps", "count"),
    ("oracle.us_per_step", "us"),
    ("oracle.computed_bytes_per_step", "B"),
    ("oracle.computed_gb_per_s", "GB/s"),
    ("oracle.states_mb", "MB"),
    ("oracle.observables_numeric_s", "s"),
    ("oracle.fig7_8_projected_s", "s"),
    ("driven.integrate_betas_s", "s"),
    ("driven.linear_entropy_mirror_s", "s"),
    ("driven.evolve_driven_s", "s"),
    ("undriven.phonon_avg_closed_form_s", "s"),
    ("fock.partial_trace_s", "s"),
    ("wigner.wigner_continuous_s", "s"),
    ("wigner.us_per_grid_point", "us"),
    ("wigner.rho_dim_max", "count"),
    ("wigner.write_grid_s", "s"),
    ("postproc.write_series_s", "s"),
    ("postproc.filter_compare_s", "s"),
    ("postproc.bytes_written", "B"),
    ("oracle.norm_drift", "1"),
    ("oracle.leak_max", "1"),
    ("driven.antisymmetry_defect", "1"),
    ("driven.unitarity_defect", "1"),
    ("wigner.mass_dev_max", "1"),
    ("trace.overhead_frac", "1"),
)


class Child:
    """Outcome of one finished `simulate` process."""

    def __init__(self, code: int, wall_s: float, cpu_s: float, rss_mb: float, log: str):
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.log = log
        self.problems = [] if code == 0 else [f"exit code {code}"]


class Bench:
    """Spawns `simulate` children for one config and checks what they write.

    Every child is one operation; it fails on a non-zero exit or, for `run`,
    on any output check.
    """

    def __init__(self, config: str, reference: dict, work_dir: str, deadline: float):
        self.config = config
        self.reference = reference
        self.work_dir = work_dir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        src = os.path.join(ROOT, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def _spawn(self, argv: list) -> Child:
        fd, log_path = tempfile.mkstemp(dir=self.work_dir, suffix=".log")
        try:
            with os.fdopen(fd, "wb") as log:
                start = time.perf_counter()
                proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                        env=self.env, cwd=ROOT)
                killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
                killer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    killer.cancel()
                wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            with open(log_path, errors="replace") as f:
                text = f.read()
        finally:
            os.unlink(log_path)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, text)

    def _count(self, child: Child, what: str) -> Child:
        self.attempted += 1
        if child.problems:
            self.failed += 1
            print(f"FAILED {what}: " + "; ".join(child.problems[:5]), file=sys.stderr)
            print(child.log[-2000:], file=sys.stderr)
        return child

    def validate(self, config: str | None = None) -> Child:
        argv = [sys.executable, "-m", "optomech.cli", "validate", "--config", config or self.config]
        return self._count(self._spawn(argv), "validate")

    def run(self, spans_path: str | None = None) -> Child:
        """One `simulate run`, traced when spans_path is given, then checked."""
        out_dir = tempfile.mkdtemp(dir=self.work_dir, prefix="out_")
        try:
            if spans_path is None:
                argv = [sys.executable, "-m", "optomech.cli"]
            else:
                argv = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), spans_path]
            child = self._spawn(argv + ["run", "--config", self.config, "--out", out_dir])
            if child.code == 0:
                child.problems = outputs.check_outputs(out_dir, self.reference)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return self._count(child, "traced run" if spans_path else "run")


def measure_end_to_end(bench: Bench, seconds: float, rng: random.Random) -> dict:
    runs, setups = [], []
    start = time.monotonic()
    while True:
        for kind in rng.sample(("validate", "run"), 2):
            if kind == "run":
                runs.append(bench.run())
            else:
                setups.append(bench.validate())
        elapsed = time.monotonic() - start
        if elapsed * (len(runs) + 1) / len(runs) > seconds or time.monotonic() > bench.deadline:
            break
    while len(setups) < SETUP_REPEATS and time.monotonic() < bench.deadline:
        setups.append(bench.validate())
    return {
        "wall_s": [c.wall_s for c in runs],
        "setup_s": [c.wall_s for c in setups],
        "peak_rss_mb": [c.rss_mb for c in runs],
    }


def rk4_step_bytes(joint: int, driven: bool) -> int:
    """Bytes one oracle RK4 step streams, computed from the state size.

    Model of the lab-frame kernel: 4 DIA matvecs over 5 bands, each band
    reading its data row and x and updating y (64 B per amplitude) plus the
    zero-filled result (16 B); 12 vector updates, 5 scalings (32 B) and
    7 additions (48 B); with a drive, 3 refreshes of the 2 drive rows (32 B).
    """
    per_amp = 4 * (5 * 64 + 16) + 5 * 32 + 7 * 48 + (3 * 2 * 32 if driven else 0)
    return per_amp * joint


def fig7_8_projection(text: str) -> dict:
    """Dims and est_steps of the red fig7_8 job from `simulate validate` output."""
    jobs, job = {}, None
    for line in text.splitlines():
        if line.startswith("job "):
            job = jobs.setdefault(line.split()[1].rstrip(":"), {})
        elif job is not None:
            for token in line.split():
                key, _, value = token.partition("=")
                if key in ("recommended_field_dim", "recommended_mirror_dim", "est_steps"):
                    job[key] = int(value)
    red = jobs["red"]
    return {"dims": [red["recommended_field_dim"], red["recommended_mirror_dim"]],
            "est_steps": red["est_steps"]}


def layer_metrics(trace: dict, untraced: Child, traced: Child, fig7_8: dict) -> dict:
    spans = trace["spans"]
    duration = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += duration[s["id"]]

    def total(*names):
        return sum(duration[s["id"]] for s in spans if s["name"] in names)

    def of(name):
        return [s for s in spans if s["name"] == name]

    oracle_spans = of("oracle.evolve_numeric")
    steps = sum(s["n_steps"] for s in oracle_spans)
    oracle_s = total("oracle.evolve_numeric")
    step_bytes = sum(s["n_steps"] * rk4_step_bytes(s["joint"], s["driven"]) for s in oracle_spans)
    at_fig7_8 = [s for s in oracle_spans if s["dims"] == fig7_8["dims"]]
    fig7_8_steps = sum(s["n_steps"] for s in at_fig7_8)
    wigner_spans = of("wigner.wigner_continuous")
    grid_points = sum(s["grid_points"] for s in wigner_spans)
    wigner_s = total("wigner.wigner_continuous")
    beta_spans = of("driven.integrate_betas")
    return {
        "cli.import_s": trace["import_s"],
        "cli.self_s": sum(duration[s["id"]] - child_time[s["id"]] for s in of("cli.run")),
        "cli.run_s": total("cli.run"),
        "cli.cpu_s": untraced.cpu_s,
        "oracle.evolve_numeric_s": oracle_s,
        "oracle.n_steps": steps,
        "oracle.us_per_step": 1e6 * oracle_s / steps if steps else 0.0,
        "oracle.computed_bytes_per_step": step_bytes / steps if steps else 0.0,
        "oracle.computed_gb_per_s": step_bytes / oracle_s / 1e9 if steps else 0.0,
        "oracle.states_mb": max((s["n_states"] * s["joint"] * 16 / 1e6 for s in oracle_spans),
                                default=0.0),
        "oracle.observables_numeric_s": total("oracle.observables_numeric"),
        "oracle.fig7_8_projected_s": (
            fig7_8["est_steps"] * sum(duration[s["id"]] for s in at_fig7_8) / fig7_8_steps
            if fig7_8_steps else 0.0
        ),
        "driven.integrate_betas_s": total("driven.integrate_betas"),
        "driven.linear_entropy_mirror_s": total("driven.linear_entropy_mirror"),
        "driven.evolve_driven_s": total("driven.evolve_driven"),
        "undriven.phonon_avg_closed_form_s": total("undriven.phonon_avg_closed_form"),
        "fock.partial_trace_s": total("fock.partial_trace_field", "fock.partial_trace_mirror"),
        "wigner.wigner_continuous_s": wigner_s,
        "wigner.us_per_grid_point": 1e6 * wigner_s / grid_points if grid_points else 0.0,
        "wigner.rho_dim_max": max((s["rho_dim"] for s in wigner_spans), default=0),
        "wigner.write_grid_s": total("wigner.write_grid_csv", "wigner.write_grid_pgm"),
        "postproc.write_series_s": total("postproc.write_series"),
        "postproc.filter_compare_s": total("postproc.filter_fast", "postproc.compare"),
        "postproc.bytes_written": sum(s["bytes"] for s in of("postproc.write_series")),
        "oracle.norm_drift": max((s["norm_drift"] for s in oracle_spans), default=0.0),
        "oracle.leak_max": max((s["leak_max"] for s in oracle_spans), default=0.0),
        "driven.antisymmetry_defect": max(
            (s["antisymmetry_defect"] for s in beta_spans), default=0.0),
        "driven.unitarity_defect": max((s["unitarity_defect"] for s in beta_spans), default=0.0),
        "wigner.mass_dev_max": max((s["mass_dev"] for s in wigner_spans), default=0.0),
        "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
    }


def layer_shares(m: dict) -> dict:
    """Shares of the traced cli.run_s that separate the workloads."""
    run_s = m["cli.run_s"] or float("nan")
    return {
        "oracle": (m["oracle.evolve_numeric_s"] + m["oracle.observables_numeric_s"]) / run_s,
        "integrate_betas": m["driven.integrate_betas_s"] / run_s,
        "wigner (grid + writing)": (m["wigner.wigner_continuous_s"]
                                    + m["wigner.write_grid_s"]) / run_s,
    }


def measure_layers(bench: Bench, rng: random.Random, workload: str) -> tuple:
    """(per-layer metrics, shares), or (None, None) when a needed run failed."""
    fig7_8_cfg = os.path.join(bench.work_dir, "fig7_8.cfg")
    with open(fig7_8_cfg, "w") as f:
        f.write("preset = fig7_8\n")
    projection = bench.validate(fig7_8_cfg)
    spans_path = os.path.join(bench.work_dir, "spans.json")
    done = {}
    for kind in rng.sample(("untraced", "traced"), 2):
        done[kind] = bench.run(spans_path if kind == "traced" else None)
    if projection.code or done["untraced"].code or done["traced"].code:
        return None, None
    with open(spans_path) as f:
        trace = json.load(f)
    kept = os.path.join(ROOT, ".perfbench_work", f"spans_{workload}.json")
    shutil.copyfile(spans_path, kept)
    metrics = layer_metrics(trace, done["untraced"], done["traced"],
                            fig7_8_projection(projection.log))
    return metrics, layer_shares(metrics)


def _header(args) -> str:
    versions = " ".join(f"{pkg}={metadata.version(pkg)}" for pkg in ("numpy", "scipy"))
    threads = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in _THREAD_VARS)
    return (f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
            f"trace={args.trace} python={sys.version.split()[0]} {versions} "
            f"nproc={os.cpu_count()} {threads}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "optomech", "cli.py")):
        print(f"no program to benchmark: {ROOT}/src/optomech is missing", file=sys.stderr)
        return 2
    reference = outputs.load_reference(os.path.join(BENCH_DIR, "reference", args.workload + ".npz"))
    config = os.path.join(BENCH_DIR, "workloads", args.workload + ".cfg")
    print(_header(args), flush=True)

    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=base)
    rng = random.Random(args.seed)
    try:
        bench = Bench(config, reference, work_dir, time.monotonic() + DEADLINE_S)
        bench.validate()  # untimed warm-up: compiles the package's bytecode once
        if args.trace:
            metrics, shares = measure_layers(bench, rng, args.workload)
            report = {}
            for name, unit in PER_LAYER:
                value = metrics[name] if metrics else 0.0
                report[name] = {"value": value, "unit": unit}
                print(f"{name:36s} {value:.6g} {unit}  (n=1, traced run)")
            for name, share in (shares or {}).items():
                print(f"share of cli.run_s: {name:24s} {share:.3f}")
        else:
            samples = measure_end_to_end(bench, args.seconds, rng)
            report = {}
            for name, unit in END_TO_END:
                values = samples[name]
                value = statistics.median(values)
                report[name] = {"value": value, "unit": unit}
                print(f"{name:12s} {value:.6g} {unit}  (median of n={len(values)}, "
                      f"min {min(values):.6g}, max {max(values):.6g})")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"operations: attempted {bench.attempted}, failed {bench.failed}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
