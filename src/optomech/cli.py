"""Experiment runner: one config in, CSV series, Wigner grids and a manifest out.

`simulate validate` reports a config's jobs and `simulate run` runs them;
each takes `--config FILE`, `--preset NAME` or both, and `--out DIR` for
output_dir; every other setting is a config key. `config` holds the keys,
the presets and every check on them, made while the jobs are built.

`modes` is a comma list drawn from: undriven (closed-form series),
driven-analytic (coherent-averaged propagator), driven-numeric (brute-force
integration), wigner (phase-space snapshots from both propagators at
t = 0, pi/omega_m, 2pi/omega_m), compare (metrics between the two driven
routes; requires both).

driven-numeric and wigner each make one oracle run, over the series grid
and over the snapshot times, at the job's dims, with the RK4 step
recommended over the run unless dt is set (`RunConfig.oracle_runs`,
from the table `config.ORACLE_RUNS`); the manifest records its
diagnostics, prefixed `wigner_numeric_` for wigner. Only the wigner run
keeps its states; the driven-numeric run keeps each sample's lab photon
and phonon moments <n>, <n^2>, <N>, <N^2> and its purity. wigner's
analytic joint states share that run's dims and times.
`validate` prints per job `recommended_field_dim=F recommended_mirror_dim=M`;
for a job that integrates the beta coefficients (driven-analytic or
wigner), `driven-analytic: panels=N`, the panels its series grid and
snapshot times are cut into, `driven.beta_panels` per step; one `MODE: dt=... steps=N`
line per oracle run, and their total as `est_steps=N`. N is the exact
RK4 step count `run` takes (`oracle.step_count`). Memory is not
reported: `fock.MAX_JOINT_DIM` bounds it. For driven-analytic the
manifest records the beta integration's
`antisymmetry_defect`, `unitarity_defect`, `envelope_tail` and
`beta_panels` (`driven.BetaSeries`).

`filter` adds, for each analytic and numeric photon_avg, phonon_avg,
mandel_mirror and linear_entropy_mirror series, its centered moving
average over the beat period 2 pi / |omega_p - omega_c|.

Each run writes `manifest.txt`, which records every expanded value of
each job. A job's section is not a config that reproduces the job: a
config rejects its `tag` and its result keys (`antisymmetry_defect`,
`n_steps`, `output` and the rest) as unknown, its `preset` line conflicts
with the physics keys beside it, and the outputs only a preset's job
writes (fig3's beta variants, fig4's `photon_avg_closed_analytic_*`)
have no config key.

Presets that expand to several independent jobs (fig2, fig4, fig5_6,
fig7_8) run them in forked worker processes, one per usable CPU, and a
wigner job shares out its twelve grids (both sources, analytic first,
each written as a CSV and PGM pair) the same way, in fixed contiguous
shares cut before any fork (`_forked_map`). Everything runs in-process
when one CPU is available. Every output file and the manifest are
byte-identical to running the jobs and grids one after another.

Exit codes: 0 success, 1 config error, an output file that cannot be
written or a MemoryError, 2 numerical failure, 3 truncation inadequacy,
4 a worker process that died without reporting (killed, say).
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import driven, oracle, undriven, wigner
from .config import Job, auto_dims, load_jobs
from .errors import ConfigError, IntegrationError, OutputError, TruncationError, WorkerError
from .postproc import ObservableSeries, atomic_write_text, compare, filter_fast, write_series
from .system import SystemParams

# ---------------------------------------------------------------------------
# Execution


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, complex):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _stem(label: str, provenance: str, tag: str) -> str:
    return f"{label}_{provenance}" + (f"_{tag}" if tag else "")


def _grid_files(task: tuple) -> tuple:
    """Grid one reduced state and write it as CSV and PGM; returns (mass, min W)."""
    rho, n_grid, path_stem = task
    grid = wigner.snapshot_grid(rho, n_grid)
    wigner.write_grid_csv(grid, path_stem + ".csv")
    wigner.write_grid_pgm(grid, path_stem + ".pgm")
    return grid.total_mass(), float(grid.values.min())


def _analytic_series(p: SystemParams, betas) -> dict:
    out = {
        "photon_avg": driven.photon_avg(p, betas),
        "phonon_avg": driven.phonon_avg(p, betas),
        "linear_entropy_mirror": driven.linear_entropy_mirror(p, betas),
        # the field stays coherent: variance over mean 1, at <n> = 0 too
        "mandel_field": np.ones_like(betas.t),
        "mandel_mirror": driven.mandel_mirror(p, betas),
    }
    return {name: ObservableSeries(betas.t, y, name, "analytic") for name, y in out.items()}


_FILTERABLE = ("photon_avg", "phonon_avg", "mandel_mirror", "linear_entropy_mirror")


def _run_job(job: Job) -> tuple:
    """Execute one job; returns (files, manifest lines)."""
    cfg = job.config
    p = cfg.params
    man, files = [], []

    def note(key, value):
        man.append(f"{key}={_fmt(value)}")

    def emit(s: ObservableSeries):
        files.append(_stem(s.label, s.provenance, job.tag) + ".csv")
        write_series(s, os.path.join(cfg.output_dir, files[-1]))

    note("tag", job.tag or "main")
    if job.preset:
        note("preset", job.preset)
    for key, value in asdict(p).items():
        note(key, value)
    note("t_end", cfg.t_end)
    note("n_samples", cfg.n_samples)
    note("modes", ",".join(cfg.modes))
    note("filter", cfg.filter)

    t_grid = cfg.t_grid
    analytic, numeric, filtered = {}, {}, {}

    if "undriven" in cfg.modes:
        # The drive-free closed form; next to driven series it doubles as the
        # nonforced reference curve, hence the distinct labels.
        phonon = undriven.phonon_avg_closed_form(p, t_grid)
        emit(ObservableSeries(t_grid, phonon, "phonon_avg_undriven", "analytic"))
        photon = np.full(t_grid.size, abs(p.alpha) ** 2)
        emit(ObservableSeries(t_grid, photon, "photon_avg_undriven", "analytic"))

    if "driven-analytic" in cfg.modes:
        betas = driven.integrate_betas(p, t_grid)
        note("antisymmetry_defect", betas.antisymmetry_defect)
        note("unitarity_defect", betas.unitarity_defect)
        note("envelope_tail", betas.envelope_tail)
        note("beta_panels", betas.panels)
        analytic = _analytic_series(p, betas)
        for s in analytic.values():
            emit(s)
        if job.emit_closed_form_photon:
            closed = driven.photon_avg_weak_closed_form(p, t_grid)
            emit(ObservableSeries(t_grid, closed, "photon_avg_closed", "analytic"))
        if job.emit_beta_variants:
            variants = (
                ("re_beta1_full", np.real(betas.b1)),
                ("re_beta1_rwa", np.real(driven.beta1_rwa(p, t_grid))),
                ("re_beta1_phi_to_one",
                 np.real([oracle.classical_field(p, t) for t in t_grid.tolist()])),
            )
            for label, y in variants:
                emit(ObservableSeries(t_grid, y, label, "analytic"))

    wigner_run = None
    for mode, prefix, _, icfg, keep_states in cfg.oracle_runs:
        times = np.asarray(wigner.default_snapshot_times(p)) if mode == "wigner" else t_grid
        run = oracle.evolve_numeric(p, cfg.dims, times, icfg, keep_states)
        note(prefix + "field_dim", cfg.dims.field_dim)
        note(prefix + "mirror_dim", cfg.dims.mirror_dim)
        note(prefix + "dt", icfg.dt)
        note(prefix + "norm_tolerance", icfg.norm_tolerance)
        for key in ("n_steps", "step_max", "norm_drift", "leak_max"):
            note(prefix + key, getattr(run, key))
        if mode == "wigner":
            wigner_run = run
        else:
            numeric = oracle.observables_numeric(run)
            for s in numeric.values():
                emit(s)

    if cfg.filter:
        for name in _FILTERABLE:
            for route, route_name in ((analytic, "analytic"), (numeric, "numeric")):
                if name in route:
                    f = filter_fast(route[name], p.beat_period)
                    filtered[(name, route_name)] = f
                    emit(replace(f, label=f"{name}_{route_name}"))
        note("filter_window", p.beat_period)

    if "compare" in cfg.modes:
        pairs = [(f"compare_{name}", analytic[name], numeric[name])
                 for name in sorted(set(analytic) & set(numeric))]
        pairs += [(f"compare_filtered_{name}", filtered[name, "analytic"],
                   filtered[name, "numeric"]) for name in _FILTERABLE
                  if (name, "analytic") in filtered and (name, "numeric") in filtered]
        for prefix, a, n in pairs:
            for mkey, mval in compare(a, n).items():
                note(f"{prefix}_{mkey}", mval)

    if wigner_run is not None:
        note("wigner_grid_points", cfg.wigner_grid_points)
        # The analytic source at the numeric run's dims and times.
        times = wigner_run.t
        betas_w = driven.integrate_betas(p, times)
        analytic_states = [driven.evolve_driven(p, betas_w.at(i), wigner_run.dims)
                           for i in range(len(betas_w))]
        # Both sources' reduced states first, then one map over all twelve
        # grids, analytic first: one fork and no barrier between the sources.
        stems, tasks = [], []
        for source, states in (("analytic", analytic_states), ("numeric", wigner_run.states)):
            for i, (subsystem, _, rho) in enumerate(wigner.snapshot_set(states, times)):
                stem = _stem(f"wigner_{subsystem}_t{i // 2}", source, job.tag)
                stems.append(stem)
                tasks.append((rho, cfg.wigner_grid_points, os.path.join(cfg.output_dir, stem)))
        for stem, (mass, w_min) in zip(stems, _forked_map(_grid_files, tasks)):
            note(f"{stem}_mass", mass)
            note(f"{stem}_min", w_min)
            files += (stem + ".csv", stem + ".pgm")

    man += [f"output={name}" for name in files]
    return files, man


def _usable_cpus() -> int:
    """CPUs this process may run on; 1, so work runs in-process, where unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _forked_map(fn, items) -> list:
    """[fn(item) for item in items], shared with forked worker processes.

    Serves both levels of independent work: a preset's jobs, and the
    twelve Wigner grids of a wigner job. Before any fork the n items are
    cut into P = min(n, usable CPUs) contiguous shares, share w being
    items[w*n//P:(w+1)*n//P], and each process runs its share in order.
    With more items than CPUs this process runs the last share beside
    P - 1 workers; otherwise each item gets a worker and this process
    waits. An item run here adds to the peak RSS the library pages this
    process's imports mapped, which a forked worker does not count: fig4's
    `simulate run` peaks at 34.5 MB with a job run here and 30.2 MB without
    (10 runs). Hence the last share: a wigner job's first share holds its
    heaviest grid, the analytic mirror at t = pi/omega_m, and
    wigner_snapshots' largest process peaks at 54.2-54.3 MB with this
    process on the last share against 58.7-58.8 MB on the first (`os.wait4`,
    3 alternating runs each, 2 CPUs). Each item writes its own files; the
    first failing item in order raises its own error here, after every
    item has run.

    fn runs in-process when one CPU is usable or when there is one item.

    Forking skips re-importing the package and pickling the items, and is
    safe here because the process is single-threaded when it forks: no
    thread of its own is running, and under the package's BLAS policy
    (`optomech`) no BLAS thread exists; where numpy loaded first, OpenBLAS
    joins its threads in a pthread_atfork handler. tests/test_cli.py
    checks the thread count at every fork.
    """
    items = list(items)
    n = len(items)
    processes = min(n, _usable_cpus())
    if processes == 1:
        return [fn(item) for item in items]
    shares = [items[w * n // processes:(w + 1) * n // processes] for w in range(processes)]
    own_share = shares.pop() if n > processes else []
    # Imported here so that validate and single-CPU runs never load it.
    import multiprocessing

    fork = multiprocessing.get_context("fork")

    def outcome(item) -> tuple:
        """(True, fn(item)), or (False, the error it raised)."""
        try:
            return True, fn(item)
        except Exception as exc:
            return False, exc

    links = []
    for share in shares:
        receiver, sender = fork.Pipe(duplex=False)
        proc = fork.Process(target=lambda: sender.send([outcome(item) for item in share]))
        proc.start()
        sender.close()
        links.append((proc, receiver))
    own = [outcome(item) for item in own_share]
    outcomes = []
    for proc, receiver in links:
        try:
            outcomes += receiver.recv()
        except EOFError:
            proc.join()
            raise WorkerError(f"a worker process died with exit code {proc.exitcode}") from None
        proc.join()
    for ok, value in outcomes + own:
        if not ok:
            raise value
    return [value for _, value in outcomes + own]


def run(jobs) -> list:
    """Execute the jobs of one config, which share their output_dir; returns
    the files written."""
    out_dir = jobs[0].config.output_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {out_dir!r}: {exc}") from exc
    sections = []
    files = []
    for job, (job_files, man) in zip(jobs, _forked_map(_run_job, jobs)):
        files.extend(job_files)
        sections.append(f"[job {job.tag or 'main'}]\n" + "\n".join(man))
    manifest = os.path.join(out_dir, "manifest.txt")
    atomic_write_text(manifest, "\n\n".join(sections) + "\n")
    files.append("manifest.txt")
    return files


def validate(jobs) -> str:
    """Report the jobs of one config with their recommended dims and effort,
    without running."""
    lines = []
    for job in jobs:
        cfg = job.config
        p = cfg.params
        # An oracle job's dims were resolved when it was built; the rest
        # report the auto dims without building them.
        fd, md = (cfg.dims.field_dim, cfg.dims.mirror_dim) if cfg.dims else auto_dims(
            p, cfg.t_end)
        lines.append(f"job {job.tag or 'main'}: ok")
        for key, value in asdict(p).items():
            lines.append(f"  {key}={_fmt(value)}")
        lines.append(f"  t_end={_fmt(cfg.t_end)} n_samples={cfg.n_samples}")
        lines.append(f"  modes={','.join(cfg.modes)} filter={_fmt(cfg.filter)}")
        lines.append(f"  recommended_field_dim={fd} recommended_mirror_dim={md}")
        runs = cfg.oracle_runs
        # run integrates the betas over the series grid and the snapshot
        # times: (end, points) of each, evenly spaced from 0, never built
        beta_grids = [(cfg.t_end, cfg.n_samples)] if "driven-analytic" in cfg.modes else []
        if "wigner" in cfg.modes:
            times = wigner.default_snapshot_times(p)
            beta_grids.append((times[-1], len(times)))
        if beta_grids:
            panels = sum(driven.beta_panels(p, end / (n - 1)) * (n - 1) for end, n in beta_grids)
            lines.append(f"  driven-analytic: panels={panels}")
        total_steps = 0
        for mode, _, t_end, icfg, _ in runs:
            n_steps = oracle.step_count(t_end, icfg.dt)
            lines.append(f"  {mode}: dt={_fmt(icfg.dt)} steps={n_steps}")
            total_steps += n_steps
        if runs:
            lines.append(f"  est_steps={total_steps}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage problems to exit code 1
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="simulate", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("run", "execute a config"), ("validate", "check a config")):
        s = sub.add_parser(name, help=text)
        s.add_argument("--config", help="path to key=value config file; optional with --preset")
        s.add_argument("--preset", help="preset name, overriding the config file")
        s.add_argument("--out", help="output directory, replacing the config's output_dir")
    return parser


# error raised to main -> (its one stderr line's prefix, exit code)
_EXITS = {
    ConfigError: ("config error", 1),
    OutputError: ("output error", 1),
    MemoryError: ("out of memory", 1),
    IntegrationError: ("numerical failure", 2),
    TruncationError: ("truncation inadequacy", 3),
    WorkerError: ("worker failure", 4),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.config is None and args.preset is None:
            raise ConfigError("the following arguments are required: --config (or --preset)")
        jobs = load_jobs(args.config, args.preset, {"output_dir": args.out} if args.out else None)
        if args.command == "validate":
            print(validate(jobs))
            return 0
        files = run(jobs)
        print(f"wrote {len(files)} files to {jobs[0].config.output_dir}")
        return 0
    except tuple(_EXITS) as exc:
        prefix, code = next(v for kind, v in _EXITS.items() if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
