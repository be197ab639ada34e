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
wigner), `driven-analytic: panels=N`, the panels `driven.beta_panels` cuts
its series grid and snapshot times into; one `MODE: dt=... steps=N`
line per oracle run, and their total as `est_steps=N`. N is the exact
RK4 step count `run` takes (`oracle.step_count`). Memory is not
reported: `fock.MAX_JOINT_DIM` bounds it. For driven-analytic the
manifest records the beta integration's
`antisymmetry_defect`, `unitarity_defect`, `envelope_tail` and
`beta_panels` (`driven.BetaSeries`).

`filter` adds, for each analytic and numeric photon_avg, phonon_avg,
mandel_mirror and linear_entropy_mirror series, its centered moving
average over the beat period 2 pi / |omega_p - omega_c|.

Each run writes `manifest.txt` recording every expanded value, so any
output can be reproduced from the manifest alone.

Presets that expand to several independent jobs (fig2, fig4, fig5_6,
fig7_8) run them concurrently in forked worker processes, one per CPU
available to the process. A wigner job shares out its grids the same way,
in one map over both sources' twelve reduced states, analytic first: each
is gridded and written as a CSV and PGM pair by whichever process claims
it, the process itself or one of its workers, one fewer than CPUs.
Everything runs in-process when one CPU is available, and work that
already runs in a worker does not fork again: a wigner job of a multi-job
preset grids where its job runs. Every output file and the manifest are
byte-identical to running the jobs and grids one after another.

Exit codes: 0 success, 1 config error, 2 numerical failure, 3 truncation
inadequacy, 4 a worker process that died without reporting (killed, say).
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import driven, oracle, undriven, wigner
from .config import Job, auto_dims, load_jobs
from .errors import ConfigError, IntegrationError, TruncationError, WorkerError
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
    }
    # Mandel parameters are undefined wherever the mean occupation vanishes.
    # The field stays coherent, so its Mandel parameter is 1 where defined.
    if np.all(out["photon_avg"] > 0):
        out["mandel_field"] = np.ones_like(betas.t)
    try:
        out["mandel_mirror"] = driven.mandel_mirror(p, betas)
    except ValueError:
        pass
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
        prenorm = np.exp(np.real(betas.b3) + 0.5 * np.abs(betas.b1) ** 2)
        note("prenorm_min", float(prenorm.min()))
        note("prenorm_max", float(prenorm.max()))
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
                ("re_beta1_phi_to_one", np.real(driven.beta1_phi_to_one(p, t_grid))),
            )
            for label, y in variants:
                emit(ObservableSeries(t_grid, y, label, "analytic"))

    wigner_run = None
    for mode, prefix, times, icfg, keep_states in cfg.oracle_runs:
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


# Set while a _forked_map runs in this process or in the one that forked it.
_mapping = False


def _forked_map(fn, items) -> list:
    """[fn(item) for item in items], shared with forked worker processes.

    Serves both levels of independent work: a preset's jobs, and the
    Wigner grids of both sources of a wigner job, each computed and written
    by the process that claims it. The items run in as many processes as
    there are usable CPUs, or items if fewer, each process claiming the
    next unclaimed item, so none idles while another has items queued.
    With more items than CPUs this process is one of them; otherwise every
    item gets a forked worker of its own and this process waits, since an
    item run here would add to the peak RSS the library pages this
    process's imports mapped, which a forked worker does not count (fig4,
    peak RSS of `simulate run` over 10 runs: 34.5 MB with a job run here,
    30.2 MB without). Each item writes its own files and returns
    the result of fn. The first failing item in order raises its own
    error here, after every item has run.

    fn runs in-process when one CPU is usable, when there is one item, and
    while a map already runs here or in the process that forked this one:
    a wigner job grids in the process that runs the job.

    Forking skips re-importing the package and pickling the items, and is
    safe here because the process is single-threaded when it forks: no
    thread of its own is running, and under the package's BLAS policy
    (`optomech`) no BLAS thread exists; where numpy loaded first, OpenBLAS
    joins its threads in a pthread_atfork handler. tests/test_cli.py
    checks the thread count at every fork.
    """
    global _mapping
    items = list(items)
    processes = min(len(items), _usable_cpus())
    if processes == 1 or _mapping:
        return [fn(item) for item in items]
    takes_part = len(items) > processes
    # Imported here so that validate and single-CPU runs never load it.
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    claimed = fork.Value("i", 0)

    def run_share() -> dict:
        """Outcomes, (True, result) or (False, error), of the items this process claims."""
        outcomes = {}
        while True:
            with claimed.get_lock():
                i = claimed.value
                claimed.value += 1
            if i >= len(items):
                return outcomes
            try:
                outcomes[i] = (True, fn(items[i]))
            except Exception as exc:
                outcomes[i] = (False, exc)

    _mapping = True
    try:
        links = []
        for _ in range(processes - takes_part):
            receiver, sender = fork.Pipe(duplex=False)
            proc = fork.Process(target=lambda: sender.send(run_share()))
            proc.start()
            sender.close()
            links.append((proc, receiver))
        outcomes = run_share() if takes_part else {}
        for proc, receiver in links:
            try:
                outcomes.update(receiver.recv())
            except EOFError:
                proc.join()
                raise WorkerError(f"a worker process died with exit code {proc.exitcode}") from None
            proc.join()
    finally:
        _mapping = False
    results = []
    for i in range(len(items)):
        ok, value = outcomes[i]
        if not ok:
            raise value
        results.append(value)
    return results


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
        # run integrates the betas over the series grid and the snapshot times
        beta_grids = [times for mode, _, times, _, _ in runs if mode == "wigner"]
        if "driven-analytic" in cfg.modes:
            beta_grids.append(cfg.t_grid)
        if beta_grids:
            panels = sum(int(driven.beta_panels(p, grid).sum()) for grid in beta_grids)
            lines.append(f"  driven-analytic: panels={panels}")
        total_steps = 0
        for mode, _, times, icfg, _ in runs:
            n_steps = oracle.step_count(float(times[-1]), icfg.dt)
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except TruncationError as exc:
        print(f"truncation inadequacy: {exc}", file=sys.stderr)
        return 3
    except WorkerError as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
