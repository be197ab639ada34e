"""Experiment runner: one config in, CSV series, Wigner grids and a manifest out.

Config files are flat `key = value` lines with `#` comments. Times are in
seconds and frequencies in rad/s; omega_m, omega_p and drive_amp also accept
a ratio to the cavity frequency with the suffix syntax `0.8*omega_c`.
Initial amplitudes alpha and gamma take any Python complex literal.

Required keys without a preset: omega_c, omega_m, t_end, n_samples, modes.
Optional keys: omega_p, drive_amp, g_ratio, alpha, gamma (default 0),
preset, filter, output_dir, field_dim, mirror_dim, dt, norm_tolerance,
wigner_grid_points.

`modes` is a comma list drawn from: undriven (closed-form series),
driven-analytic (coherent-averaged propagator), driven-numeric (brute-force
integration), wigner (phase-space snapshots from both propagators at
t = 0, pi/omega_m, 2pi/omega_m), compare (metrics between the two driven
routes; requires both).

driven-numeric and wigner each make one oracle run, over the series grid
and over the snapshot times, at the configured or auto dims, with the RK4
step recommended over the run unless dt is set; the manifest records its
diagnostics, prefixed `wigner_numeric_` for wigner. Only the wigner run
keeps its states; the driven-numeric run keeps each sample's marginals and
purity. wigner's analytic joint states share that run's dims and times.
`validate` prints per job `recommended_field_dim=F recommended_mirror_dim=M`;
for a job that integrates the beta coefficients (driven-analytic or
wigner), `driven-analytic: panels=N`, the panels `driven.beta_panels` cuts
its series grid and snapshot times into; one
`MODE: dt=... steps=N state_memory_mb=...` line per oracle run, and
their total as `est_steps=N ...`. N is the exact RK4 step count `run`
takes (`oracle.step_count`); the memory is what the run holds: its working
vectors plus, for driven-numeric, P(k) and P(m) of every sample, or, for
wigner, its three kept states. For driven-analytic the manifest records the
beta integration's `antisymmetry_defect`, `unitarity_defect`,
`envelope_tail` and `beta_panels` (`driven.BetaSeries`).

`filter` adds, for each analytic and numeric photon_avg, phonon_avg,
mandel_mirror and linear_entropy_mirror series, its centered moving
average over the beat period 2 pi / |omega_p - omega_c|. It needs
omega_p != omega_c and, in a job with driven-analytic or driven-numeric, a
beat period at least twice the median spacing of the series grid, about
t_end / (n_samples - 1) (`postproc.require_window`).

A preset replaces the physics keys wholesale; configs may still set
output_dir, filter, dims and integrator overrides next to it, and
`--preset NAME` without `--config` runs the preset as it stands. These
settings and the flags `--out`, `--filter` and `--dims`, each replacing
its key, apply to every job: dims as set, else the job's own; filter if
the job or the setting asks; the rest as set. Each run writes
`manifest.txt` recording every expanded value, so any output can be
reproduced from the manifest alone.

A config is built into its resolved, checked jobs, and `validate` and
`run` take those. So every config error (exit 1) is raised while the jobs
are built, before `validate` prints a job and before `run` creates
output_dir or forks; only an output_dir that cannot be created is found by
`run` itself, before it forks.

fig7_8's `*_red` files are what the former presets for the paper's Figs. 9
and 10 wrote: each re-ran fig7_8's red job. Presets of their own for those
figures wait for the figures' text, since the abstract does not say what
they plot.

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
inadequacy.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import driven, oracle, undriven, wigner
from .errors import ConfigError, IntegrationError, TruncationError
from .fock import FockDims, recommend_field_dim, recommend_mirror_dim
from .postproc import (
    ObservableSeries, atomic_write_text, compare, filter_fast, require_window, write_series,
)
from .system import SystemParams

MODES = ("undriven", "driven-analytic", "driven-numeric", "wigner", "compare")
# The modes that make an oracle run, in the order a job makes them.
_ORACLE_MODES = ("driven-numeric", "wigner")
# Joint-size vectors an oracle run works in: state, stage, k1..k4, the
# dense sample and its scratch.
_WORK_VECTORS = 8
PRESETS = (
    "fig2",
    "fig3",
    "fig4",
    "fig5_6",
    "fig7_8",
    "wigner_snapshots",
)
_PARAM_KEYS = ("omega_c", "omega_m", "omega_p", "drive_amp", "g_ratio", "alpha", "gamma")
_REQUIRED_KEYS = ("omega_c", "omega_m", "t_end", "n_samples", "modes")
# Keys that stay honored next to a preset; the rest belong to the preset.
_PRESET_COMPATIBLE = (
    "preset",
    "filter",
    "output_dir",
    "field_dim",
    "mirror_dim",
    "dt",
    "norm_tolerance",
    "wigner_grid_points",
)
_KNOWN_KEYS = _PARAM_KEYS + ("t_end", "n_samples", "modes") + _PRESET_COMPATIBLE

_WEAK_OMEGA_C = 1.0e9
_OMEGA_M_RATIO = 0.01
_DRIVE_RATIO = math.pi / 20.0
_RED, _BLUE = 0.8, 1.2
_MECH_PERIOD = 2.0 * math.pi / (_WEAK_OMEGA_C * _OMEGA_M_RATIO)
_BEAT_PERIOD = 2.0 * math.pi / (abs(_RED - 1.0) * _WEAK_OMEGA_C)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved and checked description of one job."""

    params: SystemParams
    t_end: float
    n_samples: int
    modes: tuple
    dims: FockDims | None = None
    filter: bool = False
    output_dir: str = "."
    dt: float | None = None
    norm_tolerance: float = oracle.DEFAULT_NORM_TOLERANCE
    wigner_grid_points: int = 161

    def __post_init__(self):
        if not (self.t_end > 0):
            raise ConfigError("t_end must be positive")
        if not math.isfinite(self.t_end):
            raise ConfigError("t_end must be finite")
        if self.n_samples < 2:
            raise ConfigError("n_samples must be at least 2")
        if not self.modes:
            raise ConfigError("modes must not be empty")
        bad = [m for m in self.modes if m not in MODES]
        if bad:
            raise ConfigError(f"unknown modes {bad}; valid: {', '.join(MODES)}")
        if "compare" in self.modes and not (
            "driven-analytic" in self.modes and "driven-numeric" in self.modes
        ):
            raise ConfigError(
                "mode 'compare' needs both 'driven-analytic' and 'driven-numeric'"
            )
        if self.dt is not None and not (self.dt > 0):
            raise ConfigError("dt must be positive")
        if self.dt is not None and any(mode in self.modes for mode in _ORACLE_MODES):
            try:
                oracle.require_stable_dt(self.params, self.dt)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if not (self.norm_tolerance > 0 and math.isfinite(self.norm_tolerance)):
            raise ConfigError("norm_tolerance must be positive and finite")
        if self.wigner_grid_points < 8:
            raise ConfigError("wigner_grid_points must be at least 8")
        if self.filter:
            window = self.params.beat_period
            if not math.isfinite(window):
                raise ConfigError("filter window undefined: drive on cavity resonance")
            if any(mode in self.modes for mode in ("driven-analytic", "driven-numeric")):
                try:
                    require_window(np.linspace(0.0, self.t_end, self.n_samples), window)
                except ValueError as exc:
                    raise ConfigError(f"filter: {exc}") from exc


@dataclass(frozen=True)
class _Job:
    """One executable unit: a resolved RunConfig, the preset it belongs to
    (for the manifest) and emission details."""

    config: RunConfig
    tag: str = ""
    preset: str | None = None
    emit_beta_variants: bool = False
    emit_closed_form_photon: bool = False


# ---------------------------------------------------------------------------
# Config parsing


def parse_config_text(text: str) -> dict:
    """key -> (raw value, line number); raises ConfigError with the line."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected key=value, got {body!r}")
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {entries[key][1]})"
            )
        entries[key] = (value, lineno)
    return entries


def _fail(kv: dict, key: str, problem: str):
    raise ConfigError(f"line {kv[key][1]}: {key}: {problem}")


def _boolean(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(raw)


# kind of a config value -> (its parser, what its parse errors call it)
_PARSERS = {
    float: (float, "a number"),
    int: (int, "an integer"),
    complex: (complex, "a complex number"),
    bool: (_boolean, "a boolean"),
}


def _parsed(kv, key, kind, default=None, omega_c=None):
    """kv[key] parsed as kind (float, int, complex or bool), default if unset.

    A float may be a ratio `x*omega_c` to the given omega_c.
    """
    if key not in kv:
        return default
    raw = kv[key][0]
    scale = 1.0
    if kind is float and raw.endswith("*omega_c"):
        if omega_c is None:
            _fail(kv, key, "ratio syntax needs omega_c set to an absolute value")
        raw, scale = raw[: -len("*omega_c")].strip(), omega_c
    parse, what = _PARSERS[kind]
    try:
        value = parse(raw)
    except ValueError:
        _fail(kv, key, f"not {what}: {raw!r}")
    return value * scale if kind is float else value


def _dims_of(kv):
    has_f, has_m = "field_dim" in kv, "mirror_dim" in kv
    if has_f != has_m:
        raise ConfigError("field_dim and mirror_dim must be given together")
    if not has_f:
        return None
    # Parsed before the try, so a parse error is not prefixed a second time.
    field_dim, mirror_dim = _parsed(kv, "field_dim", int), _parsed(kv, "mirror_dim", int)
    try:
        return FockDims(field_dim, mirror_dim)
    except ValueError as exc:
        lines = f"lines {kv['field_dim'][1]} and {kv['mirror_dim'][1]}"
        raise ConfigError(f"{lines}: field_dim, mirror_dim: {exc}") from exc


def _settings_of(kv: dict, overrides: dict | None = None) -> dict:
    """RunConfig fields from the keys a config may set next to a preset,
    each replaced by its entry in overrides (the flags' settings)."""
    settings = dict(
        dims=_dims_of(kv),
        filter=_parsed(kv, "filter", bool, default=False),
        output_dir=kv["output_dir"][0] if "output_dir" in kv else ".",
        dt=_parsed(kv, "dt", float),
        norm_tolerance=_parsed(kv, "norm_tolerance", float, default=oracle.DEFAULT_NORM_TOLERANCE),
        wigner_grid_points=_parsed(kv, "wigner_grid_points", int, default=161),
    )
    settings.update(overrides or {})
    return settings


def build_jobs(kv: dict, preset: str | None = None, overrides: dict | None = None) -> tuple:
    """The resolved, checked jobs of parsed key/value entries; `preset`
    replaces the config's own and `overrides` its settings. All diagnostics
    cite lines."""
    preset = preset or (kv["preset"][0] if "preset" in kv else None)
    if preset is not None:
        stray = sorted(k for k in kv if k not in _PRESET_COMPATIBLE)
        if stray:
            raise ConfigError(
                f"keys {stray} conflict with preset {preset!r}; a preset fixes the physics"
            )
        return preset_jobs(preset, _settings_of(kv, overrides))
    missing = [k for k in _REQUIRED_KEYS if k not in kv]
    if missing:
        raise ConfigError(
            "missing required keys: " + ", ".join(missing)
            + " (required: " + ", ".join(_REQUIRED_KEYS) + ")"
        )
    omega_c = _parsed(kv, "omega_c", float)
    try:
        params = SystemParams(
            omega_c=omega_c,
            omega_m=_parsed(kv, "omega_m", float, omega_c=omega_c),
            omega_p=_parsed(kv, "omega_p", float, 0.0, omega_c),
            drive_amp=_parsed(kv, "drive_amp", float, 0.0, omega_c),
            g_ratio=_parsed(kv, "g_ratio", float, default=0.0),
            alpha=_parsed(kv, "alpha", complex, default=0j),
            gamma=_parsed(kv, "gamma", complex, default=0j),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config = RunConfig(
        params,
        _parsed(kv, "t_end", float),
        _parsed(kv, "n_samples", int),
        tuple(m.strip() for m in kv["modes"][0].split(",") if m.strip()),
        **_settings_of(kv, overrides),
    )
    return (_Job(config),)


def load_jobs(path: str | None, preset: str | None = None,
              overrides: dict | None = None) -> tuple:
    """`build_jobs` of a config file, or of no entries when path is None."""
    kv = {}
    if path is not None:
        try:
            with open(path) as f:
                text = f.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        kv = parse_config_text(text)
    return build_jobs(kv, preset, overrides)


# ---------------------------------------------------------------------------
# Presets


def _weak(ratio: float) -> SystemParams:
    return SystemParams(
        omega_c=_WEAK_OMEGA_C,
        omega_m=_OMEGA_M_RATIO * _WEAK_OMEGA_C,
        omega_p=ratio * _WEAK_OMEGA_C,
        drive_amp=_DRIVE_RATIO * _WEAK_OMEGA_C,
        g_ratio=0.033,
        alpha=2.0 + 0.0j,
        gamma=2.0 + 0.0j,
    )


def _strong(ratio: float) -> SystemParams:
    return replace(_weak(ratio), g_ratio=0.33)


_WEAK_DIMS = FockDims(30, 35)
_STRONG_DIMS = FockDims(30, 308)


def preset_jobs(name: str, settings: dict | None = None) -> tuple:
    """A preset's jobs under a run's settings (`_settings_of`), the
    defaults when None: the settings' dims if given, else the job's own;
    filter if the job or the settings ask; every other setting as set."""
    settings = settings or _settings_of({})

    def job(tag, params, t_end, n_samples, modes, dims=None, filter=False, **emit):
        own = {"dims": dims if settings["dims"] is None else settings["dims"],
               "filter": filter or settings["filter"]}
        config = RunConfig(params, t_end, n_samples, modes, **{**settings, **own})
        return _Job(config, tag, name, **emit)

    driven_modes = ("driven-analytic", "driven-numeric", "compare")
    detunings = (("red", _RED), ("blue", _BLUE))
    if name == "fig2":
        # Undriven mirror dynamics for a sweep of field intensities around
        # the cooling/heating thresholds of |alpha|^2.
        base = SystemParams(
            omega_c=1.0e8, omega_m=1.0e7, g_ratio=0.033, gamma=2.0 + 0.0j
        )
        alphas = (
            ("alpha_sq_0", 0.0),
            ("alpha_sq_4", 2.0),
            ("alpha_sq_29p8", math.sqrt(29.8)),
            ("alpha_sq_59p6", math.sqrt(59.6)),
            ("alpha_sq_64", 8.0),
        )
        return tuple(
            job(tag, replace(base, alpha=complex(a)), 2.0 * math.pi / base.omega_m, 201,
                ("undriven",))
            for tag, a in alphas
        )
    if name == "fig3":
        return (job("red", _weak(_RED), 2.0 * _BEAT_PERIOD, 2001, ("driven-analytic",),
                    emit_beta_variants=True),)
    if name == "fig4":
        return tuple(
            job(tag, _weak(r), 4.0 * _BEAT_PERIOD, 1601, driven_modes, _WEAK_DIMS,
                emit_closed_form_photon=True)
            for tag, r in detunings
        )
    if name == "fig5_6":
        nonforced = replace(_weak(_RED), omega_p=0.0, drive_amp=0.0)
        return tuple(
            job(tag, _weak(r), _MECH_PERIOD, 2001, driven_modes, _WEAK_DIMS, filter=True)
            for tag, r in detunings
        ) + (job("nonforced", nonforced, _MECH_PERIOD, 2001, ("undriven",)),)
    if name == "fig7_8":
        return tuple(
            job(tag, _strong(r), 5.5 * _MECH_PERIOD, 1101, driven_modes, _STRONG_DIMS,
                filter=True)
            for tag, r in detunings
        )
    if name == "wigner_snapshots":
        return (job("red", _strong(_RED), _MECH_PERIOD, 3, ("wigner",), _STRONG_DIMS),)
    raise ConfigError(f"unknown preset {name!r}; valid: {', '.join(PRESETS)}")


# ---------------------------------------------------------------------------
# Dimension and effort estimates


def auto_numeric_dims(p: SystemParams, t_end: float) -> FockDims:
    """Default truncation of a job's oracle runs, each dim at least what its
    initial coherent state needs. The mirror covers the populated field
    levels, up to k_max = mu + 5 sqrt(mu), the Poisson tail the field dim
    also covers, but never fewer than min(20, field_dim - 1) nor more than
    field_dim - 1 (alpha = 5, g_ratio = 0.033: k_max = 50, dims (59, 28))."""
    mu = (abs(p.alpha) + oracle.drive_growth(p, t_end)) ** 2
    fd = recommend_field_dim(mu)
    k_max = min(max(math.ceil(mu + 5.0 * math.sqrt(mu)), 20), fd - 1)
    md = recommend_mirror_dim(abs(p.gamma), p.g_ratio, k_max)
    return FockDims(fd, md)


def _job_dims(cfg: RunConfig) -> FockDims:
    """The job's configured dims, else its auto dims."""
    return cfg.dims or auto_numeric_dims(cfg.params, cfg.t_end)


def _oracle_runs(cfg: RunConfig) -> list:
    """(mode, manifest prefix, sample times, dims, RK4 settings) of each
    oracle run a job makes; `run` executes them and `validate` counts them.

    driven-numeric samples the series grid, wigner the snapshot times, both
    at the job's dims and with the step recommended over their own span
    unless cfg.dt overrides it.
    """
    dims = _job_dims(cfg)
    sampled = {
        "driven-numeric": ("", np.linspace(0.0, cfg.t_end, cfg.n_samples)),
        "wigner": ("wigner_numeric_", np.asarray(wigner.default_snapshot_times(cfg.params))),
    }
    runs = []
    for mode in _ORACLE_MODES:
        if mode in cfg.modes:
            prefix, times = sampled[mode]
            icfg = oracle.recommend_integrator_config(
                cfg.params, float(times[-1]), dims, cfg.norm_tolerance
            )
            if cfg.dt is not None:
                icfg = replace(icfg, dt=cfg.dt)
            runs.append((mode, prefix, times, dims, icfg))
    return runs


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


class _Emitter:
    def __init__(self, out_dir: str, tag: str):
        self.out_dir = out_dir
        self.tag = tag
        self.files = []

    def series(self, s: ObservableSeries):
        name = _stem(s.label, s.provenance, self.tag) + ".csv"
        write_series(s, os.path.join(self.out_dir, name))
        self.files.append(name)


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
    return {
        name: ObservableSeries(betas.t, y, name, "analytic") for name, y in out.items()
    }


_FILTERABLE = ("photon_avg", "phonon_avg", "mandel_mirror", "linear_entropy_mirror")


def _run_job(job: _Job) -> tuple:
    """Execute one job; returns (files, manifest lines)."""
    cfg = job.config
    p = cfg.params
    man = []
    emit = _Emitter(cfg.output_dir, job.tag)

    def note(key, value):
        man.append(f"{key}={_fmt(value)}")

    note("tag", job.tag or "main")
    if job.preset:
        note("preset", job.preset)
    for key in _PARAM_KEYS:
        note(key, getattr(p, key))
    note("t_end", cfg.t_end)
    note("n_samples", cfg.n_samples)
    note("modes", ",".join(cfg.modes))
    note("filter", cfg.filter)

    t_grid = np.linspace(0.0, cfg.t_end, cfg.n_samples)

    analytic = {}
    numeric = {}
    filtered = {}

    if "undriven" in cfg.modes:
        # The drive-free closed form; next to driven series it doubles as the
        # nonforced reference curve, hence the distinct labels.
        phonon = undriven.phonon_avg_closed_form(p, t_grid)
        emit.series(ObservableSeries(t_grid, phonon, "phonon_avg_undriven", "analytic"))
        emit.series(
            ObservableSeries(
                t_grid,
                np.full(t_grid.size, abs(p.alpha) ** 2),
                "photon_avg_undriven",
                "analytic",
            )
        )

    betas = None
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
            emit.series(s)
        if job.emit_closed_form_photon:
            closed = driven.photon_avg_weak_closed_form(p, t_grid)
            emit.series(ObservableSeries(t_grid, closed, "photon_avg_closed", "analytic"))
        if job.emit_beta_variants:
            variants = (
                ("re_beta1_full", np.real(betas.b1)),
                ("re_beta1_rwa", np.real(driven.beta1_rwa(p, t_grid))),
                ("re_beta1_phi_to_one", np.real(driven.beta1_phi_to_one(p, t_grid))),
            )
            for label, y in variants:
                emit.series(ObservableSeries(t_grid, y, label, "analytic"))

    wigner_run = None
    for mode, prefix, times, dims, icfg in _oracle_runs(cfg):
        run = oracle.evolve_numeric(p, dims, icfg, times, keep_states=mode == "wigner")
        note(prefix + "field_dim", dims.field_dim)
        note(prefix + "mirror_dim", dims.mirror_dim)
        note(prefix + "dt", icfg.dt)
        note(prefix + "norm_tolerance", icfg.norm_tolerance)
        for key in ("n_steps", "step_max", "norm_drift", "leak_max"):
            note(prefix + key, getattr(run, key))
        if mode == "wigner":
            wigner_run = run
        else:
            numeric = oracle.observables_numeric(run)
            for s in numeric.values():
                emit.series(s)

    if cfg.filter:
        for name in _FILTERABLE:
            for route, route_name in ((analytic, "analytic"), (numeric, "numeric")):
                if name in route:
                    f = filter_fast(route[name], p.beat_period)
                    filtered[(name, route_name)] = f
                    emit.series(replace(f, label=f"{name}_{route_name}"))
        note("filter_window", p.beat_period)

    if "compare" in cfg.modes:
        for name in sorted(set(analytic) & set(numeric)):
            metrics = compare(analytic[name], numeric[name])
            for mkey, mval in metrics.items():
                note(f"compare_{name}_{mkey}", mval)
        for name in _FILTERABLE:
            fa = filtered.get((name, "analytic"))
            fn = filtered.get((name, "numeric"))
            if fa is not None and fn is not None:
                metrics = compare(fa, fn)
                for mkey, mval in metrics.items():
                    note(f"compare_filtered_{name}_{mkey}", mval)

    if wigner_run is not None:
        note("wigner_grid_points", cfg.wigner_grid_points)
        # The analytic source at the numeric run's dims and times.
        times = wigner_run.t
        betas_w = driven.integrate_betas(p, times)
        analytic_states = [
            driven.evolve_driven(p, float(t), betas_w.at(i), wigner_run.dims)
            for i, t in enumerate(times)
        ]
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
            emit.files += (stem + ".csv", stem + ".pgm")

    for name in emit.files:
        man.append(f"output={name}")
    return emit.files, man


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
    process's imports mapped, which a forked worker does not count (fig4:
    60.3 MB against 56.4 MB). Each item writes its own files and returns
    the result of fn. The first failing item in order raises its own
    error here, after every item has run.

    fn runs in-process when one CPU is usable, when there is one item, and
    while a map already runs here or in the process that forked this one:
    a wigner job grids in the process that runs the job.

    Forking skips re-importing the package and pickling the items, and is
    safe here because the process is single-threaded when it forks: no
    thread of its own is running, and OpenBLAS joins its worker threads in
    a pthread_atfork handler. tests/test_cli.py checks the thread count at
    every fork.
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
                raise RuntimeError(f"a worker process died with exit code {proc.exitcode}") from None
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
        dims = _job_dims(cfg)
        lines.append(f"job {job.tag or 'main'}: ok")
        for key in _PARAM_KEYS:
            lines.append(f"  {key}={_fmt(getattr(p, key))}")
        lines.append(f"  t_end={_fmt(cfg.t_end)} n_samples={cfg.n_samples}")
        lines.append(f"  modes={','.join(cfg.modes)} filter={_fmt(cfg.filter)}")
        lines.append(
            f"  recommended_field_dim={dims.field_dim}"
            f" recommended_mirror_dim={dims.mirror_dim}"
        )
        runs = _oracle_runs(cfg)
        # run integrates the betas over the series grid and the snapshot times
        beta_grids = [times for mode, _, times, _, _ in runs if mode == "wigner"]
        if "driven-analytic" in cfg.modes:
            beta_grids.append(np.linspace(0.0, cfg.t_end, cfg.n_samples))
        if beta_grids:
            panels = sum(int(driven.beta_panels(p, grid).sum()) for grid in beta_grids)
            lines.append(f"  driven-analytic: panels={panels}")
        total_steps = total_mb = 0
        for mode, _, times, _, icfg in runs:
            n_steps = oracle.step_count(float(times[-1]), icfg.dt)
            # The RK4 working vectors, plus the wigner run's kept states or
            # the driven-numeric run's per-sample P(k) and P(m).
            state_mb = (_WORK_VECTORS * dims.joint * 16 + len(times) * (
                dims.joint * 16 if mode == "wigner" else (dims.field_dim + dims.mirror_dim) * 8
            )) / 1e6
            lines.append(f"  {mode}: dt={_fmt(icfg.dt)} steps={n_steps} state_memory_mb={state_mb:.1f}")
            total_steps += n_steps
            total_mb += state_mb
        if runs:
            lines.append(f"  est_steps={total_steps} est_state_memory_mb={total_mb:.1f}")
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
        s.add_argument("--out", help="output directory")
        s.add_argument("--filter", action="store_true", help="also emit filtered series")
        s.add_argument("--dims", help="truncation as FIELD,MIRROR")
    return parser


def _flag_settings(args) -> dict:
    """The settings the given flags set; each replaces the config's."""
    settings = {}
    if args.out:
        settings["output_dir"] = args.out
    if args.filter:
        settings["filter"] = True
    if args.dims:
        try:
            fd, md = (int(x) for x in args.dims.split(","))
        except ValueError as exc:
            raise ConfigError(f"--dims expects FIELD,MIRROR integers, got {args.dims!r}") from exc
        try:
            settings["dims"] = FockDims(fd, md)
        except ValueError as exc:
            raise ConfigError(f"--dims {args.dims}: {exc}") from exc
    return settings


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.config is None and args.preset is None:
            raise ConfigError("the following arguments are required: --config (or --preset)")
        jobs = load_jobs(args.config, args.preset, _flag_settings(args))
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


if __name__ == "__main__":
    sys.exit(main())
