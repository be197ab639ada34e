"""Config keys, their parsing and the presets: a config file or a preset
name in, the resolved and checked jobs out.

A config file holds one `key = value` per line; `#` starts a comment.
Times are in seconds and frequencies in rad/s. The keys (`KEYS`), each with
its kind, its default (the `SystemParams` or `RunConfig` field's), `preset`
if it is honored next to a preset and `ratio` if it takes the ratio syntax:

    omega_c             float    required
    omega_m             float    required  ratio
    omega_p             float    0.0       ratio
    drive_amp           float    0.0       ratio
    g_ratio             float    0.0
    alpha               complex  0j
    gamma               complex  0j
    t_end               float    required
    n_samples           int      required
    modes               tuple    required
    preset              str      none      preset
    filter              bool     false     preset
    output_dir          str      .         preset
    field_dim           int      auto      preset
    mirror_dim          int      auto      preset
    dt                  float    auto      preset
    norm_tolerance      float    1e-06     preset
    wigner_grid_points  int      161       preset

A complex is any Python complex literal, a bool one of true/yes/1 or
false/no/0 in any case, and `modes` a comma list of `MODES` (see `cli`). A ratio
key may be written `x*omega_c`, x times the config's omega_c; any other
float key given that syntax is an error. field_dim and mirror_dim are
given together; without them a job that makes an oracle run takes
`auto_dims`, and one whose auto dims exceed `fock.MAX_JOINT_DIM` is a
config error. dt, unset, is the RK4 step recommended over each oracle run.

A preset replaces the physics keys wholesale: next to `preset` a config may
set only the keys marked preset, and `--preset NAME` without a config runs
the preset as it stands. These settings, with `--out` replacing
output_dir, apply to every job of the preset: dims as set, else the job's
own; filter if the job or the setting asks; the rest as set.

`filter` needs omega_p != omega_c and, in a job with driven-analytic or
driven-numeric, a beat period 2 pi / |omega_p - omega_c| at least twice the
median spacing of the series grid, about t_end / (n_samples - 1)
(`postproc.require_window`).

Every config error (`ConfigError`, exit 1) is raised while the jobs are
built, so before `validate` prints a job and before `run` creates
output_dir or forks; only an output_dir that cannot be created is found by
`run` itself, before it forks.

fig7_8's `*_red` files are what the former presets for the paper's Figs. 9
and 10 wrote: each re-ran fig7_8's red job. Presets of their own for those
figures wait for the figures' text, since the abstract does not say what
they plot.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import oracle
from .errors import ConfigError
from .fock import FockDims, recommend_field_dim, recommend_mirror_dim
from .postproc import require_window
from .system import SystemParams
from .wigner import default_snapshot_times

MODES = ("undriven", "driven-analytic", "driven-numeric", "wigner", "compare")
# The modes that make an oracle run, in the order a job makes them: mode ->
# (manifest prefix, the run's sample times, whether it keeps its states).
ORACLE_RUNS = {
    "driven-numeric": ("", lambda cfg: cfg.t_grid, False),
    "wigner": ("wigner_numeric_", lambda cfg: np.asarray(default_snapshot_times(cfg.params)),
               True),
}
PRESETS = ("fig2", "fig3", "fig4", "fig5_6", "fig7_8", "wigner_snapshots")


def auto_dims(p: SystemParams, t_end: float) -> tuple:
    """(field_dim, mirror_dim), the default truncation of a job's oracle
    runs, each at least what its initial coherent state needs. The mirror
    covers the populated field levels, up to k_max = mu + 5 sqrt(mu), the
    Poisson tail the field dim also covers, but never fewer than
    min(20, field_dim - 1) nor more than field_dim - 1 (alpha = 5,
    g_ratio = 0.033: k_max = 50, dims (59, 28))."""
    mu = (abs(p.alpha) + oracle.drive_growth(p, t_end)) ** 2
    fd = recommend_field_dim(mu)
    k_max = min(max(math.ceil(mu + 5.0 * math.sqrt(mu)), 20), fd - 1)
    return fd, recommend_mirror_dim(abs(p.gamma), p.g_ratio, k_max)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved and checked description of one job.

    dims is the configured truncation, else, in a job that makes an oracle
    run, its `auto_dims`; a job without one keeps None.
    """

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
        if "compare" in self.modes and not {"driven-analytic", "driven-numeric"} <= set(self.modes):
            raise ConfigError("mode 'compare' needs both 'driven-analytic' and 'driven-numeric'")
        if self.dt is not None and not (self.dt > 0):
            raise ConfigError("dt must be positive")
        oracle_job = any(mode in self.modes for mode in ORACLE_RUNS)
        if self.dt is not None and oracle_job:
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
                    require_window(self.t_grid, window)
                except ValueError as exc:
                    raise ConfigError(f"filter: {exc}") from exc
        if self.dims is None and oracle_job:
            fd, md = auto_dims(self.params, self.t_end)
            try:
                object.__setattr__(self, "dims", FockDims(fd, md))
            except ValueError as exc:
                raise ConfigError(f"auto dims {fd},{md}: {exc}") from exc

    @cached_property
    def t_grid(self) -> np.ndarray:
        """The series grid: n_samples times from 0 to t_end."""
        return np.linspace(0.0, self.t_end, self.n_samples)

    @cached_property
    def oracle_runs(self) -> tuple:
        """(mode, manifest prefix, sample times, RK4 settings, keep_states)
        of each oracle run of the job, in `ORACLE_RUNS` order: at the job's
        dims, with the step recommended over the run's own span unless dt
        is set. `run` executes them and `validate` counts them."""
        runs = []
        for mode, (prefix, sample_times, keep_states) in ORACLE_RUNS.items():
            if mode in self.modes:
                times = sample_times(self)
                if self.dt is not None:
                    icfg = oracle.IntegratorConfig(self.dt, self.norm_tolerance)
                else:
                    icfg = oracle.recommend_integrator_config(
                        self.params, float(times[-1]), self.dims, self.norm_tolerance)
                runs.append((mode, prefix, times, icfg, keep_states))
        return tuple(runs)


@dataclass(frozen=True)
class Job:
    """One executable unit: a resolved RunConfig, the preset it belongs to
    (for the manifest) and emission details."""

    config: RunConfig
    tag: str = ""
    preset: str | None = None
    emit_beta_variants: bool = False
    emit_closed_form_photon: bool = False


# ---------------------------------------------------------------------------
# Keys


@dataclass(frozen=True)
class Key:
    """How a config key parses and where it applies."""

    kind: type
    default: object  # MISSING: required without a preset
    with_preset: bool
    ratio: bool


def _key_table(*rows) -> dict:
    defaults = {f.name: f.default for cls in (SystemParams, RunConfig) for f in fields(cls)}
    return {name: Key(kind, defaults.get(name), with_preset, ratio)
            for name, kind, with_preset, ratio in rows}


# name, kind, honored next to a preset, accepts `x*omega_c`; in the order
# they parse, omega_c before the ratios to it. The defaults are those of
# the dataclass fields of the same name, None for the rest.
KEYS = _key_table(
    ("omega_c", float, False, False),
    ("omega_m", float, False, True),
    ("omega_p", float, False, True),
    ("drive_amp", float, False, True),
    ("g_ratio", float, False, False),
    ("alpha", complex, False, False),
    ("gamma", complex, False, False),
    ("t_end", float, False, False),
    ("n_samples", int, False, False),
    ("modes", tuple, False, False),
    ("preset", str, True, False),
    ("filter", bool, True, False),
    ("output_dir", str, True, False),
    ("field_dim", int, True, False),
    ("mirror_dim", int, True, False),
    ("dt", float, True, False),
    ("norm_tolerance", float, True, False),
    ("wigner_grid_points", int, True, False),
)


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
    str: (str, "text"),
    tuple: (lambda raw: tuple(m.strip() for m in raw.split(",") if m.strip()), "a list"),
}


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
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {entries[key][1]})"
            )
        entries[key] = (value, lineno)
    return entries


def _parsed(kv: dict, key: str, omega_c) -> object:
    """kv[key] parsed as its kind; a ratio key's `x*omega_c` scaled by omega_c."""
    raw, lineno = kv[key]
    kind = KEYS[key].kind
    scale = 1.0
    if kind is float and raw.endswith("*omega_c"):
        if not KEYS[key].ratio:
            raise ConfigError(
                f"line {lineno}: {key}: ratio syntax needs omega_c set to an absolute value"
            )
        raw, scale = raw[: -len("*omega_c")].strip(), omega_c
    parse, what = _PARSERS[kind]
    try:
        value = parse(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key}: not {what}: {raw!r}") from None
    return value * scale if kind is float else value


def build_jobs(kv: dict, preset: str | None = None, overrides: dict | None = None) -> tuple:
    """The resolved, checked jobs of parsed key/value entries; `preset`
    replaces the config's own and `overrides` (RunConfig fields) its
    settings. All diagnostics cite lines."""
    preset = preset or (kv["preset"][0] if "preset" in kv else None)
    if preset is not None:
        stray = sorted(k for k in kv if not KEYS[k].with_preset)
        if stray:
            raise ConfigError(
                f"keys {stray} conflict with preset {preset!r}; a preset fixes the physics"
            )
    else:
        required = [k for k, key in KEYS.items() if key.default is MISSING]
        missing = [k for k in required if k not in kv]
        if missing:
            raise ConfigError(
                "missing required keys: " + ", ".join(missing)
                + " (required: " + ", ".join(required) + ")"
            )
    values = {}
    for key in KEYS:
        if key in kv:
            values[key] = _parsed(kv, key, values.get("omega_c"))
    if ("field_dim" in values) != ("mirror_dim" in values):
        raise ConfigError("field_dim and mirror_dim must be given together")
    if "field_dim" in values:
        try:
            values["dims"] = FockDims(values["field_dim"], values["mirror_dim"])
        except ValueError as exc:
            lines = f"lines {kv['field_dim'][1]} and {kv['mirror_dim'][1]}"
            raise ConfigError(f"{lines}: field_dim, mirror_dim: {exc}") from exc
    settings = {f.name: values[f.name] for f in fields(RunConfig) if f.name in values}
    settings.update(overrides or {})
    if preset is not None:
        return preset_jobs(preset, settings)
    try:
        params = SystemParams(
            **{f.name: values[f.name] for f in fields(SystemParams) if f.name in values})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return (Job(RunConfig(params, **settings)),)


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

_WEAK_OMEGA_C = 1.0e9
_OMEGA_M_RATIO = 0.01
_DRIVE_RATIO = math.pi / 20.0
_RED, _BLUE = 0.8, 1.2
_BEAT_PERIOD = 2.0 * math.pi / (abs(_RED - 1.0) * _WEAK_OMEGA_C)
_WEAK_DIMS = FockDims(30, 35)
_STRONG_DIMS = FockDims(30, 308)


def _weak(ratio: float) -> SystemParams:
    return SystemParams(omega_c=_WEAK_OMEGA_C, omega_m=_OMEGA_M_RATIO * _WEAK_OMEGA_C,
                        omega_p=ratio * _WEAK_OMEGA_C, drive_amp=_DRIVE_RATIO * _WEAK_OMEGA_C,
                        g_ratio=0.033, alpha=2.0 + 0.0j, gamma=2.0 + 0.0j)


def _strong(ratio: float) -> SystemParams:
    return replace(_weak(ratio), g_ratio=0.33)


def preset_jobs(name: str, settings: dict | None = None) -> tuple:
    """A preset's jobs under the RunConfig settings a config and `--out`
    set: the settings' dims if given, else the job's own; filter if the job
    or the settings ask; every other setting as set."""
    settings = settings or {}

    def job(tag, params, t_end, n_samples, modes, dims=None, filter=False, **emit):
        own = {"dims": dims, **settings, "filter": filter or settings.get("filter", False)}
        return Job(RunConfig(params, t_end, n_samples, modes, **own), tag, name, **emit)

    driven_modes = ("driven-analytic", "driven-numeric", "compare")
    detunings = (("red", _RED), ("blue", _BLUE))
    t_m = _weak(_RED).mech_period  # of every preset but fig2
    if name == "fig2":
        # Undriven mirror dynamics for a sweep of field intensities around
        # the cooling/heating thresholds of |alpha|^2.
        base = SystemParams(omega_c=1.0e8, omega_m=1.0e7, g_ratio=0.033, gamma=2.0 + 0.0j)
        alphas = (("alpha_sq_0", 0.0), ("alpha_sq_4", 2.0), ("alpha_sq_29p8", math.sqrt(29.8)),
                  ("alpha_sq_59p6", math.sqrt(59.6)), ("alpha_sq_64", 8.0))
        return tuple(
            job(tag, replace(base, alpha=complex(a)), base.mech_period, 201, ("undriven",))
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
            job(tag, _weak(r), t_m, 2001, driven_modes, _WEAK_DIMS, filter=True)
            for tag, r in detunings
        ) + (job("nonforced", nonforced, t_m, 2001, ("undriven",)),)
    if name == "fig7_8":
        return tuple(
            job(tag, _strong(r), 5.5 * t_m, 1101, driven_modes, _STRONG_DIMS, filter=True)
            for tag, r in detunings
        )
    if name == "wigner_snapshots":
        return (job("red", _strong(_RED), t_m, 3, ("wigner",), _STRONG_DIMS),)
    raise ConfigError(f"unknown preset {name!r}; valid: {', '.join(PRESETS)}")
