"""Output checks for one `simulate run`: manifest invariants, Wigner PGM/CSV
consistency, and a compact fingerprint compared against a committed reference.

The fingerprint keeps every emitted series as a float array and, for each
Wigner grid, its axes, shape, mass/min/max and a coarse subsample, so the
full grid CSVs (about 19 MB per run) never need committing.
"""
from __future__ import annotations

import os

import numpy as np

# Tolerances come from the package's own accuracy contracts:
# - RTOL is ten times the oracle's default norm tolerance (1e-6), the
#   accuracy the brute-force route promises. Changes at the 1e-6 to 1e-9
#   level (a different integration frame or beta quadrature) pass; a change
#   of physics moves the series by 1e-3 or more and fails. Dimensionless
#   values are compared against max(1, max |reference|) so that bounded
#   quantities near zero (linear entropy, W) get an absolute floor; time and
#   phase-space coordinates are compared relative to their own size.
# - integrate_betas is held to antisymmetry and unitarity defects below 1e-9.
# - snapshot grids are held to |mass - 1| <= 2e-2.
RTOL = 1e-5
BETA_DEFECT_MAX = 1e-9
WIGNER_MASS_TOL = 2e-2
GRID_STRIDE = 10
_COORD_PARTS = ("t_span", "q", "p")


def read_manifest(out_dir: str) -> dict:
    """{job tag: {key: raw value}} from manifest.txt; output= lines skipped."""
    jobs = {}
    entries = None
    with open(os.path.join(out_dir, "manifest.txt")) as f:
        for line in f:
            line = line.strip()
            if line.startswith("[job ") and line.endswith("]"):
                entries = jobs.setdefault(line[5:-1], {})
            elif entries is not None and "=" in line:
                key, _, value = line.partition("=")
                if key != "output":
                    entries[key] = value
    return jobs


def _grid_values(path: str):
    q, p, w = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True, ndmin=2)
    q_axis, p_axis = np.unique(q), np.unique(p)
    return q_axis, p_axis, w.reshape(q_axis.size, p_axis.size)


def summarize(out_dir: str) -> dict:
    """Fingerprint of a run's outputs as {key: ndarray}, keys `<file>:<part>`."""
    files = sorted(os.listdir(out_dir))
    summary = {"files": np.array(files)}
    for name in files:
        if not name.endswith(".csv"):
            continue
        path = os.path.join(out_dir, name)
        if name.startswith("wigner_"):
            q_axis, p_axis, values = _grid_values(path)
            cell = float(np.median(np.diff(q_axis)) * np.median(np.diff(p_axis)))
            summary[f"{name}:shape"] = np.array(values.shape)
            summary[f"{name}:q"] = q_axis[[0, -1]]
            summary[f"{name}:p"] = p_axis[[0, -1]]
            summary[f"{name}:stats"] = np.array(
                [values.sum() * cell, values.min(), values.max()]
            )
            summary[f"{name}:sub"] = values[::GRID_STRIDE, ::GRID_STRIDE]
        else:
            with open(path) as f:
                summary[f"{name}:header"] = np.array(f.readline().strip())
            t, y = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True, ndmin=2)
            summary[f"{name}:t_span"] = t[[0, -1]]
            summary[f"{name}:y"] = y
    return summary


def compare_summaries(got: dict, ref: dict) -> list:
    """Problems found comparing a fingerprint with the reference; [] on a match."""
    problems = []
    files, ref_files = set(got["files"].tolist()), set(ref["files"].tolist())
    if files != ref_files:
        problems.append(
            f"output files differ: missing {sorted(ref_files - files)}, "
            f"unexpected {sorted(files - ref_files)}"
        )
    for key in sorted(ref):
        if key == "files":
            continue
        if key not in got:
            problems.append(f"{key}: missing")
            continue
        have, want = got[key], ref[key]
        if have.shape != want.shape or have.dtype.kind != want.dtype.kind:
            problems.append(f"{key}: {have.dtype}{list(have.shape)} differs from "
                            f"reference {want.dtype}{list(want.shape)}")
        elif want.dtype.kind in "Uiu":
            if not np.array_equal(have, want):
                problems.append(f"{key}: {have} differs from reference {want}")
        else:
            err = np.abs(have - want)
            if key.rpartition(":")[2] in _COORD_PARTS:
                tol = RTOL * np.abs(want)
            else:
                tol = RTOL * max(1.0, float(np.max(np.abs(want))))
            if not np.all(err <= tol):
                problems.append(
                    f"{key}: deviates by {float(np.max(err)):.3g} "
                    f"(tolerance {float(np.max(tol)):.3g})"
                )
    return problems


def _check_pgm(out_dir: str, stem: str) -> list:
    """The PGM must be the 0..255 rescale of the CSV grid it sits next to."""
    _, _, values = _grid_values(os.path.join(out_dir, stem + ".csv"))
    with open(os.path.join(out_dir, stem + ".pgm")) as f:
        lines = [line for line in f.read().splitlines() if not line.startswith("#")]
    if lines[0] != "P2" or lines[1].split() != [str(values.shape[1]), str(values.shape[0])]:
        return [f"{stem}.pgm: header {lines[:2]} does not match grid {values.shape}"]
    gray = np.array([row.split() for row in lines[3:]], dtype=int)
    lo, hi = values.min(), values.max()
    expect = np.rint((values - lo) / (hi - lo if hi > lo else 1.0) * 255)
    if gray.shape != values.shape or np.max(np.abs(gray - expect)) > 1:
        return [f"{stem}.pgm: gray levels do not match the CSV grid"]
    return []


def check_invariants(out_dir: str) -> list:
    """Manifest invariants of the package plus PGM/CSV consistency."""
    problems = []
    for tag, entries in read_manifest(out_dir).items():
        if "norm_drift" in entries:
            drift = float(entries["norm_drift"])
            limit = float(entries["norm_tolerance"])
            if not drift <= limit:
                problems.append(f"job {tag}: norm_drift {drift:g} > {limit:g}")
        for key in ("antisymmetry_defect", "unitarity_defect"):
            if key in entries and not float(entries[key]) <= BETA_DEFECT_MAX:
                problems.append(f"job {tag}: {key} {entries[key]} > {BETA_DEFECT_MAX:g}")
        for key, value in entries.items():
            if key.endswith("_mass") and not abs(float(value) - 1.0) <= WIGNER_MASS_TOL:
                problems.append(f"job {tag}: {key} = {value} is not 1 within {WIGNER_MASS_TOL:g}")
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("wigner_") and name.endswith(".pgm"):
            problems.extend(_check_pgm(out_dir, name[: -len(".pgm")]))
    return problems


def load_reference(path: str) -> dict:
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def check_outputs(out_dir: str, reference: dict) -> list:
    """Every problem with a finished run's outputs; [] when all checks pass."""
    try:
        return check_invariants(out_dir) + compare_summaries(summarize(out_dir), reference)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable outputs: {type(exc).__name__}: {exc}"]
