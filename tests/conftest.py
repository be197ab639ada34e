"""Shared fixtures.

The session-scoped bundles below back the acceptance tests; each one runs a
complete physics pipeline (beta integration, oracle evolution, observables)
for one preset family and is computed once per session, on first use. Unit
test modules use only the cheap parameter helpers and the dense ladder
operators that reference constructions are built from.
"""
import dataclasses
import math
import time
from types import SimpleNamespace
from typing import NamedTuple

import optomech  # noqa: F401  before numpy, so that the tests run under its BLAS policy
import numpy as np
import pytest

from optomech.config import preset_jobs
from optomech.driven import (
    integrate_betas,
    linear_entropy_mirror,
    mandel_mirror,
    phonon_avg,
    photon_avg,
    photon_avg_weak_closed_form,
)
from optomech.oracle import evolve_numeric, observables_numeric
from optomech.postproc import ObservableSeries
from optomech.system import SystemParams


def thread_count() -> int:
    """Threads of this process, from field 20 of /proc/self/stat (Linux)."""
    with open("/proc/self/stat") as f:
        return int(f.read().rpartition(")")[2].split()[17])


class LadderOps(NamedTuple):
    lower: np.ndarray
    raise_: np.ndarray
    number: np.ndarray


def ladder_ops(dim: int) -> LadderOps:
    """Dense truncated lowering, raising and number operators on a dim-level space.

    On the truncated space raise_ @ lower equals the number operator exactly,
    while the commutator [lower, raise_] deviates from identity in the top
    level only (a -dim term at (dim-1, dim-1)).
    """
    lower = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(np.complex128)
    return LadderOps(lower, lower.T.copy(), np.diag(np.arange(dim, dtype=np.complex128)))


def tensor(op_field, op_mirror) -> np.ndarray:
    """Kronecker product in the package's field-major joint index k * mirror_dim + m."""
    return np.kron(op_field, op_mirror)


def weak_system(omega_p_ratio: float = 0.8) -> SystemParams:
    omega_c = 1e9
    return SystemParams(
        omega_c=omega_c,
        omega_m=0.01 * omega_c,
        omega_p=omega_p_ratio * omega_c,
        drive_amp=(math.pi / 20.0) * omega_c,
        g_ratio=0.033,
        alpha=2.0,
        gamma=2.0,
    )


def strong_system(omega_p_ratio: float = 0.8) -> SystemParams:
    return dataclasses.replace(weak_system(omega_p_ratio), g_ratio=0.33)


def tiny_system(**overrides) -> SystemParams:
    """Low-frequency params so oracle runs finish in milliseconds."""
    kw = dict(omega_c=1e7, omega_m=1e6, omega_p=0.8e7,
              drive_amp=0.05e7, g_ratio=0.05, alpha=1.0, gamma=1.0)
    kw.update(overrides)
    return SystemParams(**kw)


def _driven_bundle(job):
    """Run the analytic and numeric routes for one preset job."""
    cfg = job.config
    p = cfg.params
    t_grid = np.linspace(0.0, cfg.t_end, cfg.n_samples)
    betas = integrate_betas(p, t_grid)
    t0 = time.perf_counter()
    run = evolve_numeric(p, cfg.dims, t_grid=t_grid)
    elapsed = time.perf_counter() - t0
    obs = observables_numeric(run)
    return SimpleNamespace(
        params=p,
        config=cfg,
        t=t_grid,
        betas=betas,
        run=run,
        obs=obs,
        elapsed_numeric=elapsed,
        an_photon=ObservableSeries(t_grid, photon_avg(p, betas),
                                   "photon_avg", "analytic"),
        an_phonon=ObservableSeries(t_grid, phonon_avg(p, betas),
                                   "phonon_avg", "analytic"),
    )


@pytest.fixture(scope="session")
def weak4_bundle():
    """Fig-4-preset red and blue runs over four beat periods."""
    jobs = [j for j in preset_jobs("fig4") if j.config.modes != ("undriven",)]
    out = {}
    for job in jobs:
        b = _driven_bundle(job)
        b.closed_form = ObservableSeries(
            b.t, photon_avg_weak_closed_form(b.params, b.t),
            "photon_avg_closed", "analytic")
        key = "red" if b.params.omega_p < b.params.omega_c else "blue"
        out[key] = b
    assert set(out) == {"red", "blue"}
    return out


@pytest.fixture(scope="session")
def weak_period_bundle():
    """Fig-5/6-preset red run over one mechanical period."""
    jobs = [j for j in preset_jobs("fig5_6")
            if j.config.params is not None and j.config.params.drive_amp > 0
            and j.config.params.omega_p < j.config.params.omega_c]
    assert len(jobs) == 1
    return _driven_bundle(jobs[0])


@pytest.fixture(scope="session")
def strong_bundle():
    """The long strong-coupling red-detuned run shared by several criteria."""
    jobs = [j for j in preset_jobs("fig7_8")
            if j.config.params.omega_p < j.config.params.omega_c]
    assert len(jobs) == 1
    b = _driven_bundle(jobs[0])
    p = b.params
    b.an_mandel_mirror = ObservableSeries(
        b.t, mandel_mirror(p, b.betas), "mandel_mirror", "analytic")
    b.an_entropy = ObservableSeries(
        b.t, linear_entropy_mirror(p, b.betas),
        "linear_entropy_mirror", "analytic")
    return b
