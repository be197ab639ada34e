"""Strong-coupling optomechanics: exact and approximate propagators with a
brute-force cross-check.

The package models a single cavity mode coupled to a mechanical oscillator
through radiation pressure, with an optional classical drive on the cavity.
`undriven` carries the exact product-of-exponentials solution and its two
time-dependent exponents (`exponents`), `driven` the coherent-averaging
approximation for the pumped system, built on the same exponents, whose
state at zero betas (`BetaCoefficients.zero`) is the exact undriven one,
`oracle` the brute-force integration both are validated against, `wigner`
phase-space snapshots, `postproc` filtering/comparison utilities, `config`
the config keys and presets, and `cli` the figure-reproducing command line
(`simulate`).
"""
from .driven import (
    BetaCoefficients,
    BetaSeries,
    beta1_phi_to_one,
    beta1_rwa,
    evolve_driven,
    integrate_betas,
    linear_entropy_mirror,
    mandel_mirror,
    phi,
    phonon_avg,
    phonon_second_moment,
    photon_avg,
    photon_avg_weak_closed_form,
)
from .errors import ConfigError, IntegrationError, TruncationError
from .fock import (
    DensityMatrix,
    FockDims,
    JointState,
    coherent_state,
    partial_trace_field,
    partial_trace_mirror,
    recommend_field_dim,
    recommend_mirror_dim,
)
from .oracle import (
    IntegratorConfig,
    OracleRun,
    evolve_numeric,
    observables_numeric,
    recommend_integrator_config,
)
from .postproc import ObservableSeries, compare, filter_fast, write_series
from .system import SystemParams
from .undriven import (
    cooling_threshold,
    exponents,
    gamma_k,
    phonon_avg_closed_form,
)
from .wigner import WignerGrid, snapshot_set, wigner_continuous

__all__ = [
    "BetaCoefficients",
    "BetaSeries",
    "ConfigError",
    "DensityMatrix",
    "FockDims",
    "IntegratorConfig",
    "IntegrationError",
    "JointState",
    "ObservableSeries",
    "OracleRun",
    "SystemParams",
    "TruncationError",
    "WignerGrid",
    "beta1_phi_to_one",
    "beta1_rwa",
    "coherent_state",
    "compare",
    "cooling_threshold",
    "evolve_driven",
    "evolve_numeric",
    "exponents",
    "filter_fast",
    "gamma_k",
    "integrate_betas",
    "linear_entropy_mirror",
    "mandel_mirror",
    "observables_numeric",
    "partial_trace_field",
    "partial_trace_mirror",
    "phi",
    "phonon_avg",
    "phonon_avg_closed_form",
    "phonon_second_moment",
    "photon_avg",
    "photon_avg_weak_closed_form",
    "recommend_field_dim",
    "recommend_integrator_config",
    "recommend_mirror_dim",
    "snapshot_set",
    "wigner_continuous",
    "write_series",
]

__version__ = "0.1.0"
