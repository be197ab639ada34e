"""Strong-coupling optomechanics: exact and approximate propagators with a
brute-force cross-check.

The package models a single cavity mode coupled to a mechanical oscillator
through radiation pressure, with an optional classical drive on the cavity.
`undriven` carries the exact product-of-exponentials solution, `driven` the
coherent-averaging approximation for the pumped system, `oracle` the
brute-force integration both are validated against, `wigner` phase-space
snapshots, `postproc` filtering/comparison utilities and `cli` the
figure-reproducing command line (`simulate`).
"""
from .driven import (
    BetaCoefficients,
    BetaSeries,
    beta1_phi_to_one,
    beta1_rwa,
    coherent_photon_moments,
    evolve_driven,
    integrate_betas,
    linear_entropy_mirror,
    mandel_field,
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
    ladder_ops,
    partial_trace_field,
    partial_trace_mirror,
    recommend_field_dim,
    recommend_mirror_dim,
    tensor,
)
from .oracle import (
    HamiltonianAssembly,
    IntegratorConfig,
    OracleRun,
    assemble_hamiltonian,
    evolve_numeric,
    observables_numeric,
    recommend_integrator_config,
)
from .postproc import ObservableSeries, compare, filter_fast, read_series, write_series
from .system import SystemParams
from .undriven import (
    AlphaCoefficients,
    alpha_coeffs,
    cooling_threshold,
    evolve_undriven,
    gamma_k,
    phonon_avg_closed_form,
)
from .wigner import (
    StateSource,
    WignerGrid,
    WignerSnapshot,
    snapshot_set,
    wigner_continuous,
    wigner_discrete,
)

__all__ = [
    "AlphaCoefficients",
    "BetaCoefficients",
    "BetaSeries",
    "ConfigError",
    "DensityMatrix",
    "FockDims",
    "HamiltonianAssembly",
    "IntegratorConfig",
    "IntegrationError",
    "JointState",
    "ObservableSeries",
    "OracleRun",
    "StateSource",
    "SystemParams",
    "TruncationError",
    "WignerGrid",
    "WignerSnapshot",
    "alpha_coeffs",
    "assemble_hamiltonian",
    "beta1_phi_to_one",
    "beta1_rwa",
    "coherent_photon_moments",
    "coherent_state",
    "compare",
    "cooling_threshold",
    "evolve_driven",
    "evolve_numeric",
    "evolve_undriven",
    "filter_fast",
    "gamma_k",
    "integrate_betas",
    "ladder_ops",
    "linear_entropy_mirror",
    "mandel_field",
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
    "read_series",
    "recommend_field_dim",
    "recommend_integrator_config",
    "recommend_mirror_dim",
    "snapshot_set",
    "tensor",
    "wigner_continuous",
    "wigner_discrete",
    "write_series",
]

__version__ = "0.1.0"
