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

BLAS runs on the calling thread: importing the package sets
OPENBLAS_NUM_THREADS=1 unless the user set it. numpy's OpenBLAS reads it
once, when it loads, so this holds wherever `optomech` is imported before
numpy, as in `simulate` and `python -m optomech.cli`.
"""
import os

# The CLI runs one process per CPU; a BLAS thread would compete with them.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
