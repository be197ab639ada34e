"""Run the `simulate` CLI with a span around every call into a package layer.

Usage: python3 perfbench/traced_cli.py SPANS_JSON run --config FILE --out DIR

`src` must be on PYTHONPATH. Wrappers are installed at the names callers
actually look up: `cli` imports write_series, filter_fast and compare by name,
and `wigner` imports the partial traces by name while reaching the oracle
and the beta integration through their modules. Each span records its
parent, so self time is its duration minus that of its children. Spans stay
in memory and are written to SPANS_JSON when the CLI returns; the exit code
is the CLI's own.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time


def _oracle_counts(args, kwargs, run):
    return {
        "n_steps": run.n_steps,
        "joint": run.dims.joint,
        "dims": [run.dims.field_dim, run.dims.mirror_dim],
        "n_states": len(run.states),
        "driven": run.params.drive_amp != 0.0,
        "norm_drift": run.norm_drift,
        "leak_max": run.leak_max,
    }


def _beta_counts(args, kwargs, betas):
    return {
        "antisymmetry_defect": betas.antisymmetry_defect,
        "unitarity_defect": betas.unitarity_defect,
    }


def _wigner_counts(args, kwargs, grid):
    rho = args[0] if args else kwargs["rho"]
    return {
        "rho_dim": rho.dim,
        "grid_points": grid.values.size,
        "mass_dev": abs(grid.total_mass() - 1.0),
    }


def _written_bytes(args, kwargs, _result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


# (module, attribute looked up by callers, span name, counts from the call)
WRAPPED = (
    ("cli", "run", "cli.run", None),
    ("cli", "write_series", "postproc.write_series", _written_bytes),
    ("cli", "filter_fast", "postproc.filter_fast", None),
    ("cli", "compare", "postproc.compare", None),
    ("oracle", "evolve_numeric", "oracle.evolve_numeric", _oracle_counts),
    ("oracle", "observables_numeric", "oracle.observables_numeric", None),
    ("driven", "integrate_betas", "driven.integrate_betas", _beta_counts),
    ("driven", "linear_entropy_mirror", "driven.linear_entropy_mirror", None),
    ("driven", "evolve_driven", "driven.evolve_driven", None),
    ("undriven", "phonon_avg_closed_form", "undriven.phonon_avg_closed_form", None),
    ("wigner", "partial_trace_field", "fock.partial_trace_field", None),
    ("wigner", "partial_trace_mirror", "fock.partial_trace_mirror", None),
    ("wigner", "snapshot_set", "wigner.snapshot_set", None),
    ("wigner", "wigner_continuous", "wigner.wigner_continuous", _wigner_counts),
    ("wigner", "write_grid_csv", "wigner.write_grid_csv", _written_bytes),
    ("wigner", "write_grid_pgm", "wigner.write_grid_pgm", _written_bytes),
)


class Tracer:
    """In-memory span recorder; one span per wrapped call, with its parent id."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        setattr(owner, attr, traced)


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 1
    spans_path, cli_argv = argv[0], argv[1:]
    start = time.perf_counter()
    from optomech import cli, driven, oracle, undriven, wigner

    import_s = time.perf_counter() - start
    modules = {"cli": cli, "driven": driven, "oracle": oracle,
               "undriven": undriven, "wigner": wigner}
    tracer = Tracer()
    for module, attr, name, counts in WRAPPED:
        tracer.wrap(modules[module], attr, name, counts)
    code = cli.main(cli_argv)
    with open(spans_path, "w") as f:
        json.dump({"import_s": import_s, "exit_code": code, "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
