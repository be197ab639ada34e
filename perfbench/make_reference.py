"""Regenerate perfbench/reference/<workload>.npz from the checkout's program.

Usage, from the root of a checkout: python3 perfbench/make_reference.py [WORKLOAD ...]

Runs `simulate run` once per workload (all by default), checks the manifest
invariants, and stores the compact fingerprint of its outputs that every
benchmark run is compared against. Regenerate only for a deliberate change
of the program's results, and say so where the change is recorded.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import outputs
import run


def make_reference(workload: str) -> None:
    config = os.path.join(run.BENCH_DIR, "workloads", workload + ".cfg")
    base = os.path.join(run.ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=base, prefix="reference_")
    try:
        env = dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src"))
        subprocess.run([sys.executable, "-m", "optomech.cli", "run", "--config", config,
                        "--out", out_dir], env=env, check=True, stdout=subprocess.DEVNULL)
        problems = outputs.check_invariants(out_dir)
        if problems:
            raise SystemExit(f"{workload}: " + "; ".join(problems))
        path = os.path.join(run.BENCH_DIR, "reference", workload + ".npz")
        np.savez_compressed(path, **outputs.summarize(out_dir))
        print(f"wrote {path}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    for name in sys.argv[1:] or run.WORKLOADS:
        make_reference(name)
