"""The package's BLAS thread policy, seen from a fresh interpreter.

Whether the policy acts in a test process depends on what loaded numpy
first and on the environment pytest inherited, so the child starts with no
thread variable set, imports `optomech` first, as the `simulate` script
does, and then runs every product that is big enough for a multithreaded
OpenBLAS to wake a thread. Other children check the warning the package
gives when it is imported after numpy with no thread variable set.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import optomech

CHILD = """
import os

import optomech
import numpy as np

from optomech.fock import DensityMatrix, FockDims, JointState, partial_trace_field, partial_trace_mirror
from optomech.oracle import DisplacedFrame, IntegratorConfig, evolve_numeric, max_stable_dt, reduce_block
from optomech.system import SystemParams
from optomech.wigner import snapshot_grid

rng = np.random.default_rng(5)


def unit_rows(n, size):
    rows = rng.standard_normal((n, size)) + 1j * rng.standard_normal((n, size))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


strong, square = FockDims(30, 308), FockDims(32, 64)
block = unit_rows(3, strong.joint)
reduce_block(block[:1], strong)
reduce_block(block, strong)
reduce_block(unit_rows(3, square.joint), square)
p = SystemParams(omega_c=1e7, omega_m=1e6, omega_p=0.8e7, drive_amp=0.05e7,
                 g_ratio=0.05, alpha=1.0, gamma=1.0)
DisplacedFrame(p, strong).to_lab(1e-9, block[0], 2.0 - 1.0j)
cfg = IntegratorConfig(dt=max_stable_dt(p))
evolve_numeric(p, FockDims(16, 64), np.linspace(0.0, cfg.dt, 17), cfg)  # 16 samples, one step
state = JointState(strong, block[0])
partial_trace_field(state)
partial_trace_mirror(state)
weights = rng.dirichlet(np.ones(3))
vecs = unit_rows(3, 301)
snapshot_grid(DensityMatrix(np.einsum("k,ki,kj->ij", weights, vecs, vecs.conj())), n_grid=161)
with open("/proc/self/stat") as f:
    threads = int(f.read().rpartition(")")[2].split()[17])
print(threads, os.environ.get("OPENBLAS_NUM_THREADS", "unset"))
"""

# Each of these sets OpenBLAS's thread count when OPENBLAS_NUM_THREADS is unset.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_python(code, **variables) -> subprocess.CompletedProcess:
    """code run in a fresh interpreter that sees only the thread variables given."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    src = str(Path(optomech.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.update(variables)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)


def run_child(**variables) -> tuple:
    """(threads at the end, OPENBLAS_NUM_THREADS as the child saw it)."""
    done = run_python(CHILD, **variables)
    assert done.returncode == 0, done.stderr
    threads, value = done.stdout.split()
    return int(threads), value


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")


@needs_proc
def test_importing_the_package_first_keeps_blas_on_one_thread():
    assert run_child() == (1, "1")


@needs_proc
def test_a_thread_count_the_user_set_is_kept():
    assert run_child(OPENBLAS_NUM_THREADS="2")[1] == "2"


@pytest.mark.parametrize("code, variables, warns", [
    ("import numpy, optomech", {}, True),
    ("import optomech, numpy", {}, False),
    ("import numpy, optomech", {"OMP_NUM_THREADS": "1"}, False),
], ids=["numpy-first", "optomech-first", "numpy-first-with-a-thread-variable"])
def test_importing_after_numpy_warns_where_the_policy_cannot_act(code, variables, warns):
    done = run_python(code, **variables)
    assert done.returncode == 0, done.stderr
    if warns:
        assert "UserWarning" in done.stderr and "OPENBLAS_NUM_THREADS=1" in done.stderr
    else:
        assert done.stderr == ""
