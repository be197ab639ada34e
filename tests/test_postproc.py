import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from optomech.errors import OutputError
from optomech.postproc import (
    ObservableSeries,
    atomic_write_text,
    compare,
    filter_fast,
    grid_step,
    variance_over_mean,
    write_series,
)
from optomech.system import SystemParams
from optomech.wigner import default_snapshot_times, grid_axis


def read_series(path: str) -> ObservableSeries:
    """Inverse of write_series."""
    with open(path) as f:
        header = f.readline().strip()
        parts = header.split(",")
        if len(parts) != 3 or parts[0] != "t":
            raise ValueError(f"unrecognized series header {header!r}")
        _, label, provenance = parts
        t, y = [], []
        for line in f:
            line = line.strip()
            if not line:
                continue
            a, b = line.split(",")
            t.append(float(a))
            y.append(float(b))
    return ObservableSeries(np.array(t), np.array(y), label, provenance)


def series(t, y, label="x", provenance="numeric"):
    return ObservableSeries(np.asarray(t, float), np.asarray(y, float),
                            label, provenance)


class TestObservableSeries:

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            series([0, 1, 2], [1, 2])

    def test_rejects_unsorted_time(self):
        with pytest.raises(ValueError):
            series([0, 2, 1], [1, 2, 3])

    def test_rejects_unknown_provenance(self):
        with pytest.raises(ValueError):
            series([0, 1], [1, 2], provenance="guessed")


class TestFilterFast:

    def test_window_must_cover_sampling(self):
        s = series(np.linspace(0, 1, 11), np.zeros(11))
        with pytest.raises(ValueError):
            filter_fast(s, 0.05)  # below 2x the grid step

    def test_uneven_grid_is_refused(self):
        s = series([0.0, 0.1, 0.3, 0.4], np.zeros(4))
        with pytest.raises(ValueError, match="^t must be evenly spaced"):
            filter_fast(s, 1.0)

    def test_constant_series_unchanged(self):
        s = series(np.linspace(0, 1, 101), np.full(101, 3.7))
        out = filter_fast(s, 0.2)
        np.testing.assert_allclose(out.y, 3.7, atol=1e-14)
        assert out.provenance == "filtered"
        np.testing.assert_array_equal(out.t, s.t)

    def test_removes_fast_oscillation(self):
        """Slow trend survives, a fast sine at the window scale is crushed."""
        t = np.linspace(0, 1, 4001)
        slow = 1 + 0.5 * t
        fast = 0.3 * np.sin(2 * math.pi * t / 0.02)
        out = filter_fast(series(t, slow + fast), 0.02)
        inner = (t > 0.05) & (t < 0.95)
        assert np.max(np.abs(out.y[inner] - slow[inner])) < 0.01

    def test_linearity(self):
        t = np.linspace(0, 1, 301)
        rng = np.random.default_rng(3)
        ya, yb = rng.normal(size=301), rng.normal(size=301)
        w = 0.1
        lhs = filter_fast(series(t, 2.0 * ya + yb), w).y
        rhs = 2.0 * filter_fast(series(t, ya), w).y + filter_fast(
            series(t, yb), w).y
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_second_pass_changes_less(self):
        t = np.linspace(0, 1, 1001)
        y = np.sin(2 * math.pi * t / 0.03) + t
        w = 0.05
        once = filter_fast(series(t, y), w)
        twice = filter_fast(once, w)
        first_change = np.linalg.norm(once.y - y)
        second_change = np.linalg.norm(twice.y - once.y)
        assert second_change < first_change


class TestCompare:

    def test_identical_series(self):
        s = series([0, 1, 2], [1.0, 2.0, 3.0])
        out = compare(s, s)
        assert out == {"rmse": 0.0, "max_abs": 0.0, "relative_l2": 0.0}

    def test_constant_offset(self):
        t = np.linspace(0, 1, 50)
        a = series(t, np.sin(t))
        b = series(t, np.sin(t) + 0.1)
        out = compare(a, b)
        assert out["rmse"] == pytest.approx(0.1, rel=1e-9)
        assert out["max_abs"] == pytest.approx(0.1, rel=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0, 1, 40)
        a = series(t, rng.normal(size=40))
        b = series(t, rng.normal(size=40))
        ab, ba = compare(a, b), compare(b, a)
        for key in ab:
            assert ab[key] == pytest.approx(ba[key], rel=1e-12)

    def test_disjoint_ranges_error(self):
        a = series([0.0, 1.0], [1, 2])
        b = series([2.0, 3.0], [1, 2])
        with pytest.raises(ValueError, match="share one time grid"):
            compare(a, b)

    def test_uneven_grid_error(self):
        a = series([0.0, 0.1, 0.3, 0.4], np.ones(4))
        with pytest.raises(ValueError, match="^t must be evenly spaced"):
            compare(a, a)


class TestGridStep:

    @pytest.mark.parametrize("x", [
        np.linspace(0.0, 3e-6, 1101),
        np.linspace(0.0, 1e-5, 2),
        grid_axis(-7.25, 7.25, 161),
        np.asarray(default_snapshot_times(SystemParams(omega_c=1e9, omega_m=1e7))),
    ], ids=["series", "two-point", "wigner-axis", "snapshot-times"])
    def test_step_of_the_grids_the_program_builds(self, x):
        assert grid_step(x, "x") == (x[-1] - x[0]) / (x.size - 1)

    @pytest.mark.parametrize("x", [
        [0.0, 0.1, 0.3, 0.4],               # uneven
        np.linspace(0.0, 1.0, 11)[::-1],    # descending
        [0.0, 0.0],                         # no step
        [0.5],                              # one point
        [],                                 # empty
        np.zeros((2, 2)),                   # not 1-d
        [0.0, math.nan, 2.0],
    ], ids=["uneven", "descending", "flat", "one-point", "empty", "2d", "nan"])
    def test_refuses_and_names_the_grid(self, x):
        with pytest.raises(ValueError, match="^q_axis must be evenly spaced and ascending"):
            grid_step(x, "q_axis")

    def test_tolerates_rounding_of_the_points(self):
        x = np.linspace(0.0, 1.0, 11)
        x[3] = np.nextafter(x[3], 1.0)
        assert grid_step(x, "t") == 0.1


def test_variance_over_mean():
    """Variance over mean where the mean is positive; 1 where it vanishes,
    on arrays and on scalars alike."""
    mean = np.array([0.0, 2.0, 0.5])
    second = np.array([0.0, 8.0, 0.5])
    np.testing.assert_array_equal(variance_over_mean(mean, second), [1.0, 2.0, 0.5])
    assert variance_over_mean(0.0, 0.0) == 1.0
    assert variance_over_mean(2.0, 6.0) == 1.0


class TestCsvRoundTrip:

    def test_header_and_format(self, tmp_path):
        path = str(tmp_path / "x.csv")
        s = series([0.0, 1e-9], [1.0, 2.0 / 3.0], label="photon_avg",
                   provenance="analytic")
        write_series(s, path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "t,photon_avg,analytic"
        assert len(lines) == 3
        assert len(lines[1].split(",")) == 2

    def test_round_trip_exact(self, tmp_path):
        path = str(tmp_path / "y.csv")
        t = np.linspace(0, 1e-6, 19)
        y = np.sin(1e7 * t) * math.pi
        s = series(t, y, label="phonon_avg", provenance="numeric")
        write_series(s, path)
        back = read_series(path)
        np.testing.assert_array_equal(back.t, t)
        np.testing.assert_array_equal(back.y, y)
        assert back.label == "phonon_avg"
        assert back.provenance == "numeric"


    @staticmethod
    def reference_text(s: ObservableSeries) -> str:
        """The series file written one f-string per row."""
        lines = [f"t,{s.label},{s.provenance}"]
        lines.extend(f"{t:.17g},{y:.17g}" for t, y in zip(s.t, s.y))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("t, y", [
        ([-0.0, 5e-324, 1e300], [math.nan, -0.0, 5e-324]),
        ([0.0, 1e-9, 2.5e-9, 1.0], [1e300, -1e300, math.inf, 2.0 / 3.0]),
        # the same values as the first grid but +0.0: the cached rows stay apart
        ([0.0, 5e-324, 1e300], [-5e-324, 0.1, math.nan]),
    ], ids=["negative-zero-grid", "large-values", "positive-zero-grid"])
    def test_bytes_equal_per_row_formatting(self, tmp_path, t, y):
        path = tmp_path / "s.csv"
        for label in ("a", "b"):  # the second series reuses the grid's rows
            s = series(t, y, label=label)
            write_series(s, str(path))
            assert path.read_text() == self.reference_text(s)


def numpy_ma_loaded_after(lines: str) -> bool:
    """Whether a fresh interpreter has imported numpy.ma after running lines."""
    script = "import sys\nimport numpy as np\n" + lines + "print('numpy.ma' in sys.modules)\n"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip() == "True"


def test_filter_and_grid_mass_leave_numpy_ma_unloaded():
    """np.median imports numpy.ma, about 20 ms a process; grid_step does not."""
    assert not numpy_ma_loaded_after(
        "from optomech import postproc, wigner\n"
        "t = np.linspace(0.0, 1.0, 101)\n"
        "postproc.filter_fast(postproc.ObservableSeries(t, np.sin(t), 'x', 'numeric'), 0.1)\n"
        "grid = wigner.WignerGrid(t[:5], t[:4], np.ones((5, 4)))\n"
        "grid.total_mass()\n"
    )


def test_compare_leaves_numpy_ma_unloaded():
    """np.union1d imports numpy.ma through np.unique, 12-27 ms a process."""
    assert not numpy_ma_loaded_after(
        "from optomech import postproc\n"
        "a = postproc.ObservableSeries(np.linspace(0.0, 1.0, 17), np.ones(17), 'x', 'numeric')\n"
        "b = postproc.ObservableSeries(np.linspace(0.0, 1.0, 17), np.zeros(17), 'x', 'analytic')\n"
        "postproc.compare(a, b)\n"
    )


def test_atomic_write(tmp_path):
    path = str(tmp_path / "out.txt")
    atomic_write_text(path, "first")
    atomic_write_text(path, "second")
    assert Path(path).read_text() == "second"
    assert os.listdir(tmp_path) == ["out.txt"]  # no temp litter


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_atomic_write_failure_leaves_no_temp_file_or_descriptor(tmp_path, monkeypatch):
    """A write the OS refuses after the temp file exists (here its chmod)
    raises OutputError naming the path, and closes and removes the temp file."""
    def refuse(fd, mode):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(os, "chmod", refuse)
    path = str(tmp_path / "out.txt")
    open_fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(OutputError, match=f"cannot write {re.escape(path)}: Operation not"):
        atomic_write_text(path, "text")
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert os.listdir(tmp_path) == []


def test_atomic_write_follows_the_umask(tmp_path):
    """0o666 less the umask, as open(path, "w") creates a file: neither the
    temp file's 0o600 nor a fixed mode."""
    path = str(tmp_path / "out.txt")
    old = os.umask(0o027)
    try:
        atomic_write_text(path, "text")
    finally:
        os.umask(old)
    assert os.stat(path).st_mode & 0o777 == 0o640
