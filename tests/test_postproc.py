import math
import os

import numpy as np
import pytest

from optomech.postproc import (
    ObservableSeries,
    atomic_write_text,
    compare,
    filter_fast,
    read_series,
    write_series,
)


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
            filter_fast(s, 0.05)  # below 2x the median spacing

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
        a = series(np.linspace(0, 1, 40), rng.normal(size=40))
        b = series(np.linspace(0.1, 0.9, 33), rng.normal(size=33))
        ab, ba = compare(a, b), compare(b, a)
        for key in ab:
            assert ab[key] == pytest.approx(ba[key], rel=1e-12)

    def test_resampling_to_union_grid(self):
        # same underlying line sampled differently: metrics are ~0
        f = lambda t: 2.0 + 3.0 * t
        a = series(np.linspace(0, 1, 17), f(np.linspace(0, 1, 17)))
        b = series(np.linspace(0, 1, 29), f(np.linspace(0, 1, 29)))
        assert compare(a, b)["max_abs"] < 1e-12

    def test_disjoint_ranges_error(self):
        a = series([0.0, 1.0], [1, 2])
        b = series([2.0, 3.0], [1, 2])
        with pytest.raises(ValueError):
            compare(a, b)


class TestCsvRoundTrip:

    def test_header_and_format(self, tmp_path):
        path = str(tmp_path / "x.csv")
        s = series([0.0, 1e-9], [1.0, 2.0 / 3.0], label="photon_avg",
                   provenance="analytic")
        write_series(s, path)
        lines = open(path).read().splitlines()
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


def test_atomic_write(tmp_path):
    path = str(tmp_path / "out.txt")
    atomic_write_text(path, "first")
    atomic_write_text(path, "second")
    assert open(path).read() == "second"
    assert os.listdir(tmp_path) == ["out.txt"]  # no temp litter
