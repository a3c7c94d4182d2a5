"""CSV ingestion, window extraction, and stylized-fact statistics."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import _reference
from _reference import brute_kurtosis
from hedgelab.market_data import (StylizedStats, extract_windows, lag_returns,
                                  load_series, raw_kurtosis, stylized_stats,
                                  write_stats_csv)


def _write(tmp_path, text, name="series.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadSeries:
    def test_valid_two_rows(self, tmp_path):
        p = _write(tmp_path, "date,close\n2024-01-02,4742.83\n2024-01-03,4704.81\n")
        series = load_series(p)
        assert len(series.dates) == 2
        assert series.dates[0].isoformat() == "2024-01-02"
        np.testing.assert_array_equal(series.closes, [4742.83, 4704.81])

    def test_unsorted_input_is_sorted(self, tmp_path):
        p = _write(tmp_path, "date,close\n2024-01-05,2.0\n2024-01-03,1.0\n")
        series = load_series(p)
        assert [d.day for d in series.dates] == [3, 5]
        np.testing.assert_array_equal(series.closes, [1.0, 2.0])

    def test_bad_header(self, tmp_path):
        p = _write(tmp_path, "day,price\n2024-01-02,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_series(p)

    def test_wrong_field_count(self, tmp_path):
        p = _write(tmp_path, "date,close\n2024-01-02,1.0,extra\n")
        with pytest.raises(ValueError, match="row 2"):
            load_series(p)

    def test_bad_date(self, tmp_path):
        p = _write(tmp_path, "date,close\n01/02/2024,1.0\n")
        with pytest.raises(ValueError, match="bad date"):
            load_series(p)

    def test_bad_close(self, tmp_path):
        p = _write(tmp_path, "date,close\n2024-01-02,abc\n")
        with pytest.raises(ValueError, match="bad close"):
            load_series(p)

    def test_nonpositive_close(self, tmp_path):
        p = _write(tmp_path, "date,close\n2024-01-02,-3.0\n")
        with pytest.raises(ValueError, match="non-positive"):
            load_series(p)

    @pytest.mark.parametrize("close", ["nan", "inf", "-inf"])
    def test_non_finite_close(self, tmp_path, close):
        p = _write(tmp_path, f"date,close\n2024-01-02,1.0\n2024-01-03,{close}\n")
        with pytest.raises(ValueError,
                           match=r"series\.csv row 3: .*non-finite close"):
            load_series(p)

    def test_empty_file(self, tmp_path):
        p = _write(tmp_path, "date,close\n")
        with pytest.raises(ValueError, match="no data"):
            load_series(p)

    def test_duplicate_date(self, tmp_path):
        p = _write(tmp_path,
                   "date,close\n2024-01-02,1.0\n2024-01-02,2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_series(p)


class TestExtractWindows:
    def test_exact_fit_single_window(self):
        closes = np.linspace(100.0, 120.0, 21)
        out = extract_windows(closes, window_days=21)
        assert out.shape == (1, 21)
        assert out[0, 0] == 1.0

    def test_stride_one_count(self):
        out = extract_windows(np.arange(1.0, 24.0), window_days=21, stride=1)
        assert out.shape == (3, 21)
        assert np.all(out[:, 0] == 1.0)

    def test_stride_skips(self):
        out = extract_windows(np.arange(1.0, 31.0), window_days=21, stride=5)
        assert out.shape == (2, 21)
        # second window starts 5 samples in
        assert out[1, 0] == 1.0
        assert out[1, 1] == pytest.approx(7.0 / 6.0)

    def test_windows_of_a_loaded_series(self, tmp_path):
        closes = np.linspace(50, 60, 25)
        p = _write(tmp_path, "date,close\n" + "".join(
            f"2024-01-{d + 1:02d},{float(c)!r}\n" for d, c in enumerate(closes)))
        out = extract_windows(load_series(p).closes, window_days=21)
        assert out.shape == (5, 21)
        np.testing.assert_array_equal(out[4], closes[4:] / closes[4])

    def test_short_series_is_refused(self):
        with pytest.raises(ValueError):
            extract_windows(np.ones(10), window_days=21)

    def test_windows_already_normalized_are_stable(self):
        closes = np.exp(np.random.default_rng(0).normal(0, 0.01, 40).cumsum())
        once = extract_windows(closes, window_days=21)
        again = extract_windows(once[0], window_days=21)
        np.testing.assert_allclose(once[0], again[0], rtol=1e-15)

    @given(st.lists(st.floats(1e-3, 1e6), min_size=2, max_size=60),
           st.integers(2, 30), st.integers(1, 7))
    def test_equals_the_window_loop(self, closes, window_days, stride):
        assume(len(closes) >= window_days)  # shorter ones raise, above
        got = extract_windows(closes, window_days, stride)
        expected = _reference.extract_windows(closes, window_days, stride)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            extract_windows(np.ones(30), window_days=1)
        with pytest.raises(ValueError):
            extract_windows(np.ones(30), stride=0)


class TestRawKurtosis:
    def test_normal_samples_near_three(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0.0, 2.0, 1_000_000)
        assert raw_kurtosis(x) == pytest.approx(3.0, abs=0.05)

    def test_balanced_binary_is_one(self):
        # +-1 with equal mass: m4 = m2 = 1 exactly
        x = np.array([1.0, -1.0] * 8)
        assert raw_kurtosis(x) == pytest.approx(1.0, abs=1e-12)

    def test_constant_series_is_none(self):
        assert raw_kurtosis(np.full(16, 2.5)) is None

    def test_matches_brute_force_moments(self):
        rng = np.random.default_rng(2)
        x = rng.standard_t(df=5, size=500)
        assert raw_kurtosis(x) == pytest.approx(brute_kurtosis(x), rel=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=300)
        assert raw_kurtosis(x) == pytest.approx(raw_kurtosis(100.0 * x),
                                                rel=1e-9)


class TestLagReturns:
    def test_single_path_lag_one(self):
        path = np.array([1.0, 1.1, 1.21])
        r = lag_returns(path, 1)
        np.testing.assert_allclose(r, [np.log(1.1), np.log(1.1)], rtol=1e-12)

    def test_lag_spans_multiple_days(self):
        path = np.array([1.0, 1.1, 1.21])
        np.testing.assert_allclose(lag_returns(path, 2), [np.log(1.21)],
                                   rtol=1e-12)

    def test_pooled_across_rows(self):
        paths = np.array([[1.0, 2.0], [1.0, 4.0]])
        np.testing.assert_allclose(sorted(lag_returns(paths, 1)),
                                   [np.log(2.0), np.log(4.0)], rtol=1e-12)

    def test_lag_too_large_is_empty(self):
        assert lag_returns(np.ones((3, 5)), 5).size == 0
        assert lag_returns(np.ones((3, 5)), 0).size == 0


class TestStylizedStats:
    def test_normal_paths_kurtosis_all_lags(self):
        # exp of a Gaussian walk: every lag pools normal increments, so
        # kurtosis should hover near 3 at each of them
        rng = np.random.default_rng(4)
        incr = rng.normal(0.0, 0.01, (400, 60))
        paths = np.exp(np.concatenate(
            [np.zeros((400, 1)), incr.cumsum(axis=1)], axis=1))
        stats = stylized_stats(paths, max_lag=20)
        for lag in range(1, 21):
            assert stats.kurtosis_by_lag[lag] == pytest.approx(3.0, abs=0.35)

    def test_histogram_mass_and_centers(self):
        rng = np.random.default_rng(5)
        paths = np.exp(np.concatenate(
            [np.zeros((50, 1)), rng.normal(0, 0.02, (50, 30)).cumsum(axis=1)],
            axis=1))
        stats = stylized_stats(paths, max_lag=3, bin_width=0.5)
        total = sum(stats.histogram.values())
        assert total == pytest.approx(1.0, abs=1e-12)
        for center in stats.histogram:
            assert round(center / 0.5, 6) == round(center / 0.5)

    def test_histogram_scaled_not_demeaned(self):
        # a strong positive drift must shift the histogram's center of
        # mass right of zero (returns are divided by std only)
        steps = np.full((1, 400), 0.05) + \
            np.random.default_rng(6).normal(0, 0.01, (1, 400))
        paths = np.exp(np.concatenate(
            [np.zeros((1, 1)), steps.cumsum(axis=1)], axis=1))
        stats = stylized_stats(paths, max_lag=1)
        mean_center = sum(c * m for c, m in stats.histogram.items())
        assert mean_center > 1.0

    def test_short_sample_reports_none(self):
        paths = np.array([[1.0, 1.1, 1.2, 1.15]])  # 3 lag-1 returns only
        stats = stylized_stats(paths, max_lag=3)
        assert stats.kurtosis_by_lag[1] is None
        assert stats.kurtosis_by_lag[3] is None

    def test_max_lag_keys(self):
        paths = np.exp(np.random.default_rng(7).normal(0, 0.01, (20, 30))
                       .cumsum(axis=1))
        stats = stylized_stats(paths, max_lag=5)
        assert sorted(stats.kurtosis_by_lag) == [1, 2, 3, 4, 5]


def test_write_stats_csv(tmp_path):
    stats = StylizedStats(
        kurtosis_by_lag={1: 6.5, 2: None, 3: 3.25},
        histogram={0.0: 0.5, -0.5: 0.25, 0.5: 0.25})
    kp = tmp_path / "kurtosis.csv"
    hp = tmp_path / "histogram.csv"
    write_stats_csv(stats, kp, hp)
    assert kp.read_text() == "lag,kurtosis\n1,6.5\n2,\n3,3.25\n"
    assert hp.read_text() == ("bin_center,mass\n-0.5,0.25\n0.0,0.5\n"
                              "0.5,0.25\n")
