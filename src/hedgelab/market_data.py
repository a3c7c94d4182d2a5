"""Index series ingestion, evaluation windows, and stylized-fact stats.

Real index data is user-supplied (date,close CSV); the test suite ships
tiny synthetic fixtures only.  Stylized facts are the two used to judge
simulator realism: raw kurtosis of lag-k log returns (fat tails at short
lags, drifting toward 3 as the lag grows) and the histogram of
unit-variance returns in 0.5-wide bins for tail inspection.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np


@dataclass
class IndexSeries:
    dates: list
    closes: np.ndarray


@dataclass
class StylizedStats:
    kurtosis_by_lag: Dict[int, Optional[float]] = field(default_factory=dict)
    histogram: Dict[float, float] = field(default_factory=dict)  # center -> mass


def load_series(source) -> IndexSeries:
    """Parse a date,close CSV into a validated, date-sorted series."""
    with open(source, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["date", "close"]:
            raise ValueError(f"{source}: expected header 'date,close', got {header}")
        rows = []
        for i, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise ValueError(f"{source} row {i}: expected 2 fields, got {len(row)}")
            try:
                date = dt.date.fromisoformat(row[0].strip())
            except ValueError as exc:
                raise ValueError(f"{source} row {i}: bad date {row[0]!r}") from exc
            try:
                close = float(row[1])
            except ValueError as exc:
                raise ValueError(f"{source} row {i}: bad close {row[1]!r}") from exc
            if not 0.0 < close < np.inf:
                raise ValueError(f"{source} row {i}: non-positive or non-finite close {close}")
            rows.append((date, close))
    if not rows:
        raise ValueError(f"{source}: no data rows")
    rows.sort(key=lambda r: r[0])
    for (d1, _), (d2, _) in zip(rows, rows[1:]):
        if d1 == d2:
            raise ValueError(f"{source}: duplicate date {d1.isoformat()}")
    dates = [r[0] for r in rows]
    closes = np.array([r[1] for r in rows])
    return IndexSeries(dates, closes)


def extract_windows(closes, window_days: int = 21, stride: int = 1) -> np.ndarray:
    """Sliding windows of a close array, each normalized so it starts at 1.0.

    A series shorter than one window raises ValueError.
    """
    closes = np.asarray(closes, dtype=float)
    if window_days < 2 or stride < 1:
        raise ValueError("window_days must be >= 2 and stride >= 1")
    windows = np.lib.stride_tricks.sliding_window_view(
        closes, window_days)[::stride]
    return windows / windows[:, :1]


def raw_kurtosis(x: np.ndarray) -> Optional[float]:
    """m4/m2^2 (normal => 3); None when the variance degenerates."""
    x = np.asarray(x, dtype=float)
    centered = x - x.mean()
    m2 = np.mean(centered ** 2)
    if m2 == 0.0:
        return None
    return float(np.mean(centered ** 4) / m2 ** 2)


def lag_returns(paths: np.ndarray, lag: int) -> np.ndarray:
    """Pooled log returns ln(S_{t+lag}/S_t) across all rows and offsets."""
    paths = np.atleast_2d(np.asarray(paths, dtype=float))
    if lag < 1 or lag >= paths.shape[1]:
        return np.empty(0)
    return np.log(paths[:, lag:] / paths[:, :-lag]).ravel()


def stylized_stats(paths: np.ndarray, max_lag: int = 20,
                   bin_width: float = 0.5) -> StylizedStats:
    """Kurtosis per lag 1..max_lag plus a lag-1 return histogram.

    Histogram returns are scaled to unit variance (not demeaned) and
    counted in bin_width-wide bins centered on multiples of bin_width;
    masses sum to 1.  Lags with fewer than 4 returns or zero variance
    report a missing kurtosis.
    """
    stats = StylizedStats()
    r1 = lag_returns(paths, 1)
    for lag in range(1, max_lag + 1):
        r = r1 if lag == 1 else lag_returns(paths, lag)
        stats.kurtosis_by_lag[lag] = raw_kurtosis(r) if r.size >= 4 else None

    if r1.size:
        std = r1.std()
        if std > 0.0:
            z = r1 / std
            idx = np.round(z / bin_width).astype(int)
            centers, counts = np.unique(idx, return_counts=True)
            for c, n in zip(centers, counts):
                stats.histogram[round(float(c) * bin_width, 10)] = n / r1.size
    return stats


def write_stats_csv(stats: StylizedStats, kurtosis_path, histogram_path) -> None:
    """Two plot-ready CSVs: (lag,kurtosis) and (bin_center,mass)."""
    with open(kurtosis_path, "w", newline="") as fh:
        fh.write("lag,kurtosis\n")
        for lag in sorted(stats.kurtosis_by_lag):
            k = stats.kurtosis_by_lag[lag]
            fh.write(f"{lag},{'' if k is None else repr(k)}\n")
    with open(histogram_path, "w", newline="") as fh:
        fh.write("bin_center,mass\n")
        for center in sorted(stats.histogram):
            fh.write(f"{repr(center)},{repr(float(stats.histogram[center]))}\n")
