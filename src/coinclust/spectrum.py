"""Power spectrum of a daily series, resampled to a fixed bin count.

The series is demeaned and transformed with an O(n log n) FFT; squared
magnitudes at the positive frequencies form the raw power.  Because series
lengths vary coin by coin, the normalized power is interpolated onto a
fixed grid of K normalized frequencies so every coin contributes the same
number of spectral features.  Bins are normalized to sum to one: each bin
reads as the fraction of variance explained by its frequency band.
"""

from __future__ import annotations

import numpy as np

from .errors import CoinclustError

DEFAULT_BINS = 200


def bin_names(k: int = DEFAULT_BINS) -> list[str]:
    width = max(3, len(str(k)))
    return [f"psd_{i:0{width}d}" for i in range(1, k + 1)]


def periodogram(values) -> tuple[np.ndarray, np.ndarray]:
    """Squared DFT magnitudes of the demeaned series.

    Returns (frequencies, raw_power) for k = 1..n//2, frequencies in cycles
    per day.  The DC bin is excluded (the series is demeaned, so it is zero
    anyway).  A constant series (``np.ptp == 0``) has zero power, not the
    rounding noise that subtracting its computed mean would leave.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 8:
        raise CoinclustError(f"spectrum: need >= 8 observations, got {n}")
    f = np.fft.rfft(x - np.mean(x) if np.ptp(x) > 0.0 else np.zeros(n))
    power = np.abs(f[1 : n // 2 + 1]) ** 2
    freqs = np.arange(1, n // 2 + 1, dtype=float) / n
    return freqs, power


def resample_spectrum(frequencies, raw_power, k: int = DEFAULT_BINS) -> np.ndarray:
    """Interpolate normalized power onto K evenly spaced frequencies.

    Returns the K bins, the normalized power at nu_j = 0.5 * j / K for
    j = 1..K.  Target points outside the source frequency range take the
    nearest endpoint value.  A zero-power input (constant signal) yields
    the uniform bins 1 / K, so downstream stages never see NaNs.
    """
    freqs = np.asarray(frequencies, dtype=float)
    power = np.asarray(raw_power, dtype=float)
    if power.size == 0:
        raise CoinclustError("empty raw power")
    if k < 2:
        raise ValueError("need at least 2 bins")
    total = power.sum()
    if total <= 0.0:
        return np.full(k, 1.0 / k)
    grid = 0.5 * np.arange(1, k + 1, dtype=float) / k
    interp = np.interp(grid, freqs, power / total)
    s = interp.sum()
    if s <= 0.0:
        return np.full(k, 1.0 / k)
    return interp / s


def spectrum_feature(series, k: int = DEFAULT_BINS) -> np.ndarray:
    """Fixed-length spectral feature block of one series: its K bins."""
    freqs, power = periodogram(series.values)
    return resample_spectrum(freqs, power, k)
