import numpy as np
import pytest

from coinclust.spectrum import bin_names, periodogram, resample_spectrum, spectrum_feature
from coinclust.errors import CoinclustError

from conftest import make_series, white_noise
from oracles import dft_matrix_power


def test_single_tone_concentration():
    n = 64
    x = np.cos(2 * np.pi * np.arange(n) / 8.0)
    freqs, power = periodogram(x)
    peak = int(np.argmax(power))
    assert freqs[peak] == pytest.approx(1 / 8)
    others = np.delete(power, peak)
    assert np.all(others < 1e-10 * power[peak])


def test_two_tone_linearity():
    n = 128
    t = np.arange(n)
    x = np.sin(2 * np.pi * t * 4 / n) + np.sin(2 * np.pi * t * 11 / n)
    _, power = periodogram(x)
    top = np.sort(power)[-2:]
    assert top[0] == pytest.approx(top[1], rel=1e-9)


@pytest.mark.parametrize("n", [8, 13, 64, 100, 255, 256])
def test_periodogram_matches_dft_matrix_oracle(n):
    x = white_noise(n, seed=n)
    _, power = periodogram(x)
    ref = dft_matrix_power(x - x.mean())
    assert np.allclose(power, ref, rtol=1e-8, atol=1e-8 * ref.max())


def test_periodogram_too_short():
    with pytest.raises(CoinclustError, match=r"^spectrum: need >= 8 observations, got 7$"):
        periodogram(np.ones(7))


def test_resample_identity_on_target_grid():
    # a length-2K series produces frequencies exactly on the K-bin grid
    k = 50
    x = white_noise(2 * k, seed=5)
    freqs, power = periodogram(x)
    spec = resample_spectrum(freqs, power, k)
    assert np.allclose(spec, power / power.sum(), atol=1e-12)


def test_resample_zero_padding_robustness():
    # grid refinement must not reshape a structured spectrum
    n, k = 500, 100
    t = np.arange(n)
    x = (np.sin(2 * np.pi * t * 25 / n)
         + 0.7 * np.sin(2 * np.pi * t * 55 / n)
         + 0.5 * np.cos(2 * np.pi * t * 115 / n)
         + 0.05 * white_noise(n, seed=9))
    x = x - x.mean()
    a = resample_spectrum(*periodogram(x), k)
    padded = np.concatenate([x, np.zeros(n)])
    b = resample_spectrum(*periodogram(padded), k)
    tv = 0.5 * np.abs(a - b).sum()
    assert tv < 0.05


@pytest.mark.parametrize("seed", range(5))
def test_bins_sum_to_one(seed):
    spec = spectrum_feature(make_series(white_noise(333, seed=seed)), k=200)
    assert spec.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(spec >= 0)


def test_amplitude_invariance():
    x = white_noise(400, seed=2)
    a = spectrum_feature(make_series(x), k=64)
    b = spectrum_feature(make_series(7.5 * x), k=64)
    assert np.allclose(a, b, atol=1e-12)


def test_shift_invariance():
    x = white_noise(400, seed=4)
    a = spectrum_feature(make_series(x), k=64)
    b = spectrum_feature(make_series(x + 123.0), k=64)
    assert np.allclose(a, b, atol=1e-12)


def test_constant_series_uniform_bins():
    bins = spectrum_feature(make_series(np.full(100, 3.0)), k=40)
    assert bins.tolist() == [1.0 / 40] * 40


def test_cosine_dominant_bin_after_resampling():
    n = 400
    x = np.cos(2 * np.pi * np.arange(n) / 8.0)
    spec = spectrum_feature(make_series(x + 2.0), k=200)
    peak = int(np.argmax(spec))
    # bin j (from 0) sits at the grid frequency 0.5 * (j + 1) / K
    assert 0.5 * (peak + 1) / spec.size == pytest.approx(1 / 8, abs=0.5 / 200)
    assert spec[peak] > 0.5


def test_bin_names_format():
    names = bin_names(200)
    assert names[0] == "psd_001" and names[-1] == "psd_200" and len(names) == 200
