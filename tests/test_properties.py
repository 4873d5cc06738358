"""Property tests: library routes against the naive oracles, and loaders on drawn inputs."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from coinclust.characteristics import compute_characteristics, nearest_outside_window, self_similarity_dfa
from coinclust.config import RunConfig
from coinclust.errors import CoinclustError
from coinclust.ingest import (
    _PROFILE_KEYS, BlockSizeLimitKind, Consensus, Dataset, Governance, MechanismProfile, Metric,
    load_profiles, load_series,
)
from coinclust.report import report_run
from coinclust.spectrum import spectrum_feature

from conftest import make_series
from oracles import dfa_reference_loop, nearest_outside_window_naive


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(200, 300),
    decimals=st.integers(0, 4),
    level=st.sampled_from([0.0, 1.0, 1e4]),
    theiler=st.integers(1, 75),  # up to the divergence-rate cap of about n / 4
)
def test_neighbor_search_matches_oracle_on_rounded_series(seed, n, decimals, level, theiler):
    x = np.round(level + np.cumsum(np.random.default_rng(seed).standard_normal(n)), decimals)
    points = np.column_stack([x[:-2], x[1:-1], x[2:]])
    tol2 = (1e-9 * float(np.std(x))) ** 2
    got = nearest_outside_window(points, theiler, tol2)
    assert got.tolist() == nearest_outside_window_naive(points, theiler, tol2)


@settings(deadline=None, max_examples=50)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(100, 400),
    decimals=st.integers(0, 4),
    min_window=st.integers(3, 40),
    frac=st.floats(0.05, 1.0),
)
def test_dfa_equals_reference_loop_bit_for_bit(seed, n, decimals, min_window, frac):
    # min_window <= 40 < n / 2, so at least two grid sizes fit twice in the
    # series; above frac 0.5 the sizes that do not fit are skipped.
    assume(int(n * frac) > min_window)
    x = np.round(np.cumsum(np.random.default_rng(seed).standard_normal(n)), decimals)
    config = RunConfig(dfa_min_window=min_window, dfa_max_window_frac=frac)
    assert self_similarity_dfa(x, config) == dfa_reference_loop(x, min_window, frac)


@settings(deadline=None)
@given(level=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), n=st.integers(200, 1500))
@example(level=0.1, n=300)
@example(level=0.1, n=1000)
def test_constant_series_gives_the_flagged_row_and_the_degenerate_spectrum(level, n):
    # np.mean rounds most levels (0.1 among them), so a test of the computed
    # standard deviation, or of the demeaned spectrum, misses such a series.
    series = make_series(np.full(n, level))
    vec = compute_characteristics(series)
    assert vec.values().tolist() == [level, 0.0, 0.0, 0.0] + [level] * 7 + [0.0, level, 0.0, 0.0, 0.0]
    assert vec.flags == ("zero_variance",)
    spec = spectrum_feature(series, 40)
    assert spec.degenerate and spec.bins.tolist() == [1.0 / 40] * 40


_SERIES_LINES = st.lists(
    st.one_of(
        st.sampled_from(["date,value", "2019-01-01,1.5", "2019-01-02,nan", "2019-01-03,",
                         "2019-01-02,-3", "x,y,z", '"2019-01-04","7"', "", "\x00"]),
        st.text(max_size=20),
    ),
    max_size=40,
)
_PROFILE_TOKENS = ["btc", "PoW", "public", "static", "none", "10", "0", "-1", "ten", "nan",
                   "inf", "1e999", "2016", "9" * 5000, "", "a: b"]
# Blocks hold each key, or omit it, with a drawn token; junk lines ride along.
_PROFILE_BLOCK = st.fixed_dictionaries(
    {key: st.sampled_from(_PROFILE_TOKENS + [None]) for key in sorted(_PROFILE_KEYS)}
).map(lambda block: [f"{k}: {v}" for k, v in block.items() if v is not None])
_JUNK_LINES = st.lists(
    st.one_of(st.sampled_from(["", "# note", "no colon", "bogus: 1"]), st.text(max_size=20)),
    max_size=5,
)
_PROFILE_LINES = st.lists(st.one_of(_PROFILE_BLOCK, _JUNK_LINES), max_size=4).map(
    lambda blocks: [line for block in blocks for line in block + [""]]
)


def _as_bytes(lines):
    return "\n".join(lines).encode("utf-8", "surrogatepass")


@settings(deadline=None, max_examples=150)
@given(data=st.one_of(st.binary(max_size=300), _SERIES_LINES.map(_as_bytes)))
def test_load_series_gives_a_series_or_a_coinclust_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.price_usd.csv"
        path.write_bytes(data)
        try:
            series = load_series(path, Metric.PRICE)
        except CoinclustError as exc:
            assert str(exc).startswith("x.price_usd.csv")
        else:
            assert len(series) == series.values.size and np.all(np.isfinite(series.values))


@settings(deadline=None, max_examples=150)
@given(data=st.one_of(st.binary(max_size=300), _PROFILE_LINES.map(_as_bytes)))
def test_load_profiles_gives_profiles_or_a_coinclust_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profiles.txt"
        path.write_bytes(data)
        try:
            profiles = load_profiles(path)
        except CoinclustError as exc:
            assert str(exc).startswith("profiles.txt:")
            return
        for profile in profiles.values():
            for value in (profile.difficulty_adjustment_blocks, profile.target_block_time_minutes,
                          profile.block_size_limit_bytes):
                assert value is None or 0 < value < math.inf


def _sweep_datasets() -> dict[str, Dataset]:
    """Three metrics of 200-400-day series with the inputs that break estimators:
    a duplicated series, a constant one, a stablecoin-like peg, integer-quantized
    values, and a coin that lacks one metric."""
    rng = np.random.default_rng(2024)
    coins = ["walk1", "walk2", "walk3", "walk4", "twin", "flat", "peg", "steps", "absent"]
    profiles = {
        coin: MechanismProfile(coin, list(Consensus)[i % 3], ["sha256", "scrypt"][i % 2],
                               list(BlockSizeLimitKind)[i % 3], list(Governance)[i % 2])
        for i, coin in enumerate(coins)
    }
    datasets = {}
    for metric in Metric:
        values = {f"walk{i}": 50.0 * np.exp(0.02 * np.cumsum(rng.standard_normal(rng.integers(200, 401))))
                  for i in range(1, 5)}
        values["twin"] = values["walk1"].copy()
        values["flat"] = np.full(250, 7.0)
        values["peg"] = 1.0 + np.round(0.002 * rng.standard_normal(300), 4)
        values["steps"] = np.round(10.0 + np.abs(np.cumsum(rng.standard_normal(320))))
        if metric is not Metric.BLOCK_SIZE:
            values["absent"] = 3.0 + rng.random(210)
        series = {coin: make_series(v) for coin, v in values.items()}
        missing = sorted(set(coins) - set(series))
        datasets[metric.value] = Dataset(metric=metric, series=series, profiles=profiles, missing=missing)
    return datasets


_SWEEP_DATASETS = _sweep_datasets()


def _usual_or_any(low: int, usual: int, most: int):
    """Integers up to ``usual`` half the time, so some examples cluster, else up to ``most``."""
    return st.one_of(st.integers(low, usual), st.integers(low, most))


@settings(deadline=None, max_examples=20)
@given(config=st.builds(
    RunConfig,
    spectrum_bins=st.integers(2, 64),
    k_max=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
    sigma=st.one_of(st.none(), st.floats(1e-160, 9e153)),  # 2*sigma**2 from subnormal to near overflow
    min_series_len=_usual_or_any(1, 60, 450),
    dfa_min_window=_usual_or_any(3, 12, 250),
    dfa_max_window_frac=st.floats(0.0, 1.0, exclude_min=True),
    embedding_dim=_usual_or_any(1, 5, 12),
    embedding_delay=_usual_or_any(1, 4, 300),  # up to embeddings longer than every series
    lyapunov_max_fit_steps=st.one_of(st.none(), st.integers(3, 500)),
))
@example(config=RunConfig(embedding_delay=300))
@example(config=RunConfig(sigma=1e-160))
def test_any_in_range_config_gives_a_finite_report_or_a_section_error(config):
    report = report_run(_SWEEP_DATASETS, config)
    assert sorted(report.sections) == sorted(_SWEEP_DATASETS)
    for section in report.sections.values():
        if section.features is not None:
            assert np.all(np.isfinite(section.features.rows))
        if section.error is None:
            json.dumps(section.as_dict(), allow_nan=False)
        else:
            assert isinstance(section.error, str) and section.error
