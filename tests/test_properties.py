"""Property tests: library routes against the naive oracles, and loaders on drawn inputs."""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from coinclust.characteristics import compute_characteristics, nearest_outside_window, self_similarity_dfa
from coinclust.config import RunConfig
from coinclust.errors import CoinclustError
from coinclust.ingest import _PROFILE_KEYS, Metric, load_profiles, load_series
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
            series = load_series(path, "x", Metric.PRICE)
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
