"""Property tests: library routes against the naive oracles, and loaders on drawn inputs."""

import csv
import json
import math
import tempfile
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coinclust.characteristics import (
    QUANTILE_LEVELS, compute_characteristics, nearest_outside_window, quantiles, self_similarity_dfa,
)
from coinclust.clustering import _median_root
from coinclust.config import RunConfig
from coinclust.errors import CoinclustError
from coinclust.ingest import (
    _PROFILE_KEYS, _TOKENS, METRICS, Dataset, MechanismProfile,
    _plain_values, _row_series, load_profiles, load_series, read_utf8,
)
from coinclust.report import report_run
from coinclust.spectrum import spectrum_feature

from conftest import SNAPSHOT_DIR, benchmark_files, make_series
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


_SAMPLES = st.one_of(
    st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=60),
    st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=60),  # ties
).map(np.array)


@settings(deadline=None, max_examples=400)
@given(x=_SAMPLES)
@example(x=np.array([2.5]))
@example(x=np.array([1.0, 4.0]))
def test_quantiles_and_median_equal_numpy(x):
    assert np.array(quantiles(x)).tolist() == np.quantile(x, QUANTILE_LEVELS, method="linear").tolist()


_SQUARES = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
        st.sampled_from([0.25, 2.0, 3.0]),  # ties
    ),
    min_size=1,
    max_size=60,
).map(np.array)


@settings(deadline=None, max_examples=400)
@given(squares=_SQUARES, next_up=st.booleans())
@example(squares=np.array([2.0]), next_up=True)  # sqrt(2) and sqrt(2 + ulp) are one float
def test_median_of_roots_roots_only_the_middle_squares_bit_for_bit(squares, next_up):
    # similarity_matrix's sigma: the median distance, from the squared ones
    if next_up:  # neighbours whose square roots round together
        squares = np.concatenate([squares, np.nextafter(squares, np.inf)])
    for values in (squares, squares[1:]) if squares.size > 1 else (squares,):  # even and odd counts
        assert _median_root(values).hex() == float(np.median(np.sqrt(values))).hex()


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
    assert self_similarity_dfa([x], config)[0] == dfa_reference_loop(x, min_window, frac)


def test_dfa_of_a_batch_larger_than_2_16_floats_is_each_series_alone_in_linear_memory():
    files = benchmark_files("wide")
    batch = [_plain_values(data.decode(), "price_usd") for name, data in files.items() if name.endswith(".csv")]
    values = sum(x.size for x in batch)
    assert len(batch) == 600 and values > 2**16
    tracemalloc.start()
    try:
        together = self_similarity_dfa(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * values  # four float arrays of the batch's values
    assert together.tolist() == [self_similarity_dfa([x])[0] for x in batch]


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.lists(st.integers(100, 700), min_size=1, max_size=6),
    min_window=st.integers(4, 40),
    frac=st.floats(0.05, 0.5),
)
def test_a_coins_characteristics_do_not_depend_on_its_batch(seed, lengths, min_window, frac):
    # the smallest window is at least int(100 * frac), so the grid of a
    # 100-day coin fails while longer coins share some window sizes
    config = RunConfig(dfa_min_window=max(min_window, int(100 * frac)), dfa_max_window_frac=frac)
    rng = np.random.default_rng(seed)
    values = [np.cumsum(rng.standard_normal(n)) for n in lengths]
    short, constant, no_grid = rng.standard_normal(60), np.full(150, 2.5), np.cumsum(rng.standard_normal(100))
    values += [short, constant, no_grid]
    order = rng.permutation(len(values)).tolist()
    batch = [make_series(values[i]) for i in order]
    together = compute_characteristics(batch, config)
    for series, got in zip(batch, together):
        [alone] = compute_characteristics([series], config)
        assert type(got) is type(alone)
        if isinstance(alone, CoinclustError):
            assert str(got) == str(alone)
        else:
            assert got.tobytes() == alone.tobytes()
    short, constant, no_grid = (together[order.index(i)] for i in range(len(lengths), len(values)))
    assert str(short) == "self_similarity: need >= 100 observations, got 60"
    assert constant.tolist() == [2.5, 0.0, 0.0, 0.0] + [2.5] * 7 + [0.0, 2.5, 0.0, 0.0, 0.0]
    assert str(no_grid).endswith("the largest window int(n * dfa_max_window_frac) must exceed dfa_min_window")


@settings(deadline=None)
@given(level=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), n=st.integers(200, 1500))
@example(level=0.1, n=300)
@example(level=0.1, n=1000)
def test_constant_series_gives_the_fixed_row_and_the_uniform_spectrum(level, n):
    # np.mean rounds most levels (0.1 among them), so a test of the computed
    # standard deviation, or of the demeaned spectrum, misses such a series.
    series = make_series(np.full(n, level))
    [row] = compute_characteristics([series])
    assert row.tolist() == [level, 0.0, 0.0, 0.0] + [level] * 7 + [0.0, level, 0.0, 0.0, 0.0]
    assert spectrum_feature(series, 40).tolist() == [1.0 / 40] * 40


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
            series = load_series(path, "price_usd")
        except CoinclustError as exc:
            assert str(exc).startswith("x.price_usd.csv")
        else:
            assert len(series) == series.values.size and np.all(np.isfinite(series.values))


# Near-plain series texts: each token is usually one that keeps a file plain
# and now and then one of the ways a file stops being plain.
_ODD_HEADERS = [" Date , VALUE ", "\ufeffdate,value", "date,value,", "Date,Value"]
# Well formed but not a date; sorted with the real dates, each lands in order.
_NOT_DATES = ["0000-12-31", "1900-02-29", "2100-02-29", "2019-04-31", "2019-13-01", "2019-21-01",
              "2019-00-10", "2019-06-00"]
_BAD_FORMS = ["2019-1-01", "20190101", "\u0662019-01-01", " 2019-06-01", '"2019-06-02"', "2019-06-0x"]
_LONG_VALUE = "0." + "0" * csv.field_size_limit() + "1"  # finite, but over the field limit
_ODD_VALUES = ["0", "-0", "-3", "nan", "-inf", "inf", "1e999", "", " ", " 2 ", "\t4", "1_0", "\u0663",
               "x", '"7"', "1,2", "1\r5", "\r1", _LONG_VALUE]
_ODD_NEWLINES = ["\r\n", "\r"]


@st.composite
def _series_texts(draw):
    def pick(usual, odd):
        return draw(st.sampled_from(odd)) if draw(st.integers(0, 9)) == 0 else usual

    days = draw(st.lists(st.integers(0, 3000), max_size=8, unique=True))  # from 2000-01-01, leap days too
    stamps = sorted(pick((date(2000, 1, 1) + timedelta(days=k)).isoformat(), _NOT_DATES) for k in days)
    if len(stamps) > 1 and draw(st.integers(0, 9)) == 0:  # an equal or a falling date
        i = draw(st.integers(1, len(stamps) - 1))
        stamps[i - 1 : i + 1] = draw(st.sampled_from([[stamps[i - 1]] * 2, [stamps[i], stamps[i - 1]]]))
    lines = [pick("date,value", _ODD_HEADERS)]
    for stamp in stamps:
        value = pick(draw(st.sampled_from(["1.5", "2", "0.25", "1e3", "7"])), _ODD_VALUES)
        lines.append(f"{pick(stamp, _BAD_FORMS)},{value}")
        lines += [""] * (draw(st.integers(0, 20)) == 0)
    newline = pick("\n", _ODD_NEWLINES)
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


@settings(deadline=None, max_examples=400)
@given(text=_series_texts(), metric=st.sampled_from(list(METRICS)))
@example(text="date,value\n2019-01-01,1.5\n2019-01-02, 2 \n2020-02-29,1_0", metric="block_size_bytes")
@example(text="date,value\n", metric="price_usd")
@example(text="date,value\n2019-01-01,\r1\n", metric="price_usd")  # the reader ends the row at the CR
@example(text=f"date,value\n2019-01-01,{_LONG_VALUE}\n", metric="price_usd")
def test_array_route_gives_the_row_loops_values_or_none(text, metric):
    plain = _plain_values(text, metric)
    if plain is not None:
        series = _row_series(Path("x.csv"), text, metric)
        assert series.drop_count == 0 and series.values.tobytes() == plain.tobytes()


@pytest.mark.parametrize("stamp", _NOT_DATES)
def test_a_well_formed_stamp_that_is_not_a_date_is_not_plain(stamp):
    text = f"date,value\n{stamp},1.5\n"
    assert _plain_values(text, "price_usd") is None
    with pytest.raises(CoinclustError, match=r"^x\.csv:2: bad date"):
        _row_series(Path("x.csv"), text, "price_usd")


@pytest.mark.parametrize("year", ["0000", "0001", "1900", "2000", "2019", "2100", "9999"])
def test_a_plain_date_is_a_calendar_date_over_the_whole_byte_range(year):
    # every month 00-19 and day 00-39 the byte check of _plain_values lets through
    for month in range(20):
        for day in range(40):
            stamp = f"{year}-{month:02d}-{day:02d}"
            try:
                real = date.fromisoformat(stamp).year >= 1
            except ValueError:
                real = False
            text = f"date,value\n{stamp},1.5\n"
            plain = _plain_values(text, "price_usd")
            assert (plain is not None) == real, stamp
            if real:
                assert _row_series(Path("x.csv"), text, "price_usd").values.tobytes() == plain.tobytes()


def test_every_shipped_and_benchmark_series_file_takes_the_array_route():
    texts = {path.name: read_utf8(path) for path in SNAPSHOT_DIR.glob("*.csv")}
    for workload in ("wide", "deep"):
        texts.update({f"{workload}/{name}": data.decode()
                      for name, data in benchmark_files(workload).items() if name.endswith(".csv")})
    assert len(texts) == 51 + 600 + 30
    for name, text in texts.items():
        assert _plain_values(text, name.split(".")[1]) is not None, name


@settings(deadline=None, max_examples=150)
@given(data=st.one_of(st.binary(max_size=300), _PROFILE_LINES.map(_as_bytes)))
@example(data=(SNAPSHOT_DIR / "profiles.txt").read_bytes())  # drawn blocks are seldom valid
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
            values = vars(profile)
            assert all(value is None or type(value) in (str, int, float) for value in values.values())
            for key, rule in _TOKENS.items():
                assert not isinstance(rule, tuple) or values[key] in rule
            # written out as key: token lines, it reads back the same
            path.write_text("\n".join(f"{key}: {'none' if value is None else value}"
                                      for key, value in values.items()), encoding="utf-8")
            assert load_profiles(path) == {profile.coin_id: profile}


def _sweep_datasets() -> dict[str, Dataset]:
    """Three metrics of 200-400-day series with the inputs that break estimators:
    a duplicated series, a constant one, a stablecoin-like peg, integer-quantized
    values, and a coin that lacks one metric."""
    rng = np.random.default_rng(2024)
    coins = ["walk1", "walk2", "walk3", "walk4", "twin", "flat", "peg", "steps", "absent"]
    profiles = {
        coin: MechanismProfile(coin, ["PoW", "PoS", "other"][i % 3], ["sha256", "scrypt"][i % 2],
                               ["static", "dynamic", "none"][i % 3], ["public", "private"][i % 2])
        for i, coin in enumerate(coins)
    }
    datasets = {}
    for metric in METRICS:
        values = {f"walk{i}": 50.0 * np.exp(0.02 * np.cumsum(rng.standard_normal(rng.integers(200, 401))))
                  for i in range(1, 5)}
        values["twin"] = values["walk1"].copy()
        values["flat"] = np.full(250, 7.0)
        values["peg"] = 1.0 + np.round(0.002 * rng.standard_normal(300), 4)
        values["steps"] = np.round(10.0 + np.abs(np.cumsum(rng.standard_normal(320))))
        if metric != "block_size_bytes":
            values["absent"] = 3.0 + rng.random(210)
        series = {coin: make_series(v) for coin, v in values.items()}
        missing = sorted(set(coins) - set(series))
        datasets[metric] = Dataset(metric=metric, series=series, profiles=profiles, missing=missing)
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
