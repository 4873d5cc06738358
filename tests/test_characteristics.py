import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from coinclust import characteristics
from coinclust.characteristics import (
    COLUMNS,
    WINDOW_REACH,
    WINDOW_ROWS,
    autocorrelation_lag1,
    chaos_lyapunov,
    compute_characteristics,
    divergence_curve,
    line_slope,
    moments,
    nearest_outside_window,
    ols_line,
    quantiles,
    self_similarity_dfa,
)
from coinclust.config import RunConfig
from coinclust.errors import CoinclustError
from coinclust.ingest import METRICS, build_dataset

from conftest import characteristics_of, make_series, random_walk, white_noise
from oracles import (
    acf1_direct,
    dfa_naive,
    dfa_reference_loop,
    divergence_curve_step_loop,
    line_slope_closed_form,
    lyapunov_naive,
    moments_direct,
    nearest_outside_window_naive,
    ols_direct,
    quantile_sorted,
)


# --- moments ---------------------------------------------------------------

def test_moments_hand_computed():
    m = moments([1, 2, 3, 4, 5])
    assert m["mean"] == pytest.approx(3.0)
    assert m["standard_deviation"] == pytest.approx(1.5811, abs=1e-4)


def test_moments_constant_flagged():
    m = moments([7.0, 7.0, 7.0, 7.0])
    assert m == {"mean": 7.0, "standard_deviation": 0.0, "skewness": 0.0, "kurtosis": 0.0}


def test_moments_match_direct_summation_oracle():
    x = random_walk(10_000, seed=7)
    m = moments(x)
    mean, sd, skew, kurt = moments_direct(x)
    assert m["mean"] == pytest.approx(mean, rel=1e-10)
    assert m["standard_deviation"] == pytest.approx(sd, rel=1e-10)
    assert m["skewness"] == pytest.approx(skew, rel=1e-10, abs=1e-10)
    assert m["kurtosis"] == pytest.approx(kurt, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("n", [4, 1000])
def test_moments_are_finite_inside_the_float_range_and_refused_outside(n):
    x = white_noise(n, seed=n)
    x /= np.ptp(x)
    limits = np.finfo(float)
    low, high = 2 * np.sqrt(n) * limits.tiny**0.25, (limits.max / n) ** 0.25
    for spread in (low * 1.001, high * 0.999):
        assert np.isfinite(list(moments(x * spread).values())).all()
    for spread in (low * 0.999, high * 1.001):
        with pytest.raises(CoinclustError, match=r"^kurtosis: a range of "):
            moments(x * spread)


def test_excess_kurtosis_can_be_negative():
    # a flat-ish bimodal sample has lighter tails than a normal
    x = np.concatenate([np.full(50, -1.0), np.full(50, 1.0)]) + white_noise(100, seed=3, scale=0.01)
    assert moments(x)["kurtosis"] < 0


# --- quantiles ---------------------------------------------------------------

def test_quantiles_textbook_interpolation():
    q = quantiles(np.arange(1, 101))
    assert q["median"] == pytest.approx(50.5)
    assert q["lowerquant"] == pytest.approx(25.75)
    assert q["upperquant"] == pytest.approx(75.25)


def test_quantiles_single_element():
    q = quantiles([4.2])
    assert all(v == 4.2 for v in q.values())


def test_quantiles_uniform_var99():
    x = np.random.default_rng(11).uniform(0, 1, 10_000)
    q = quantiles(x)
    assert abs(q["VaR99"] - 0.01) < 0.005


@pytest.mark.parametrize("seed", range(5))
def test_quantiles_match_sort_oracle(seed):
    x = random_walk(997, seed=seed)
    q = quantiles(x)
    for name, p in [("minimum", 0.0), ("VaR99", 0.01), ("VaR95", 0.05), ("lowerquant", 0.25),
                    ("median", 0.5), ("upperquant", 0.75), ("maximum", 1.0)]:
        assert q[name] == pytest.approx(quantile_sorted(x, p), rel=1e-12)


def test_quantile_ordering_invariant():
    for seed in range(10):
        q = quantiles(white_noise(200, seed=seed))
        assert (q["minimum"] <= q["VaR99"] <= q["VaR95"] <= q["lowerquant"] <= q["median"] <= q["upperquant"]
                <= q["maximum"])


# --- linear trend --------------------------------------------------------------

def test_trend_exact_line():
    assert ols_line([2, 4, 6, 8]) == pytest.approx(2.0)
    row = characteristics_of(3.0 + 2.0 * np.arange(300))
    assert row["slope"] == pytest.approx(2.0)
    assert row["intercept"] == 3.0  # first observed value


def test_trend_constant():
    assert ols_line([5.0, 5.0, 5.0]) == pytest.approx(0.0)
    row = characteristics_of(np.full(300, 5.0))
    assert (row["slope"], row["intercept"]) == (0.0, 5.0)


def test_trend_noisy_line_within_ols_band():
    rng = np.random.default_rng(23)
    n = 1000
    noise = rng.standard_normal(n)
    y = 3.0 + 0.5 * np.arange(n) + noise
    slope = ols_line(y)
    # closed-form OLS slope variance: sigma^2 / sum((t - tbar)^2)
    stt = np.sum((np.arange(n) - (n - 1) / 2) ** 2)
    assert abs(slope - 0.5) < 3.0 / np.sqrt(stt)


def test_ols_matches_direct_oracle():
    y = random_walk(512, seed=5)
    oslope, _ = ols_direct(y)
    assert ols_line(y) == pytest.approx(oslope, rel=1e-10)


# --- autocorrelation -------------------------------------------------------------

def test_acf1_alternating():
    x = np.array([1.0, -1.0] * 50)
    got = autocorrelation_lag1(x)
    assert got == pytest.approx(acf1_direct(x), rel=1e-12)
    assert got == pytest.approx(-0.99, abs=1e-9)


def test_acf1_white_noise_small():
    assert abs(autocorrelation_lag1(white_noise(10_000, seed=2))) < 0.03


def test_acf1_random_walk_near_one():
    assert autocorrelation_lag1(random_walk(5_000, seed=9)) > 0.99


# --- self-similarity (DFA) ---------------------------------------------------------

def test_dfa_white_noise_range():
    [got] = self_similarity_dfa([white_noise(10_000, seed=1)])
    assert 0.45 <= got <= 0.55


def test_dfa_random_walk_range():
    [got] = self_similarity_dfa([random_walk(10_000, seed=1)])
    assert 1.4 <= got <= 1.6


def test_dfa_linear_ramp_saturates():
    [got] = self_similarity_dfa([np.arange(1000, dtype=float)])
    assert got == pytest.approx(2.0, abs=0.1)
    assert characteristics_of(np.arange(1000, dtype=float))["self_similarity"] >= 1.9


def test_dfa_matches_naive_oracle():
    x = random_walk(2_000, seed=17)
    assert self_similarity_dfa([x])[0] == pytest.approx(dfa_naive(x), rel=1e-8)


def test_dfa_too_short():
    with pytest.raises(CoinclustError, match=r"^self_similarity: need >= 100 observations, got 99$"):
        self_similarity_dfa([white_noise(99, seed=0)])


@pytest.mark.parametrize("n, config", [
    (450, RunConfig(dfa_max_window_frac=0.01)),  # int(4.5) = 4: one window size
    (150, RunConfig(dfa_max_window_frac=0.01)),  # int(1.5) = 1: below the smallest window
    (1_000, RunConfig(dfa_min_window=5_000)),
    (1_000, RunConfig(dfa_min_window=600, dfa_max_window_frac=1.0)),  # sizes 600..1000: none fits twice
    (1_000, RunConfig(dfa_min_window=500, dfa_max_window_frac=1.0)),  # only 500 fits twice
], ids=["one_size", "below_min_window", "min_window_above_n", "no_size_fits_twice", "one_size_fits_twice"])
def test_dfa_with_fewer_than_two_window_sizes_raises(n, config):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CoinclustError,
                           match="^self_similarity: dfa_min_window=.* and dfa_max_window_frac=") as exc:
            self_similarity_dfa([random_walk(n, seed=3)], config)
    assert str(n) not in str(exc.value)  # one reason for every length, so coins group by it


@pytest.mark.parametrize("config", [RunConfig(), RunConfig(dfa_min_window=5, dfa_max_window_frac=0.3)],
                         ids=["defaults", "min_window_5_frac_0.3"])
def test_dfa_equals_reference_loop_on_every_snapshot_series(snapshot_dir, config):
    series = [s.values for metric in METRICS
              for s in build_dataset(snapshot_dir, snapshot_dir / "profiles.txt", metric).series.values()]
    assert len(series) == 51
    assert self_similarity_dfa(series, config).tolist() == [
        dfa_reference_loop(x, config.dfa_min_window, config.dfa_max_window_frac) for x in series]


def test_closed_form_fit_matches_polyfit():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(2, 40))
        x = rng.uniform(-5.0, 10.0, n)
        slope = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
        y = slope * x + rng.uniform(-2.0, 2.0) + rng.uniform(0.0, 1.0) * rng.standard_normal(n)
        assert line_slope_closed_form(x, y) == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-12)
        assert line_slope(x, y) == line_slope_closed_form(x, y)


@pytest.mark.parametrize("seed", range(5))
def test_dfa_noise_below_walk(seed):
    noise, walk = self_similarity_dfa([white_noise(5_000, seed=seed), random_walk(5_000, seed=seed + 100)])
    assert noise < walk


# --- chaos (largest divergence rate) --------------------------------------------------

def logistic_map(n, x0=0.4):
    x = np.empty(n)
    x[0] = x0
    for i in range(1, n):
        x[i] = 4.0 * x[i - 1] * (1.0 - x[i - 1])
    return x


def period_20_sine(n):
    return np.sin(2 * np.pi * np.arange(n) / 20.0 + 0.3)


def block_times(n, seed=5):
    """Minutes between blocks: a 10-minute target plus an exponential delay,
    rounded to 0.1 min."""
    return np.round(10.0 + np.random.default_rng(seed).exponential(1.0, n), 1)


def stablecoin_price(n, seed=6):
    """A $1 peg that holds exactly on most days and drifts by cents on a few."""
    rng = np.random.default_rng(seed)
    x = np.ones(n)
    drift = rng.random(n) < 0.25
    x[drift] += np.round(rng.normal(0.0, 0.003, drift.sum()), 4)
    return x


def test_lyapunov_logistic_map():
    got = chaos_lyapunov(logistic_map(5_000))
    assert got == pytest.approx(np.log(2.0), abs=0.1)


def test_lyapunov_sine_near_zero():
    assert abs(chaos_lyapunov(period_20_sine(2_000))) < 0.02


def test_lyapunov_random_walk_positive_and_matches_oracle():
    x = random_walk(2_000, seed=3)
    got = chaos_lyapunov(x)
    ref = lyapunov_naive(x)
    assert got > 0 and np.isfinite(got)
    assert got == pytest.approx(ref, rel=1e-8)


def test_lyapunov_too_short():
    with pytest.raises(CoinclustError, match=r"^chaos: need >= 200 observations, got 150$"):
        chaos_lyapunov(white_noise(150, seed=0))


# --- nearest neighbour outside the temporal window --------------------------------------

NEIGHBOR_CASES = {
    "random_walk": lambda: random_walk(600, seed=11),
    "logistic_map": lambda: logistic_map(600),
    "period_20_sine": lambda: period_20_sine(600),
    "block_times": lambda: block_times(600),
    "stablecoin": lambda: stablecoin_price(600),
}


def delay_embedding(x, dim=3):
    return np.column_stack([x[i : x.size - dim + 1 + i] for i in range(dim)])


@pytest.mark.parametrize("case", sorted(NEIGHBOR_CASES))
def test_neighbor_search_matches_naive_oracle(case):
    x = NEIGHBOR_CASES[case]()
    points = delay_embedding(x)
    tol2 = (1e-9 * float(np.std(x))) ** 2
    got = nearest_outside_window(points, 10, tol2)
    assert got.tolist() == nearest_outside_window_naive(points, 10, tol2)


def test_neighbor_search_on_a_short_orbit_allocates_no_integer_band():
    # On a short orbit one block spans every row; a (block x width) int64
    # time-window band would add two 0.5 MiB temporaries to the 0.5 MiB screen.
    x = random_walk(265, seed=5)
    points = delay_embedding(x)
    tol2 = (1e-9 * float(np.std(x))) ** 2
    tracemalloc.start()
    try:
        got = nearest_outside_window(points, 10, tol2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert got.tolist() == nearest_outside_window_naive(points, 10, tol2)


def test_neighbor_search_row_without_valid_neighbor():
    points = np.ones((100, 3))
    points[45:56] = np.random.default_rng(0).normal(size=(11, 3))
    points[50] = 1.0  # everything more than 10 rows away duplicates it
    got = nearest_outside_window(points, 10, 1e-18)
    assert got[50] == -1
    assert got.tolist() == nearest_outside_window_naive(points, 10, 1e-18)


def test_neighbor_search_row_with_no_candidate_is_settled_without_a_warning():
    # Every row is within theiler=1 of row 1, so its screen holds only inf;
    # a RuntimeWarning fails the test (pyproject.toml filterwarnings).
    points = np.random.default_rng(1).normal(size=(3, 2))
    got = nearest_outside_window(points, 1, 0.0)
    assert got.tolist() == nearest_outside_window_naive(points, 1, 0.0) == [2, -1, 0]


# --- the window stage: orbits longer than WINDOW_ROWS + 2 * WINDOW_REACH points ----------

WINDOW_CASES = {
    "random_walk": lambda n: random_walk(n, seed=11),
    "logistic_map": logistic_map,
    "period_20_sine": period_20_sine,
    "block_times": block_times,
    "stablecoin": stablecoin_price,
    "repeated_walk": lambda n: np.repeat(random_walk((n + 1) // 2, seed=12), 2)[:n],
}
TIE_HEAVY = ("period_20_sine", "block_times", "stablecoin")


def _search_with_open_rows(monkeypatch, points, theiler, tol2):
    """The neighbours, and the rows the window stage left open (None when it did not run)."""
    seen = []
    window_stage = characteristics._window_stage

    def recording(*args):
        seen.append(window_stage(*args))
        return seen[-1]

    with monkeypatch.context() as patch:
        patch.setattr(characteristics, "_window_stage", recording)
        got = nearest_outside_window(points, theiler, tol2)
    return got, (seen[0] if seen else None)


def _search_without_window(monkeypatch, points, theiler, tol2):
    """The exact path over every row: the screen against all points, then direct differences."""
    with monkeypatch.context() as patch:
        patch.setattr(characteristics, "_window_stage", lambda points, *_: np.arange(len(points)))
        return nearest_outside_window(points, theiler, tol2)


@pytest.mark.parametrize("theiler", [1, 10, 40])
@pytest.mark.parametrize("n", [1_000, 3_000])
@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_window_stage_equals_the_path_over_every_row(monkeypatch, case, n, theiler):
    x = WINDOW_CASES[case](n)
    points = delay_embedding(x)
    tol2 = (1e-9 * float(np.std(x))) ** 2
    got, open_rows = _search_with_open_rows(monkeypatch, points, theiler, tol2)
    assert got.tolist() == _search_without_window(monkeypatch, points, theiler, tol2).tolist()
    assert open_rows is not None
    if case in ("random_walk", "logistic_map"):
        assert open_rows.size < 0.1 * n  # the window settles almost every row
    if case in TIE_HEAVY and n == 3_000:
        assert open_rows.size == len(points)  # the probe gave every row to the exact path


@pytest.mark.parametrize("m, tau", [(1, 1), (4, 2)])
@pytest.mark.parametrize("case", ["random_walk", "logistic_map", "stablecoin"])
def test_window_stage_in_other_embeddings(monkeypatch, case, m, tau):
    x = WINDOW_CASES[case](2_000)
    n_points = x.size - (m - 1) * tau
    points = np.column_stack([x[c * tau : c * tau + n_points] for c in range(m)])
    tol2 = (1e-9 * float(np.std(x))) ** 2
    got, open_rows = _search_with_open_rows(monkeypatch, points, 10, tol2)
    assert open_rows is not None
    assert got.tolist() == _search_without_window(monkeypatch, points, 10, tol2).tolist()


def test_window_stage_matches_naive_oracle(monkeypatch):
    x = random_walk(1_500, seed=4)
    points = delay_embedding(x)
    tol2 = (1e-9 * float(np.std(x))) ** 2
    got, open_rows = _search_with_open_rows(monkeypatch, points, 10, tol2)
    assert open_rows is not None and open_rows.size < 0.1 * len(points)
    assert got.tolist() == nearest_outside_window_naive(points, 10, tol2)


@pytest.mark.parametrize("time", [0, -1])
def test_window_stage_keeps_the_band_of_a_row_at_either_end_of_time(monkeypatch, time):
    # The row at time 0 (or n - 1) has temporal neighbours before time 0 (or
    # after n - 1).  Its nearest point sits at sorted position W, which a
    # block with lo > 0 sees at window column W - lo: a band sentinel of W,
    # shifted by lo, would mask that point and pick another.
    n, width = 1_200, WINDOW_ROWS + 2 * WINDOW_REACH
    values = np.random.default_rng(7).random(n)
    # rank W among the other points, and so among all once values[time] sits just above it
    target = [i for i in np.argsort(values) if i != time % n][width]
    assert abs(target - time % n) > 10
    values[time] = values[target] + 1e-9
    points = np.column_stack([values, np.zeros(n)])
    got, open_rows = _search_with_open_rows(monkeypatch, points, 10, 0.0)
    assert open_rows is not None and time % n not in open_rows
    assert got[time] == target
    assert got.tolist() == _search_without_window(monkeypatch, points, 10, 0.0).tolist()


@pytest.mark.parametrize("spread", [1.0, 3.0, 100.0])
def test_window_stage_when_the_nearest_point_may_lie_outside_the_window(monkeypatch, spread):
    # The wider the second coordinate spreads, the farther a row's nearest
    # point tends to be in first-coordinate order; only the gap to the
    # points outside the window tells whether the window's winner is it.
    rng = np.random.default_rng(8)
    points = np.column_stack([rng.random(3_000), spread * rng.random(3_000)])
    got, open_rows = _search_with_open_rows(monkeypatch, points, 10, 0.0)
    assert open_rows is not None
    assert got.tolist() == _search_without_window(monkeypatch, points, 10, 0.0).tolist()


@pytest.mark.parametrize("theiler", [10, (WINDOW_REACH - 1) // 2, WINDOW_REACH // 2, 1_100])
def test_neighbor_search_memory_does_not_grow_with_the_band(theiler):
    # 2 * theiler + 1 above WINDOW_REACH skips the window stage, and the band
    # is masked by index per block: the peak stays at a few screen blocks.
    x = random_walk(4_500, seed=4)
    points = delay_embedding(x)
    tracemalloc.start()
    try:
        nearest_outside_window(points, theiler, 1e-18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


@pytest.mark.parametrize("case", ["period_20_sine", "stablecoin"])
def test_lyapunov_tied_series_match_oracle(case):
    x = NEIGHBOR_CASES[case]()
    assert chaos_lyapunov(x) == pytest.approx(lyapunov_naive(x), rel=1e-8)


def _curve_pairs(x, m, tau, steps):
    """The delay vectors and their pairs as chaos_lyapunov forms them, with a fixed 10-row window."""
    n_points = x.size - (m - 1) * tau
    orbit = np.column_stack([x[c * tau : c * tau + n_points] for c in range(m)])
    tol2 = (1e-9 * float(np.std(x))) ** 2
    neighbors = nearest_outside_window(orbit[: n_points - steps], 10, tol2)
    idx = np.flatnonzero(neighbors >= 0)
    return orbit, idx, neighbors[idx]


@pytest.mark.parametrize("case, m, tau", [
    ("random_walk", 3, 1),
    ("period_20_sine", 3, 1),
    ("stablecoin", 3, 1),  # pairs that meet again: zero distances at later steps
    ("random_walk", 4, 2),
    ("stablecoin", 1, 1),
    ("random_walk", 8, 1),  # from eight coordinates numpy sums a row pairwise
    ("stablecoin", 12, 2),
])
def test_divergence_curve_equals_the_step_loop_bit_for_bit(case, m, tau):
    x = NEIGHBOR_CASES[case]()
    orbit, idx, nbr = _curve_pairs(x, m, tau, 20)
    got = divergence_curve(x, idx, nbr, 20, m, tau)
    assert got.tobytes() == divergence_curve_step_loop(x, idx, nbr, 20, m, tau).tobytes()
    if case == "stablecoin":
        assert any(np.all(orbit[idx + k] == orbit[nbr + k], axis=1).any() for k in range(21))


def test_divergence_curve_step_with_only_zero_distances_is_nan():
    x = np.r_[0.0, 3.0, np.ones(30)]
    # (0, 1) is 3 apart, then 2, then 0 for good; (4, 20) is 0 apart throughout
    idx, nbr = np.array([0, 4]), np.array([1, 20])
    got = divergence_curve(x, idx, nbr, 10, 1, 1)
    assert got.tobytes() == divergence_curve_step_loop(x, idx, nbr, 10, 1, 1).tobytes()
    assert got[0] == np.log(3.0) and got[1] == np.log(2.0) and np.isnan(got[2:]).all()


def test_chaos_after_cli_import_leaves_scipy_unloaded():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import coinclust.cli\n"
        "from coinclust.characteristics import chaos_lyapunov\n"
        "chaos_lyapunov(np.cumsum(np.random.default_rng(0).standard_normal(400)))\n"
        "sys.exit(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# --- assembled vector ---------------------------------------------------------------

def test_constant_series_zeros():
    row = characteristics_of(np.full(300, 4.0))
    assert row["standard_deviation"] == 0.0
    assert row["slope"] == pytest.approx(0.0)
    assert row["skewness"] == 0.0 and row["kurtosis"] == 0.0 and row["autocorrelation"] == 0.0
    assert row["self_similarity"] == 0.0 and row["chaos"] == 0.0
    assert list(row.values()) == [4.0, 0.0, 0.0, 0.0] + [4.0] * 7 + [0.0, 4.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("n, config", [(29, RunConfig()), (39, RunConfig(min_series_len=40))])
def test_series_below_min_series_len_raises_naming_the_setting(n, config):
    [reason] = compute_characteristics([make_series(np.full(n, 4.0))], config)
    assert isinstance(reason, CoinclustError)
    assert str(reason) == f"min_series_len: fewer than {config.min_series_len} rows"


def test_vector_matches_field_order():
    x = random_walk(400, seed=21, start=100.0)
    [row] = compute_characteristics([make_series(x)])
    [dfa] = self_similarity_dfa([x])
    expected = {
        **moments(x), **quantiles(x), "slope": ols_line(x), "intercept": x[0],
        "autocorrelation": autocorrelation_lag1(x), "self_similarity": dfa, "chaos": chaos_lyapunov(x),
    }
    assert sorted(expected) == sorted(COLUMNS)
    assert row.shape == (len(COLUMNS),) and row.dtype == np.float64
    for name, value in expected.items():
        assert row[COLUMNS.index(name)] == value, name


def test_vector_against_independent_reference():
    x = np.abs(random_walk(1_000, seed=31, start=50.0)) + 1.0
    row = characteristics_of(x)
    mean, sd, skew, kurt = moments_direct(x)
    assert row["mean"] == pytest.approx(mean, rel=1e-8)
    assert row["standard_deviation"] == pytest.approx(sd, rel=1e-8)
    assert row["skewness"] == pytest.approx(skew, rel=1e-8)
    assert row["kurtosis"] == pytest.approx(kurt, rel=1e-8)
    for attr, p in [("minimum", 0.0), ("VaR99", 0.01), ("VaR95", 0.05), ("lowerquant", 0.25),
                    ("median", 0.5), ("upperquant", 0.75), ("maximum", 1.0)]:
        assert row[attr] == pytest.approx(quantile_sorted(x, p), rel=1e-8)
    oslope, _ = ols_direct(x)
    assert row["slope"] == pytest.approx(oslope, rel=1e-8)
    assert row["intercept"] == x[0]
    assert row["autocorrelation"] == pytest.approx(acf1_direct(x), rel=1e-8)
    assert row["self_similarity"] == pytest.approx(dfa_naive(x), rel=1e-3)
    assert row["chaos"] == pytest.approx(lyapunov_naive(x), rel=1e-3, abs=1e-6)


# --- invariances ----------------------------------------------------------------------

def test_shift_equivariance():
    x = np.abs(random_walk(600, seed=41)) + 5.0
    a, b = characteristics_of(x), characteristics_of(x + 10.0)
    for attr in ("mean", "maximum", "minimum", "lowerquant", "median", "upperquant",
                 "VaR99", "VaR95", "intercept"):
        assert b[attr] == pytest.approx(a[attr] + 10.0, rel=1e-9, abs=1e-9)
    for attr in ("standard_deviation", "skewness", "kurtosis", "autocorrelation", "slope"):
        assert b[attr] == pytest.approx(a[attr], rel=1e-9, abs=1e-9)
    assert b["self_similarity"] == pytest.approx(a["self_similarity"], abs=1e-3)
    assert b["chaos"] == pytest.approx(a["chaos"], abs=1e-3)


def test_scale_equivariance():
    x = np.abs(random_walk(600, seed=43)) + 5.0
    lam = 3.5
    a, b = characteristics_of(x), characteristics_of(lam * x)
    for attr in ("mean", "standard_deviation", "maximum", "minimum", "lowerquant", "median",
                 "upperquant", "VaR99", "VaR95", "slope", "intercept"):
        assert b[attr] == pytest.approx(lam * a[attr], rel=1e-9)
    for attr in ("skewness", "kurtosis", "autocorrelation"):
        assert b[attr] == pytest.approx(a[attr], rel=1e-9)
    assert b["self_similarity"] == pytest.approx(a["self_similarity"], abs=1e-9)


def test_reversal():
    x = np.abs(random_walk(600, seed=47)) + 5.0
    a, b = characteristics_of(x), characteristics_of(x[::-1].copy())
    assert b["slope"] == pytest.approx(-a["slope"], rel=1e-9)
    assert b["intercept"] == x[-1]
    for attr in ("mean", "standard_deviation", "skewness", "kurtosis", "maximum", "minimum",
                 "lowerquant", "median", "upperquant", "VaR99", "VaR95"):
        assert b[attr] == pytest.approx(a[attr], rel=1e-12)
