"""Scalar characteristics of a daily series.

Sixteen global measures summarise one series: four moments, seven order
statistics (including the 1% / 5% downside quantiles of the level series),
a linear trend, the lag-1 autocorrelation, a fluctuation-analysis
self-similarity exponent, and a largest-divergence-rate (chaos) estimate.
The flattened ordering of the sixteen fields is fixed by ``COLUMNS`` and is
part of the clustering contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    FeatureError,
    NoValidNeighborsError,
    TooShortForDfaError,
    TooShortForLyapunovError,
)

# Flattened feature order; names double as CSV/JSON column labels.  The
# CharacteristicVector attribute of each column is its lower-cased name.
COLUMNS = (
    "mean",
    "standard_deviation",
    "skewness",
    "kurtosis",
    "maximum",
    "minimum",
    "lowerquant",
    "median",
    "upperquant",
    "VaR99",
    "VaR95",
    "slope",
    "intercept",
    "autocorrelation",
    "self_similarity",
    "chaos",
)

@dataclass
class CharacteristicsConfig:
    """Estimator parameters, all overridable from the CLI."""

    min_dfa_len: int = 100
    dfa_min_window: int = 4
    dfa_max_window_frac: float = 0.25
    dfa_window_candidates: int = 20
    min_lyapunov_len: int = 200
    embedding_dim: int = 3
    embedding_delay: int = 1
    lyapunov_max_fit_steps: int | None = None  # default min(20, n // 50)
    lyapunov_theiler: int | None = None        # default: one mean period


class Moments(NamedTuple):
    mean: float
    standard_deviation: float
    skewness: float
    kurtosis: float
    degenerate: bool


class Quantiles(NamedTuple):
    minimum: float
    var99: float
    var95: float
    lowerquant: float
    median: float
    upperquant: float
    maximum: float


class Trend(NamedTuple):
    slope: float
    intercept: float


@dataclass
class CharacteristicVector:
    """The sixteen named characteristics of one series.

    The ``intercept`` field is the first observed value of the series, not
    the fitted regression intercept.
    """

    mean: float
    standard_deviation: float
    skewness: float
    kurtosis: float
    maximum: float
    minimum: float
    lowerquant: float
    median: float
    upperquant: float
    var99: float
    var95: float
    slope: float
    intercept: float
    autocorrelation: float
    self_similarity: float
    chaos: float
    flags: tuple[str, ...] = field(default=())

    def values(self) -> np.ndarray:
        """The sixteen fields as a vector, in ``COLUMNS`` order."""
        return np.array([getattr(self, c.lower()) for c in COLUMNS], dtype=float)

    def as_dict(self) -> dict[str, float]:
        """The sixteen fields keyed by their column names."""
        return {c: float(getattr(self, c.lower())) for c in COLUMNS}


def moments(values) -> Moments:
    """Sample mean, standard deviation and bias-corrected shape moments.

    Standard deviation uses the n-1 denominator.  Skewness is the adjusted
    Fisher-Pearson coefficient G1 and kurtosis is bias-corrected *excess*
    kurtosis G2 (0 for a normal sample), matching the defaults of the common
    statistical packages.  Zero-variance input yields skewness and kurtosis
    of 0 with ``degenerate=True``; so do samples too short for the
    correction factors (n < 3 for skewness, n < 4 for kurtosis).
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 2:
        raise FeatureError("moments: need at least 2 observations")
    mean = float(np.mean(x))
    d = x - mean
    m2 = float(np.mean(d * d))
    sd = float(np.sqrt(m2 * n / (n - 1)))
    if m2 == 0.0:
        return Moments(mean, 0.0, 0.0, 0.0, True)
    m3 = float(np.mean(d**3))
    m4 = float(np.mean(d**4))
    degenerate = False
    if n >= 3:
        g1 = m3 / m2**1.5
        skew = g1 * np.sqrt(n * (n - 1)) / (n - 2)
    else:
        skew, degenerate = 0.0, True
    if n >= 4:
        g2 = m4 / (m2 * m2) - 3.0
        kurt = ((n + 1) * g2 + 6.0) * (n - 1) / ((n - 2) * (n - 3))
    else:
        kurt, degenerate = 0.0, True
    return Moments(mean, sd, float(skew), float(kurt), degenerate)


def quantiles(values) -> Quantiles:
    """Empirical quantiles of the level series at p = 0, .01, .05, .25, .5, .75, 1.

    Uses the linear-interpolation ("type 7") definition.  VaR99 / VaR95 are
    the 1% and 5% quantiles of the levels themselves, not of returns.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise FeatureError("quantiles: empty input")
    q = np.quantile(x, [0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 1.0], method="linear")
    return Quantiles(*(float(v) for v in q))


def ols_line(values) -> tuple[float, float]:
    """Least-squares slope and intercept of value on the index t = 0..n-1."""
    y = np.asarray(values, dtype=float)
    n = y.size
    if n < 2:
        raise FeatureError("ols_line: need at least 2 observations")
    t = np.arange(n, dtype=float)
    tbar = (n - 1) / 2.0
    stt = float(np.sum((t - tbar) ** 2))
    slope = float(np.sum((t - tbar) * (y - np.mean(y))) / stt)
    intercept = float(np.mean(y) - slope * tbar)
    return slope, intercept


def linear_trend(values) -> Trend:
    """Per-day OLS slope paired with the first observed value.

    The reported ``intercept`` is deliberately the first observation of the
    series, a level anchor at the series start, not the fitted regression
    intercept (``ols_line`` provides that one).
    """
    slope, _ = ols_line(values)
    return Trend(slope, float(np.asarray(values, dtype=float)[0]))


def autocorrelation_lag1(values) -> float:
    """Sample autocorrelation at lag 1.

    sum((x_t - xbar)(x_{t+1} - xbar)) / sum((x_t - xbar)^2); 0 for a
    zero-variance series.
    """
    x = np.asarray(values, dtype=float)
    if x.size < 3:
        raise FeatureError("autocorrelation: need at least 3 observations")
    d = x - np.mean(x)
    denom = float(np.sum(d * d))
    if denom == 0.0:
        return 0.0
    return float(np.sum(d[:-1] * d[1:]) / denom)


def _log_spaced_windows(lo: int, hi: int, num: int) -> np.ndarray:
    grid = np.logspace(np.log10(lo), np.log10(hi), num=num)
    return np.unique(np.clip(np.round(grid).astype(int), lo, hi))


def self_similarity_dfa(values, config: CharacteristicsConfig | None = None) -> float:
    """Self-similarity exponent via first-order detrended fluctuation analysis.

    The demeaned series is integrated into a profile; for each window size s
    on a log-spaced grid in [4, n/4] the profile is cut into non-overlapping
    windows, each window linearly detrended, and F(s) is the RMS residual.
    The exponent is the slope of log F(s) against log s.

    Values near 0.5 indicate uncorrelated increments, near 1.5 a random
    walk; a pure deterministic trend saturates the estimator near 2.
    Zero-variance input returns 0.
    """
    cfg = config or CharacteristicsConfig()
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < cfg.min_dfa_len:
        raise TooShortForDfaError(f"need >= {cfg.min_dfa_len} observations, got {n}")
    profile = np.cumsum(x - np.mean(x))
    if np.all(profile == 0.0):
        return 0.0
    s_max = int(n * cfg.dfa_max_window_frac)
    scales = _log_spaced_windows(cfg.dfa_min_window, s_max, cfg.dfa_window_candidates)
    log_s, log_f = [], []
    for s in scales:
        nwin = n // s
        if nwin < 2:
            continue
        seg = profile[: nwin * s].reshape(nwin, s)
        t = np.arange(s, dtype=float)
        tc = t - t.mean()
        stt = float(np.sum(tc * tc))
        seg_mean = seg.mean(axis=1, keepdims=True)
        slope = (seg - seg_mean) @ tc / stt
        resid = seg - seg_mean - slope[:, None] * tc[None, :]
        f2 = np.mean(resid * resid)
        if f2 > 0.0:
            log_s.append(np.log(s))
            log_f.append(0.5 * np.log(f2))
    if len(log_s) < 2:
        return 0.0
    slope, _ = np.polyfit(log_s, log_f, 1)
    return float(slope)


def _mean_period(x: np.ndarray) -> int:
    """Amplitude-weighted mean period of the demeaned signal, in samples."""
    spec = np.abs(np.fft.rfft(x - np.mean(x)))[1:]
    if spec.sum() == 0.0:
        return 1
    freqs = np.fft.rfftfreq(x.size)[1:]
    mean_freq = float(np.sum(freqs * spec) / np.sum(spec))
    if mean_freq <= 0.0:
        return 1
    return max(1, int(np.ceil(1.0 / mean_freq)))


def chaos_lyapunov(values, config: CharacteristicsConfig | None = None) -> float:
    """Largest divergence-rate exponent, Rosenstein-style, per day.

    The series is delay-embedded (dimension 3, delay 1 by default).  Each
    embedded point is paired with its nearest neighbour at least one mean
    period away in time, the pairwise distances are followed forward, and
    the exponent is the slope of the mean log-divergence curve over its
    initial rise.  When the curve saturates inside the fit range (it always
    does for strongly chaotic signals), the fit stops at the step where 90%
    of the total rise is reached; otherwise it spans steps
    1..min(20, n/50).  Zero-variance input returns 0.
    """
    cfg = config or CharacteristicsConfig()
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < cfg.min_lyapunov_len:
        raise TooShortForLyapunovError(f"need >= {cfg.min_lyapunov_len} observations, got {n}")
    if np.ptp(x) == 0.0:
        return 0.0

    m, tau = cfg.embedding_dim, cfg.embedding_delay
    n_points = n - (m - 1) * tau
    steps = cfg.lyapunov_max_fit_steps or min(20, n // 50)
    steps = max(3, min(steps, n_points - 2))

    orbit = np.column_stack([x[i * tau : i * tau + n_points] for i in range(m)])
    theiler = cfg.lyapunov_theiler if cfg.lyapunov_theiler is not None else _mean_period(x)
    theiler = max(1, min(theiler, (n_points - steps - 2) // 4))

    # Pairs must be followable for `steps` steps.  Candidates closer than
    # round-off scale are numerically identical trajectories and carry no
    # dynamical information, so they are excluded like exact duplicates.
    last = n_points - steps
    if last < 2:
        raise TooShortForLyapunovError("not enough points to follow divergence trajectories")
    tol2 = (1e-9 * float(np.std(x))) ** 2
    idx = np.arange(last)
    neighbors = np.full(last, -1)
    cols = np.arange(last)[None, :]
    head = orbit[:last]
    sq_norms = (head * head).sum(axis=1)
    # Blocks of rows reuse two buffers of at most 2**16 floats (512 KiB):
    # they stay in cache, and no block allocates, because block-sized
    # temporaries are page-faulted in afresh each time, at a cost that
    # varies from run to run.
    block = max(1, min(last, 2**16 // last))
    twice_gram, dist = np.empty((block, last)), np.empty((block, last))
    for start in range(0, last, block):
        stop = min(start + block, last)
        gram, d2 = twice_gram[: stop - start], dist[: stop - start]
        np.matmul(head[start:stop], head.T, out=gram)
        gram *= 2.0
        np.add(sq_norms[start:stop, None], sq_norms[None, :], out=d2)
        d2 -= gram
        # only columns within `theiler` of the block's rows can be masked
        lo, hi = max(0, start - theiler), min(last, stop + theiler)
        rows = np.arange(start, stop)[:, None]
        d2[:, lo:hi][np.abs(rows - cols[:, lo:hi]) <= theiler] = np.inf
        d2[d2 <= tol2] = np.inf
        nearest = np.argmin(d2, axis=1)
        finite = np.isfinite(d2[np.arange(stop - start), nearest])
        neighbors[start:stop][finite] = nearest[finite]
    valid = neighbors >= 0
    if not np.any(valid):
        raise NoValidNeighborsError("no positive-distance neighbor outside the temporal window")
    idx, nbr = idx[valid], neighbors[valid]

    log_div = np.empty(steps + 1)
    for k in range(steps + 1):
        d = np.linalg.norm(orbit[idx + k] - orbit[nbr + k], axis=1)
        d = d[d > 0.0]
        log_div[k] = np.mean(np.log(d)) if d.size else np.nan
    ks = np.arange(steps + 1)
    keep = np.isfinite(log_div)
    ks, log_div = ks[keep], log_div[keep]
    if ks.size < 3:
        raise NoValidNeighborsError("divergence curve too sparse to fit")

    # Restrict the fit to the initial rise: stop at 90% of the total climb
    # once the curve demonstrably saturates, else use the whole range.
    fit_from = 1 if ks[0] == 0 else 0
    y = log_div[fit_from:]
    kfit = ks[fit_from:]
    rise = float(np.max(y) - y[0])
    if rise > 0.5:
        k_end = int(np.argmax(y >= y[0] + 0.9 * rise))
        k_end = max(k_end, 2)
        y, kfit = y[: k_end + 1], kfit[: k_end + 1]
    slope, _ = np.polyfit(kfit, y, 1)
    return float(slope)


# Exponent above which the fluctuation analysis is pinned at its
# deterministic-trend ceiling rather than measuring scaling.
DFA_SATURATION = 1.9


def compute_characteristics(series, config: CharacteristicsConfig | None = None) -> CharacteristicVector:
    """Assemble all sixteen characteristics of one series.

    Zero-variance series yield flagged zeros for the shape, correlation and
    scaling features instead of raising, so one pathological coin cannot
    abort a batch run.  Other sub-estimator failures propagate with the
    field name attached.
    """
    cfg = config or CharacteristicsConfig()
    values = np.asarray(series.values, dtype=float)
    flags: list[str] = []

    mom = moments(values)
    if mom.degenerate:
        flags.append("zero_variance")
    q = quantiles(values)
    trend = linear_trend(values)

    if mom.standard_deviation == 0.0:
        acf = 0.0
        dfa = 0.0
        lyap = 0.0
    else:
        acf = autocorrelation_lag1(values)
        try:
            dfa = self_similarity_dfa(values, cfg)
        except TooShortForDfaError as exc:
            raise FeatureError(f"self_similarity: {exc}") from exc
        try:
            lyap = chaos_lyapunov(values, cfg)
        except (TooShortForLyapunovError, NoValidNeighborsError) as exc:
            raise FeatureError(f"chaos: {exc}") from exc
        if dfa >= DFA_SATURATION:
            flags.append("dfa_saturated")

    return CharacteristicVector(
        mean=mom.mean,
        standard_deviation=mom.standard_deviation,
        skewness=mom.skewness,
        kurtosis=mom.kurtosis,
        maximum=q.maximum,
        minimum=q.minimum,
        lowerquant=q.lowerquant,
        median=q.median,
        upperquant=q.upperquant,
        var99=q.var99,
        var95=q.var95,
        slope=trend.slope,
        intercept=trend.intercept,
        autocorrelation=acf,
        self_similarity=dfa,
        chaos=lyap,
        flags=tuple(flags),
    )
