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

from .config import RunConfig
from .errors import CoinclustError

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

# Shortest series the fluctuation analysis and the divergence rate accept,
# and the number of log-spaced window sizes the fluctuation analysis tries.
MIN_DFA_LEN = 100
DFA_WINDOW_CANDIDATES = 20
MIN_LYAPUNOV_LEN = 200
# Divergence-fit extent when the run leaves it unset:
# min(LYAPUNOV_FIT_STEPS, n // DAYS_PER_FIT_STEP).
LYAPUNOV_FIT_STEPS = 20
DAYS_PER_FIT_STEP = 50


class Moments(NamedTuple):
    mean: float
    standard_deviation: float
    skewness: float
    kurtosis: float


class Quantiles(NamedTuple):
    minimum: float
    var99: float
    var95: float
    lowerquant: float
    median: float
    upperquant: float
    maximum: float


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
    of 0; so do samples too short for the correction factors (n < 3 for
    skewness, n < 4 for kurtosis).
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 2:
        raise CoinclustError("moments: need at least 2 observations")
    mean = float(np.mean(x))
    d = x - mean
    m2 = float(np.mean(d * d))
    sd = float(np.sqrt(m2 * n / (n - 1)))
    if m2 == 0.0:
        return Moments(mean, 0.0, 0.0, 0.0)
    m3 = float(np.mean(d**3))
    m4 = float(np.mean(d**4))
    skew = kurt = 0.0
    if n >= 3:
        g1 = m3 / m2**1.5
        skew = g1 * np.sqrt(n * (n - 1)) / (n - 2)
    if n >= 4:
        g2 = m4 / (m2 * m2) - 3.0
        kurt = ((n + 1) * g2 + 6.0) * (n - 1) / ((n - 2) * (n - 3))
    return Moments(mean, sd, float(skew), float(kurt))


def quantiles(values) -> Quantiles:
    """Empirical quantiles of the level series at p = 0, .01, .05, .25, .5, .75, 1.

    Uses the linear-interpolation ("type 7") definition.  VaR99 / VaR95 are
    the 1% and 5% quantiles of the levels themselves, not of returns.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise CoinclustError("quantiles: empty input")
    q = np.quantile(x, [0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 1.0], method="linear")
    return Quantiles(*(float(v) for v in q))


def ols_line(values) -> tuple[float, float]:
    """Least-squares slope and intercept of value on the index t = 0..n-1."""
    y = np.asarray(values, dtype=float)
    n = y.size
    if n < 2:
        raise CoinclustError("ols_line: need at least 2 observations")
    t = np.arange(n, dtype=float)
    tbar = (n - 1) / 2.0
    stt = float(np.sum((t - tbar) ** 2))
    slope = float(np.sum((t - tbar) * (y - np.mean(y))) / stt)
    intercept = float(np.mean(y) - slope * tbar)
    return slope, intercept


def autocorrelation_lag1(values) -> float:
    """Sample autocorrelation at lag 1.

    sum((x_t - xbar)(x_{t+1} - xbar)) / sum((x_t - xbar)^2); 0 for a
    zero-variance series.
    """
    x = np.asarray(values, dtype=float)
    if x.size < 3:
        raise CoinclustError("autocorrelation: need at least 3 observations")
    d = x - np.mean(x)
    denom = float(np.sum(d * d))
    if denom == 0.0:
        return 0.0
    return float(np.sum(d[:-1] * d[1:]) / denom)


def _log_spaced_windows(lo: int, hi: int, num: int) -> np.ndarray:
    grid = np.logspace(np.log10(lo), np.log10(hi), num=num)
    return np.unique(np.clip(np.round(grid).astype(int), lo, hi))


def self_similarity_dfa(values, config: RunConfig | None = None) -> float:
    """Self-similarity exponent via first-order detrended fluctuation analysis.

    The demeaned series is integrated into a profile; for each window size s
    on a log-spaced grid in [dfa_min_window, n * dfa_max_window_frac] the
    profile is cut into non-overlapping windows, each window linearly
    detrended, and F(s) is the RMS residual.  The exponent is the slope of
    log F(s) against log s.

    Values near 0.5 indicate uncorrelated increments, near 1.5 a random
    walk; a pure deterministic trend saturates the estimator near 2.
    Zero-variance input returns 0.  A grid with fewer than two window
    sizes that fit twice in the series raises ``CoinclustError``.
    """
    cfg = config or RunConfig()
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < MIN_DFA_LEN:
        raise CoinclustError(f"self_similarity: need >= {MIN_DFA_LEN} observations, got {n}")
    profile = np.cumsum(x - np.mean(x))
    if np.all(profile == 0.0):
        return 0.0
    s_max = int(n * cfg.dfa_max_window_frac)
    setting = (f"self_similarity: dfa_min_window={cfg.dfa_min_window} "
               f"and dfa_max_window_frac={cfg.dfa_max_window_frac}")
    if s_max <= cfg.dfa_min_window:
        raise CoinclustError(f"{setting} leave fewer than 2 window sizes: the largest window "
                             "int(n * dfa_max_window_frac) must exceed dfa_min_window")
    scales = _log_spaced_windows(cfg.dfa_min_window, s_max, DFA_WINDOW_CANDIDATES)
    scales = scales[n // scales >= 2].tolist()
    if len(scales) < 2:
        raise CoinclustError(f"{setting} leave fewer than 2 window sizes that fit twice in the series")
    log_s, log_f = [], []
    for s in scales:
        # exact: sum(tc * tc) == s(s^2 - 1)/12, and add.reduce / count is np.mean's arithmetic
        seg = profile[: n // s * s].reshape(-1, s)
        tc = np.arange(s) - (s - 1) / 2
        resid = seg - np.add.reduce(seg, axis=1, keepdims=True) / s
        resid -= np.multiply.outer(resid @ tc / (s * (s * s - 1) / 12), tc)
        resid *= resid
        f2 = np.add.reduce(resid, axis=None) / resid.size
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


def nearest_outside_window(points: np.ndarray, theiler: int, tol2: float) -> np.ndarray:
    """Each point's nearest neighbour more than ``theiler`` rows away, or -1.

    The distance is the squared direct difference sum_k (p_ik - p_jk)**2,
    summed over k left to right.  Candidates at a squared distance
    <= ``tol2`` are excluded, and the lowest index wins a tie.

    A screen gives approximate squared distances for a block of rows by
    one matrix product of the augmented points [p, 1, |p|^2] and
    [-2p, |p|^2, 1].  For m coordinates, a screened and a direct squared
    distance differ by at most E = (5m + 8) * 2**-53 * (|p_i|^2 +
    max_j |p_j|^2), from the dot-product and summation error bounds
    (Higham 2002, section 3.1).  When a row's second-smallest screened
    value exceeds its smallest by more than 4E, twice the 2E two such
    errors can close, the smallest is the row's unique nearest candidate
    by direct difference; it is taken when its direct distance exceeds
    ``tol2``.  Every other row (ties, near-ties, duplicates, no candidate)
    is settled by direct differences.  Blocks hold at most 2**16 floats in
    buffers allocated once per call, the second only for rows left open;
    the masks of pairs within ``theiler`` rows are booleans from outer
    comparisons of 1-D index ranges, with no (rows x columns) integer temporary.
    """
    n, m = points.shape
    sq = (points * points).sum(axis=1)
    coords = np.ascontiguousarray(points.T)
    lhs = np.column_stack([points, np.ones(n), sq])
    rhs = np.vstack([-2.0 * coords, sq, np.ones(n)])  # C order: the fast BLAS path
    block = max(1, min(n, 2**16 // n))
    screen = np.empty((block, n))
    at, span = np.arange(block), np.arange(block + 2 * theiler)
    # band[r, c]: row start + r and column start - theiler + c are too close in time
    band = np.less_equal.outer(at, span) & np.greater_equal.outer(at + 2 * theiler, span)
    best, first, second = np.empty(n, dtype=np.intp), np.empty(n), np.empty(n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        d2, rows = screen[: stop - start], at[: stop - start]
        np.matmul(lhs[start:stop], rhs, out=d2)
        lo, hi = max(0, start - theiler), min(n, stop + theiler)
        window = band[: stop - start, lo - start + theiler : hi - start + theiler]
        np.copyto(d2[:, lo:hi], np.inf, where=window)
        nearest = np.argmin(d2, axis=1, out=best[start:stop])
        first[start:stop] = d2[rows, nearest]
        d2[rows, nearest] = np.inf
        np.min(d2, axis=1, out=second[start:stop])

    slack = 4 * (5 * m + 8) * 2.0**-53 * (sq + sq.max())  # 4E
    terms = points - points[best]
    terms *= terms
    direct = terms[:, 0].copy()
    for k in range(1, m):
        direct += terms[:, k]
    # no subtraction: a row with no candidate has first = second = inf
    settled = (second > first + slack) & (direct > tol2)
    neighbors = np.where(settled, best, -1)
    todo = np.flatnonzero(~settled)
    scratch = np.empty((min(block, todo.size), n))  # empty unless a row is left open
    for start in range(0, todo.size, block):
        rows = todo[start : start + block]
        d2, term = screen[: rows.size], scratch[: rows.size]
        np.subtract(points[rows, :1], coords[0], out=d2)
        d2 *= d2
        for k in range(1, m):
            np.subtract(points[rows, k : k + 1], coords[k], out=term)
            term *= term
            d2 += term
        cols = np.arange(max(0, rows[0] - theiler), min(n, rows[-1] + theiler + 1))
        near = np.less_equal.outer(rows - theiler, cols) & np.greater_equal.outer(rows + theiler, cols)
        d2[:, cols[0] : cols[-1] + 1][near] = np.inf
        d2[d2 <= tol2] = np.inf
        nearest = np.argmin(d2, axis=1)
        neighbors[rows] = np.where(np.isfinite(d2[at[: rows.size], nearest]), nearest, -1)
    return neighbors


def chaos_lyapunov(values, config: RunConfig | None = None) -> float:
    """Largest divergence-rate exponent, Rosenstein-style, per day.

    The series is delay-embedded with ``embedding_dim`` and
    ``embedding_delay``.  Each embedded point is paired with its nearest
    neighbour more than one mean period away in time: the point at the
    smallest squared direct-difference distance, the lowest index among
    ties, where points within 1e-9 standard deviations (the same trajectory
    to round-off) are excluded.  The pairwise distances are followed
    forward, and the exponent is the slope of the mean log-divergence curve
    over its initial rise.  When the curve saturates inside the fit range
    (it always does for strongly chaotic signals), the fit stops at the
    step where 90% of the total rise is reached; otherwise it spans steps
    1..``lyapunov_max_fit_steps``, which defaults to
    min(LYAPUNOV_FIT_STEPS, n // DAYS_PER_FIT_STEP).  Zero-variance input
    returns 0.
    """
    cfg = config or RunConfig()
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < MIN_LYAPUNOV_LEN:
        raise CoinclustError(f"chaos: need >= {MIN_LYAPUNOV_LEN} observations, got {n}")
    if np.ptp(x) == 0.0:
        return 0.0

    m, tau = cfg.embedding_dim, cfg.embedding_delay
    n_points = n - (m - 1) * tau
    steps = cfg.lyapunov_max_fit_steps or min(LYAPUNOV_FIT_STEPS, n // DAYS_PER_FIT_STEP)
    steps = max(3, min(steps, n_points - 2))

    # Pairs must be followable for `steps` steps; an embedding as long as
    # the series leaves no points at all (n_points <= 0).
    last = n_points - steps
    if last < 2:
        raise CoinclustError("chaos: not enough points to follow divergence trajectories")
    orbit = np.column_stack([x[i * tau : i * tau + n_points] for i in range(m)])
    theiler = max(1, min(_mean_period(x), (n_points - steps - 2) // 4))

    # Candidates closer than round-off scale are numerically identical
    # trajectories and carry no dynamical information, so they are
    # excluded like exact duplicates.
    tol2 = (1e-9 * float(np.std(x))) ** 2
    neighbors = nearest_outside_window(orbit[:last], theiler, tol2)
    valid = neighbors >= 0
    if not np.any(valid):
        raise CoinclustError("chaos: no positive-distance neighbor outside the temporal window")
    idx, nbr = np.flatnonzero(valid), neighbors[valid]

    log_div = np.empty(steps + 1)
    for k in range(steps + 1):
        d = np.linalg.norm(orbit[idx + k] - orbit[nbr + k], axis=1)
        d = d[d > 0.0]
        log_div[k] = np.mean(np.log(d)) if d.size else np.nan
    ks = np.arange(steps + 1)
    keep = np.isfinite(log_div)
    ks, log_div = ks[keep], log_div[keep]
    if ks.size < 3:
        raise CoinclustError("chaos: divergence curve too sparse to fit")

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


def compute_characteristics(series, config: RunConfig | None = None) -> CharacteristicVector:
    """Assemble all sixteen characteristics of one series.

    This is where a series is judged usable.  Fewer than
    ``min_series_len`` values raise ``CoinclustError``.  A constant series
    (``np.ptp == 0``, exact at every level) gets, before any estimator
    runs, the level as its mean, order statistics and intercept, exactly
    0.0 in the seven other fields and the flag ``zero_variance``.  Other
    series go through every estimator; an estimator's own length floor
    propagates, its message starting with the field name.
    """
    cfg = config or RunConfig()
    values = np.asarray(series.values, dtype=float)
    if values.size < cfg.min_series_len:
        raise CoinclustError(f"fewer than min_series_len={cfg.min_series_len} rows")
    if np.ptp(values) == 0.0:
        level = float(values[0])
        return CharacteristicVector(
            level, 0.0, 0.0, 0.0, *[level] * 7, slope=0.0, intercept=level,
            autocorrelation=0.0, self_similarity=0.0, chaos=0.0, flags=("zero_variance",),
        )

    mom = moments(values)
    q = quantiles(values)
    slope, _ = ols_line(values)
    acf = autocorrelation_lag1(values)
    dfa = self_similarity_dfa(values, cfg)
    lyap = chaos_lyapunov(values, cfg)

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
        slope=slope,
        intercept=float(values[0]),
        autocorrelation=acf,
        self_similarity=dfa,
        chaos=lyap,
        flags=("dfa_saturated",) if dfa >= DFA_SATURATION else (),
    )
