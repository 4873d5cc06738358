"""Scalar characteristics of a daily series.

Sixteen global measures summarise one series: four moments, seven order
statistics (including the 1% / 5% downside quantiles of the level series),
a linear trend, the lag-1 autocorrelation, a fluctuation-analysis
self-similarity exponent, and a largest-divergence-rate (chaos) estimate.
A series' characteristics are one float row, in the order ``COLUMNS``
fixes; that order is part of the clustering contract.
"""

from __future__ import annotations

import os
import pickle
import threading
from bisect import bisect_right
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import RunConfig
from .errors import CoinclustError

# Feature order of a characteristics row; names double as CSV/JSON column labels.
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


# The levels of ``Quantiles``, in field order.
QUANTILE_LEVELS = np.array([0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 1.0])


class Quantiles(NamedTuple):
    minimum: float
    var99: float
    var95: float
    lowerquant: float
    median: float
    upperquant: float
    maximum: float


def moments(values) -> Moments:
    """Sample mean, standard deviation and bias-corrected shape moments.

    Standard deviation uses the n-1 denominator.  Skewness is the adjusted
    Fisher-Pearson coefficient G1 and kurtosis is bias-corrected *excess*
    kurtosis G2 (0 for a normal sample), matching the defaults of the common
    statistical packages.  Zero-variance input yields skewness and kurtosis
    of 0; so do samples too short for the correction factors (n < 3 for
    skewness, n < 4 for kurtosis).  Input whose range is too wide or too
    narrow for its fourth powers in floats raises ``CoinclustError``.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 2:
        raise CoinclustError("moments: need at least 2 observations")
    # Each deviation is at most the range r and one is at least r / 2: the n fourth powers
    # sum to a finite float, and m2 * m2 >= r**4 / (16 n**2) is at least the smallest normal one.
    spread, limits = float(np.ptp(x)), np.finfo(float)
    if spread > 0.0 and not 2.0 * np.sqrt(n) * limits.tiny**0.25 <= spread <= (limits.max / n) ** 0.25:
        raise CoinclustError(f"kurtosis: a range of {spread:g} puts fourth powers outside the float range")
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
    the 1% and 5% quantiles of the levels themselves, not of returns.  The
    arithmetic is ``np.quantile(method="linear")``'s, value for value: the
    virtual index (n - 1) * p, and from weight t = 0.5 on the interpolation
    from the upper neighbour, b - (b - a) * (1 - t).  Unlike ``np.quantile``
    it never imports ``numpy.ma``.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 0:
        raise CoinclustError("quantiles: empty input")
    virtual = (n - 1) * QUANTILE_LEVELS
    below = np.floor(virtual)
    t = virtual - below
    lo = below.astype(np.intp)
    a, b = x[lo], x[np.minimum(lo + 1, n - 1)]
    diff = b - a
    q = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
    return Quantiles(*(float(v) for v in q))


def line_slope(x, y) -> float:
    """Least-squares slope of y on x in closed form.

    With dx = x - mean(x), the slope is sum(dx * (y - mean(y))) / sum(dx * dx).
    Every mean and sum is one ``np.add.reduce`` (numpy's pairwise order),
    so no BLAS or LAPACK kernel decides a bit of it.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - np.add.reduce(x) / x.size
    return float(np.add.reduce(dx * (y - np.add.reduce(y) / y.size)) / np.add.reduce(dx * dx))


def ols_line(values) -> tuple[float, float]:
    """Least-squares slope and intercept of value on the index t = 0..n-1."""
    y = np.asarray(values, dtype=float)
    n = y.size
    if n < 2:
        raise CoinclustError("ols_line: need at least 2 observations")
    slope = line_slope(np.arange(n), y)
    return slope, float(np.mean(y) - slope * ((n - 1) / 2.0))


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


@lru_cache(maxsize=256)
def _log_spaced_windows(lo: int, hi: int) -> tuple[int, ...]:
    grid = np.clip(np.round(np.logspace(np.log10(lo), np.log10(hi), num=DFA_WINDOW_CANDIDATES)).astype(int),
                   lo, hi)
    # the grid ascends, so dropping repeats of the previous value is np.unique
    return tuple(grid[np.r_[True, grid[1:] != grid[:-1]]].tolist())


def dfa_window_sizes(n: int, config: RunConfig) -> tuple[int, ...]:
    """The window sizes the fluctuation analysis uses on a series of n values.

    They are the log-spaced grid in [dfa_min_window, int(n *
    dfa_max_window_frac)] less the sizes that do not fit twice in n.  Fewer
    than ``MIN_DFA_LEN`` values, or fewer than two such sizes, raise
    ``CoinclustError``.
    """
    if n < MIN_DFA_LEN:
        raise CoinclustError(f"self_similarity: need >= {MIN_DFA_LEN} observations, got {n}")
    s_max = int(n * config.dfa_max_window_frac)
    setting = (f"self_similarity: dfa_min_window={config.dfa_min_window} "
               f"and dfa_max_window_frac={config.dfa_max_window_frac}")
    if s_max <= config.dfa_min_window:
        raise CoinclustError(f"{setting} leave fewer than 2 window sizes: the largest window "
                             "int(n * dfa_max_window_frac) must exceed dfa_min_window")
    grid = _log_spaced_windows(config.dfa_min_window, s_max)
    sizes = grid[: bisect_right(grid, n // 2)]  # n // s >= 2 exactly when s <= n // 2
    if len(sizes) < 2:
        raise CoinclustError(f"{setting} leave fewer than 2 window sizes that fit twice in the series")
    return sizes


# Cap, in floats, on each array one step of the neighbour screen
# (``_screen_rows``) allocates; only a single longer orbit exceeds it.
BLOCK_FLOATS = 2**16


def self_similarity_dfa(batch, config: RunConfig | None = None) -> np.ndarray:
    """Self-similarity exponent of each series in ``batch`` via first-order
    detrended fluctuation analysis.

    The demeaned series is integrated into a profile; for each window size s
    of ``dfa_window_sizes`` the profile is cut into its n // s leading
    non-overlapping windows, each window linearly detrended, and F(s) is
    the RMS residual.  The exponent is the slope of log F(s) against log s
    over the sizes with F(s) > 0, by ``line_slope``; with fewer than two
    such sizes (zero-variance input) it is 0.  A series that fails
    ``dfa_window_sizes`` raises its ``CoinclustError``.

    Values near 0.5 indicate uncorrelated increments, near 1.5 a random
    walk; a pure deterministic trend saturates the estimator near 2.

    Arithmetic.  Each window size is visited once for the whole batch: the
    windows of every series that uses it are stacked as rows, and each row
    is reduced on its own with ``np.add.reduce(axis=1)``: the window mean
    sum(w) / s, the slope sum(r * tc) / (s(s^2 - 1) / 12) of the demeaned
    window r on the centred times tc = t - (s - 1) / 2, and the sum of the
    squared residuals.  A series' F^2(s) is its first row's sum plus the
    ``np.add.reduce`` of its other rows' sums (the order of
    ``np.add.reduceat``), over the number of values in its windows.  So no
    exponent depends on the other series in the batch, and none on the BLAS
    kernel.  Memory is linear in the batch's N values: the profiles, the
    windows and their products (N floats each) and two N / s row sums at
    the smallest size s, about 3.5N floats at the default s = 4.
    """
    cfg = config or RunConfig()
    xs = [np.asarray(values, dtype=float) for values in batch]
    offsets = np.cumsum([0] + [x.size for x in xs]).tolist()
    users: dict[int, list[int]] = {}
    for i, x in enumerate(xs):
        for s in dfa_window_sizes(x.size, cfg):
            users.setdefault(s, []).append(i)
    profile = np.empty(offsets[-1])
    for x, at in zip(xs, offsets):
        np.cumsum(x - np.mean(x), out=profile[at : at + x.size])
    scales = sorted(users)
    f2 = np.zeros((len(xs), len(scales)))
    windows, work = np.empty(profile.size), np.empty(profile.size)
    for j, s in enumerate(scales):
        coins = users[s]
        counts = [xs[i].size // s for i in coins]
        seg = windows[: sum(counts) * s]
        np.concatenate([profile[offsets[i] : offsets[i] + c * s] for i, c in zip(coins, counts)], out=seg)
        seg = seg.reshape(-1, s)
        prod = work[: seg.size].reshape(-1, s)
        tc = np.arange(s) - (s - 1) / 2
        # exact: sum(tc * tc) == s(s^2 - 1)/12, and add.reduce / count is np.mean's arithmetic
        seg -= np.add.reduce(seg, axis=1, keepdims=True) / s
        np.multiply(seg, tc, out=prod)
        np.multiply.outer(np.add.reduce(prod, axis=1) / (s * (s * s - 1) / 12), tc, out=prod)
        seg -= prod
        seg *= seg
        first_rows = np.cumsum([0] + counts[:-1])
        f2[coins, j] = np.add.reduceat(np.add.reduce(seg, axis=1), first_rows) / (np.array(counts) * s)
    log_s = np.log(scales)
    fitted = f2 > 0.0
    half_log_f = 0.5 * np.log(f2, out=np.zeros_like(f2), where=fitted)
    exponents = np.zeros(len(xs))
    for i, keep in enumerate(fitted):
        if np.count_nonzero(keep) >= 2:
            exponents[i] = line_slope(log_s[keep], half_log_f[i, keep])
    return exponents


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


# Window stage of the neighbour search: blocks of WINDOW_ROWS rows in
# first-coordinate order, each screened against the WINDOW_ROWS + 2 *
# WINDOW_REACH sorted points around it.  Chosen by measurement: over 30
# series of 3,000-4,500 days on 2 cores, (128, 256) took 0.18 s, (64, 256)
# 0.20 s, (256, 256) and (128, 512) 0.22 s, and (128, 128) 0.29 s.
WINDOW_ROWS = 128
WINDOW_REACH = 256


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
    ``tol2``.

    Window rule.  An orbit of more than W = WINDOW_ROWS + 2 * WINDOW_REACH
    points whose band of 2 * theiler + 1 rows fits in WINDOW_REACH first
    goes through a window stage: the points are sorted by first coordinate
    x, and each block of WINDOW_ROWS sorted rows is screened only against
    the W sorted points from position lo to hi - 1 around it.  A row i is
    settled there when the margin test above holds within the window, the
    winner's direct distance d exceeds ``tol2``, and d < fl(g * g), where
    g = fl(x_i - x_e) or fl(x_e - x_i) is the gap to the nearer of the
    sorted points e = lo - 1 and e = hi just outside the window.

    Coverage bound.  Every point j outside the window is then farther than
    the winner by direct difference.  Its computed distance is a sum of
    non-negative rounded terms, so it is at least its first term
    fl(fl(p_i0 - p_j0)**2).  Because the points are sorted,
    |p_i0 - p_j0| >= |x_i - x_e| exactly, and rounding to nearest is
    monotone, so that term is >= fl(g * g) > d.  No margin is needed.

    When fewer than half the rows of the first two blocks settle (an orbit
    of ties, such as a peg or a short period), the window stage stops.
    Every row it leaves open, and every row of an orbit that skips it, is
    screened against all points and, when the margin test fails (ties,
    near-ties, duplicates, no candidate), settled by direct differences:
    that path alone defines ties, ``tol2`` and -1.  Its blocks hold at most
    2**16 floats in buffers allocated once per call, the second only for
    rows left open.  The pairs within ``theiler`` rows are set to inf by
    index, (rows x (2 * theiler + 1)) positions a block, in the screen and
    in the direct pass alike.
    """
    n, m = points.shape
    sq = (points * points).sum(axis=1)
    lhs = np.column_stack([points, np.ones(n), sq])
    rhs = np.vstack([-2.0 * points.T, sq, np.ones(n)])  # C order: the fast BLAS path
    slack = 4 * (5 * m + 8) * 2.0**-53 * (sq + sq.max())  # 4E
    neighbors = np.full(n, -1, dtype=np.intp)
    rows = np.arange(n)
    if n > WINDOW_ROWS + 2 * WINDOW_REACH and 2 * theiler + 1 <= WINDOW_REACH:
        rows = _window_stage(points, lhs, rhs, slack, theiler, tol2, neighbors)
    _screen_rows(points, lhs, rhs, slack, rows, theiler, tol2, neighbors)
    return neighbors


def _direct(points: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Squared direct differences of the pairs (rows, cols), summed left to right."""
    terms = points[rows] - points[cols]
    terms *= terms
    direct = terms[:, 0].copy()
    for k in range(1, points.shape[1]):
        direct += terms[:, k]
    return direct


def _window_stage(points, lhs, rhs, slack, theiler, tol2, neighbors) -> np.ndarray:
    """Write to ``neighbors`` the rows the window rule of
    ``nearest_outside_window`` settles and return the rest in ascending
    order; every row when fewer than half of the first two blocks settle."""
    n = points.shape[0]
    width = WINDOW_ROWS + 2 * WINDOW_REACH
    order = np.argsort(points[:, 0], kind="stable")
    key = points[order, 0]
    lhs, rhs = lhs[order], np.ascontiguousarray(rhs[:, order])
    # sorted position of each time index; times before 0 or past n - 1 get
    # n, which stays outside every window after the shift by lo <= n - width
    position = np.full(n + 2 * theiler, n)
    position[order + theiler] = np.arange(n)
    offsets = np.arange(2 * theiler + 1)
    # the last column stays inf: band positions outside the window land there
    screen = np.empty((WINDOW_ROWS, width + 1))
    screen[:, width] = np.inf
    at = np.arange(WINDOW_ROWS)
    best, first, second = np.empty(n, dtype=np.intp), np.empty(n), np.empty(n)
    gap = np.empty(n)
    settled = np.zeros(n, dtype=bool)

    def settle(start, stop):
        rows = order[start:stop]
        direct = _direct(points, rows, best[start:stop])
        settled[start:stop] = ((second[start:stop] > first[start:stop] + slack[rows])
                               & (direct > tol2) & (direct < gap[start:stop] * gap[start:stop]))

    for start in range(0, n, WINDOW_ROWS):
        stop = min(start + WINDOW_ROWS, n)
        lo = min(max(0, start - WINDOW_REACH), n - width)
        d2, here = screen[: stop - start], at[: stop - start]
        np.matmul(lhs[start:stop], rhs[:, lo : lo + width], out=d2[:, :width])
        # a band position left of the window wraps to a huge unsigned value,
        # so it lands in the spare column like one right of the window
        band = position[order[start:stop, None] + offsets] - lo
        d2[here[:, None], np.minimum(band.view(np.uintp), width)] = np.inf
        nearest = np.argmin(d2, axis=1)
        first[start:stop] = d2[here, nearest]
        d2[here, nearest] = np.inf
        np.min(d2, axis=1, out=second[start:stop])
        best[start:stop] = order[lo + nearest]
        below = key[start:stop] - key[lo - 1] if lo > 0 else np.inf
        above = key[lo + width] - key[start:stop] if lo + width < n else np.inf
        np.minimum(below, above, out=gap[start:stop])
        if start == WINDOW_ROWS:  # two blocks done
            settle(0, stop)
            if 2 * np.count_nonzero(settled[:stop]) < stop:
                return np.arange(n)
    settle(2 * WINDOW_ROWS, n)
    neighbors[order[settled]] = best[settled]
    return np.sort(order[~settled])


def _mask_band(d2: np.ndarray, rows: np.ndarray, theiler: int) -> None:
    """Set d2[k, c] to inf for every column c within ``theiler`` of rows[k].

    A column before 0 or past the last clips onto 0 or the last, which is
    within ``theiler`` of that row too, so no other column is touched.
    """
    cols = rows[:, None] + np.arange(-theiler, theiler + 1)
    np.maximum(cols, 0, out=cols)
    np.minimum(cols, d2.shape[1] - 1, out=cols)
    d2[np.arange(rows.size)[:, None], cols] = np.inf


def _screen_rows(points, lhs, rhs, slack, rows, theiler, tol2, neighbors) -> None:
    """The exact path for the ascending ``rows``: screen each block against
    every point, take the rows the margin test settles, and settle the rest
    by direct differences."""
    n, m = points.shape
    block = max(1, min(rows.size, BLOCK_FLOATS // n))
    screen = np.empty((block, n))
    at = np.arange(block)
    best, first, second = np.empty(rows.size, dtype=np.intp), np.empty(rows.size), np.empty(rows.size)
    for start in range(0, rows.size, block):
        stop = min(start + block, rows.size)
        block_rows = rows[start:stop]
        d2, here = screen[: stop - start], at[: stop - start]
        np.matmul(lhs[block_rows], rhs, out=d2)
        _mask_band(d2, block_rows, theiler)
        nearest = np.argmin(d2, axis=1, out=best[start:stop])
        first[start:stop] = d2[here, nearest]
        d2[here, nearest] = np.inf
        np.min(d2, axis=1, out=second[start:stop])

    direct = _direct(points, rows, best)
    # no subtraction: a row with no candidate has first = second = inf
    settled = (second > first + slack[rows]) & (direct > tol2)
    neighbors[rows[settled]] = best[settled]
    todo = rows[~settled]
    coords = np.ascontiguousarray(points.T)
    scratch = np.empty((min(block, todo.size), n))  # empty unless a row is left open
    for start in range(0, todo.size, block):
        block_rows = todo[start : start + block]
        d2, term = screen[: block_rows.size], scratch[: block_rows.size]
        np.subtract(points[block_rows, :1], coords[0], out=d2)
        d2 *= d2
        for k in range(1, m):
            np.subtract(points[block_rows, k : k + 1], coords[k], out=term)
            term *= term
            d2 += term
        _mask_band(d2, block_rows, theiler)
        d2[d2 <= tol2] = np.inf
        nearest = np.argmin(d2, axis=1)
        neighbors[block_rows] = np.where(np.isfinite(d2[at[: block_rows.size], nearest]), nearest, -1)


def divergence_curve(x: np.ndarray, idx: np.ndarray, nbr: np.ndarray, steps: int, m: int, tau: int) -> np.ndarray:
    """Mean log distance of the pairs (idx, nbr) at steps 0..``steps``.

    The delay vector of ``x`` at i is x[i], x[i + tau], ..., x[i + (m-1) tau].
    At step k a pair's distance is the Euclidean distance between the
    vectors at idx + k and nbr + k, and the step's value is the mean log of
    the positive distances, NaN when there are none.  Each squared
    coordinate difference is computed once, as e[t, r] = (x[idx_r + t] -
    x[nbr_r + t])**2, and a step sums e[k], e[k + tau], ... in the order
    ``np.linalg.norm(axis=1)`` sums the m coordinates of a row: left to
    right below eight, by numpy's own reduction from eight on.  Each step's
    mean runs over one contiguous row, so every value equals the step-by-step
    ``norm``/``log``/``mean`` computation bit for bit.
    """
    at = idx + np.arange(steps + 1 + (m - 1) * tau)[:, None]
    e = x[at]
    at += nbr - idx
    e -= x[at]
    e *= e
    terms = [e[c * tau : c * tau + steps + 1] for c in range(m)]
    if m < 8:
        s = terms[0] if m == 1 else terms[0] + terms[1]
        for term in terms[2:]:
            s += term
    else:
        s = np.add.reduce(np.stack(terms, axis=-1), axis=-1)
    np.sqrt(s, out=s)
    positive = s > 0.0
    np.log(s, out=s, where=positive)
    log_div = np.mean(s, axis=1)
    for k in np.flatnonzero(~positive.all(axis=1)):
        logs = s[k, positive[k]]
        log_div[k] = np.mean(logs) if logs.size else np.nan
    return log_div


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
    log_div = divergence_curve(x, np.flatnonzero(valid), neighbors[valid], steps, m, tau)
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
    return line_slope(kfit, y)


def compute_characteristics(series, config: RunConfig | None = None) -> list[np.ndarray | CoinclustError]:
    """The sixteen characteristics of each series, as rows.

    Returns one entry per series, in order: its float row in ``COLUMNS``
    order, or the ``CoinclustError`` that excludes it.  This is where a
    series is judged usable.  Fewer than ``min_series_len`` values exclude
    it.  A constant series (``np.ptp == 0``, exact at every level) gets,
    before any estimator runs, the level as its mean, order statistics and
    intercept, and exactly 0.0 in the seven other columns.  Other series go
    through every estimator, and the first floor that one of them fails
    excludes the series, its message starting with the field name; the
    fluctuation analysis' length and window grid come before the divergence
    rate.  The ``intercept`` column is the first observed value, not the
    fitted regression intercept.

    The series are shared out by ``_fork_map`` over the CPUs in the affinity
    mask.  The self-similarity exponents of a share's series that pass come
    from one ``self_similarity_dfa`` call, which computes each from that
    series alone, so no row depends on the number of CPUs.
    """
    cfg = config or RunConfig()
    return _fork_map(lambda share: _characteristics(share, cfg), series)


def _characteristics(series: list, cfg: RunConfig) -> list[np.ndarray | CoinclustError]:
    """``compute_characteristics`` of ``series`` in this process."""
    results: list[np.ndarray | CoinclustError] = []
    pending: list[tuple[int, np.ndarray]] = []  # (position, values) awaiting the DFA exponent
    for item in series:
        values = np.asarray(item.values, dtype=float)
        if values.size < cfg.min_series_len:
            results.append(CoinclustError(f"min_series_len: fewer than {cfg.min_series_len} rows"))
            continue
        if np.ptp(values) == 0.0:
            level = float(values[0])
            results.append(np.array([level, 0.0, 0.0, 0.0] + [level] * 7 + [0.0, level, 0.0, 0.0, 0.0]))
            continue
        try:
            mom = moments(values)
            q = quantiles(values)
            slope, _ = ols_line(values)
            acf = autocorrelation_lag1(values)
            dfa_window_sizes(values.size, cfg)
            lyap = chaos_lyapunov(values, cfg)
        except CoinclustError as exc:
            results.append(exc)
            continue
        pending.append((len(results), values))
        results.append(np.array([
            *mom, q.maximum, q.minimum, q.lowerquant, q.median, q.upperquant, q.var99, q.var95,
            slope, values[0], acf, np.nan, lyap,  # self_similarity is set below, from the one batch
        ]))
    exponents = self_similarity_dfa([values for _, values in pending], cfg)
    for (at, _), dfa in zip(pending, exponents):
        results[at][COLUMNS.index("self_similarity")] = dfa
    return results


def _fork_map(fn, items) -> list:
    """``fn(items)``, computed in shares on every CPU in the affinity mask.

    ``fn`` takes a list and returns one result per element, in order; each
    result must depend only on its own element.  Let w be the number of CPUs
    in the affinity mask, capped at ``len(items)``.  Share k is
    ``items[k::w]``: share 0 runs in this process and each other share in a
    forked worker, and the results are interleaved back into the order of
    ``items``.  With w below 2, off the main thread, or while other Python
    threads run, this is ``fn(items)`` in this process: a worker is a copy
    of the forking thread alone, so a lock another thread held would stay
    held in it.

    Every worker is read and waited for before this returns or raises, also
    when this process' own share raises; that exception then propagates.
    An exception raised in a worker's share is raised here with the
    worker's formatted traceback as its cause, or, if it cannot be pickled,
    as a ``RuntimeError`` that carries that traceback.  A worker that ends
    without sending its results raises ``RuntimeError`` naming its exit
    status.
    """
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    w = min(cpus, len(items))
    if w < 2 or threading.current_thread() is not threading.main_thread() or threading.active_count() > 1:
        return fn(items)
    workers: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for k in range(1, w):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, items[k::w], read_fd, write_fd)
            except BaseException:
                os.close(read_fd)
                raise
            finally:
                # later workers must not hold this write end, or its reader never sees EOF
                os.close(write_fd)
            workers.append((pid, read_fd))
        shares = [fn(items[0::w])]
    finally:
        received = [_reap(pid, read_fd) for pid, read_fd in workers]
    for (pid, _), (blob, status) in zip(workers, received):
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            how = f"exit status {code}" if code > 0 else f"signal {-code}"
            raise RuntimeError(f"worker {pid} ended with {how} without sending its results")
        results, exc, text = pickle.loads(blob)
        if text is not None:
            if exc is None:
                raise RuntimeError(f"worker {pid} raised an exception that cannot be pickled:\n{text}")
            raise exc from RuntimeError(f"in worker {pid}:\n{text}")
        shares.append(results)
    merged = [None] * len(items)
    for k, results in enumerate(shares):
        merged[k::w] = results
    return merged


def _serve(fn, share: list, read_fd: int, write_fd: int) -> None:
    """A worker's whole life: send ``(fn(share), None, None)``, or
    ``(None, exception or None, traceback text)``, and exit with status 0
    only once it is sent.  It never returns into the caller's frames."""
    status = 1
    try:
        os.close(read_fd)
        try:
            blob = pickle.dumps((fn(share), None, None))
        except BaseException as exc:
            import traceback  # only a failing worker pays for the import

            text = traceback.format_exc()
            try:
                blob = pickle.dumps((None, exc, text))
                pickle.loads(blob)  # some exceptions pickle but cannot be rebuilt
            except Exception:
                blob = pickle.dumps((None, None, text))
        with open(write_fd, "wb") as pipe:
            pipe.write(blob)
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, read_fd: int) -> tuple[bytes, int]:
    """Everything a worker sent, read to EOF, and its wait status."""
    try:
        with open(read_fd, "rb") as pipe:
            blob = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    return blob, status
