"""Independent reference implementations used only by the tests.

Everything here is deliberately naive (explicit loops, direct summation,
matrix definitions applied verbatim) so library results are checked against
a second, independently coded route.
"""

import math

import numpy as np


# --- direct-summation moments -------------------------------------------------

def moments_direct(values):
    """Mean, sd (n-1), bias-corrected skewness G1 and excess kurtosis G2."""
    xs = [float(v) for v in values]
    n = len(xs)
    mean = math.fsum(xs) / n
    m2 = math.fsum((x - mean) ** 2 for x in xs) / n
    sd = math.sqrt(m2 * n / (n - 1))
    if m2 == 0.0:
        return mean, 0.0, 0.0, 0.0
    m3 = math.fsum((x - mean) ** 3 for x in xs) / n
    m4 = math.fsum((x - mean) ** 4 for x in xs) / n
    skew = (m3 / m2**1.5) * math.sqrt(n * (n - 1)) / (n - 2) if n >= 3 else 0.0
    kurt = (
        ((n + 1) * (m4 / (m2 * m2) - 3.0) + 6.0) * (n - 1) / ((n - 2) * (n - 3))
        if n >= 4
        else 0.0
    )
    return mean, sd, skew, kurt


def quantile_sorted(values, p):
    """Type-7 quantile computed by explicit sorting and interpolation."""
    xs = sorted(float(v) for v in values)
    n = len(xs)
    if n == 1:
        return xs[0]
    h = p * (n - 1)
    lo = int(math.floor(h))
    hi = min(lo + 1, n - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def ols_direct(values):
    """Closed-form simple regression of value on index, by explicit sums."""
    ys = [float(v) for v in values]
    n = len(ys)
    sum_t = n * (n - 1) / 2.0
    sum_tt = (n - 1) * n * (2 * n - 1) / 6.0
    sum_y = math.fsum(ys)
    sum_ty = math.fsum(i * y for i, y in enumerate(ys))
    denom = n * sum_tt - sum_t * sum_t
    slope = (n * sum_ty - sum_t * sum_y) / denom
    intercept = (sum_y - slope * sum_t) / n
    return slope, intercept


def acf1_direct(values):
    xs = [float(v) for v in values]
    n = len(xs)
    mean = math.fsum(xs) / n
    num = math.fsum((xs[t] - mean) * (xs[t + 1] - mean) for t in range(n - 1))
    den = math.fsum((x - mean) ** 2 for x in xs)
    return num / den


# --- naive spectral transform --------------------------------------------------

def dft_matrix_power(values):
    """Squared DFT magnitudes for k = 1..n//2 via the explicit n x n matrix."""
    x = np.asarray(values, dtype=complex)
    n = x.size
    omega = np.exp(-2j * np.pi / n)
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    f = (omega ** (j * k)) @ x
    power = np.abs(f) ** 2
    return power[1 : n // 2 + 1]


# --- naive fluctuation analysis -------------------------------------------------

def dfa_naive(values, min_window=4, max_frac=0.25, candidates=20):
    """Per-window polyfit DFA, looped window by window."""
    x = np.asarray(values, dtype=float)
    n = x.size
    profile = np.cumsum(x - x.mean())
    grid = np.logspace(np.log10(min_window), np.log10(int(n * max_frac)), candidates)
    scales = sorted(set(int(round(s)) for s in grid))
    log_s, log_f = [], []
    for s in scales:
        nwin = n // s
        if nwin < 2:
            continue
        sq = []
        t = np.arange(s)
        for w in range(nwin):
            seg = profile[w * s : (w + 1) * s]
            coef = np.polyfit(t, seg, 1)
            resid = seg - np.polyval(coef, t)
            sq.append(np.mean(resid**2))
        f = math.sqrt(sum(sq) / len(sq))
        if f > 0:
            log_s.append(math.log(s))
            log_f.append(math.log(f))
    slope, _ = np.polyfit(log_s, log_f, 1)
    return float(slope)


def line_slope_closed_form(x, y):
    """Least-squares slope sum(dx * (y - ybar)) / sum(dx * dx), dx = x - xbar,
    every mean and sum by ``np.add.reduce``: the fit the library must use
    bit for bit, itself pinned to ``np.polyfit`` by tolerance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - np.add.reduce(x) / x.size
    return float(np.add.reduce(dx * (y - np.add.reduce(y) / y.size)) / np.add.reduce(dx * dx))


def dfa_reference_loop(values, min_window=4, max_frac=0.25, candidates=20):
    """The library's DFA arithmetic, one series and one scale at a time.

    Every scale recomputes the centred times with ``arange``/``mean``/``sum``,
    the window means with ``mean``, each window's slope and residual sum
    with ``np.add.reduce`` along the row, and F^2 as the first row's sum plus
    the ``np.add.reduce`` of the other rows' sums.  The exponent is
    ``line_slope_closed_form`` of 0.5 log F^2 on log s; where fewer than two
    window sizes fit twice in the series it is 0.0.  The library must equal
    it bit for bit wherever two or more sizes fit (callers ensure
    int(n * max_frac) > min_window), whatever series share its batch.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    profile = np.cumsum(x - np.mean(x))
    if np.all(profile == 0.0):
        return 0.0
    grid = np.logspace(np.log10(min_window), np.log10(int(n * max_frac)), num=candidates)
    scales = np.unique(np.clip(np.round(grid).astype(int), min_window, int(n * max_frac)))
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
        slope = np.add.reduce((seg - seg_mean) * tc, axis=1) / stt
        resid = seg - seg_mean - slope[:, None] * tc[None, :]
        row_sums = np.add.reduce(resid * resid, axis=1)
        f2 = (row_sums[0] + np.add.reduce(row_sums[1:])) / resid.size
        if f2 > 0.0:
            log_s.append(np.log(s))
            log_f.append(0.5 * np.log(f2))
    if len(log_s) < 2:
        return 0.0
    return line_slope_closed_form(log_s, log_f)


# --- naive divergence-rate estimate ---------------------------------------------

def lyapunov_naive(values, emb_dim=3, delay=1, steps=None, theiler=None):
    """Direct-divergence estimate with explicit loops; mirrors the library
    parameter conventions so the two routes are comparable."""
    x = np.asarray(values, dtype=float)
    n = x.size
    if steps is None:
        steps = min(20, n // 50)
    n_points = n - (emb_dim - 1) * delay
    orbit = np.array([[x[i + d * delay] for d in range(emb_dim)] for i in range(n_points)])
    if theiler is None:
        spec = np.abs(np.fft.rfft(x - x.mean()))[1:]
        freqs = np.fft.rfftfreq(n)[1:]
        mf = float((freqs * spec).sum() / spec.sum())
        theiler = max(1, int(math.ceil(1.0 / mf)))
    theiler = max(1, min(theiler, (n_points - steps - 2) // 4))
    tol = 1e-9 * float(np.std(x))
    last = n_points - steps
    pairs = []
    for i in range(last):
        best, best_d = -1, math.inf
        for j in range(last):
            if abs(i - j) <= theiler:
                continue
            d = math.dist(orbit[i], orbit[j])
            if tol < d < best_d:
                best, best_d = j, d
        if best >= 0:
            pairs.append((i, best))
    curve = []
    for k in range(steps + 1):
        logs = []
        for i, j in pairs:
            d = math.dist(orbit[i + k], orbit[j + k])
            if d > 0:
                logs.append(math.log(d))
        curve.append(sum(logs) / len(logs) if logs else math.nan)
    ks = [k for k, v in enumerate(curve) if not math.isnan(v)]
    ys = [curve[k] for k in ks]
    if ks[0] == 0:
        ks, ys = ks[1:], ys[1:]
    rise = max(ys) - ys[0]
    if rise > 0.5:
        k_end = next(i for i, v in enumerate(ys) if v >= ys[0] + 0.9 * rise)
        k_end = max(k_end, 2)
        ks, ys = ks[: k_end + 1], ys[: k_end + 1]
    slope, _ = np.polyfit(ks, ys, 1)
    return float(slope)


def divergence_curve_step_loop(x, idx, nbr, steps, m, tau):
    """The divergence curve one step at a time: at each step, the pairs'
    delay-vector distances by ``np.linalg.norm``, then the mean log of the
    positive ones (NaN when none is).  This is the per-step loop the
    library's one-gather curve must equal bit for bit."""
    n_points = x.size - (m - 1) * tau
    orbit = np.column_stack([x[i * tau : i * tau + n_points] for i in range(m)])
    log_div = np.empty(steps + 1)
    for k in range(steps + 1):
        d = np.linalg.norm(orbit[idx + k] - orbit[nbr + k], axis=1)
        d = d[d > 0.0]
        log_div[k] = np.mean(np.log(d)) if d.size else np.nan
    return log_div


def nearest_outside_window_naive(points, theiler, tol2):
    """Nearest neighbour of each point more than `theiler` rows away.

    Distances are squared direct differences summed left to right;
    candidates at a squared distance <= tol2 are skipped, the lowest index
    wins a tie, and a point without a candidate gets -1."""
    pts = [[float(v) for v in row] for row in points]
    nearest = []
    for i, p in enumerate(pts):
        best, best_d2 = -1, math.inf
        for j, q in enumerate(pts):
            if abs(i - j) <= theiler:
                continue
            d2 = 0.0
            for a, b in zip(p, q):
                d2 += (a - b) * (a - b)
            if tol2 < d2 < best_d2:
                best, best_d2 = j, d2
        nearest.append(best)
    return nearest


# --- clustering oracles ----------------------------------------------------------

def similarity_double_loop(rows, sigma):
    m = len(rows)
    s = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            d2 = sum((a - b) ** 2 for a, b in zip(rows[i], rows[j]))
            s[i, j] = math.exp(-d2 / (2.0 * sigma * sigma))
    return s


def similarity_row_loop(rows, sigma=None):
    """The similarity matrix with every row against every row, σ by
    ``np.median``: the arithmetic the upper-triangle fill must equal bit
    for bit."""
    x = np.asarray(rows, dtype=float)
    sq = np.array([((x - row) ** 2).sum(axis=1) for row in x])
    if sigma is None:
        dists = np.sqrt(sq[np.triu_indices(x.shape[0], k=1)])
        sigma = float(np.median(dists[dists > 0.0]))
    with np.errstate(over="ignore"):
        s = np.exp(-sq / (2.0 * sigma * sigma))
    np.fill_diagonal(s, 0.0)
    return s


def kmeans_single_mean_loop(points, k, rng, max_iter=100):
    """One k-means++ restart that scans every cluster for emptiness and
    takes each centre as ``mean(axis=0)`` of its members: the arithmetic the
    library's restart must equal bit for bit."""
    m = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(m))]
    closest = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = closest.sum()
        idx = int(rng.choice(m, p=closest / total)) if total > 0.0 else c
        centers[c] = points[idx]
        closest = np.minimum(closest, ((points - centers[c]) ** 2).sum(axis=1))
    labels = np.full(m, -1)
    for _ in range(max_iter):
        dist = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dist, axis=1)
        for c in range(k):
            if not np.any(new_labels == c):
                owned = dist[np.arange(m), new_labels]
                counts = np.bincount(new_labels, minlength=k)
                owned[counts[new_labels] < 2] = -np.inf
                new_labels[int(np.argmax(owned))] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    return labels, float(((points - centers[labels]) ** 2).sum(axis=1).sum())


def laplacian_eig_dense(similarity, k):
    """Normalized-Laplacian eigenpairs built element by element, solved with
    the generic (non-symmetric) eigensolver."""
    s = np.asarray(similarity, dtype=float)
    m = s.shape[0]
    deg = s.sum(axis=1)
    lap = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            lap[i, j] = (1.0 if i == j else 0.0) - s[i, j] / math.sqrt(deg[i] * deg[j])
    vals, vecs = np.linalg.eig(lap)
    order = np.argsort(vals.real)
    return vals.real[order][:k], vecs.real[:, order[:k]]


def laplacian_eigh_reference(similarity):
    """The normalized-Laplacian eigendecomposition with every m x m step
    out of place, on a copy: the arithmetic the in-place build must equal
    bit for bit."""
    s = np.array(similarity, dtype=float)
    m = s.shape[0]
    deg = s.sum(axis=1)
    isolated = deg <= 0.0
    if np.any(isolated):
        s[isolated, isolated] = 1.0
        deg = s.sum(axis=1)
    r = 1.0 / np.sqrt(deg)
    lap = np.eye(m) - r[:, None] * s * r[None, :]
    lap = 0.5 * (lap + lap.T)
    return np.linalg.eigh(lap)


def _canonical_partitions(m, k):
    """All surjective labelings of m points onto k clusters, first-occurrence
    canonical (point 0 in cluster 0, new clusters introduced in order)."""

    def rec(prefix, used):
        i = len(prefix)
        if i == m:
            if used == k:
                yield tuple(prefix)
            return
        if used + (m - i) < k:
            return
        for lab in range(min(used + 1, k)):
            prefix.append(lab)
            yield from rec(prefix, max(used, lab + 1))
            prefix.pop()

    yield from rec([], 0)


def kmeans_exhaustive(points, k):
    """Global minimum within-cluster sum of squares over all partitions."""
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    best = math.inf
    best_labels = None
    for labels in _canonical_partitions(m, k):
        lab = np.asarray(labels)
        inertia = 0.0
        for c in range(k):
            grp = pts[lab == c]
            inertia += float(((grp - grp.mean(axis=0)) ** 2).sum())
        if inertia < best:
            best, best_labels = inertia, lab
    return best, best_labels


def pca_svd_dense(matrix, n_components=3):
    """Reference PCA: center, full SVD, same largest-|loading|-positive sign
    convention as the library."""
    x = np.asarray(matrix, dtype=float)
    x = x - x.mean(axis=0)
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    loadings = vt[:n_components].copy()
    for i in range(loadings.shape[0]):
        j = int(np.argmax(np.abs(loadings[i])))
        if loadings[i, j] < 0:
            loadings[i] = -loadings[i]
    coords = x @ loadings.T
    ratio = (s[:n_components] ** 2) / float((s**2).sum())
    return coords, loadings, ratio


def co_membership(labels):
    lab = np.asarray(labels)
    return (lab[:, None] == lab[None, :]).astype(int)
