"""Feature assembly and normalized spectral clustering.

Each coin contributes a row of 16 characteristics followed by K spectrum
bins.  Rows are z-scored per column, turned into a Gaussian similarity
graph with a median-heuristic bandwidth, embedded with the row-normalized
symmetric-Laplacian (Ng/Jordan/Weiss) construction, and grouped with a
deterministic multi-restart k-means.  The number of clusters is chosen by
searching downward from ``k_max`` for the largest k whose clusters all
contain at least two coins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .characteristics import COLUMNS, compute_characteristics
from .config import DEFAULT_K_MAX, DEFAULT_SEED, RunConfig
from .errors import CoinclustError, DegenerateGeometryError
from .ingest import Dataset
from .spectrum import bin_names, spectrum_feature

KMEANS_RESTARTS = 50
KMEANS_MAX_ITER = 100


@dataclass
class FeatureMatrix:
    """Per-coin feature rows plus the bookkeeping the contract requires."""

    coin_ids: list[str]
    rows: np.ndarray
    column_names: list[str]
    metric: str = ""
    dropped_columns: list[str] = field(default_factory=list)
    excluded: dict[str, str] = field(default_factory=dict)


@dataclass
class ClusterAssignment:
    """Coin-to-cluster map with the Laplacian eigenvalues behind it."""

    coin_ids: list[str]
    labels: list[int]
    k: int
    eigenvalues: np.ndarray
    seed: int
    metric: str = ""
    flags: tuple[str, ...] = ()

    def clusters(self) -> list[list[str]]:
        out: list[list[str]] = [[] for _ in range(self.k)]
        for coin, lab in zip(self.coin_ids, self.labels):
            out[lab].append(coin)
        return [sorted(c) for c in out]

    def as_dict(self) -> dict:
        return {
            "metric": self.metric,
            "k": self.k,
            "seed": self.seed,
            "clusters": [
                {"id": i, "coins": coins} for i, coins in enumerate(self.clusters())
            ],
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "flags": list(self.flags),
        }


def characteristics_by_metric(datasets: dict[str, Dataset], config: RunConfig) -> dict[str, list]:
    """``compute_characteristics`` of each dataset's series in sorted coin
    order, keyed like ``datasets``.  It is one call over the series of every
    metric, so one set of workers serves the whole run."""
    batches = {name: [ds.series[c] for c in ds.coin_ids()] for name, ds in datasets.items()}
    rows = iter(compute_characteristics([s for batch in batches.values() for s in batch], config))
    return {name: [next(rows) for _ in batch] for name, batch in batches.items()}


def assemble_features(dataset: Dataset, config: RunConfig | None = None, characteristics=None) -> FeatureMatrix:
    """One row per coin, in sorted coin order: 16 characteristics then
    ``config.spectrum_bins`` spectrum bins.

    ``characteristics`` is ``compute_characteristics`` of the dataset's
    series in sorted coin order; when not given, it is computed here.
    Coins whose data cannot yield features (a ``CoinclustError``) are
    excluded and recorded in ``excluded`` rather than failing the whole
    batch; any other exception is a parameter or programming error and
    propagates.  When every coin is excluded, the error names each reason
    once with the coins that share it.
    """
    cfg = config or RunConfig()
    coin_ids: list[str] = []
    rows: list[np.ndarray] = []
    excluded: dict[str, str] = {}
    coins = dataset.coin_ids()
    if characteristics is None:
        characteristics = compute_characteristics([dataset.series[c] for c in coins], cfg)
    for coin_id, row in zip(coins, characteristics):
        if isinstance(row, CoinclustError):
            excluded[coin_id] = str(row)
            continue
        try:
            bins = spectrum_feature(dataset.series[coin_id], cfg.spectrum_bins)
        except CoinclustError as exc:
            excluded[coin_id] = str(exc)
            continue
        coin_ids.append(coin_id)
        rows.append(np.concatenate([row, bins]))
    if not rows:
        coins_by_reason: dict[str, list[str]] = {}
        for coin_id, reason in excluded.items():
            coins_by_reason.setdefault(reason, []).append(coin_id)
        raise CoinclustError(f"no coin produced features for {dataset.metric.value}" + "".join(
            f"; {', '.join(coins)}: {reason}" for reason, coins in coins_by_reason.items()))
    return FeatureMatrix(
        coin_ids=coin_ids,
        rows=np.vstack(rows),
        column_names=list(COLUMNS) + bin_names(cfg.spectrum_bins),
        metric=dataset.metric.value,
        excluded=excluded,
    )


def standardize(matrix: FeatureMatrix) -> FeatureMatrix:
    """Z-score each column (n-1 denominator); constant columns are dropped
    and recorded, since they carry no clustering information."""
    rows = matrix.rows
    if rows.shape[0] < 2:
        raise CoinclustError("need at least 2 coins to standardize")
    mean = rows.mean(axis=0)
    sd = rows.std(axis=0, ddof=1)
    keep = sd > 0.0
    z = (rows[:, keep] - mean[keep]) / sd[keep]
    return FeatureMatrix(
        coin_ids=list(matrix.coin_ids),
        rows=z,
        column_names=[c for c, k in zip(matrix.column_names, keep) if k],
        metric=matrix.metric,
        dropped_columns=[c for c, k in zip(matrix.column_names, keep) if not k],
    )


def similarity_matrix(rows: np.ndarray, sigma: float | None = None) -> np.ndarray:
    """Gaussian similarity S_ij = exp(-||r_i - r_j||^2 / (2 sigma^2)).

    The bandwidth defaults to the median of the non-zero pairwise
    Euclidean distances, which is scale-stable and parameter-free, and
    which duplicate rows do not pull to zero; only rows that are all
    identical raise ``DegenerateGeometryError``, whether or not sigma is
    given.  The diagonal is zero by the usual graph convention.  Squared
    distances are direct differences, row i against rows j >= i, mirrored
    into column i, (a - b)**2 being (b - a)**2 exactly; each difference
    array takes the memory order of ``rows``, which sets the order its rows
    are summed in.  Beyond the m x m result, memory is a packed copy of the
    upper triangle, m(m-1)/2 values, and one row's differences against the
    rest, at most m x D.
    """
    x = np.asarray(rows, dtype=float)
    m = x.shape[0]
    s = np.empty((m, m))
    upper = np.empty(m * (m - 1) // 2)
    start = 0
    for i in range(m):
        row = ((x[i:] - x[i]) ** 2).sum(axis=1)
        s[i, i:] = row
        s[i:, i] = row
        upper[start : start + m - 1 - i] = row[1:]
        start += m - 1 - i
    if not upper.any():
        raise DegenerateGeometryError("all pairwise distances are zero")
    if sigma is None:
        upper = upper[upper > 0.0]
        sigma = _median_root(upper)
    # A sigma near its lower bound overflows the exponent to -inf, and
    # exp(-inf) = 0 is the right limit.
    with np.errstate(over="ignore"):
        np.negative(s, out=s)
        np.divide(s, 2.0 * sigma * sigma, out=s)
        np.exp(s, out=s)
    np.fill_diagonal(s, 0.0)
    return s


def _median_root(squares: np.ndarray) -> float:
    """``np.median(np.sqrt(squares))`` of a non-empty 1-D array of
    non-negative values, value for value: the middle order statistic, or
    (a + b) / 2 of the two middle ones.  ``sqrt`` keeps the order, so it is
    applied to those one or two values only.  Unlike ``np.median`` it never
    imports ``numpy.ma``."""
    half = squares.size // 2
    kth = (half,) if squares.size % 2 else (half - 1, half)
    middle = np.sqrt(np.partition(squares, kth)[kth[0] : half + 1])
    return float(middle.sum() / middle.size)


def laplacian_eigendecomposition(similarity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of the normalized symmetric
    Laplacian L = I - D^(-1/2) S D^(-1/2).

    Zero-degree nodes get unit self-similarity so their degree is defined.
    L is built in place: a float ``similarity`` is overwritten (pass a copy
    to keep it), and only its lower triangle, which ``np.linalg.eigh``
    reads, is symmetrized.
    """
    s = np.asarray(similarity, dtype=float)
    m = s.shape[0]
    deg = s.sum(axis=1)
    isolated = deg <= 0.0
    if np.any(isolated):
        s[isolated, isolated] = 1.0
        deg = s.sum(axis=1)
    inv_root = 1.0 / np.sqrt(deg)
    s *= inv_root[:, None]
    s *= inv_root
    diagonal = 1.0 - np.diagonal(s)
    # 0 - x, not -x, so that an off-diagonal zero stays +0.0 as in I - x
    np.subtract(0.0, s, out=s)
    np.fill_diagonal(s, diagonal)
    for i in range(1, m):
        lower = s[i, :i]
        np.add(lower, s[:i, i], out=lower)
        lower *= 0.5
    try:
        return np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise CoinclustError(str(exc)) from exc


def spectral_embed(eigvecs: np.ndarray, k: int) -> np.ndarray:
    """Row-normalized eigenvector embedding of the symmetric Laplacian.

    ``eigvecs`` are the Laplacian eigenvectors in ascending eigenvalue
    order, as ``laplacian_eigendecomposition`` returns them.  The first k
    become coordinates and each row is scaled to unit length.
    """
    m = eigvecs.shape[0]
    if not 2 <= k < m:
        raise ValueError(f"need 2 <= k < m, got k={k}, m={m}")
    coords = eigvecs[:, :k].copy()
    norms = np.linalg.norm(coords, axis=1)
    safe = norms > 1e-12
    coords[safe] /= norms[safe, None]
    return coords


def _kmeans_single(points: np.ndarray, k: int, rng: np.random.Generator):
    m = points.shape[0]
    # k-means++ seeding
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(m))
    centers[0] = points[first]
    closest = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = closest.sum()
        # total 0: every point sits on a chosen centre, so any point repeats
        # one; the empty-cluster repair below hands each cluster a point.
        idx = int(rng.choice(m, p=closest / total)) if total > 0.0 else c
        centers[c] = points[idx]
        closest = np.minimum(closest, ((points - centers[c]) ** 2).sum(axis=1))

    labels = np.full(m, -1)
    for _ in range(KMEANS_MAX_ITER):
        dist = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dist, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        if not counts.all():
            for c in range(k):
                if not np.any(new_labels == c):
                    # repair: hand the empty cluster the point farthest from its centroid
                    owned = dist[np.arange(m), new_labels]
                    counts = np.bincount(new_labels, minlength=k)
                    owned[counts[new_labels] < 2] = -np.inf
                    far = int(np.argmax(owned))
                    new_labels[far] = c
            counts = np.bincount(new_labels, minlength=k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # each centre sums its members in index order, as mean(axis=0) does
        centers[:] = 0.0
        np.add.at(centers, labels, points)
        centers /= counts[:, None]
    dist = ((points - centers[labels]) ** 2).sum(axis=1)
    return labels, float(dist.sum())


def kmeans(points: np.ndarray, k: int, seed: int = DEFAULT_SEED):
    """Deterministic k-means: k-means++ starts, fixed per-restart streams,
    best inertia wins with ties broken by the lowest restart index.

    Returns (labels, inertia).
    """
    points = np.asarray(points, dtype=float)
    m = points.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    best_labels, best_inertia = None, np.inf
    for r in range(KMEANS_RESTARTS):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        labels, inertia = _kmeans_single(points, k, rng)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels, best_inertia


def _canonical_labels(coin_ids: list[str], labels: np.ndarray, k: int) -> list[int]:
    """Renumber clusters by their alphabetically first member."""
    first_member = {}
    for c in range(k):
        members = [coin for coin, lab in zip(coin_ids, labels) if lab == c]
        first_member[c] = min(members)
    order = sorted(range(k), key=lambda c: first_member[c])
    remap = {old: new for new, old in enumerate(order)}
    return [remap[int(lab)] for lab in labels]


def select_k_and_cluster(
    matrix: FeatureMatrix,
    k_max: int = DEFAULT_K_MAX,
    seed: int = DEFAULT_SEED,
    sigma: float | None = None,
) -> ClusterAssignment:
    """Largest k in [2, k_max] whose clustering has no singleton cluster.

    k is searched downward; if even k=2 leaves a singleton the k=2 result is
    returned flagged.  Identical-point geometries cannot be clustered
    meaningfully and come back as a flagged deterministic halving.  Fewer
    than 4 coins, or no more coins than ``k_max``, raise
    ``CoinclustError``.
    """
    m = len(matrix.coin_ids)
    if k_max < 2:
        raise ValueError(f"need k_max >= 2, got {k_max}")
    if m < 4:
        raise CoinclustError(f"need at least 4 coins to cluster, got {m}")
    if k_max >= m:
        raise CoinclustError(
            f"{matrix.metric}: k_max={k_max} needs more than {k_max} coins, got {m}"
        )
    try:
        sim = similarity_matrix(matrix.rows, sigma=sigma)
    except DegenerateGeometryError:
        k, flag = 2, "degenerate_geometry"
        labels = np.repeat([0, 1], [(m + 1) // 2, m // 2])
        eigvals = np.zeros(3)
    else:
        eigvals, eigvecs = laplacian_eigendecomposition(sim)
        for k in range(k_max, 1, -1):
            labels, _ = kmeans(spectral_embed(eigvecs, k), k, seed=seed)
            singleton = np.bincount(labels, minlength=k).min() < 2
            if not singleton:
                break
        flag = "no_singleton_unsatisfiable" if singleton else None
    return ClusterAssignment(
        coin_ids=list(matrix.coin_ids),
        labels=_canonical_labels(matrix.coin_ids, labels, k),
        k=k,
        eigenvalues=eigvals[: k + 1],
        seed=seed,
        metric=matrix.metric,
        flags=(flag,) if flag else (),
    )
