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

from .characteristics import COLUMNS, CharacteristicsConfig, compute_characteristics
from .errors import CoinclustError, DegenerateGeometryError, EigenFailureError, NoUsableCoinsError
from .ingest import Dataset
from .spectrum import DEFAULT_BINS, bin_names, spectrum_feature

DEFAULT_K_MAX = 6
DEFAULT_SEED = 42
KMEANS_RESTARTS = 50


@dataclass
class FeatureMatrix:
    """Per-coin feature rows plus the bookkeeping the contract requires."""

    coin_ids: list[str]
    rows: np.ndarray
    column_names: list[str]
    metric: str = ""
    standardization: tuple[np.ndarray, np.ndarray] | None = None  # (mean, sd) per column
    dropped_columns: list[str] = field(default_factory=list)
    excluded: dict[str, str] = field(default_factory=dict)
    coin_flags: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape


@dataclass
class ClusterAssignment:
    """Coin-to-cluster map with the embedding that produced it."""

    coin_ids: list[str]
    labels: list[int]
    k: int
    embedding: np.ndarray
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


def assemble_features(
    dataset: Dataset,
    k_bins: int = DEFAULT_BINS,
    config: CharacteristicsConfig | None = None,
) -> FeatureMatrix:
    """One row per coin, in sorted coin order: 16 characteristics then K
    spectrum bins.

    Coins whose data cannot yield features (a ``CoinclustError``) are
    excluded and recorded in ``excluded`` rather than failing the whole
    batch; any other exception is a parameter or programming error and
    propagates.
    """
    coin_ids: list[str] = []
    rows: list[np.ndarray] = []
    excluded: dict[str, str] = {}
    coin_flags: dict[str, tuple[str, ...]] = {}
    for coin_id in dataset.coin_ids():
        series = dataset.series[coin_id]
        try:
            vec = compute_characteristics(series, config)
            spec = spectrum_feature(series, k_bins)
        except CoinclustError as exc:
            excluded[coin_id] = str(exc)
            continue
        flags = vec.flags + (("zero_signal",) if spec.degenerate else ())
        if flags:
            coin_flags[coin_id] = flags
        coin_ids.append(coin_id)
        rows.append(np.concatenate([vec.values(), spec.bins]))
    if not rows:
        raise NoUsableCoinsError(f"no coin produced features for {dataset.metric.value}")
    return FeatureMatrix(
        coin_ids=coin_ids,
        rows=np.vstack(rows),
        column_names=list(COLUMNS) + bin_names(k_bins),
        metric=dataset.metric.value,
        excluded=excluded,
        coin_flags=coin_flags,
    )


def standardize(matrix: FeatureMatrix) -> FeatureMatrix:
    """Z-score each column (n-1 denominator); constant columns are dropped
    and recorded, since they carry no clustering information."""
    rows = matrix.rows
    if rows.shape[0] < 2:
        raise NoUsableCoinsError("need at least 2 coins to standardize")
    mean = rows.mean(axis=0)
    sd = rows.std(axis=0, ddof=1)
    keep = sd > 0.0
    z = (rows[:, keep] - mean[keep]) / sd[keep]
    return FeatureMatrix(
        coin_ids=list(matrix.coin_ids),
        rows=z,
        column_names=[c for c, k in zip(matrix.column_names, keep) if k],
        metric=matrix.metric,
        standardization=(mean[keep], sd[keep]),
        dropped_columns=[c for c, k in zip(matrix.column_names, keep) if not k],
        excluded=dict(matrix.excluded),
        coin_flags=dict(matrix.coin_flags),
    )


def similarity_matrix(rows: np.ndarray, sigma: float | None = None) -> np.ndarray:
    """Gaussian similarity S_ij = exp(-||r_i - r_j||^2 / (2 sigma^2)).

    The bandwidth defaults to the median of the pairwise Euclidean
    distances, which is scale-stable and parameter-free.  The diagonal is
    zero by the usual graph convention.
    """
    x = np.asarray(rows, dtype=float)
    m = x.shape[0]
    sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    if sigma is None:
        dists = np.sqrt(sq[np.triu_indices(m, k=1)])
        sigma = float(np.median(dists))
        if sigma == 0.0:
            raise DegenerateGeometryError("all pairwise distances are zero")
    s = np.exp(-sq / (2.0 * sigma * sigma))
    np.fill_diagonal(s, 0.0)
    return s


def laplacian_eigendecomposition(similarity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of the normalized symmetric
    Laplacian L = I - D^(-1/2) S D^(-1/2).

    Zero-degree nodes get unit self-similarity so their degree is defined.
    """
    s = np.array(similarity, dtype=float)
    m = s.shape[0]
    deg = s.sum(axis=1)
    isolated = deg <= 0.0
    if np.any(isolated):
        s[isolated, isolated] = 1.0
        deg = s.sum(axis=1)
    inv_root = 1.0 / np.sqrt(deg)
    lap = np.eye(m) - inv_root[:, None] * s * inv_root[None, :]
    lap = 0.5 * (lap + lap.T)
    try:
        return np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(str(exc)) from exc


def spectral_embed(similarity: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalized eigenvector embedding of the symmetric Laplacian.

    The k eigenvectors of the smallest eigenvalues become coordinates and
    each row is scaled to unit length.  Returns (embedding, all eigenvalues
    ascending).
    """
    m = np.asarray(similarity).shape[0]
    if not 2 <= k < m:
        raise ValueError(f"need 2 <= k < m, got k={k}, m={m}")
    eigvals, eigvecs = laplacian_eigendecomposition(similarity)
    coords = eigvecs[:, :k].copy()
    norms = np.linalg.norm(coords, axis=1)
    safe = norms > 1e-12
    coords[safe] /= norms[safe, None]
    return coords, eigvals


def _kmeans_single(points: np.ndarray, k: int, rng: np.random.Generator, max_iter: int = 100):
    m = points.shape[0]
    # k-means++ seeding
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(m))
    centers[0] = points[first]
    closest = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total > 0.0:
            idx = int(rng.choice(m, p=closest / total))
        else:
            chosen = {tuple(centers[i]) for i in range(c)}
            idx = next(i for i in range(m) if tuple(points[i]) not in chosen)
        centers[c] = points[idx]
        closest = np.minimum(closest, ((points - centers[c]) ** 2).sum(axis=1))

    labels = np.full(m, -1)
    for _ in range(max_iter):
        dist = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dist, axis=1)
        for c in range(k):
            if not np.any(new_labels == c):
                # repair: hand the empty cluster the point farthest from its centroid
                owned = dist[np.arange(m), new_labels]
                counts = np.bincount(new_labels, minlength=k)
                owned[counts[new_labels] < 2] = -np.inf
                far = int(np.argmax(owned))
                new_labels[far] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    dist = ((points - centers[labels]) ** 2).sum(axis=1)
    return labels, float(dist.sum())


def kmeans(points: np.ndarray, k: int, seed: int = DEFAULT_SEED, restarts: int = KMEANS_RESTARTS):
    """Deterministic k-means: k-means++ starts, fixed per-restart streams,
    best inertia wins with ties broken by the lowest restart index.

    Returns (labels, inertia).
    """
    points = np.asarray(points, dtype=float)
    m = points.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    best_labels, best_inertia = None, np.inf
    for r in range(restarts):
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
    meaningfully and come back as a flagged deterministic halving.
    """
    m = len(matrix.coin_ids)
    if m < 4:
        raise NoUsableCoinsError(f"need at least 4 coins to cluster, got {m}")
    if not 2 <= k_max < m:
        raise ValueError(f"need 2 <= k_max < m, got k_max={k_max}, m={m}")
    try:
        sim = similarity_matrix(matrix.rows, sigma=sigma)
    except DegenerateGeometryError:
        half = (m + 1) // 2
        labels = [0] * half + [1] * (m - half)
        return ClusterAssignment(
            coin_ids=list(matrix.coin_ids),
            labels=labels,
            k=2,
            embedding=np.zeros((m, 2)),
            eigenvalues=np.zeros(3),
            seed=seed,
            metric=matrix.metric,
            flags=("degenerate_geometry",),
        )

    fallback = None
    for k in range(k_max, 1, -1):
        coords, eigvals = spectral_embed(sim, k)
        labels, _ = kmeans(coords, k, seed=seed)
        sizes = np.bincount(labels, minlength=k)
        assignment = ClusterAssignment(
            coin_ids=list(matrix.coin_ids),
            labels=_canonical_labels(matrix.coin_ids, labels, k),
            k=k,
            embedding=coords,
            eigenvalues=eigvals[: k + 1],
            seed=seed,
            metric=matrix.metric,
        )
        if sizes.min() >= 2:
            return assignment
        if k == 2:
            fallback = assignment
    fallback.flags = ("no_singleton_unsatisfiable",)
    return fallback
