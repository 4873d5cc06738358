import tracemalloc

import numpy as np
import pytest

from coinclust import clustering

from coinclust.clustering import (
    FeatureMatrix,
    assemble_features,
    kmeans,
    laplacian_eigendecomposition,
    select_k_and_cluster,
    similarity_matrix,
    spectral_embed,
    standardize,
)
from coinclust.characteristics import COLUMNS
from coinclust.config import RunConfig
from coinclust.errors import CoinclustError, DegenerateGeometryError
from coinclust.ingest import Dataset, Metric, build_dataset

from conftest import make_series, random_walk
from oracles import co_membership, kmeans_exhaustive, laplacian_eig_dense, similarity_double_loop


def fm(rows, ids=None, cols=None):
    rows = np.asarray(rows, dtype=float)
    ids = ids or [f"coin{i:02d}" for i in range(rows.shape[0])]
    cols = cols or [f"f{j}" for j in range(rows.shape[1])]
    return FeatureMatrix(coin_ids=ids, rows=rows, column_names=cols, metric="test")


def grouped_geometry(seed=0, satellite=True):
    """Five tight groups sized (2,2,2,9,3); the last group carries a
    satellite point that a 6th cluster would isolate."""
    rng = np.random.default_rng(seed)
    centers = [
        np.array([10.0, 0.0, 0.0]),
        np.array([0.0, 10.0, 0.0]),
        np.array([0.0, 0.0, 10.0]),
        np.array([-8.0, -8.0, 0.0]),
        np.array([8.0, 8.0, 8.0]),
    ]
    rows, ids = [], []
    sizes = [2, 2, 2, 9, 3]
    for g, (c, size) in enumerate(zip(centers, sizes)):
        for i in range(size):
            rows.append(c + 0.1 * rng.standard_normal(3))
            ids.append(f"g{g}_{i}")
    if satellite:
        rows[-1] = centers[4] + np.array([3.0, 3.0, 3.0])
    return fm(rows, ids=ids)


# --- standardize -----------------------------------------------------------

def test_standardize_single_column():
    out = standardize(fm([[1.0], [2.0], [3.0]]))
    assert np.allclose(out.rows[:, 0], [-1.0, 0.0, 1.0])


def test_standardize_idempotent():
    rng = np.random.default_rng(3)
    once = standardize(fm(rng.standard_normal((10, 4))))
    twice = standardize(once)
    assert np.allclose(once.rows, twice.rows, atol=1e-12)


def test_standardize_columns_centered_unit():
    rng = np.random.default_rng(5)
    out = standardize(fm(rng.standard_normal((30, 8)) * 100 + 7))
    assert np.all(np.abs(out.rows.mean(axis=0)) < 1e-9)
    assert np.allclose(out.rows.std(axis=0, ddof=1), 1.0, atol=1e-9)


def test_standardize_drops_constant_columns():
    rows = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
    out = standardize(fm(rows, cols=["a", "b"]))
    assert out.column_names == ["a"]
    assert out.dropped_columns == ["b"]


# --- similarity ---------------------------------------------------------------

def test_similarity_identical_rows():
    rows = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
    s = similarity_matrix(rows)
    assert s[0, 1] == pytest.approx(1.0)
    assert np.all(np.diag(s) == 0.0)


def test_similarity_equilateral_equal_offdiagonals():
    rows = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    s = similarity_matrix(rows)
    off = [s[0, 1], s[0, 2], s[1, 2]]
    assert max(off) - min(off) < 1e-12


def test_similarity_matches_double_loop_oracle():
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((10, 5))
    d = np.sqrt(((rows[:, None] - rows[None, :]) ** 2).sum(-1))
    sigma = float(np.median(d[np.triu_indices(10, k=1)]))
    assert np.allclose(similarity_matrix(rows), similarity_double_loop(rows, sigma), atol=1e-12)


def test_similarity_row_by_row_is_small_symmetric_and_bit_identical():
    x = np.random.default_rng(21).standard_normal((200, 216))
    tracemalloc.start()
    try:
        s = similarity_matrix(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # an m x m x D broadcast alone is 69 MB
    assert np.array_equal(s, s.T)
    sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    sigma = float(np.median(np.sqrt(sq[np.triu_indices(200, k=1)])))
    expected = np.exp(-sq / (2.0 * sigma * sigma))
    np.fill_diagonal(expected, 0.0)
    assert np.array_equal(s, expected)


def test_similarity_degenerate():
    with pytest.raises(DegenerateGeometryError, match="^all pairwise distances are zero$"):
        similarity_matrix(np.ones((4, 3)))


def test_similarity_degenerate_with_a_given_sigma():
    with pytest.raises(DegenerateGeometryError, match="^all pairwise distances are zero$"):
        similarity_matrix(np.ones((4, 3)), sigma=1.0)


def test_tiny_sigma_gives_zero_similarity_without_a_warning():
    # 2 * sigma**2 is subnormal, so -sq / (2 sigma^2) overflows to -inf and
    # exp gives 0; a RuntimeWarning fails the test (pyproject.toml filterwarnings).
    s = similarity_matrix(np.array([[0.0], [1.0], [3.0]]), sigma=1e-160)
    assert np.array_equal(s, np.zeros((3, 3)))


# --- spectral embedding ----------------------------------------------------------

def test_embed_block_diagonal_separates():
    s = np.zeros((6, 6))
    for i in range(3):
        for j in range(3):
            if i != j:
                s[i, j] = s[3 + i, 3 + j] = 0.9
    eigvals, eigvecs = laplacian_eigendecomposition(s)
    coords = spectral_embed(eigvecs, 2)
    # disconnected graph: eigenvalue 0 with multiplicity 2
    assert eigvals[0] == pytest.approx(0.0, abs=1e-12)
    assert eigvals[1] == pytest.approx(0.0, abs=1e-12)
    # each block collapses to one point on the unit circle, blocks distinct
    assert np.allclose(coords[:3], coords[0], atol=1e-8)
    assert np.allclose(coords[3:], coords[3], atol=1e-8)
    assert np.linalg.norm(coords[0] - coords[3]) > 0.5


def test_embed_eigenvalue_bounds():
    rng = np.random.default_rng(12)
    rows = rng.standard_normal((9, 4))
    s = similarity_matrix(rows)
    eigvals, _ = laplacian_eigendecomposition(s)
    assert np.all(np.diff(eigvals) >= -1e-12)
    assert eigvals[0] >= -1e-10 and eigvals[-1] <= 2.0 + 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_embed_matches_dense_oracle_subspace(seed):
    from coinclust.clustering import laplacian_eigendecomposition

    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((8, 3))
    s = similarity_matrix(rows)
    k = 3
    eigvals, eigvecs = laplacian_eigendecomposition(s)
    ovals, ovecs = laplacian_eig_dense(s, k)
    assert np.allclose(eigvals[:k], ovals, atol=1e-8)
    # subspace comparison is projector comparison: immune to sign flips and
    # rotations inside degenerate eigenspaces
    p_lib = eigvecs[:, :k] @ eigvecs[:, :k].T
    p_oracle = ovecs @ np.linalg.pinv(ovecs)
    assert np.abs(p_lib - p_oracle).max() < 1e-8


# --- k-means ----------------------------------------------------------------------

def test_kmeans_two_pairs_matches_exhaustive():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
    labels, inertia = kmeans(pts, 2, seed=1)
    best, best_labels = kmeans_exhaustive(pts, 2)
    assert inertia == pytest.approx(best, rel=1e-12)
    assert np.array_equal(co_membership(labels), co_membership(best_labels))


def test_kmeans_k_equals_m():
    pts = np.arange(10.0).reshape(5, 2)
    labels, inertia = kmeans(pts, 5, seed=0)
    assert inertia == pytest.approx(0.0, abs=1e-12)
    assert len(set(labels.tolist())) == 5


def test_kmeans_duplicates_co_clustered():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((6, 3))
    pts = np.vstack([base, base])
    labels, _ = kmeans(pts, 2, seed=3)
    assert np.array_equal(labels[:6], labels[6:])


@pytest.mark.parametrize("seed", range(10))
def test_kmeans_matches_exhaustive_random(seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((8, 3))
    k = 2 + seed % 2
    _, inertia = kmeans(pts, k, seed=seed)
    best, _ = kmeans_exhaustive(pts, k)
    assert inertia == pytest.approx(best, rel=1e-10)


@pytest.mark.parametrize("points, k", [
    (np.repeat(np.eye(3), [3, 3, 2], axis=0), 5),
    (np.zeros((4, 2)), 3),
    (np.repeat(np.eye(2), [2, 3], axis=0), 4),
])
def test_kmeans_seeding_when_every_point_sits_on_a_centre(points, k):
    labels, inertia = kmeans(points, k, seed=0)
    assert np.bincount(labels, minlength=k).min() >= 1
    assert inertia == pytest.approx(0.0, abs=1e-12)


def test_kmeans_deterministic():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((12, 4))
    a = kmeans(pts, 3, seed=5)
    b = kmeans(pts, 3, seed=5)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


# --- k selection ----------------------------------------------------------------------

def test_select_k_paper_like_geometry():
    std = standardize(grouped_geometry())
    a = select_k_and_cluster(std, k_max=6, seed=42)
    assert a.k == 5
    assert a.flags == ()
    assert min(np.bincount(a.labels)) >= 2
    assert sorted(np.bincount(a.labels).tolist()) == [2, 2, 2, 3, 9]


def test_select_k_two_pairs():
    rows = np.array([[0.0, 0.0], [0.05, 0.0], [10.0, 10.0], [10.0, 10.05]])
    a = select_k_and_cluster(standardize(fm(rows)), k_max=3, seed=1)
    assert a.k == 2
    assert min(np.bincount(a.labels)) == 2


def test_select_k_identical_points_flagged():
    matrix = fm(np.ones((6, 3)))
    a = select_k_and_cluster(matrix, k_max=3, seed=1)
    assert a.k == 2
    assert "degenerate_geometry" in a.flags


@pytest.mark.parametrize("sigma", [None, 1.0])
def test_identical_rows_give_the_flagged_halving_whatever_sigma(sigma):
    a = select_k_and_cluster(fm(np.ones((8, 3))), k_max=3, seed=1, sigma=sigma)
    assert (a.k, a.labels, a.flags) == (2, [0] * 4 + [1] * 4, ("degenerate_geometry",))


def test_duplicate_rows_take_the_bandwidth_from_the_non_zero_distances():
    # The median pairwise distance is 0 (15 of 28 pairs are duplicates), so
    # sigma is the median of the 12 non-zero distances, all sqrt(50).
    rows = np.vstack([np.zeros((6, 2)), np.full((2, 2), 5.0)])
    s = similarity_matrix(rows)
    assert s[0, 6] == pytest.approx(np.exp(-0.5)) and s[0, 1] == 1.0 and s[6, 7] == 1.0
    a = select_k_and_cluster(fm(rows), seed=1)
    assert a.labels == [0] * 6 + [1] * 2
    assert a.flags == ()


def test_select_k_requires_enough_coins():
    with pytest.raises(CoinclustError, match=r"^need at least 4 coins to cluster, got 3$"):
        select_k_and_cluster(fm(np.eye(3)), k_max=2, seed=0)


def test_k_max_reaching_the_coin_count_names_the_metric():
    rows = np.random.default_rng(0).standard_normal((5, 3))
    with pytest.raises(CoinclustError, match=r"^test: k_max=5 needs more than 5 coins, got 5$"):
        select_k_and_cluster(fm(rows), k_max=5, seed=0)
    with pytest.raises(ValueError, match="k_max >= 2"):
        select_k_and_cluster(fm(rows), k_max=1, seed=0)


def test_select_k_decomposes_the_laplacian_once(snapshot_dir, monkeypatch):
    ds = build_dataset(snapshot_dir, snapshot_dir / "profiles.txt", Metric.PRICE)
    std = standardize(assemble_features(ds))
    calls = []
    decompose = clustering.laplacian_eigendecomposition

    def counted(similarity):
        calls.append(similarity.shape)
        return decompose(similarity)

    monkeypatch.setattr(clustering, "laplacian_eigendecomposition", counted)
    a = select_k_and_cluster(std, k_max=6, seed=42)
    assert a.k == 5  # k = 6 was tried and left a singleton
    assert len(calls) == 1


def test_no_singleton_invariant_random_geometries():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((18, 6))
        a = select_k_and_cluster(standardize(fm(rows)), k_max=6, seed=42)
        if not a.flags:
            assert min(np.bincount(a.labels, minlength=a.k)) >= 2


def test_select_k_deterministic_and_canonical():
    std = standardize(grouped_geometry())
    a = select_k_and_cluster(std, k_max=6, seed=42)
    b = select_k_and_cluster(std, k_max=6, seed=42)
    assert a.labels == b.labels
    # canonical ids: clusters ordered by alphabetically first member
    firsts = [min(c) for c in a.clusters()]
    assert firsts == sorted(firsts)


def test_permutation_equivariance():
    std = standardize(grouped_geometry())
    a = select_k_and_cluster(std, k_max=6, seed=42)
    rng = np.random.default_rng(99)
    perm = rng.permutation(len(std.coin_ids))
    permuted = FeatureMatrix(
        coin_ids=[std.coin_ids[i] for i in perm],
        rows=std.rows[perm],
        column_names=std.column_names,
        metric=std.metric,
    )
    b = select_k_and_cluster(permuted, k_max=6, seed=42)
    order = np.argsort(perm)  # map permuted positions back
    cm_a = co_membership(a.labels)
    cm_b = co_membership(np.asarray(b.labels)[order])
    assert np.array_equal(cm_a, cm_b)


def test_feature_scaling_invariance():
    raw = grouped_geometry()
    a = select_k_and_cluster(standardize(raw), k_max=6, seed=42)
    scaled = FeatureMatrix(
        coin_ids=list(raw.coin_ids),
        rows=raw.rows * np.array([100.0, 1.0, 0.01]),
        column_names=raw.column_names,
        metric=raw.metric,
    )
    b = select_k_and_cluster(standardize(scaled), k_max=6, seed=42)
    assert np.array_equal(co_membership(a.labels), co_membership(b.labels))


def test_assignment_serialization_shape():
    std = standardize(grouped_geometry())
    a = select_k_and_cluster(std, k_max=6, seed=42)
    d = a.as_dict()
    assert d["k"] == 5 and d["seed"] == 42
    assert sum(len(c["coins"]) for c in d["clusters"]) == 18
    assert len(d["eigenvalues"]) == 6


# --- feature assembly ---------------------------------------------------------------

def test_short_series_excluded_with_reason():
    # 150 days pass ingest and the fluctuation analysis but not the 200-day
    # divergence-rate floor.
    series = {f"long{i}": make_series(random_walk(400, seed=i, start=100.0))
              for i in range(4)}
    series["short"] = make_series(random_walk(150, seed=9, start=100.0))
    matrix = assemble_features(Dataset(metric=Metric.PRICE, series=series, profiles={}),
                               RunConfig(spectrum_bins=16))
    assert matrix.coin_ids == ["long0", "long1", "long2", "long3"]
    assert list(matrix.excluded) == ["short"]
    assert matrix.excluded["short"].startswith("chaos:")
    assert matrix.rows.shape == (4, 16 + 16)


def test_dfa_window_grid_too_small_excludes_the_coin_with_the_reason():
    # At dfa_max_window_frac 0.01 a 450-day series leaves one window size
    # (4 = int(4.5)); 600 days leave three.
    series = {f"long{i}": make_series(random_walk(600, seed=i, start=100.0))
              for i in range(4)}
    series["short"] = make_series(random_walk(450, seed=9, start=100.0))
    config = RunConfig(spectrum_bins=16, dfa_max_window_frac=0.01)
    matrix = assemble_features(Dataset(metric=Metric.PRICE, series=series, profiles={}), config)
    assert matrix.coin_ids == ["long0", "long1", "long2", "long3"]
    assert matrix.excluded == {
        "short": "self_similarity: dfa_min_window=4 and dfa_max_window_frac=0.01 "
                 "leave fewer than 2 window sizes: the largest window int(n * dfa_max_window_frac) "
                 "must exceed dfa_min_window"
    }
    assert np.all(matrix.rows[:, COLUMNS.index("self_similarity")] != 0.0)


def test_dfa_windows_that_do_not_fit_twice_exclude_coins_under_one_reason():
    # Window sizes from 600 up to n: 2,000 days fit several of them twice,
    # 700 and 1,000 days none.
    series = {f"long{i}": make_series(random_walk(2_000, seed=i, start=100.0))
              for i in range(4)}
    for n in (700, 1_000):
        series[f"short{n}"] = make_series(random_walk(n, seed=n, start=100.0))
    config = RunConfig(spectrum_bins=16, dfa_min_window=600, dfa_max_window_frac=1.0)
    matrix = assemble_features(Dataset(metric=Metric.PRICE, series=series, profiles={}), config)
    assert matrix.coin_ids == ["long0", "long1", "long2", "long3"]
    reason = ("self_similarity: dfa_min_window=600 and dfa_max_window_frac=1.0 "
              "leave fewer than 2 window sizes that fit twice in the series")
    assert matrix.excluded == {"short700": reason, "short1000": reason}


def test_eigensolver_failure_is_a_coinclust_error(monkeypatch):
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(CoinclustError, match="^Eigenvalues did not converge$"):
        laplacian_eigendecomposition(np.ones((4, 4)))
