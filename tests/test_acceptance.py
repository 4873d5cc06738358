"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts both the numerical tolerance and the runtime budget of its
criterion.
"""

import json
import time

import numpy as np
import pytest

from coinclust.characteristics import (
    autocorrelation_lag1,
    chaos_lyapunov,
    compute_characteristics,
    moments,
    ols_line,
    quantiles,
    self_similarity_dfa,
)
from coinclust.clustering import (
    FeatureMatrix,
    kmeans,
    laplacian_eigendecomposition,
    select_k_and_cluster,
    similarity_matrix,
    spectral_embed,
    standardize,
)
from coinclust.config import RunConfig
from coinclust.ingest import METRICS, build_dataset
from coinclust.report import report_run
from coinclust.spectrum import bin_names, periodogram, resample_spectrum

from conftest import features_of
from oracles import (
    acf1_direct,
    co_membership,
    dft_matrix_power,
    kmeans_exhaustive,
    laplacian_eig_dense,
    moments_direct,
    ols_direct,
    quantile_sorted,
)


def _finish(num, name, t0, budget):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget, f"runtime {elapsed:.1f}s over budget {budget}s"


def _synthetic_battery(count=100, n=500):
    """White noise, random walks, AR(1), trended lines and constants."""
    kinds = ["noise", "walk", "ar1", "trend", "constant"]
    series = []
    for i in range(count):
        rng = np.random.default_rng(1000 + i)
        kind = kinds[i % len(kinds)]
        if kind == "noise":
            x = rng.standard_normal(n)
        elif kind == "walk":
            x = np.cumsum(rng.standard_normal(n))
        elif kind == "ar1":
            e = rng.standard_normal(n)
            x = np.empty(n)
            x[0] = e[0]
            for t in range(1, n):
                x[t] = 0.8 * x[t - 1] + e[t]
        elif kind == "trend":
            x = 2.0 + 0.05 * np.arange(n) + 0.1 * rng.standard_normal(n)
        else:
            x = np.full(n, float(rng.integers(1, 9)))
        series.append((kind, x))
    return series


def test_criterion_1_closed_form_oracle_equivalence():
    t0 = time.time()
    for kind, x in _synthetic_battery():
        m = moments(x)
        omean, osd, oskew, okurt = moments_direct(x)
        assert m["mean"] == pytest.approx(omean, rel=1e-8, abs=1e-12)
        assert m["standard_deviation"] == pytest.approx(osd, rel=1e-8, abs=1e-12)
        assert m["skewness"] == pytest.approx(oskew, rel=1e-8, abs=1e-12)
        assert m["kurtosis"] == pytest.approx(okurt, rel=1e-8, abs=1e-12)
        q = quantiles(x)
        for name, p in [("minimum", 0.0), ("VaR99", 0.01), ("VaR95", 0.05), ("lowerquant", 0.25),
                        ("median", 0.5), ("upperquant", 0.75), ("maximum", 1.0)]:
            assert q[name] == pytest.approx(quantile_sorted(x, p), rel=1e-8, abs=1e-12)
        oslope, _ = ols_direct(x)
        assert ols_line(x) == pytest.approx(oslope, rel=1e-8, abs=1e-12)
        if kind == "constant":
            assert autocorrelation_lag1(x) == 0.0
        else:
            assert autocorrelation_lag1(x) == pytest.approx(acf1_direct(x), rel=1e-8, abs=1e-12)
    _finish(1, "closed-form features match direct-summation oracle", t0, 10)


def test_criterion_2_dfa_calibration():
    t0 = time.time()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        noise, walk = self_similarity_dfa([rng.standard_normal(10_000), np.cumsum(rng.standard_normal(10_000))])
        assert 0.45 <= noise <= 0.55, f"seed {seed}: noise exponent {noise}"
        assert 1.4 <= walk <= 1.6, f"seed {seed}: walk exponent {walk}"
        assert noise < walk
    _finish(2, "self-similarity exponent calibration", t0, 30)


def test_criterion_3_lyapunov_calibration():
    t0 = time.time()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = np.empty(5_000)
        x[0] = rng.uniform(0.1, 0.9)
        for i in range(1, x.size):
            x[i] = 4.0 * x[i - 1] * (1.0 - x[i - 1])
        lam = chaos_lyapunov(x)
        assert abs(lam - np.log(2.0)) < 0.1, f"seed {seed}: logistic exponent {lam}"
    for i in range(10):
        phase = np.random.default_rng(100 + i).uniform(0, 2 * np.pi)
        x = np.sin(2 * np.pi * np.arange(2_000) / 20.0 + phase)
        lam = chaos_lyapunov(x)
        assert abs(lam) < 0.02, f"phase {i}: sine exponent {lam}"
    _finish(3, "divergence-rate calibration", t0, 30)


def test_criterion_4_fft_correctness():
    t0 = time.time()
    for n in range(8, 257):
        x = np.random.default_rng(n).standard_normal(n)
        _, power = periodogram(x)
        ref = dft_matrix_power(x - x.mean())
        assert np.allclose(power, ref, rtol=1e-8, atol=1e-8 * max(ref.max(), 1.0)), f"n={n}"
    # single-tone concentration
    n = 128
    x = np.cos(2 * np.pi * np.arange(n) / 8.0)
    freqs, power = periodogram(x)
    peak = int(np.argmax(power))
    assert freqs[peak] == pytest.approx(1 / 8)
    assert np.all(np.delete(power, peak) < 1e-10 * power[peak])
    # normalization
    for seed in range(10):
        rng = np.random.default_rng(seed)
        bins = resample_spectrum(*periodogram(rng.standard_normal(300)), 200)
        assert abs(bins.sum() - 1.0) < 1e-12
    _finish(4, "fft periodogram matches transform-matrix oracle", t0, 20)


def test_criterion_5_spectral_pipeline_oracle():
    t0 = time.time()
    for case in range(50):
        rng = np.random.default_rng(case)
        m = int(rng.integers(6, 11))
        k = int(rng.integers(2, 4))
        rows = rng.standard_normal((m, 4))
        sim = similarity_matrix(rows)
        eigvals, eigvecs = laplacian_eigendecomposition(sim.copy())
        ovals, ovecs = laplacian_eig_dense(sim, k)
        p_lib = eigvecs[:, :k] @ eigvecs[:, :k].T
        p_oracle = ovecs @ np.linalg.pinv(ovecs)
        assert np.abs(p_lib - p_oracle).max() < 1e-8, f"case {case}: projector distance"
        coords = spectral_embed(eigvecs, k)
        _, inertia = kmeans(coords, k, seed=case)
        best, _ = kmeans_exhaustive(coords, k)
        assert inertia == pytest.approx(best, rel=1e-10, abs=1e-12), f"case {case}: inertia"
    _finish(5, "embedding and k-means match dense/exhaustive oracles", t0, 60)


def _random_geometry(seed):
    """Mix of unstructured and group-structured 18-point geometries."""
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        return rng.standard_normal((18, 6))
    n_groups = int(rng.integers(2, 7))
    centers = rng.standard_normal((n_groups, 6)) * rng.uniform(2.0, 8.0)
    rows = [centers[rng.integers(n_groups)] + 0.3 * rng.standard_normal(6) for _ in range(18)]
    return np.asarray(rows)


def test_criterion_6_no_singleton_k_selection():
    t0 = time.time()
    checked_unflagged = 0
    for seed in range(200):
        rows = _random_geometry(seed)
        matrix = standardize(FeatureMatrix(
            coin_ids=[f"c{i:02d}" for i in range(18)],
            rows=rows,
            column_names=[f"f{j}" for j in range(rows.shape[1])],
        ))
        result = select_k_and_cluster(matrix, k_max=6, seed=42)
        if result.flags:
            continue
        checked_unflagged += 1
        sizes = np.bincount(result.labels, minlength=result.k)
        assert sizes.min() >= 2, f"seed {seed}: singleton in result"
        # independent re-run of every k to find the true maximum
        _, eigvecs = laplacian_eigendecomposition(similarity_matrix(matrix.rows))
        feasible = []
        for k in range(2, 7):
            coords = spectral_embed(eigvecs, k)
            labels, _ = kmeans(coords, k, seed=42)
            if np.bincount(labels, minlength=k).min() >= 2:
                feasible.append(k)
        assert result.k == max(feasible), f"seed {seed}: k={result.k}, feasible={feasible}"
    assert checked_unflagged > 150  # the battery must actually exercise the rule
    _finish(6, "no-singleton k selection picks the maximum feasible k", t0, 300)


def test_criterion_7_determinism_and_equivariance(snapshot_dir):
    t0 = time.time()
    ds = build_dataset(snapshot_dir, snapshot_dir / "profiles.txt", "price_usd")
    cfg = RunConfig(data_dir=str(snapshot_dir), metrics=["price_usd"])
    a = report_run({"price_usd": ds}, cfg).to_json()
    b = report_run({"price_usd": ds}, cfg).to_json()
    assert a == b, "repeated runs must be byte-identical"

    features = standardize(features_of(ds))
    base = select_k_and_cluster(features, k_max=6, seed=42)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(features.coin_ids))
    permuted = FeatureMatrix(
        coin_ids=[features.coin_ids[i] for i in perm],
        rows=features.rows[perm],
        column_names=features.column_names,
        metric=features.metric,
    )
    p = select_k_and_cluster(permuted, k_max=6, seed=42)
    back = np.argsort(perm)
    assert np.array_equal(
        co_membership(base.labels), co_membership(np.asarray(p.labels)[back])
    ), "coin permutation changed co-membership"

    raw = features_of(ds)
    scaled_rows = raw.rows.copy()
    scaled_rows[:, 0] *= 1000.0  # rescale one raw feature column
    scaled = standardize(FeatureMatrix(
        coin_ids=list(raw.coin_ids), rows=scaled_rows, column_names=raw.column_names,
        metric=raw.metric,
    ))
    s = select_k_and_cluster(scaled, k_max=6, seed=42)
    assert np.array_equal(co_membership(base.labels), co_membership(s.labels)), \
        "positive column rescaling changed co-membership"
    _finish(7, "determinism, permutation and rescale equivariance", t0, 120)


def test_criterion_8_end_to_end_fixture_run(snapshot_dir):
    t0 = time.time()
    datasets = {
        m: build_dataset(snapshot_dir, snapshot_dir / "profiles.txt", m) for m in METRICS
    }
    assert sorted(datasets["block_time_minutes"].missing) == ["xrp"]
    assert sorted(datasets["block_size_bytes"].missing) == ["peercoin", "xrp"]
    cfg = RunConfig(data_dir=str(snapshot_dir))
    report = report_run(datasets, cfg)
    assert all(s.error is None for s in report.sections.values()), "all metrics must complete"

    price = report.sections["price_usd"].assignment
    assert price.k == 5, f"price run selected k={price.k}"
    assert price.flags == ()
    assert min(np.bincount(price.labels)) >= 2

    btime = report.sections["block_time_minutes"].assignment
    lab = dict(zip(btime.coin_ids, btime.labels))
    assert lab["peercoin"] == lab["reddcoin"], "peercoin and reddcoin must co-cluster"

    bsize = report.sections["block_size_bytes"].assignment
    lab = dict(zip(bsize.coin_ids, bsize.labels))
    assert lab["bitcoin_cash"] == lab["bitcoin_sv"], "bitcoin_cash and bitcoin_sv must co-cluster"

    # full memberships are reported, not asserted
    for metric, section in sorted(report.sections.items()):
        print(f"  {metric}: {[c['coins'] for c in section.assignment.as_dict()['clusters']]}")
    _finish(8, "end-to-end snapshot run reproduces the headline structure", t0, 120)


def test_criterion_9_feature_schema(snapshot_dir):
    t0 = time.time()
    ds = build_dataset(snapshot_dir, snapshot_dir / "profiles.txt", "price_usd")
    matrix = features_of(ds)
    expected = [
        "mean", "standard_deviation", "skewness", "kurtosis", "maximum", "minimum",
        "lowerquant", "median", "upperquant", "VaR99", "VaR95", "slope", "intercept",
        "autocorrelation", "self_similarity", "chaos",
    ] + bin_names(200)
    assert matrix.column_names == expected
    assert matrix.rows.shape[1] == 216
    _finish(9, "feature schema matches the documented 216 columns", t0, 30)
