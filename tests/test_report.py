import numpy as np
import pytest

from coinclust.clustering import ClusterAssignment
from coinclust.config import RunConfig
from coinclust.errors import CoinclustError
from coinclust.ingest import Dataset, MechanismProfile, Metric
from coinclust.projection import Projection3D
from coinclust.report import crosstab, emit_plots, report_run

from conftest import make_series, random_walk


def profile(coin, consensus="PoW", hashing="SHA-256", fork=None, diff=2016, size_kind="static"):
    return MechanismProfile(
        coin_id=coin,
        consensus=consensus,
        hashing_algorithm=hashing,
        governance="public",
        block_size_limit_kind=size_kind,
        fork_origin=fork,
        difficulty_adjustment_blocks=diff,
        target_block_time_minutes=10.0,
    )


def assignment_of(groups, metric="price_usd"):
    coin_ids, labels = [], []
    for lab, coins in enumerate(groups):
        for c in coins:
            coin_ids.append(c)
            labels.append(lab)
    order = np.argsort(coin_ids)
    coin_ids = [coin_ids[i] for i in order]
    labels = [labels[i] for i in order]
    return ClusterAssignment(
        coin_ids=coin_ids,
        labels=labels,
        k=len(groups),
        eigenvalues=np.zeros(len(groups) + 1),
        seed=42,
        metric=metric,
    )


# --- crosstab ---------------------------------------------------------------

def test_crosstab_homogeneous_purity_one():
    a = assignment_of([["a1", "a2"], ["b1", "b2"]])
    profiles = {
        "a1": profile("a1", hashing="Scrypt"),
        "a2": profile("a2", hashing="Scrypt"),
        "b1": profile("b1", hashing="Equihash"),
        "b2": profile("b2", hashing="Equihash"),
    }
    ct = crosstab(a, profiles)
    assert ct.purity["hashing_algorithm"] == pytest.approx(1.0)
    assert ct.rows[0]["modal_share"]["hashing_algorithm"] == 1.0


def test_crosstab_modal_share_half():
    a = assignment_of([["c1", "c2", "c3", "c4"]])
    profiles = {
        "c1": profile("c1", consensus="PoW"),
        "c2": profile("c2", consensus="PoW"),
        "c3": profile("c3", consensus="PoS"),
        "c4": profile("c4", consensus="PoS"),
    }
    ct = crosstab(a, profiles)
    assert ct.purity["consensus"] == pytest.approx(0.5)


def test_crosstab_pos_pair_cluster():
    a = assignment_of([["peercoin", "reddcoin"], ["bitcoin", "litecoin"]], metric="block_time_minutes")
    profiles = {
        "peercoin": profile("peercoin", consensus="PoS"),
        "reddcoin": profile("reddcoin", consensus="PoS"),
        "bitcoin": profile("bitcoin"),
        "litecoin": profile("litecoin"),
    }
    ct = crosstab(a, profiles)
    pos_row = next(r for r in ct.rows if "peercoin" in r["coins"])
    assert pos_row["modal_share"]["consensus"] == 1.0
    assert pos_row["attributes"]["consensus"] == {"PoS": 2}


def test_crosstab_missing_profile():
    a = assignment_of([["x1", "x2"], ["y1", "y2"]])
    with pytest.raises(CoinclustError, match=r"^no profiles for \['x2', 'y1', 'y2'\]$"):
        crosstab(a, {"x1": profile("x1")})


def test_crosstab_conservation_and_weighting():
    a = assignment_of([["a", "b", "c"], ["d", "e"]])
    profiles = {c: profile(c, hashing=("H1" if c in "abc" else "H2")) for c in "abcde"}
    profiles["c"] = profile("c", hashing="H9")
    ct = crosstab(a, profiles)
    assert sum(r["size"] for r in ct.rows) == 5
    # cluster 1 share 2/3, cluster 2 share 1 -> weighted (3*(2/3) + 2*1)/5
    assert ct.purity["hashing_algorithm"] == pytest.approx((3 * (2 / 3) + 2 * 1.0) / 5)


def test_crosstab_markdown_renders():
    a = assignment_of([["a", "b"], ["c", "d"]])
    profiles = {c: profile(c) for c in "abcd"}
    md = crosstab(a, profiles).to_markdown()
    assert "| cluster |" in md and "purity:" in md


# --- plots -------------------------------------------------------------------

def projection_for(a):
    rng = np.random.default_rng(0)
    return Projection3D(
        coin_ids=list(a.coin_ids),
        coords=rng.standard_normal((len(a.coin_ids), 3)),
        explained_variance_ratio=np.array([0.5, 0.3, 0.1]),
        component_loadings=np.zeros((3, 5)),
    )


def test_emit_plots_writes_csv_and_svg(tmp_path):
    a = assignment_of([["a", "b"], ["c", "d"], ["e", "f"]])
    files = emit_plots(projection_for(a), a, tmp_path)
    csv_path = next(p for p in files if p.suffix == ".csv")
    svg_path = next(p for p in files if p.suffix == ".svg")
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "coin_id,pc1,pc2,pc3,cluster_id"
    assert len(lines) == 7
    assert len({line.split(",")[-1] for line in lines[1:]}) == 3
    for line in lines[1:]:  # plain decimal floats, parseable back
        fields = line.split(",")
        assert [float(f) for f in fields[1:4]]
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and svg.count("<circle") == 18  # 6 coins x 3 panels


def test_emit_plots_empty_assignment(tmp_path):
    empty = ClusterAssignment(coin_ids=[], labels=[], k=0, eigenvalues=np.zeros(0), seed=0)
    proj = Projection3D(coin_ids=[], coords=np.zeros((0, 3)),
                        explained_variance_ratio=np.zeros(3), component_loadings=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        emit_plots(proj, empty, tmp_path)
    assert not list(tmp_path.iterdir())


def test_emit_plots_deterministic(tmp_path):
    a = assignment_of([["a", "b"], ["c", "d"]])
    proj = projection_for(a)
    first = emit_plots(proj, a, tmp_path / "one")
    second = emit_plots(proj, a, tmp_path / "two")
    for f1, f2 in zip(first, second):
        assert f1.read_bytes() == f2.read_bytes()


# --- report_run -----------------------------------------------------------------

def synthetic_dataset(metric, coins_groups, seed0=0, n=300):
    """Small dataset with detectable group structure."""
    series, profiles = {}, {}
    seed = seed0
    for g, coins in enumerate(coins_groups):
        for coin in coins:
            base = 10.0 ** g
            walk = np.abs(random_walk(n, seed=seed, scale=0.1 * base, start=5 * base)) + base
            series[coin] = make_series(walk)
            profiles[coin] = profile(coin, hashing=f"H{g}")
            seed += 1
    return Dataset(metric=metric, series=series, profiles=profiles)


def three_metric_datasets():
    groups = [["a1", "a2", "a3"], ["b1", "b2", "b3"], ["c1", "c2", "c3"]]
    return {
        m.value: synthetic_dataset(m, groups, seed0=i * 10)
        for i, m in enumerate([Metric.PRICE, Metric.BLOCK_TIME, Metric.BLOCK_SIZE])
    }


def test_report_run_three_sections():
    report = report_run(three_metric_datasets(), RunConfig(k_max=3, spectrum_bins=50))
    assert sorted(report.sections) == sorted(m.value for m in Metric)
    for section in report.sections.values():
        assert section.error is None
        assert section.assignment.k >= 2


def test_report_run_partial_metrics():
    datasets = three_metric_datasets()
    del datasets[Metric.BLOCK_SIZE.value]
    report = report_run(datasets, RunConfig(k_max=3, spectrum_bins=50))
    assert len(report.sections) == 2


def test_report_run_deterministic_json():
    cfg = RunConfig(k_max=3, spectrum_bins=50)
    a = report_run(three_metric_datasets(), cfg).to_json()
    b = report_run(three_metric_datasets(), cfg).to_json()
    assert a == b


def test_report_markdown_contains_sections():
    report = report_run(three_metric_datasets(), RunConfig(k_max=3, spectrum_bins=50))
    md = report.to_markdown()
    for metric in (m.value for m in Metric):
        assert metric in md
