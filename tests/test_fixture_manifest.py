"""Regression anchors: the shipped snapshot against the frozen manifest.

The manifest values were produced by the independent oracle routines at
fixture-freeze time; the library must reproduce them (1e-12 for closed-form
characteristics, 1e-8 for the resampled spectrum).
"""

import json

import numpy as np
import pytest

from coinclust.characteristics import COLUMNS, compute_characteristics
from coinclust.ingest import load_series
from coinclust.spectrum import spectrum_feature

from conftest import FIXTURE_DIR, load_module


@pytest.fixture(scope="module")
def manifest():
    path = FIXTURE_DIR / "manifest.json"
    if not path.exists():
        pytest.skip("manifest not frozen")
    return json.loads(path.read_text())


def test_characteristics_match_manifest(manifest, snapshot_dir):
    entry = manifest["characteristics"]
    series = load_series(snapshot_dir / f"{entry['coin']}.{entry['metric']}.csv", entry["metric"])
    assert len(series) == entry["n"]
    [row] = compute_characteristics([series])
    for key in ("mean", "standard_deviation", "skewness", "kurtosis", "minimum", "VaR99", "VaR95",
                "lowerquant", "median", "upperquant", "maximum"):
        assert row[COLUMNS.index(key)] == pytest.approx(entry[key], rel=1e-12)


def test_spectrum_matches_manifest(manifest, snapshot_dir):
    entry = manifest["spectrum"]
    series = load_series(snapshot_dir / f"{entry['coin']}.{entry['metric']}.csv", entry["metric"])
    bins = spectrum_feature(series, k=len(entry["bins"]))
    assert np.allclose(bins, np.asarray(entry["bins"]), rtol=1e-8, atol=1e-12)


def test_generator_reproduces_the_snapshot(snapshot_dir, tmp_path, monkeypatch):
    """The generator writes exactly the 51 series CSVs; profiles.txt is curated data it never writes."""
    generator = load_module("tools/make_snapshot.py")
    monkeypatch.setattr(generator, "OUT", tmp_path)
    generator.generate()
    names = sorted(p.name for p in tmp_path.iterdir())
    assert not (tmp_path / "profiles.txt").exists()
    assert len(names) == 51
    assert names == sorted(p.name for p in snapshot_dir.glob("*.csv"))
    for name in names:
        assert (tmp_path / name).read_bytes() == (snapshot_dir / name).read_bytes(), name
