from pathlib import Path

import numpy as np
import pytest

from coinclust.ingest import Series

REPO_ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT_DIR = REPO_ROOT / "data" / "snapshot"
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"


def make_series(values):
    return Series(values)


def random_walk(n, seed, scale=1.0, start=0.0):
    rng = np.random.default_rng(seed)
    return start + scale * np.cumsum(rng.standard_normal(n))


def white_noise(n, seed, scale=1.0):
    return scale * np.random.default_rng(seed).standard_normal(n)


@pytest.fixture
def snapshot_dir():
    if not SNAPSHOT_DIR.exists():
        pytest.skip("frozen snapshot not present")
    return SNAPSHOT_DIR
