import importlib.util
from pathlib import Path

import numpy as np
import pytest

from coinclust.characteristics import COLUMNS, compute_characteristics
from coinclust.clustering import assemble_features, characteristics_by_metric
from coinclust.config import RunConfig
from coinclust.ingest import Series

REPO_ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT_DIR = REPO_ROOT / "data" / "snapshot"
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
# five snapshot coins whose price_usd series k = 2 splits without a singleton
FIVE_PRICE_COINS = ("bitcoin", "bitcoin_cash", "bitcoin_gold", "bitcoin_sv", "dash")


def make_series(values):
    return Series(values)


def characteristics_of(values) -> dict[str, float]:
    """The characteristics row of one series, keyed by its ``COLUMNS`` names."""
    [row] = compute_characteristics([make_series(values)])
    return dict(zip(COLUMNS, row.tolist()))


def features_of(dataset, config=None):
    """A dataset's feature matrix, computed as ``report_run`` computes it."""
    cfg = config or RunConfig()
    return assemble_features(dataset, cfg, characteristics_by_metric({dataset.metric: dataset}, cfg)[dataset.metric])


def load_module(relative: str):
    """A fresh import of a module of this repository outside ``src/``, such as
    ``perfbench/workloads.py``, named after its path."""
    spec = importlib.util.spec_from_file_location("_".join(Path(relative).with_suffix("").parts),
                                                  REPO_ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_files(workload: str, seed: int = 301) -> dict[str, bytes]:
    """The files of a synthetic benchmark set, made read-only by ``perfbench/workloads.py``."""
    workloads = load_module("perfbench/workloads.py")
    files, _ = workloads.synthesize(workloads.load_generator(REPO_ROOT), workload, seed)
    return files


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
