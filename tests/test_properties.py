"""Property tests: library routes against the naive oracles on drawn inputs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from coinclust.characteristics import nearest_outside_window

from oracles import nearest_outside_window_naive


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(200, 300),
    decimals=st.integers(0, 4),
    level=st.sampled_from([0.0, 1.0, 1e4]),
    theiler=st.integers(1, 40),
)
def test_neighbor_search_matches_oracle_on_rounded_series(seed, n, decimals, level, theiler):
    x = np.round(level + np.cumsum(np.random.default_rng(seed).standard_normal(n)), decimals)
    points = np.column_stack([x[:-2], x[1:-1], x[2:]])
    tol2 = (1e-9 * float(np.std(x))) ** 2
    got = nearest_outside_window(points, theiler, tol2)
    assert got.tolist() == nearest_outside_window_naive(points, theiler, tol2)
