"""Three-component principal projection of the standardized feature matrix.

Used only for the visualization outputs; clustering never depends on it.
The sign of each component is pinned (largest-magnitude loading positive)
so repeated runs emit identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import FeatureMatrix

N_COMPONENTS = 3


@dataclass
class Projection3D:
    coords: np.ndarray                    # m x 3, rows in the matrix's coin order
    explained_variance_ratio: np.ndarray  # 3 values, non-increasing
    component_loadings: np.ndarray        # 3 x D
    rank_deficient: bool = False


def pca3(matrix: FeatureMatrix) -> Projection3D:
    """Project rows onto the top three right singular directions.

    Columns are centered (a standardized matrix already is, up to round-off)
    and the data is decomposed by SVD.  If fewer than three non-zero
    singular values exist the missing components are zero-padded and the
    result flagged rank-deficient.
    """
    x = np.asarray(matrix.rows, dtype=float)
    m, d = x.shape
    if m < 4:
        raise ValueError(f"need at least 4 rows for a meaningful projection, got {m}")
    x = x - x.mean(axis=0)
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    total = float((s**2).sum())
    tol = (s[0] if s.size else 0.0) * max(m, d) * np.finfo(float).eps
    rank = int(np.sum(s > tol))

    loadings = np.zeros((N_COMPONENTS, d))
    ratio = np.zeros(N_COMPONENTS)
    take = min(N_COMPONENTS, rank)
    loadings[:take] = vt[:take]
    if total > 0.0:
        ratio[:take] = (s[:take] ** 2) / total
    for i in range(take):
        j = int(np.argmax(np.abs(loadings[i])))
        if loadings[i, j] < 0.0:
            loadings[i] = -loadings[i]
    coords = x @ loadings.T
    return Projection3D(
        coords=coords,
        explained_variance_ratio=ratio,
        component_loadings=loadings,
        rank_deficient=rank < N_COMPONENTS,
    )
