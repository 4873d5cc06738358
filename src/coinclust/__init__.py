"""Characteristic-based spectral clustering of daily crypto series."""

from .characteristics import (
    COLUMNS,
    CharacteristicVector,
    compute_characteristics,
)
from .clustering import (
    ClusterAssignment,
    FeatureMatrix,
    assemble_features,
    select_k_and_cluster,
    standardize,
)
from .config import RunConfig, load_config
from .ingest import (
    Dataset,
    MechanismProfile,
    Metric,
    Series,
    build_dataset,
    load_profiles,
    load_series,
)
from .projection import Projection3D, pca3
from .report import MechanismCrosstab, RunReport, crosstab, emit_plots, report_run
from .spectrum import PowerSpectrum, spectrum_feature

__all__ = [
    "COLUMNS",
    "CharacteristicVector",
    "ClusterAssignment",
    "Dataset",
    "FeatureMatrix",
    "MechanismCrosstab",
    "MechanismProfile",
    "Metric",
    "PowerSpectrum",
    "Projection3D",
    "RunConfig",
    "RunReport",
    "Series",
    "assemble_features",
    "build_dataset",
    "compute_characteristics",
    "crosstab",
    "emit_plots",
    "load_config",
    "load_profiles",
    "load_series",
    "pca3",
    "report_run",
    "select_k_and_cluster",
    "spectrum_feature",
    "standardize",
]
