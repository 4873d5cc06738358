"""Run configuration shared by the CLI commands and the report bundle.

Precedence is flags > config file > defaults; the file is JSON with keys
matching the field names below.  The effective configuration is echoed
verbatim into every report so a run can be reproduced from its output.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .characteristics import CharacteristicsConfig
from .clustering import DEFAULT_K_MAX, DEFAULT_SEED
from .ingest import Metric
from .spectrum import DEFAULT_BINS

ALL_METRICS = [m.value for m in Metric]


@dataclass
class RunConfig:
    data_dir: str = "data/snapshot"
    profiles_path: str = ""  # default: <data_dir>/profiles.txt
    metrics: list[str] = field(default_factory=lambda: list(ALL_METRICS))
    spectrum_bins: int = DEFAULT_BINS
    k_max: int = DEFAULT_K_MAX
    seed: int = DEFAULT_SEED
    sigma: float | None = None  # similarity bandwidth override
    min_series_len: int = 30
    dfa_min_window: int = 4
    dfa_max_window_frac: float = 0.25
    embedding_dim: int = 3
    embedding_delay: int = 1
    lyapunov_max_fit_steps: int | None = None
    output_dir: str = "out"

    def resolved_profiles_path(self) -> Path:
        return Path(self.profiles_path) if self.profiles_path else Path(self.data_dir) / "profiles.txt"

    def characteristics(self) -> CharacteristicsConfig:
        return CharacteristicsConfig(
            dfa_min_window=self.dfa_min_window,
            dfa_max_window_frac=self.dfa_max_window_frac,
            embedding_dim=self.embedding_dim,
            embedding_delay=self.embedding_delay,
            lyapunov_max_fit_steps=self.lyapunov_max_fit_steps,
        )

    def as_dict(self) -> dict:
        return asdict(self)


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Merge defaults, an optional JSON config file, and explicit overrides."""
    values: dict = {}
    if path is not None:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        known = {f.name for f in fields(RunConfig)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    return RunConfig(**values)
