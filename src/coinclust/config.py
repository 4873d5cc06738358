"""Run configuration shared by the CLI commands and the report bundle.

``RunConfig`` is the one parameter object: the CLI fills it, and the
estimators, the feature assembly and the clustering read it.  Each default
is written once, here or as the module constant a field takes it from.
Precedence is flags > config file > defaults; the file is JSON with keys
matching the field names below.  Every report echoes the effective
configuration without its paths (data, profiles and output), so a run can
be reproduced from its output and its input fingerprints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .ingest import METRICS, read_utf8
from .spectrum import DEFAULT_BINS

DEFAULT_K_MAX = 6
DEFAULT_SEED = 42
# The fields that name files; a report echoes every field but these.
PATH_FIELDS = ("data_dir", "profiles_path", "output_dir")

# Smallest accepted value of each integer field.
_INT_MINIMUM = {
    "spectrum_bins": 2,  # resample_spectrum refuses fewer bins
    "k_max": 2,
    "seed": 0,
    "min_series_len": 1,
    "dfa_min_window": 3,  # a line through 2 points leaves no fluctuation
    "embedding_dim": 1,
    "embedding_delay": 1,
    "lyapunov_max_fit_steps": 3,  # the divergence fit needs 3 steps
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    try:
        return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


@dataclass
class RunConfig:
    data_dir: str = "data/snapshot"
    profiles_path: str = ""  # default: <data_dir>/profiles.txt
    metrics: list[str] = field(default_factory=lambda: list(METRICS))
    spectrum_bins: int = DEFAULT_BINS
    k_max: int = DEFAULT_K_MAX
    seed: int = DEFAULT_SEED
    sigma: float | None = None  # similarity bandwidth override
    min_series_len: int = 30
    dfa_min_window: int = 4
    dfa_max_window_frac: float = 0.25
    embedding_dim: int = 3
    embedding_delay: int = 1
    lyapunov_max_fit_steps: int | None = None  # None: chosen from n by chaos_lyapunov
    output_dir: str = "out"

    def __post_init__(self):
        """Reject wrongly typed or out-of-range values before any work starts."""
        for name in PATH_FIELDS:
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string, got {getattr(self, name)!r}")
        if not (isinstance(self.metrics, list) and self.metrics
                and all(isinstance(m, str) and m in METRICS for m in self.metrics)):
            raise ConfigError(f"metrics must be a non-empty list drawn from {list(METRICS)}, "
                              f"got {self.metrics!r}")
        # each metric once, in METRICS order, however the flags spelled the set
        self.metrics = [m for m in METRICS if m in self.metrics]
        for name, low in _INT_MINIMUM.items():
            value = getattr(self, name)
            if name == "lyapunov_max_fit_steps" and value is None:
                continue
            if not _is_int(value) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        # similarity_matrix divides by 2*sigma*sigma, which must not round to 0 or inf
        if self.sigma is not None and not (_is_real(self.sigma) and self.sigma > 0
                                           and 0 < 2.0 * self.sigma * self.sigma < math.inf):
            raise ConfigError(f"sigma must be a positive number whose 2*sigma**2 is a positive "
                              f"finite float, got {self.sigma!r}")
        if not (_is_real(self.dfa_max_window_frac) and 0 < self.dfa_max_window_frac <= 1):
            raise ConfigError(f"dfa_max_window_frac must be a number in (0, 1], "
                              f"got {self.dfa_max_window_frac!r}")

    def resolved_profiles_path(self) -> Path:
        return Path(self.profiles_path) if self.profiles_path else Path(self.data_dir) / "profiles.txt"


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Merge defaults, an optional JSON config file, and explicit overrides."""
    values: dict = {}
    if path is not None:
        path = Path(path)
        try:
            raw = json.loads(read_utf8(path, ConfigError))
        except OSError as exc:
            raise ConfigError(f"{path.name}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path.name}:{exc.lineno}: malformed JSON: {exc.msg}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path.name}: expected a JSON object of config keys")
        unknown = set(raw) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ConfigError(f"{path.name}: unknown config keys: {sorted(unknown)}")
        values.update(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    return RunConfig(**values)
