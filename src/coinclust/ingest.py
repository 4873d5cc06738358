"""File-based loading of per-coin daily series and mechanism profiles.

Series live in one CSV per coin and metric, named ``<coin_id>.<metric>.csv``
with header ``date,value`` (``YYYY-MM-DD`` dates, decimal values).
Mechanism profiles live in a single key/value text file, one block per
coin; see ``docs/data_formats.md`` for the exact grammar.

There is no live fetching: the upstream chart site has no stable API, so
ingestion is file-based and ``source_url`` only documents where the numbers
conventionally come from.
"""

from __future__ import annotations

import csv
import enum
import hashlib
import io
import math
from dataclasses import MISSING, dataclass, field, fields
from datetime import date
from pathlib import Path

import numpy as np

from .errors import CoinclustError, NoSeriesLoadedError


class Metric(str, enum.Enum):
    PRICE = "price_usd"
    BLOCK_TIME = "block_time_minutes"
    BLOCK_SIZE = "block_size_bytes"


class Consensus(str, enum.Enum):
    POW = "PoW"
    POS = "PoS"
    OTHER = "other"


class BlockSizeLimitKind(str, enum.Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"
    NONE = "none"


class Governance(str, enum.Enum):
    PUBLIC = "public"
    PRIVATE = "private"


@dataclass
class Series:
    """One coin, one metric: the retained daily values, in date order."""

    values: np.ndarray
    drop_count: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    def __len__(self) -> int:
        return self.values.size


@dataclass
class MechanismProfile:
    """Blockchain mechanism attributes of one coin."""

    coin_id: str
    consensus: Consensus
    hashing_algorithm: str
    block_size_limit_kind: BlockSizeLimitKind
    governance: Governance
    fork_origin: str | None = None
    difficulty_adjustment_blocks: int | None = None
    target_block_time_minutes: float | None = None
    block_size_limit_bytes: float | None = None


@dataclass
class Dataset:
    """All loadable series for one metric, plus every coin's profile.

    Coins may legitimately lack a series for a metric (they are listed in
    ``missing``), but every loaded series must have a profile.
    """

    metric: Metric
    series: dict[str, Series]
    profiles: dict[str, MechanismProfile]
    missing: list[str] = field(default_factory=list)
    fingerprints: dict[str, str] = field(default_factory=dict)

    def coin_ids(self) -> list[str]:
        return sorted(self.series)


def read_utf8(path: Path, error: type[CoinclustError] = CoinclustError) -> str:
    """The file's text; bytes that are not UTF-8 raise ``error`` naming the file."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path.name}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_series(path, metric: Metric) -> Series:
    """Load and validate one series CSV; the result keeps only the values.

    Every date is parsed and checked, but only the last kept row's date is
    held, for the strictly-increasing check.  Rows whose value field is
    empty or non-numeric (including NaN/inf tokens) are dropped and counted
    in ``Series.drop_count``.  Structural problems (wrong field count, bad
    header, a date not written ``YYYY-MM-DD``, a field the CSV reader
    refuses), a date not after the last kept row's and a value of the wrong
    sign (a negative price, a block metric <= 0) raise instead.  Every error
    message starts with the file name; a row error goes on with
    ``:<line>:``.  Only the format is checked here: a series too short to
    use is excluded per coin by ``compute_characteristics``.
    """
    path = Path(path)
    last: date | None = None
    values: list[float] = []
    dropped = 0
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise CoinclustError(f"{path.name}:{reader.line_num}: {exc}") from None
    if not rows:
        raise CoinclustError(f"{path.name}: empty file")
    header = rows[0]
    if [h.strip().lower() for h in header] != ["date", "value"]:
        raise CoinclustError(f"{path.name}: expected header 'date,value', got {header!r}")
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise CoinclustError(f"{path.name}:{lineno}: expected 2 fields, got {len(row)}")
        text = row[0].strip()
        try:
            # YYYY-MM-DD only: fromisoformat also takes 20190101 and 2019-W01-1 from Python 3.11
            if len(text) != 10 or text[4] != "-" or text[7] != "-":
                raise ValueError
            day = date.fromisoformat(text)
        except ValueError:
            raise CoinclustError(f"{path.name}:{lineno}: bad date {row[0]!r}") from None
        raw = row[1].strip()
        try:
            value = float(raw)
        except ValueError:
            dropped += 1
            continue
        if not math.isfinite(value):
            dropped += 1
            continue
        if last is not None and day <= last:
            raise CoinclustError(
                f"{path.name}:{lineno}: dates not strictly increasing ({day} after {last})"
            )
        if metric is Metric.PRICE and value < 0:
            raise CoinclustError(f"{path.name}:{lineno}: negative price {raw}")
        if metric is not Metric.PRICE and value <= 0:
            raise CoinclustError(
                f"{path.name}:{lineno}: {metric.value} must be strictly positive, got {raw}"
            )
        last = day
        values.append(value)
    return Series(values, drop_count=dropped)


# A profile key is a MechanismProfile field; it is required when the field
# has no default.
_PROFILE_KEYS = tuple(f.name for f in fields(MechanismProfile))
_REQUIRED_KEYS = tuple(f.name for f in fields(MechanismProfile) if f.default is MISSING)


def _profile_from_block(block: dict[str, str], lines: dict[str, int], source: str) -> MechanismProfile:
    """The profile of one block; ``lines`` holds each key's line in ``source``.

    Every error starts with ``<source>:<line>:``, the offending key's line,
    or the block's first line for a missing key.
    """
    first = min(lines.values())
    coin = block.get("coin_id", "<unknown>")

    def at(key=None) -> str:
        return f"{source}:{lines.get(key, first)}: {coin}"

    for key in _REQUIRED_KEYS:
        if key not in block:
            raise CoinclustError(f"{at()}: missing required field {key!r}")
    unknown = [key for key in block if key not in _PROFILE_KEYS]
    if unknown:
        raise CoinclustError(f"{at(unknown[0])}: unknown profile keys {sorted(unknown)}")

    def optional(key):
        tok = block.get(key, "none")
        return None if tok == "none" else tok

    def member(enum_cls, key):
        for value in enum_cls:
            if value.value == block[key]:
                return value
        allowed = ", ".join(m.value for m in enum_cls)
        raise CoinclustError(f"{at(key)}: {key}={block[key]!r} not one of {{{allowed}}}")

    def positive(key, cast):
        """The key's positive finite value (nan fails the test too), or None."""
        tok = optional(key)
        if tok is None:
            return None
        try:
            value = cast(tok)
        except ValueError:
            value = None
        if value is None or not 0 < value < np.inf:
            kind = "integer" if cast is int else "finite number"
            raise CoinclustError(f"{at(key)}: {key} must be a positive {kind}, got {tok!r}")
        return value

    diff = positive("difficulty_adjustment_blocks", int)
    target = positive("target_block_time_minutes", float)
    limit_bytes = positive("block_size_limit_bytes", float)

    return MechanismProfile(
        coin_id=coin,
        fork_origin=optional("fork_origin"),
        consensus=member(Consensus, "consensus"),
        hashing_algorithm=block["hashing_algorithm"],
        difficulty_adjustment_blocks=diff,
        target_block_time_minutes=target,
        block_size_limit_kind=member(BlockSizeLimitKind, "block_size_limit_kind"),
        block_size_limit_bytes=limit_bytes,
        governance=member(Governance, "governance"),
    )


def load_profiles(path) -> dict[str, MechanismProfile]:
    """Parse the mechanism-profiles file: blank-line-separated key/value
    blocks, ``#`` comment lines allowed anywhere.  Every error message
    starts with the file name; a line, key or block error goes on with
    ``:<line>:``."""
    path = Path(path)
    profiles: dict[str, MechanismProfile] = {}
    block: dict[str, str] = {}
    lines: dict[str, int] = {}

    def flush():
        if not block:
            return
        profile = _profile_from_block(block, lines, path.name)
        if profile.coin_id in profiles:
            raise CoinclustError(
                f"{path.name}:{min(lines.values())}: duplicate coin_id {profile.coin_id!r}"
            )
        profiles[profile.coin_id] = profile
        block.clear()
        lines.clear()

    for lineno, raw in enumerate(io.StringIO(read_utf8(path), newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            flush()
            continue
        if ":" not in line:
            raise CoinclustError(f"{path.name}:{lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key in block:
            raise CoinclustError(f"{path.name}:{lineno}: repeated key {key!r} in block")
        block[key] = value
        lines[key] = lineno
    flush()
    return profiles


def build_dataset(series_dir, profiles_path, metric: Metric) -> Dataset:
    """Load every ``<coin_id>.<metric>.csv`` under ``series_dir``.

    Coins that have a profile but no file for this metric are reported in
    ``Dataset.missing``, not treated as errors.  A file for a coin without
    a profile is an error.
    """
    series_dir = Path(series_dir)
    profiles = load_profiles(profiles_path)
    suffix = f".{metric.value}.csv"
    series: dict[str, Series] = {}
    fingerprints = {Path(profiles_path).name: _sha256(profiles_path)}
    for path in sorted(series_dir.glob(f"*{suffix}")):
        coin_id = path.name[: -len(suffix)]
        if coin_id not in profiles:
            raise CoinclustError(f"{path.name}: no profile for coin {coin_id!r}")
        series[coin_id] = load_series(path, metric)
        fingerprints[path.name] = _sha256(path)
    if not series:
        raise NoSeriesLoadedError(f"no {metric.value} series found in {series_dir}")
    missing = sorted(c for c in profiles if c not in series)
    return Dataset(metric=metric, series=series, profiles=profiles, missing=missing, fingerprints=fingerprints)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def source_url(coin_id: str, metric: Metric) -> str:
    """The conventional upstream chart URL for one coin and metric.

    Documentation only; nothing in this package performs network fetches.
    The site exposes per-metric chart pages of the form
    ``https://bitinfocharts.com/comparison/<chart>-<coin>.html``.
    """
    chart = {
        Metric.PRICE: "price",
        Metric.BLOCK_TIME: "confirmationtime",
        Metric.BLOCK_SIZE: "size",
    }[metric]
    return f"https://bitinfocharts.com/comparison/{chart}-{coin_id}.html"
