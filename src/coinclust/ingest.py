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
import hashlib
import io
import math
import re
from dataclasses import MISSING, dataclass, field, fields
from datetime import date
from pathlib import Path

import numpy as np

from .errors import CoinclustError, NoSeriesLoadedError


# Each metric's name, also its file-name suffix, and its upstream chart page.
# Every command processes the metrics in this order.
METRICS = {
    "price_usd": "price",
    "block_time_minutes": "confirmationtime",
    "block_size_bytes": "size",
}


def _check_metric(metric: str) -> str:
    if metric not in METRICS:  # the CLI and RunConfig pass no other name: a bug
        raise ValueError(f"unknown metric {metric!r}, expected one of {list(METRICS)}")
    return metric


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
    """Blockchain mechanism attributes of one coin: each token as written in
    the profiles file, a positive number, or None for an optional ``none``."""

    coin_id: str
    consensus: str
    hashing_algorithm: str
    block_size_limit_kind: str
    governance: str
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

    metric: str
    series: dict[str, Series]
    profiles: dict[str, MechanismProfile]
    missing: list[str] = field(default_factory=list)
    fingerprints: dict[str, str] = field(default_factory=dict)

    def coin_ids(self) -> list[str]:
        return sorted(self.series)


def read_utf8(path: Path, error: type[CoinclustError] = CoinclustError) -> str:
    """The file's text; bytes that are not UTF-8 raise ``error`` naming the file."""
    return decode_utf8(path, path.read_bytes(), error)


def decode_utf8(path: Path, data: bytes, error: type[CoinclustError] = CoinclustError) -> str:
    """``data``, the bytes of ``path``, as text, as ``read_utf8`` gives it."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path.name}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_series(path, metric: str) -> Series:
    """Load and validate one series CSV; the result keeps only the values.

    The file is read once (``parse_series`` takes bytes already read) and
    its text takes one of two routes with the same result.  A plain file
    (``_plain_values``: exactly the header ``date,value``, one
    ``YYYY-MM-DD,<value>`` row per LF-ended line, no quotes, nothing to
    drop and nothing to reject) is parsed as arrays.
    Every other file goes through the CSV reader row by row, which alone
    defines the drops and the messages below.

    Every date is parsed and checked, but only the last kept row's date is
    held, for the strictly-increasing check.  Rows whose value field is
    empty or non-numeric (including NaN/inf tokens) are dropped and counted
    in ``Series.drop_count``.  Structural problems (wrong field count, bad
    header, a date not written ``YYYY-MM-DD``, a field the CSV reader
    refuses), a date not after the last kept row's and a value of the wrong
    sign (a negative price, a block metric <= 0) raise instead.  A field
    the CSV reader refuses anywhere in the file is reported before any row
    error.  Every error message starts with the file name; a row error goes
    on with ``:<line>:``.  Only the format is checked here: a series too
    short to use is excluded per coin by ``compute_characteristics``.
    """
    path = Path(path)
    return parse_series(path, path.read_bytes(), metric)


def parse_series(path: Path, data: bytes, metric: str) -> Series:
    """``load_series`` of ``data``, the bytes read from ``path``."""
    text = decode_utf8(path, data)
    values = _plain_values(text, _check_metric(metric))
    return _row_series(path, text, metric) if values is None else Series(values)


def _number(token: str, kind=float) -> float:
    """``kind(token)``, or NaN when ``kind`` refuses the token or it is not
    ASCII without ``_`` (``int`` and ``float`` also take "2_016" and other
    scripts' digits)."""
    try:
        return kind(token) if token.isascii() and "_" not in token else math.nan
    except ValueError:
        return math.nan


def _row_series(path: Path, text: str, metric: str) -> Series:
    """The row loop of ``load_series``: the route of every file that is not
    plain, and the one definition of its drops and messages."""
    last: date | None = None
    values: list[float] = []
    dropped = 0
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = enumerate(reader, start=1)
    try:
        try:
            header = next(rows, (1, None))[1]
            if header is None:
                raise CoinclustError(f"{path.name}: empty file")
            if [h.strip().lower() for h in header] != ["date", "value"]:
                raise CoinclustError(f"{path.name}: expected header 'date,value', got {header!r}")
            for lineno, row in rows:
                if not row:
                    continue
                if len(row) != 2:
                    raise CoinclustError(f"{path.name}:{lineno}: expected 2 fields, got {len(row)}")
                stamp = row[0].strip()
                try:
                    # YYYY-MM-DD only: fromisoformat also takes 20190101 and 2019-W01-1 from Python 3.11
                    if len(stamp) != 10 or stamp[4] != "-" or stamp[7] != "-":
                        raise ValueError
                    day = date.fromisoformat(stamp)
                except ValueError:
                    raise CoinclustError(f"{path.name}:{lineno}: bad date {row[0]!r}") from None
                raw = row[1].strip()
                value = _number(raw)
                if not math.isfinite(value):
                    dropped += 1
                    continue
                if last is not None and day <= last:
                    raise CoinclustError(
                        f"{path.name}:{lineno}: dates not strictly increasing ({day} after {last})"
                    )
                if metric == "price_usd" and value < 0:
                    raise CoinclustError(f"{path.name}:{lineno}: negative price {raw}")
                if metric != "price_usd" and value <= 0:
                    raise CoinclustError(
                        f"{path.name}:{lineno}: {metric} must be strictly positive, got {raw}"
                    )
                last = day
                values.append(value)
            return Series(values, drop_count=dropped)
        except CoinclustError:
            for _ in rows:  # a field the reader refuses further on is reported instead
                pass
            raise
    except csv.Error as exc:
        raise CoinclustError(f"{path.name}:{reader.line_num}: {exc}") from None


_PLAIN_HEADER = "date,value\n"
_COLUMNS = np.arange(11)[:, None]
# Byte bounds of the first 11 columns of a plain row
_LOW = np.frombuffer(b"0000-00-00,", dtype=np.uint8)[:, None]
_HIGH = np.frombuffer(b"9999-19-39,", dtype=np.uint8)[:, None]
_FIRST_DAY = np.datetime64("0001-01-01")  # numpy has a year 0; date.fromisoformat has not


def _plain_values(text: str, metric: str) -> np.ndarray | None:
    """The values of a plain series file, or None for any other file.

    A plain file is ASCII with no ``"``, no CR and no ``_``: the header
    line is exactly ``date,value``, no line is blank, and every other line
    is ``YYYY-MM-DD,<value>`` with its only comma in column 11 and at most
    ``csv.field_size_limit()`` characters.  Its dates, real calendar dates
    by numpy's ``datetime64[D]`` from year 1 on, strictly increase, and its
    values (parsed by ``float``, which on such text is the row loop's
    ``_number``) are finite with the metric's sign.  On such a file the CSV
    reader sees two fields per line and the row loop keeps every row, so
    both routes give the same values; any other file, including every one
    that drops a row or raises, returns None and goes through the row loop.
    """
    if not text.startswith(_PLAIN_HEADER) or not text.isascii():
        return None
    if '"' in text or "\r" in text or "_" in text:
        return None
    # From the header's newline on, with a final one, so each row lies between two.
    body = text[len(_PLAIN_HEADER) - 1 :]
    if not body.endswith("\n"):
        body += "\n"
    buf = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    starts = newlines[:-1] + 1
    if starts.size == 0:
        return np.empty(0)
    lengths = newlines[1:] - starts  # a blank line has length 0
    if lengths.min() < 11 or lengths.max() > csv.field_size_limit():
        return None
    if np.count_nonzero(buf == ord(",")) != starts.size:
        return None
    head = buf[starts + _COLUMNS]  # head[j]: column j + 1 of every row
    if ((head < _LOW) | (head > _HIGH)).any():
        return None
    # ["", date, value, ..., date, value, ""]: numpy parses an empty string
    # as NaT, which no comparison catches, so the dates leave out both ends
    fields = body.replace("\n", ",").split(",")
    try:
        days = np.array(fields[1:-1:2], dtype="datetime64[D]")
        values = np.fromiter(map(float, fields[2::2]), float, starts.size)
    except ValueError:
        return None
    if days[0] < _FIRST_DAY or (days[1:] <= days[:-1]).any():
        return None
    if not np.isfinite(values).all():
        return None
    signed = values >= 0 if metric == "price_usd" else values > 0
    return values if signed.all() else None


# A profile key is a MechanismProfile field; it is required when the field
# has no default.
_PROFILE_KEYS = tuple(f.name for f in fields(MechanismProfile))
_REQUIRED_KEYS = tuple(f.name for f in fields(MechanismProfile) if f.default is MISSING)
# A coin id names files and is written unquoted into CSV, SVG and Markdown.
_COIN_ID = re.compile(r"[A-Za-z0-9_.-]+")
# What a key's token may be: one of a tuple's tokens, a positive int or float,
# or a match of a pattern.  Any other key takes a free token.  The keys are
# checked in this order, then the free ones.
_TOKENS = {
    "difficulty_adjustment_blocks": int,
    "target_block_time_minutes": float,
    "block_size_limit_bytes": float,
    "consensus": ("PoW", "PoS", "other"),
    "block_size_limit_kind": ("static", "dynamic", "none"),
    "governance": ("public", "private"),
    "fork_origin": _COIN_ID,
}
_CHECK_ORDER = (*_TOKENS, *(key for key in _PROFILE_KEYS if key not in _TOKENS))


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
    if not _COIN_ID.fullmatch(coin):
        raise CoinclustError(
            f"{source}:{lines['coin_id']}: coin_id={coin!r} may use only ASCII letters, digits, '_', '-' and '.'"
        )

    values = {}
    for key in _CHECK_ORDER:
        tok = block.get(key)
        if tok is None or (tok == "none" and key not in _REQUIRED_KEYS):
            continue  # the field's default, None
        if not tok:
            raise CoinclustError(f"{at(key)}: {key} must not be empty")
        rule = _TOKENS.get(key)
        if isinstance(rule, tuple) and tok not in rule:
            raise CoinclustError(f"{at(key)}: {key}={tok!r} not one of {{{', '.join(rule)}}}")
        if isinstance(rule, re.Pattern) and not rule.fullmatch(tok):
            raise CoinclustError(f"{at(key)}: {key}={tok!r} may use only ASCII letters, digits, '_', '-' and '.'")
        values[key] = tok
        if rule is int or rule is float:
            values[key] = _number(tok, rule)
            if not 0 < values[key] < math.inf:  # nan fails the test too
                kind = "integer" if rule is int else "finite number"
                raise CoinclustError(f"{at(key)}: {key} must be a positive {kind}, got {tok!r}")
    return MechanismProfile(**values)


def load_profiles(path) -> dict[str, MechanismProfile]:
    """Parse the mechanism-profiles file: blank-line-separated key/value
    blocks, ``#`` comment lines allowed anywhere.  Every error message
    starts with the file name; a line, key or block error goes on with
    ``:<line>:``."""
    path = Path(path)
    return parse_profiles(path, path.read_bytes())


def parse_profiles(path: Path, data: bytes) -> dict[str, MechanismProfile]:
    """``load_profiles`` of ``data``, the bytes read from ``path``."""
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

    for lineno, raw in enumerate(io.StringIO(decode_utf8(path, data), newline=None), start=1):
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


def build_dataset(series_dir, profiles_path, metric: str) -> Dataset:
    """Load every ``<coin_id>.<metric>.csv`` under ``series_dir``.

    Coins that have a profile but no file for this metric are reported in
    ``Dataset.missing``, not treated as errors.  A file for a coin without
    a profile is an error.
    """
    suffix = f".{_check_metric(metric)}.csv"
    series_dir, profiles_path = Path(series_dir), Path(profiles_path)
    data = profiles_path.read_bytes()
    profiles = parse_profiles(profiles_path, data)
    series: dict[str, Series] = {}
    fingerprints = {profiles_path.name: hashlib.sha256(data).hexdigest()}
    for path in sorted(series_dir.glob(f"*{suffix}")):
        coin_id = path.name[: -len(suffix)]
        if coin_id not in profiles:
            raise CoinclustError(f"{path.name}: no profile for coin {coin_id!r}")
        data = path.read_bytes()
        series[coin_id] = parse_series(path, data, metric)
        fingerprints[path.name] = hashlib.sha256(data).hexdigest()
    if not series:
        raise NoSeriesLoadedError(f"no {metric} series found in {series_dir}")
    missing = sorted(c for c in profiles if c not in series)
    return Dataset(metric=metric, series=series, profiles=profiles, missing=missing, fingerprints=fingerprints)


def source_url(coin_id: str, metric: str) -> str:
    """The conventional upstream chart URL for one coin and metric.

    Documentation only; nothing in this package performs network fetches.
    The site exposes per-metric chart pages of the form
    ``https://bitinfocharts.com/comparison/<chart>-<coin>.html``.
    """
    return f"https://bitinfocharts.com/comparison/{METRICS[_check_metric(metric)]}-{coin_id}.html"
