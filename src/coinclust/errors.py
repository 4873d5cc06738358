"""Exception types raised across the pipeline."""


class CoinclustError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(CoinclustError):
    """A run parameter has the wrong type or is out of range (a usage error)."""


# --- ingestion ---

class MalformedCsvError(CoinclustError):
    """A CSV row has the wrong structure (field count, bad date, bad header)."""


class NonPositiveValueError(CoinclustError):
    """A block metric value <= 0 or a negative price; treated as corrupt source data."""


class NonMonotoneDatesError(CoinclustError):
    """Dates are not strictly increasing."""


class ProfileParseError(CoinclustError):
    """A profiles-file line or value does not follow the documented grammar."""


class UnknownEnumTokenError(CoinclustError):
    """A profile field holds a token outside its allowed set."""


class DuplicateCoinError(CoinclustError):
    """The same coin_id appears twice in a profiles file."""


class MissingRequiredFieldError(CoinclustError):
    """A profile block is missing a required key."""


class NoSeriesLoadedError(CoinclustError):
    """A dataset build found no loadable series."""


class MissingProfileError(CoinclustError):
    """A coin has series data but no mechanism profile."""


# --- feature extraction ---

class TooShortError(CoinclustError):
    """Fewer values than the configured minimum series length."""


class TooShortForDfaError(CoinclustError):
    """Series too short for a stable fluctuation-analysis exponent."""


class TooShortForLyapunovError(CoinclustError):
    """Series too short for divergence-rate estimation."""


class NoValidNeighborsError(CoinclustError):
    """No embedded point has a positive-distance neighbor outside the temporal exclusion window."""


class TooShortForSpectrumError(CoinclustError):
    """Series too short for a meaningful periodogram."""


class FeatureError(CoinclustError):
    """A characteristic computation failed; message carries the field name."""


# --- clustering / projection ---

class NoUsableCoinsError(CoinclustError):
    """Every coin in the dataset failed feature extraction."""


class DegenerateGeometryError(CoinclustError):
    """All pairwise distances are zero; no similarity scale exists."""


class EigenFailureError(CoinclustError):
    """The eigensolver did not converge."""
