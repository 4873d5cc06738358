"""Exception types: one class per way the program handles an error.

Bad input has two outcomes (see "Errors and exit codes" in
``docs/data_formats.md``).  A ``CoinclustError`` excludes a coin, fails a
metric, or ends a command with exit 1; a ``ConfigError`` is a usage error
(exit 2).  The message says what went wrong and where, so the two
subclasses below exist only because code branches on them.  Any other
exception is a bug and propagates as a traceback.
"""


class CoinclustError(Exception):
    """A data error: excludes its coin, fails its metric, or exits 1."""


class ConfigError(CoinclustError):
    """A run parameter has the wrong type or is out of range (a usage error)."""


class NoSeriesLoadedError(CoinclustError):
    """A dataset build found no series files; the CLI notes the metric and goes on."""


class DegenerateGeometryError(CoinclustError):
    """All pairwise distances are zero; the clustering halves the coins instead."""
