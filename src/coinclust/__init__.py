"""Characteristic-based spectral clustering of daily crypto series.

The command line (``coinclust.cli``) is the interface.  The package
re-exports nothing: import each module as ``coinclust.<module>``.
"""
